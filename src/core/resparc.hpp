// ResparcChip: the top-level facade of the architecture model.
//
// Bundles configuration, mapping and execution behind one call sequence:
//
//   ResparcChip chip(config);
//   chip.load(topology);                 // compiles the SNN onto the fabric
//   RunReport r = chip.execute(traces);  // replays functional spike traces
//
// load(topology) is a thin wrapper over the compile layer with the "paper"
// strategy; a pre-compiled (possibly deserialized) program loads directly:
//
//   auto program = compile::Compiler(config).compile(topology, "greedy-pack");
//   chip.load(topology, program);
//
// The chip also provides the implementation-metric roll-up that reproduces
// the paper's Fig. 8 table (area / power / gate count / frequency of one
// NeuroCell).
#pragma once

#include <memory>
#include <optional>
#include <span>

#include "compile/program.hpp"
#include "core/config.hpp"
#include "core/executor.hpp"
#include "core/mapper.hpp"
#include "snn/topology.hpp"
#include "snn/trace.hpp"

namespace resparc::core {

/// Implementation metrics of one NeuroCell (paper Fig. 8).
struct NeuroCellMetrics {
  double area_mm2 = 0.0;
  double power_mw = 0.0;      ///< peak dynamic power at full activity
  double gate_count = 0.0;
  double frequency_mhz = 0.0;
  std::size_t mpe_count = 0;
  std::size_t switch_count = 0;
  std::size_t mcas_per_mpe = 0;
};

/// Computes the Fig. 8 metric roll-up for a configuration.
NeuroCellMetrics neurocell_metrics(const ResparcConfig& config);

/// A configured RESPARC chip that can host one network at a time.
class ResparcChip {
 public:
  /// `fidelity` selects the Ml-NoC timing model replays use: `analytic`
  /// (default) reproduces the flat per-word charges bit-for-bit, `event`
  /// adds switch-FIFO queueing and congestion stalls (docs/noc.md).
  explicit ResparcChip(ResparcConfig config,
                       noc::Fidelity fidelity = noc::Fidelity::kAnalytic);

  const ResparcConfig& config() const { return config_; }

  /// The NoC timing fidelity this chip executes with.
  noc::Fidelity fidelity() const { return fidelity_; }

  /// Compiles `topology` onto the fabric with the "paper" strategy
  /// (replacing any previous network) and returns the mapping for
  /// inspection.  The topology is copied.  Bit-for-bit equivalent to the
  /// pre-compiler core::map_network path.
  const Mapping& load(const snn::Topology& topology);

  /// Hosts a pre-compiled program (freshly compiled or deserialized).
  /// Throws compile::CompileError when the program's config fingerprint
  /// does not match this chip or the program does not implement
  /// `topology`.  The topology and program are copied.
  const Mapping& load(const snn::Topology& topology,
                      compile::CompiledProgram program);

  /// True once a network is loaded.
  bool loaded() const { return program_.has_value(); }

  /// Mapping of the loaded network; throws if none is loaded.
  const Mapping& mapping() const;

  /// Compiled program hosting the loaded network; throws if none is loaded.
  const compile::CompiledProgram& program() const;

  /// Replays one spike trace (must match the loaded topology).
  RunReport execute(const snn::SpikeTrace& trace) const;

  /// Replays a set of traces; energy/perf averaged per classification.
  /// When `stream` is non-null, each presentation's per-timestep event
  /// stream is merged into it; the report is the same either way.
  RunReport execute(std::span<const snn::SpikeTrace> traces,
                    EventStream* stream = nullptr) const;

 private:
  ResparcConfig config_;
  noc::Fidelity fidelity_ = noc::Fidelity::kAnalytic;
  std::optional<snn::Topology> topology_;
  std::optional<compile::CompiledProgram> program_;
  std::unique_ptr<Executor> executor_;
};

}  // namespace resparc::core
