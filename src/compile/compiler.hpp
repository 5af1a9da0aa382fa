// Compiler: lowers an SNN topology onto the MCA fabric as a pass pipeline.
//
// Where core::map_network is one hard-wired algorithm, the compiler makes
// the topology→fabric seam explicit and pluggable:
//
//   legalize        validate the topology against the configuration
//                   (non-empty layers, every layer physically mappable)
//   tile            strategy: cut each layer into MCA groups
//   place           strategy: assign MCAs to mPEs and NeuroCells
//   route-estimate  count serial-bus boundaries and score the candidate
//                   with the analytic cost model (cost_model.hpp)
//   verify          mandatory static verification (src/verify): the
//                   emitted program is rejected with verify::VerifyError
//                   when any structural/capacity/consistency invariant
//                   is violated (docs/verification.md)
//
// and emits a CompiledProgram — a serializable artifact that
// api::ResparcBackend loads directly:
//
//   compile::Compiler compiler(config);
//   auto program = compiler.compile(topology, "greedy-pack");
//   backend.load_program(topology, program);
//
// compile(topology, "auto") scores every registered strategy and keeps the
// lowest energy-delay product.
#pragma once

#include <string>

#include "compile/program.hpp"
#include "compile/strategy.hpp"
#include "core/config.hpp"
#include "snn/topology.hpp"

namespace resparc::compile {

/// Compilation knobs beyond the strategy choice.
struct CompileOptions {
  /// Assumed spikes/neuron/step for the analytic cost model.
  double activity = 0.10;
};

/// Runs the legalize → tile → place → route-estimate pass pipeline for
/// one chip configuration and emits CompiledPrograms.
class Compiler {
 public:
  /// Builds a compiler for `config` (validated on first compile).
  explicit Compiler(core::ResparcConfig config, CompileOptions options = {});

  /// The configuration programs are compiled (and fingerprinted) for.
  const core::ResparcConfig& config() const { return config_; }

  /// Runs the pass pipeline with the named strategy ("auto" selects the
  /// best-scoring registered strategy).  Throws CompileError for unknown
  /// strategies, MappingError when the topology cannot be lowered, and
  /// verify::VerifyError when the strategy emits a program that fails
  /// the mandatory static verification post-pass.
  CompiledProgram compile(const snn::Topology& topology,
                          const std::string& strategy = "paper") const;

  /// Compiles with every registered strategy and returns the program with
  /// the lowest cost score (energy-delay product per timestep).
  CompiledProgram compile_best(const snn::Topology& topology) const;

 private:
  CompiledProgram run_passes(const snn::Topology& topology,
                             const MappingStrategy& strategy) const;

  core::ResparcConfig config_;
  CompileOptions options_;
};

}  // namespace resparc::compile
