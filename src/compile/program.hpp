// CompiledProgram: the self-contained artifact emitted by compile::Compiler.
//
// A program bundles everything `api::ResparcBackend` needs to host a
// network — the crossbar Mapping, the fingerprint of the config it
// was compiled for, the strategy that produced it, an analytic cost
// estimate and a per-layer utilisation report — so a network compiled once
// can be executed many times or round-tripped through a file:
//
//   compile::Compiler compiler(config);
//   compile::CompiledProgram p = compiler.compile(topology, "greedy-pack");
//   p.save_file("mnist.rcp");
//   ...
//   auto q = compile::CompiledProgram::load_file("mnist.rcp", config);
//   backend.load_program(topology, q);  // rejects a foreign fingerprint
//
// The on-disk format is a versioned line-oriented text format; doubles are
// written as hexfloats so a round trip is bit-exact.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/config.hpp"
#include "core/mapper.hpp"
#include "noc/route.hpp"
#include "snn/topology.hpp"

namespace resparc::compile {

/// Thrown when a serialized program is malformed or does not match the
/// configuration it is being loaded against.
class CompileError : public Error {
 public:
  /// Wraps `what` with the "compile error:" prefix; `code` (optional) is
  /// the machine-readable diagnostic code (docs/verification.md).
  explicit CompileError(const std::string& what, std::string code = {})
      : Error("compile error: " + what, std::move(code)) {}
};

/// One row of the per-layer utilisation report.
struct LayerUtilization {
  std::size_t layer = 0;       ///< index into Topology::layers()
  std::string kind;            ///< "dense" / "conv" / "avgpool"
  std::size_t mcas = 0;        ///< crossbar arrays deployed for the layer
  std::size_t mpes = 0;        ///< mPEs the arrays occupy
  std::size_t synapses = 0;    ///< programmed crosspoints
  double utilization = 0.0;    ///< synapses / (mcas * N^2)
};

/// Analytic score of one candidate mapping (cost_model.hpp): estimated
/// per-timestep energy and cycles at an assumed input activity, plus the
/// static quantities the estimate derives from.
struct CostEstimate {
  double energy_pj_per_step = 0.0;   ///< estimated energy per timestep
  double cycles_per_step = 0.0;      ///< estimated pipelined cycles/timestep
  double utilization = 0.0;          ///< whole-chip crossbar utilisation
  std::size_t bus_boundaries = 0;    ///< layer boundaries on the serial bus
  std::size_t total_mcas = 0;        ///< deployed crossbar arrays
  std::size_t total_neurocells = 0;  ///< occupied NeuroCells
  double activity = 0.0;             ///< assumed spikes/neuron/step

  /// Scalar used to rank candidates: energy-delay product per timestep.
  double score() const { return energy_pj_per_step * cycles_per_step; }
};

/// The compiler's output artifact.
struct CompiledProgram {
  std::string strategy;              ///< registry key that produced it
  std::string topology_name;         ///< Topology::name() of the source
  std::string topology_summary;      ///< Topology::summary(), checked on load
  std::uint64_t config_fingerprint = 0;  ///< ResparcConfig::fingerprint()
  core::Mapping mapping;             ///< the placed crossbar mapping
  /// Per-boundary Ml-NoC routes from the compiler's routing pass
  /// (docs/noc.md); layer_count + 1 entries once compiled.
  noc::RouteTable routes;
  CostEstimate cost;                 ///< analytic score of this mapping
  std::vector<LayerUtilization> report;  ///< per-layer utilisation rows

  /// Writes the program in the versioned text format.
  void save(std::ostream& os) const;
  /// Convenience: save(ofstream); returns false when the file cannot be
  /// opened or written.
  bool save_file(const std::string& path) const;

  /// Parses a program and binds it to `config` WITHOUT running the
  /// static verifier: throws CompileError (with a diagnostic code, see
  /// docs/verification.md) when the stream is malformed, carries
  /// trailing bytes after the payload, or config.fingerprint() does not
  /// equal the recorded fingerprint.  On success mapping.config ==
  /// config.  Most callers want load(); the verify layer uses parse()
  /// to collect *all* findings instead of throwing on the first.
  static CompiledProgram parse(std::istream& is,
                               const core::ResparcConfig& config);
  /// parse() plus the mandatory static verification pass
  /// (verify::verify_program): throws verify::VerifyError when the
  /// parsed program violates any structural/capacity/consistency
  /// invariant — a deserialized blob is never trusted unchecked.
  static CompiledProgram load(std::istream& is,
                              const core::ResparcConfig& config);
  /// load() from a file; throws CompileError when it cannot be opened.
  static CompiledProgram load_file(const std::string& path,
                                   const core::ResparcConfig& config);

  /// Checks the program against the network it claims to implement:
  /// layer count and per-layer synapse totals must match.  Throws
  /// CompileError on mismatch.
  void check_matches(const snn::Topology& topology) const;
};

/// Builds the per-layer utilisation report from a finished mapping.
std::vector<LayerUtilization> utilization_report(const snn::Topology& topology,
                                                 const core::Mapping& mapping);

/// Stable cache key of one (configuration, topology, strategy) compile:
/// FNV-1a over config.fingerprint(), Topology::summary() and the strategy
/// name.  Two compiles with equal keys produce interchangeable programs
/// (same fingerprint check, same topology shape, same strategy policy), so
/// this is what serve::ProgramCache names persisted blobs by
/// (docs/serving.md).  It deliberately reuses the fingerprint that
/// CompiledProgram records/checks at load time: a blob filed under a key
/// can never rebind to a different configuration.
std::uint64_t program_cache_key(const core::ResparcConfig& config,
                                const snn::Topology& topology,
                                const std::string& strategy);

}  // namespace resparc::compile
