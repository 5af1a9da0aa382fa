// Trace-driven RESPARC executor.
//
// Replays spike traces from the functional simulator against a Mapping and
// counts hardware events per timestep, honouring the event-driven levers of
// section 3.2 when `config.event_driven` is set:
//   * an MCA group whose input slice carries no spike this step is skipped
//     entirely (no buffer read, no crossbar read, no control op);
//   * spike packets (64-bit flits) that are all zero are dropped before
//     switch traversal;
//   * all-zero words read from the input SRAM are not broadcast on the bus.
//
// Inter-stage transfers travel the hierarchical Ml-NoC model (src/noc/,
// docs/noc.md) along the per-boundary Route table: `analytic` fidelity
// charges the flat per-word cycles this executor has always used
// (bit-for-bit reproducible totals), `event` fidelity counts flits
// through ProgrammableSwitch levels and adds hop pipeline-fill plus
// congestion stall latency.  Event counts are converted to energy with the
// technology cost tables and to cycles with the pipeline model described
// in docs/execution.md.
#pragma once

#include <cstdint>
#include <vector>

#include "common/shared_value.hpp"
#include "core/energy.hpp"
#include "core/mapper.hpp"
#include "noc/fabric.hpp"
#include "noc/route.hpp"
#include "snn/topology.hpp"
#include "snn/trace.hpp"

namespace resparc::core {

/// Cycles to move one word across the global bus (the NoC layer owns the
/// constant; this alias keeps the historical core:: spelling working).
inline constexpr double kBusCyclesPerWord = noc::kBusCyclesPerWord;

/// Executes spike traces against a fixed mapping.
class Executor {
 public:
  /// `topology` must be the one `mapping` was built from; both must outlive
  /// the executor.  Routes are derived with noc::compute_routes and the
  /// NoC runs in analytic fidelity.
  Executor(const snn::Topology& topology, const Mapping& mapping);

  /// Same contract with an explicit route table (normally the compiler's
  /// routing-pass output carried by the CompiledProgram) and NoC timing
  /// fidelity.  The table must cover every boundary of `topology`.
  Executor(const snn::Topology& topology, const Mapping& mapping,
           noc::RouteTable routes, noc::Fidelity fidelity);

  /// Replays one presentation (trace from Simulator::run with
  /// record_trace=true) and returns the per-classification report.
  RunReport run(const snn::SpikeTrace& trace) const;

  /// Replays many presentations; energy/perf are averaged per
  /// classification, events and NoC counters are summed.
  RunReport run_all(std::span<const snn::SpikeTrace> traces) const;

  const Mapping& mapping() const { return mapping_; }

  /// The per-boundary route table transfers travel on.
  const noc::RouteTable& routes() const { return routes_; }

  /// The NoC timing fidelity replays run at.
  noc::Fidelity fidelity() const { return fidelity_; }

  /// Spikes of `spikes` (layer `layer`'s input at one step) inside the
  /// input slice of group `group`: the active-row count replay drives the
  /// group with, read from the word-mask plan.
  std::size_t active_rows(std::size_t layer, std::size_t group,
                          const snn::SpikeVector& spikes) const;

 private:
  /// Technology cost constants hoisted out of the replay loops (defined in
  /// executor.cpp); built once per run() call.
  struct ReplayCosts;
  /// Accumulator state of one replay (defined in executor.cpp): the report
  /// being built, the cycle tallies, and the optional event-fidelity
  /// fabric.
  struct ReplayState;

  ReplayCosts make_costs() const;
  /// Retires one timestep of a replay.
  void replay_step(const snn::SpikeTrace& trace, std::size_t step,
                 const ReplayCosts& costs, ReplayState& state) const;
  /// Converts a finished replay's event counters to energy and fills the
  /// perf/leakage fields (the run() epilogue).
  void finish_replay(const ReplayCosts& costs, ReplayState& state) const;

  /// Per-group record of the replay inner loop, one cache line,
  /// precomputed at construction so replay_step performs no
  /// integer->double conversion or per-group multiply on the hot path.
  /// Every field is the exact value the loop used to recompute per step
  /// (same operands, same operations), so replay results are bit-for-bit
  /// unchanged.
  struct GroupRecord {
    std::uint32_t mca_count = 0;    ///< arrays in the group
    std::uint32_t cols_used = 0;    ///< neurons integrated per activation
    std::uint32_t buffer_bits = 0;  ///< iBUFF bits fed per activation
    double bits = 0.0;          ///< bits in the slice (fraction denominator)
    double driven_scale = 0.0;  ///< rows_used * mca_count
    double synapses = 0.0;      ///< crosspoints actually programmed
    double total_cells = 0.0;   ///< mca_count * N_l^2 (sneak term)
    double control_pj = 0.0;    ///< control energy of one group activation
    /// The layer's resolved MCA size as double (heterogeneous chips carry a
    /// per-layer size; Mapping::layer_mca_size).  Exact for any legal size.
    double mca_size_d = 0.0;
  };
  static_assert(sizeof(GroupRecord) == 64, "one record per cache line");

  /// One layer's replay tables.  The word-mask plan lists each group's
  /// input slice as (word, mask) entries, so a group's active count is
  /// the sum of popcount(input[word[i]] & mask[i]) over its entries, and
  /// one kernels::count_masked call counts every group of the layer.  A
  /// contiguous slice is its covered words; a window is its per-(channel,
  /// row) bit runs, with runs that fall in the same word merged into one
  /// entry.  Built once at construction.
  struct LayerPlan {
    std::vector<GroupRecord> groups;
    std::vector<std::uint64_t> masks;  ///< plan entry masks
    std::vector<std::uint32_t> words;  ///< plan entry input-word indices
    /// Group g's entries are [bounds[g], bounds[g + 1]): groups + 1
    /// offsets, starting at 0.
    std::vector<std::uint32_t> bounds;
    std::size_t mcas = 0;  ///< arrays over all groups
  };

  const snn::Topology& topology_;
  const Mapping& mapping_;
  noc::RouteTable routes_;
  noc::Fidelity fidelity_ = noc::Fidelity::kAnalytic;
  std::vector<LayerPlan> plans_;  ///< [layer]
  /// Deployed column-periphery count, sum over layers of mca_count * N_l —
  /// the leakage denominator.  Equals total_mcas * mca_size when the chip
  /// is homogeneous.
  std::size_t leak_columns_ = 0;
  /// Mean per-cell read-energy multiplier of the chip instance's faults
  /// (core/fault_injection.hpp); exactly 1.0 when fault injection is
  /// disabled, so the fault-free cost path is bit-for-bit unchanged.
  double fault_cell_scale_ = 1.0;
  /// Realised fault manifest, derived once at construction; every
  /// RunReport shares it.  Empty when fault injection is disabled.
  SharedValue<tech::FaultManifest> fault_manifest_;
};

}  // namespace resparc::core
