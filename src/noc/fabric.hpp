// Cycle-approximate hierarchical Ml-NoC fabric model (docs/noc.md).
//
// Models the three-level interconnect of paper Fig. 6/7 that carries
// spike words between pipeline stages:
//
//   level 0  switch mesh inside each NeuroCell ((nc_dim-1)^2 switches)
//   level 1  H-tree of ProgrammableSwitch levels between NeuroCells
//   level 2  serial global bus + input SRAM staging at the root
//
// Two timing fidelities share one hop/word/drop accounting:
//
//   * analytic_transfer() — the flat per-word charges the executor has
//     always used (kBusCyclesPerWord per bus word, ceil(words/nc_dim)
//     through the mesh).  Allocation-free, reproduces the pre-NoC energy
//     and latency totals bit-for-bit.
//   * Fabric — event-driven: every transfer passes the route's entry
//     ProgrammableSwitch (the zero-check drops all-zero words at
//     injection; the switch counts the flits in closed form instead of
//     queuing them), arbitration is FIFO across senders, shared resources
//     (the root bus, each cell's mesh) serialize contending transfers and
//     the wait shows up as per-level stall cycles.  Event fidelity adds
//     hop pipeline-fill and congestion latency on top of the analytic
//     service time — it never reports less.
#pragma once

#include <cstddef>
#include <vector>

#include "core/config.hpp"
#include "core/switch.hpp"
#include "noc/route.hpp"
#include "noc/stats.hpp"

namespace resparc::noc {

/// Cycles to move one word across the global bus: SRAM staging write plus
/// a broadcast read (Fig. 7(b): serial transfer through the shared bus).
/// Shared by the analytic cost model, the analytic transfer charges and
/// the event fabric's bus service time, so the three cannot drift.
inline constexpr double kBusCyclesPerWord = 2.0;

/// Timing of one transfer through the fabric.
struct Transport {
  double cycles = 0.0;        ///< total transport latency (incl. stalls)
  double stall_cycles = 0.0;  ///< cycles spent waiting on busy resources
};

/// Flat (pre-NoC) transfer charges with per-level accounting: service is
/// `kBusCyclesPerWord * sent` on bus routes and `ceil(sent / nc_dim)`
/// through the mesh; no queueing, no hop fill, no stalls.  `zeros` words
/// were suppressed by the zero-check before injection and are recorded as
/// drops on the route's injection level.  Allocation-free.
Transport analytic_transfer(const Route& route, std::size_t sent,
                            std::size_t zeros,
                            const core::ResparcConfig& config,
                            NocStats& stats);

/// The event-driven fabric: per-step FIFO resource clocks over
/// ProgrammableSwitch levels.  One instance models one chip; create it per
/// replay (it keeps per-resource clocks, switch counters and cumulative
/// NocStats).
class Fabric {
 public:
  /// Builds the fabric for `config` spanning `neurocells` cells.  The
  /// switches' zero-check is driven by `config.event_driven` — the same
  /// flag the executor's event accounting uses, not a parallel notion.
  Fabric(const core::ResparcConfig& config, std::size_t neurocells);

  /// Hierarchy depth of the inter-NeuroCell H-tree.
  std::size_t depth() const { return tree_.size(); }

  /// Starts a new timestep: every per-resource clock rewinds to zero
  /// (resources are busy *within* a step; steps are synchronization
  /// barriers).
  void begin_step();

  /// Transfers `sent` non-zero words (plus `zeros` all-zero words that
  /// the zero-check may drop) along `route`, arriving at `arrival`
  /// cycles into the current step.  Words pass the route's entry switch,
  /// resources serialize in FIFO order, and the returned
  /// latency includes service, hop pipeline-fill and congestion stall.
  Transport transfer(const Route& route, std::size_t sent, std::size_t zeros,
                     double arrival);

  /// Cumulative per-level counters since construction (or reset()).
  const NocStats& stats() const { return stats_; }

  /// Aggregate ProgrammableSwitch counters over every level: forwarded /
  /// dropped_zero feed the executor's switch-flit accounting, and
  /// buffered_max is the fabric-wide buffer high-water mark.
  core::SwitchCounters switch_totals() const;

  /// Clears stats, switch counters and resource clocks.
  void reset();

 private:
  core::ResparcConfig config_;
  std::vector<core::ProgrammableSwitch> mesh_;  ///< entry switch per NeuroCell
  std::vector<core::ProgrammableSwitch> tree_;  ///< one switch per H-tree level
  core::ProgrammableSwitch root_;               ///< bus port at the tree root
  std::vector<double> mesh_free_;  ///< per-cell mesh clock within the step
  /// Per-subtree link clocks: node_free_[h-1][node] is the uplink above
  /// H-tree node `node` at height h — the resource a transfer turning at
  /// height h contends for.
  std::vector<std::vector<double>> node_free_;
  double bus_free_ = 0.0;          ///< root bus clock within the step
  NocStats stats_;
};

}  // namespace resparc::noc
