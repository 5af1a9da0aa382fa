// Energy accounting types shared by the RESPARC and CMOS executors.
//
// RESPARC energy is reported in the paper's three buckets (Fig. 12 a/c):
// Neuron, Crossbar, Peripherals (= buffers + control + communication); the
// CMOS baseline uses Core / Memory-Access / Memory-Leakage (Fig. 12 b/d).
#pragma once

#include <cstddef>

#include "common/shared_value.hpp"
#include "noc/stats.hpp"
#include "tech/nonideal.hpp"

namespace resparc::core {

/// Per-component RESPARC energy (picojoules, per classification unless a
/// caller aggregates differently).
struct EnergyBreakdown {
  double neuron_pj = 0.0;    ///< membrane integration + spike generation
  double crossbar_pj = 0.0;  ///< MCA read energy (V^2 G t over active cells)
  double buffer_pj = 0.0;    ///< iBUFF/oBUFF/tBUFF traffic
  double control_pj = 0.0;   ///< local + global control sequencing
  double comm_pj = 0.0;      ///< switch hops, bus words, CCU transfers, SRAM
  double leakage_pj = 0.0;   ///< idle power integrated over the run

  /// The paper's "Peripherals (Buffer, Control, Communication)" bucket.
  double peripherals_pj() const {
    return buffer_pj + control_pj + comm_pj + leakage_pj;
  }
  /// Sum of every component: neuron + crossbar + peripherals.
  double total_pj() const {
    return neuron_pj + crossbar_pj + peripherals_pj();
  }

  EnergyBreakdown& operator+=(const EnergyBreakdown& other) {
    neuron_pj += other.neuron_pj;
    crossbar_pj += other.crossbar_pj;
    buffer_pj += other.buffer_pj;
    control_pj += other.control_pj;
    comm_pj += other.comm_pj;
    leakage_pj += other.leakage_pj;
    return *this;
  }
  EnergyBreakdown& operator/=(double n) {
    neuron_pj /= n;
    crossbar_pj /= n;
    buffer_pj /= n;
    control_pj /= n;
    comm_pj /= n;
    leakage_pj /= n;
    return *this;
  }
};

/// Raw event counters from one RESPARC run (per classification).
struct EventCounts {
  std::size_t mca_activations = 0;   ///< MCA reads actually performed
  std::size_t mca_skips = 0;         ///< reads elided by zero-check
  /// Column currents integrated into neuron membranes (used columns per
  /// group activation).
  std::size_t neuron_integrations = 0;
  std::size_t neuron_fires = 0;      ///< output spikes generated
  std::size_t buffer_bits = 0;       ///< iBUFF/oBUFF/tBUFF bits moved
  std::size_t switch_flits = 0;      ///< packets through switches
  std::size_t switch_skips = 0;      ///< zero packets dropped at switches
  std::size_t bus_words = 0;         ///< words over the global IO bus
  std::size_t bus_skips = 0;         ///< zero words elided at the SRAM check
  std::size_t ccu_transfers = 0;     ///< inter-mPE analog current transfers
  std::size_t sram_reads = 0;        ///< global-bus SRAM words read
  std::size_t sram_writes = 0;       ///< global-bus SRAM words written

  EventCounts& operator+=(const EventCounts& other);
};

/// Timing summary of one run.
struct PerfReport {
  double cycles_pipelined = 0.0;  ///< sum_t max_l stage(l,t): layer-pipelined
  double cycles_serial = 0.0;     ///< sum_t sum_l stage(l,t): one image in flight
  /// Serial-cycle decomposition (docs/noc.md): crossbar read +
  /// time-multiplexed integration cycles.
  double cycles_compute = 0.0;
  /// Serial-cycle decomposition: NoC service + hop pipeline-fill cycles.
  double cycles_transport = 0.0;
  /// Serial-cycle decomposition: cycles stalled on busy NoC resources
  /// (always 0 in analytic NoC fidelity).
  double cycles_stall = 0.0;
  double clock_mhz = 0.0;  ///< clock the cycle counts convert to time at

  /// Latency of one classification with the pipeline full (throughput
  /// figure the paper reports).
  double latency_pipelined_ns() const {
    return cycles_pipelined * 1e3 / clock_mhz;
  }
  /// End-to-end latency of a single classification.
  double latency_serial_ns() const { return cycles_serial * 1e3 / clock_mhz; }
  /// Classifications per second at full pipeline.
  double throughput_hz() const {
    const double ns = latency_pipelined_ns();
    return ns > 0.0 ? 1e9 / ns : 0.0;
  }

  PerfReport& operator+=(const PerfReport& other) {
    cycles_pipelined += other.cycles_pipelined;
    cycles_serial += other.cycles_serial;
    cycles_compute += other.cycles_compute;
    cycles_transport += other.cycles_transport;
    cycles_stall += other.cycles_stall;
    clock_mhz = other.clock_mhz;
    return *this;
  }
  PerfReport& operator/=(double n) {
    cycles_pipelined /= n;
    cycles_serial /= n;
    cycles_compute /= n;
    cycles_transport /= n;
    cycles_stall /= n;
    return *this;
  }
};

/// Complete result of replaying traces against a mapping.
struct RunReport {
  EnergyBreakdown energy;  ///< per classification (averaged over trace set)
  EventCounts events;      ///< summed over the trace set
  PerfReport perf;         ///< per classification (averaged over trace set)
  /// Per-level Ml-NoC traffic counters (docs/noc.md), summed over the
  /// trace set like `events`.
  noc::NocStats noc;
  std::size_t classifications = 0;  ///< presentations the report covers
  /// Realised device-fault manifest of the chip instance the replay ran
  /// on; absent when fault injection is disabled (docs/reliability.md).
  /// Every report of one Executor shares the one manifest it derived.
  SharedValue<tech::FaultManifest> faults;

  /// Adds `other` into this report in the one order every reduction uses:
  /// energy, events, perf, noc, classifications.  A trace-set average then
  /// divides energy and perf by `classifications`; `faults` is untouched.
  RunReport& operator+=(const RunReport& other) {
    energy += other.energy;
    events += other.events;
    perf += other.perf;
    noc += other.noc;
    classifications += other.classifications;
    return *this;
  }
};

}  // namespace resparc::core
