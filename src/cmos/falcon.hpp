// Digital CMOS baseline accelerator (paper section 4.1, Fig. 9).
//
// Implements the FALCON-style SNN dataflow the paper aggressively
// optimises for its comparison:
//   * 16 neuron units (NUs) with 4-bit datapaths fed by input FIFOs and a
//     weight FIFO (Fig. 9's parameters),
//   * event-driven skip: silent input neurons cost no fetch and no compute,
//   * weight memory in SRAM sized to the network at the configured weight
//     precision; *dense* layers stream their fan-out row per active input
//     (no reuse), *conv* layers fetch kernels once per timestep and reuse
//     them across spatial positions (the classic reuse distinction that
//     makes MLPs memory-bound and CNNs compute-bound — Fig. 12 b/d),
//   * membrane potentials resident in NU registers across a presentation
//     (output-stationary over time), with one SRAM spill/fill per neuron
//     per classification.
//
// Energy is split into the paper's Fig. 12(b/d) buckets: Core (buffers,
// compute, control), Memory Access, Memory Leakage.
#pragma once

#include <cstddef>
#include <span>

#include "snn/topology.hpp"
#include "snn/trace.hpp"
#include "tech/technology.hpp"

namespace resparc::cmos {

/// Micro-architectural parameters of the baseline (paper Fig. 9).
struct FalconConfig {
  std::size_t neuron_units = 16;    ///< parallel NUs
  std::size_t fifo_depth = 32;      ///< input/weight FIFO depth (flits)
  std::size_t nu_width_bits = 4;    ///< NU datapath width; membranes are
                                    ///< 16-bit, so one synop = 16/width cycles
  std::size_t membrane_bits = 16;   ///< accumulator precision
  int weight_bits = 4;              ///< stored weight precision
  bool event_driven = true;         ///< skip silent inputs
  tech::Technology technology = tech::default_technology();

  /// Cycles one synaptic accumulation occupies an NU.
  double cycles_per_synop() const {
    return static_cast<double>(membrane_bits) /
           static_cast<double>(nu_width_bits);
  }

  void validate() const;
};

/// Energy breakdown in the paper's CMOS buckets (pJ per classification).
struct CmosEnergy {
  double core_pj = 0.0;            ///< buffers + compute + control
  double memory_access_pj = 0.0;   ///< SRAM reads/writes
  double memory_leakage_pj = 0.0;  ///< SRAM standby over the run
  double total_pj() const { return core_pj + memory_access_pj + memory_leakage_pj; }

  CmosEnergy& operator+=(const CmosEnergy& o) {
    core_pj += o.core_pj;
    memory_access_pj += o.memory_access_pj;
    memory_leakage_pj += o.memory_leakage_pj;
    return *this;
  }
  CmosEnergy& operator/=(double n) {
    core_pj /= n;
    memory_access_pj /= n;
    memory_leakage_pj /= n;
    return *this;
  }
};

/// Event counters of one baseline run.
struct CmosEvents {
  std::size_t synops = 0;          ///< synaptic accumulations performed
  std::size_t synops_skipped = 0;  ///< elided by event-driven skip
  std::size_t weight_words = 0;    ///< 64-bit weight fetches
  std::size_t state_words = 0;     ///< membrane spill/fill + spike words
  CmosEvents& operator+=(const CmosEvents& o) {
    synops += o.synops;
    synops_skipped += o.synops_skipped;
    weight_words += o.weight_words;
    state_words += o.state_words;
    return *this;
  }
};

/// Result of replaying traces on the baseline.
struct CmosReport {
  CmosEnergy energy;     ///< per classification (averaged)
  CmosEvents events;     ///< summed
  double cycles = 0.0;   ///< per classification (averaged)
  double clock_mhz = 0.0;
  std::size_t classifications = 0;

  double latency_ns() const { return cycles * 1e3 / clock_mhz; }
  double throughput_hz() const {
    const double ns = latency_ns();
    return ns > 0.0 ? 1e9 / ns : 0.0;
  }

  /// Adds `other` into this report in the one order every reduction uses:
  /// energy, events, cycles, clock_mhz (taken, not summed),
  /// classifications.  A trace-set average then divides energy and cycles
  /// by `classifications`.
  CmosReport& operator+=(const CmosReport& other) {
    energy += other.energy;
    events += other.events;
    cycles += other.cycles;
    clock_mhz = other.clock_mhz;
    classifications += other.classifications;
    return *this;
  }
};

/// Implementation metrics table (paper Fig. 9).
struct BaselineMetrics {
  double area_mm2 = 0.0;
  double power_mw = 0.0;
  double gate_count = 0.0;
  double frequency_mhz = 0.0;
  std::size_t nu_count = 0;
};

/// Computes the Fig. 9 metric roll-up.
BaselineMetrics baseline_metrics(const FalconConfig& config);

/// The CMOS baseline accelerator model.
class FalconAccelerator {
 public:
  /// Binds the accelerator to a topology (sizes the weight SRAM).
  FalconAccelerator(const snn::Topology& topology, FalconConfig config);

  const FalconConfig& config() const { return config_; }

  /// Bytes of SRAM holding weights at the configured precision.
  std::size_t weight_memory_bytes() const { return weight_bytes_; }
  /// Bytes of SRAM holding neuron state and spike vectors.
  std::size_t state_memory_bytes() const { return state_bytes_; }

  /// Replays one presentation trace.
  CmosReport run(const snn::SpikeTrace& trace) const;

  /// Replays many; energy/cycles averaged per classification.
  CmosReport run_all(std::span<const snn::SpikeTrace> traces) const;

 private:
  const snn::Topology& topology_;
  FalconConfig config_;
  std::size_t weight_bytes_ = 0;
  std::size_t state_bytes_ = 0;
};

}  // namespace resparc::cmos
