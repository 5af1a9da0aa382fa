#include "cmos/falcon.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "tech/sram.hpp"

namespace resparc::cmos {

using snn::LayerKind;

void FalconConfig::validate() const {
  require(neuron_units >= 1, "baseline needs at least one NU");
  require(fifo_depth >= 1, "FIFO depth must be positive");
  require(nu_width_bits >= 1 && nu_width_bits <= 64, "NU width in [1,64]");
  require(membrane_bits >= nu_width_bits, "membrane narrower than NU width");
  require(weight_bits >= 1 && weight_bits <= 16, "weight bits in [1,16]");
  technology.validate();
}

BaselineMetrics baseline_metrics(const FalconConfig& config) {
  config.validate();
  const tech::DigitalCosts& d = config.technology.digital;
  BaselineMetrics m;
  m.nu_count = config.neuron_units;
  m.frequency_mhz = config.technology.baseline_clock_mhz;
  m.area_mm2 = static_cast<double>(config.neuron_units) * d.area_per_nu_mm2 +
               d.area_baseline_ctrl_mm2;
  m.gate_count = static_cast<double>(config.neuron_units) * d.gates_per_nu +
                 d.gates_baseline_ctrl;
  // Peak dynamic power: every NU retires one synop step per cycle (mac +
  // operand staging), the weight port streams one word per cycle from a
  // 32 KB reference bank, and the input FIFOs move two nibbles per NU.
  const tech::SramModel ref_bank{{.capacity_bytes = 32 * 1024, .word_bits = 64}};
  const double fifo_pj = static_cast<double>(config.neuron_units) * 2.0 *
                         static_cast<double>(config.nu_width_bits) *
                         d.buffer_bit_pj;
  const double per_cycle_pj =
      static_cast<double>(config.neuron_units) * (d.mac4_pj + d.nu_overhead_pj) +
      ref_bank.read_energy_pj() + fifo_pj;
  m.power_mw = per_cycle_pj * m.frequency_mhz * 1e-3;
  return m;
}

namespace {

std::size_t bits_to_bytes(std::size_t bits) { return (bits + 7) / 8; }

}  // namespace

FalconAccelerator::FalconAccelerator(const snn::Topology& topology,
                                     FalconConfig config)
    : topology_(topology), config_(std::move(config)) {
  config_.validate();
  // Weight memory: unique weights at the configured precision (conv
  // kernels are shared; dense rows are not).
  weight_bytes_ = bits_to_bytes(topology_.unique_weight_count() *
                                static_cast<std::size_t>(config_.weight_bits));
  weight_bytes_ = std::max<std::size_t>(weight_bytes_, 1024);
  // State memory: membranes (16 bit each) + double-buffered spike vectors.
  state_bytes_ = bits_to_bytes(topology_.neuron_count(false) *
                                   config_.membrane_bits +
                               2 * topology_.neuron_count(true));
  state_bytes_ = std::max<std::size_t>(state_bytes_, 1024);
}

CmosReport FalconAccelerator::run(const snn::SpikeTrace& trace) const {
  require(trace.layer_count() == topology_.layer_count() + 1,
          "baseline: trace does not match topology");
  const std::size_t T = trace.timesteps();
  require(T > 0, "baseline: empty trace");

  const tech::DigitalCosts& d = config_.technology.digital;
  const tech::SramModel weight_sram{
      {.capacity_bytes = weight_bytes_, .word_bits = 64}};
  const tech::SramModel state_sram{
      {.capacity_bytes = state_bytes_, .word_bits = 64}};

  CmosReport report;
  report.classifications = 1;
  report.clock_mhz = config_.technology.baseline_clock_mhz;

  const double wbits = static_cast<double>(config_.weight_bits);
  const double weights_per_word = 64.0 / wbits;
  // MAC energy scales with operand width relative to the 4-bit reference.
  const double mac_pj = d.mac4_pj * wbits / 4.0;
  const double synop_pj = mac_pj + d.nu_overhead_pj;
  const double cycles_per_synop = config_.cycles_per_synop();

  double weight_words = 0.0;
  double state_words = 0.0;
  double synops = 0.0;
  double skipped = 0.0;
  double cycles = 0.0;

  for (std::size_t step = 0; step < T; ++step) {
    double step_cycles = 0.0;
    for (std::size_t l = 0; l < topology_.layer_count(); ++l) {
      const auto& li = topology_.layers()[l];
      const auto& in_vec = trace.layers[l][step];
      const std::size_t active =
          config_.event_driven ? in_vec.count() : in_vec.size();
      if (config_.event_driven)
        skipped += static_cast<double>(in_vec.size() - in_vec.count()) *
                   static_cast<double>(li.synapses) /
                   static_cast<double>(li.in_shape.size());

      // Average fan-out per input neuron of this layer.
      const double fanout = static_cast<double>(li.synapses) /
                            static_cast<double>(li.in_shape.size());
      const double layer_synops = static_cast<double>(active) * fanout;
      synops += layer_synops;

      // Weight traffic: dense layers stream the fan-out row per active
      // input; conv kernels are fetched once per timestep (then reused
      // across positions via the weight FIFO); pool layers have no
      // weights.
      double layer_weight_words = 0.0;
      switch (li.spec.kind) {
        case LayerKind::kDense:
          layer_weight_words =
              static_cast<double>(active) *
              std::ceil(static_cast<double>(li.spec.units) / weights_per_word);
          break;
        case LayerKind::kConv:
          if (active > 0)
            layer_weight_words = std::ceil(
                static_cast<double>(li.unique_weights) / weights_per_word);
          break;
        case LayerKind::kAvgPool:
          layer_weight_words = 0.0;
          break;
      }
      weight_words += layer_weight_words;

      // Spike vector traffic: read the input spikes, write the outputs.
      const double spike_words =
          static_cast<double>(in_vec.word_count()) +
          static_cast<double>(trace.layers[l + 1][step].word_count());
      state_words += spike_words;

      // Throughput: NUs retire synops; the single weight port can stall
      // them; event-driven lookup costs one cycle per active input.
      const double nu_cycles = layer_synops * cycles_per_synop /
                               static_cast<double>(config_.neuron_units);
      step_cycles += std::max(nu_cycles, layer_weight_words) +
                     static_cast<double>(active);
    }
    cycles += step_cycles;
  }

  // Membrane spill/fill once per neuron per classification (output-
  // stationary across timesteps).
  state_words += 2.0 *
                 std::ceil(static_cast<double>(topology_.neuron_count(false)) *
                           static_cast<double>(config_.membrane_bits) / 64.0);

  report.events.synops = static_cast<std::size_t>(synops);
  report.events.synops_skipped = static_cast<std::size_t>(skipped);
  report.events.weight_words = static_cast<std::size_t>(weight_words);
  report.events.state_words = static_cast<std::size_t>(state_words);
  report.cycles = cycles;

  // -- energy ---------------------------------------------------------------
  report.energy.core_pj =
      synops * synop_pj +
      // FIFO staging of every fetched weight word and spike word.
      (weight_words + state_words) * 64.0 * d.buffer_bit_pj;
  report.energy.memory_access_pj =
      weight_words * weight_sram.read_energy_pj() +
      state_words * state_sram.read_energy_pj();
  const double leak_w = weight_sram.leakage_w() + state_sram.leakage_w() +
                        d.core_leakage_w;
  report.energy.memory_leakage_pj =
      leak_w * report.latency_ns() * 1e3;  // W * ns -> pJ

  return report;
}

CmosReport FalconAccelerator::run_all(
    std::span<const snn::SpikeTrace> traces) const {
  require(!traces.empty(), "baseline: no traces");
  CmosReport total;
  for (const auto& trace : traces) total += run(trace);
  const double n = static_cast<double>(total.classifications);
  total.energy /= n;
  total.cycles /= n;
  return total;
}

}  // namespace resparc::cmos
