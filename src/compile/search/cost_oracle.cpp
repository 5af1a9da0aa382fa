#include "compile/search/cost_oracle.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "compile/cost_model.hpp"
#include "core/executor.hpp"
#include "noc/fabric.hpp"

namespace resparc::compile::search {

using core::LayerMapping;
using core::Mapping;
using core::McaGroup;

// ------------------------------------------------------------ AnalyticOracle

AnalyticOracle::AnalyticOracle(const snn::Topology& topology,
                               const core::ResparcConfig& config,
                               double activity)
    : topology_(topology),
      activity_(activity),
      digital_(config.technology.digital),
      sram_({.capacity_bytes = config.input_sram_bytes, .word_bits = 64}),
      flit_bits_(static_cast<double>(config.technology.flit_bits)),
      clock_mhz_(config.technology.resparc_clock_mhz),
      nc_dim_(config.nc_dim),
      event_driven_(config.event_driven) {
  require(activity > 0.0 && activity <= 1.0,
          "AnalyticOracle: activity must be in (0,1]");
  const tech::Memristor device{config.technology.memristor};
  cell_pj_ = device.mean_cell_read_energy_pj();
  cell_off_pj_ = device.cell_read_energy_pj(device.g_min());
  sneak_ = device.params().sneak_leak_fraction;
}

AnalyticOracle::LayerTerms AnalyticOracle::layer_terms(
    std::size_t l, const Mapping& mapping) const {
  const snn::LayerInfo& li = topology_.layers()[l];
  const LayerMapping& lm = mapping.layers[l];
  const std::size_t N = mapping.layer_mca_size(l);

  LayerTerms terms;
  for (const McaGroup& g : lm.groups) {
    const double driven_rows =
        activity_ * static_cast<double>(g.rows_used * g.mca_count);
    const double driven_cells = driven_rows * static_cast<double>(N);
    const double used_cells = activity_ * static_cast<double>(g.synapses);
    terms.energy_pj += used_cells * cell_pj_ +
                       std::max(0.0, driven_cells - used_cells) * cell_off_pj_;
    if (sneak_ > 0.0) {
      const double total_cells =
          static_cast<double>(g.mca_count) * static_cast<double>(N * N);
      terms.energy_pj +=
          sneak_ * std::max(0.0, total_cells - driven_cells) * cell_off_pj_;
    }
    terms.energy_pj +=
        static_cast<double>(g.mca_count) * digital_.mca_control_pj +
        static_cast<double>(g.mca_count * N) *
            (digital_.column_interface_pj + digital_.buffer_bit_pj);
    terms.energy_pj +=
        static_cast<double>(g.cols_used) * digital_.neuron_integrate_pj;
  }
  terms.energy_pj +=
      activity_ * static_cast<double>(li.neurons) * digital_.neuron_fire_pj;
  terms.energy_pj +=
      static_cast<double>(li.neurons * lm.ccu_transfers_per_neuron) *
      digital_.ccu_transfer_pj;
  terms.compute_cycles = static_cast<double>(lm.mux_cycles) + 1.0;
  terms.leak_columns = static_cast<double>(lm.mca_count * N);
  return terms;
}

double AnalyticOracle::score(const Mapping& mapping,
                             const noc::RouteTable& routes,
                             std::span<const std::uint64_t> layer_keys) const {
  const std::size_t layer_count = topology_.layer_count();
  require(mapping.layers.size() == layer_count,
          "AnalyticOracle: mapping does not match topology");
  require(routes.size() == layer_count + 1,
          "AnalyticOracle: route table does not cover every boundary");
  const bool keyed = layer_keys.size() == layer_count;

  double energy_pj = 0.0;
  double stage_max = 0.0;
  double leak_columns = 0.0;

  // Input broadcast from the SRAM: placement-independent, but cheap enough
  // to keep inline (one expected-words evaluation).
  {
    const std::size_t words = word_count(topology_.input_neurons());
    const double sent = expected_sent_words(words, activity_, event_driven_);
    energy_pj += sent * (sram_.read_energy_pj() + sram_.write_energy_pj() +
                         digital_.bus_word_pj);
    stage_max = std::max(stage_max, noc::kBusCyclesPerWord * sent);
  }

  for (std::size_t l = 0; l < layer_count; ++l) {
    // Placement-independent per-layer terms, memoised under the decoder's
    // tile key: a placement-only move re-costs nothing here, a one-layer
    // retile re-costs one layer.  The fresh and cached paths run the same
    // pure function, so a hit returns bit-identical terms.
    LayerTerms terms;
    if (keyed) {
      const std::uint64_t key = layer_keys[l];
      bool hit = false;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = cache_.find(key);
        if (it != cache_.end()) {
          terms = it->second;
          hit = true;
        }
      }
      if (!hit) {
        terms = layer_terms(l, mapping);
        std::lock_guard<std::mutex> lock(mutex_);
        cache_.emplace(key, terms);
      }
    } else {
      terms = layer_terms(l, mapping);
    }
    energy_pj += terms.energy_pj;
    leak_columns += terms.leak_columns;

    // Boundary transfer toward the next layer: the placement-dependent
    // part, always re-costed against this candidate's routes.
    const snn::LayerInfo& li = topology_.layers()[l];
    const std::size_t words = word_count(li.neurons);
    const double sent = expected_sent_words(words, activity_, event_driven_);
    const bool via_bus = routes.at(l + 1).uses_bus;
    if (via_bus) {
      energy_pj += sent * (digital_.bus_word_pj + sram_.read_energy_pj() +
                           sram_.write_energy_pj()) +
                   digital_.gcu_event_pj;
    } else {
      energy_pj += sent * digital_.switch_flit_pj;
    }
    energy_pj += sent * (2.0 * flit_bits_ + 16.0) * digital_.buffer_bit_pj;

    const double transfer_c =
        via_bus ? noc::kBusCyclesPerWord * sent
                : std::ceil(sent / static_cast<double>(nc_dim_));
    stage_max = std::max(stage_max, std::max(terms.compute_cycles, transfer_c));
  }

  // Leakage over one steady-state (pipelined) step, then the same
  // energy-delay product CostEstimate::score() ranks by.
  const double leak_w =
      leak_columns * digital_.mca_column_leak_w + sram_.leakage_w();
  const double step_ns = stage_max * 1e3 / clock_mhz_;
  energy_pj += leak_w * step_ns * 1e3;  // W*ns -> pJ
  return energy_pj * stage_max;
}

// ------------------------------------------------------------- ReplayOracle

ReplayOracle::ReplayOracle(const snn::Topology& topology,
                           const snn::SpikeTrace& trace)
    : topology_(topology), trace_(trace) {
  require(trace.layer_count() == topology.layer_count() + 1,
          "ReplayOracle: trace does not match topology");
}

double ReplayOracle::score(const Mapping& mapping,
                           const noc::RouteTable& routes,
                           std::span<const std::uint64_t> layer_keys) const {
  (void)layer_keys;
  const core::Executor exec(topology_, mapping, routes, noc::Fidelity::kEvent);
  const core::RunReport r = exec.run(trace_);
  // Event-fidelity pipelined cycles include congestion stalls, so the
  // replay EDP penalises hot boundaries the analytic model cannot see.
  return r.energy.total_pj() * std::max(1.0, r.perf.cycles_pipelined);
}

// ----------------------------------------------------- calibration traces --

snn::SpikeTrace make_calibration_trace(const snn::Topology& topology,
                                       std::size_t steps, double activity,
                                       std::uint64_t seed) {
  require(steps > 0, "make_calibration_trace: steps must be positive");
  require(activity > 0.0 && activity <= 1.0,
          "make_calibration_trace: activity must be in (0,1]");
  snn::SpikeTrace trace;
  trace.layers.resize(topology.layer_count() + 1);
  for (std::size_t l = 0; l <= topology.layer_count(); ++l) {
    const std::size_t neurons =
        l == 0 ? topology.input_neurons() : topology.layers()[l - 1].neurons;
    trace.layers[l].reserve(steps);
    for (std::size_t t = 0; t < steps; ++t) {
      Rng r(stream_seed(seed, l * steps + t));
      snn::SpikeVector v(neurons);
      for (std::size_t i = 0; i < neurons; ++i)
        if (r.bernoulli(activity)) v.set(i);
      trace.layers[l].push_back(std::move(v));
    }
  }
  return trace;
}

}  // namespace resparc::compile::search
