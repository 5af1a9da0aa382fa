#include "compile/cost_model.hpp"

#include <algorithm>
#include <cmath>

#include "core/executor.hpp"
#include "tech/memristor.hpp"
#include "tech/sram.hpp"

namespace resparc::compile {

using core::kBusCyclesPerWord;
using core::McaGroup;

LayerCost layer_cost(const snn::LayerInfo& layer,
                     const core::LayerMapping& mapping, std::size_t mca_size,
                     const core::ResparcConfig& config, double activity) {
  require(activity > 0.0 && activity <= 1.0,
          "layer_cost: activity must be in (0,1]");
  const tech::DigitalCosts& d = config.technology.digital;
  const tech::Memristor device{config.technology.memristor};
  const double cell_pj = device.mean_cell_read_energy_pj();
  const double cell_off_pj = device.cell_read_energy_pj(device.g_min());
  const double sneak = device.params().sneak_leak_fraction;
  const std::size_t N = mca_size;

  // The layer's energy is a subtotal of its own, added to the chip total
  // in one step: the search ranks candidates by exactly this order.
  LayerCost cost;
  // -- crossbar reads + per-array periphery ---------------------------------
  for (const McaGroup& g : mapping.groups) {
    const double driven_rows =
        activity * static_cast<double>(g.rows_used * g.mca_count);
    const double driven_cells = driven_rows * static_cast<double>(N);
    const double used_cells = activity * static_cast<double>(g.synapses);
    cost.energy_pj += used_cells * cell_pj +
                      std::max(0.0, driven_cells - used_cells) * cell_off_pj;
    if (sneak > 0.0) {
      const double total_cells =
          static_cast<double>(g.mca_count) * static_cast<double>(N * N);
      cost.energy_pj +=
          sneak * std::max(0.0, total_cells - driven_cells) * cell_off_pj;
    }
    cost.energy_pj += static_cast<double>(g.mca_count) * d.mca_control_pj +
                      static_cast<double>(g.mca_count * N) *
                          (d.column_interface_pj + d.buffer_bit_pj);
    cost.energy_pj += static_cast<double>(g.cols_used) * d.neuron_integrate_pj;
  }
  // -- neuron firing + time-multiplex transfers -----------------------------
  cost.energy_pj +=
      activity * static_cast<double>(layer.neurons) * d.neuron_fire_pj;
  cost.energy_pj +=
      static_cast<double>(layer.neurons * mapping.ccu_transfers_per_neuron) *
      d.ccu_transfer_pj;
  cost.compute_cycles = static_cast<double>(mapping.mux_cycles) + 1.0;
  cost.leak_columns = static_cast<double>(mapping.mca_count * N);
  return cost;
}

CostEstimate estimate_cost(const snn::Topology& topology,
                           const core::Mapping& mapping,
                           double activity) {
  return estimate_cost(topology, mapping, noc::compute_routes(mapping),
                       activity);
}

CostEstimate estimate_cost(const snn::Topology& topology,
                           const core::Mapping& mapping,
                           const noc::RouteTable& routes, double activity,
                           std::span<const LayerCost> layers) {
  const std::size_t layer_count = topology.layer_count();
  require(layer_count == mapping.layers.size(),
          "estimate_cost: mapping does not match topology");
  require(routes.size() == layer_count + 1,
          "estimate_cost: route table does not cover every boundary");
  require(activity > 0.0 && activity <= 1.0,
          "estimate_cost: activity must be in (0,1]");
  require(layers.empty() || layers.size() == layer_count,
          "estimate_cost: layer costs do not match topology");

  const core::ResparcConfig& cfg = mapping.config;
  const tech::Technology& t = cfg.technology;
  const tech::DigitalCosts& d = t.digital;
  const tech::SramModel sram{
      {.capacity_bytes = cfg.input_sram_bytes, .word_bits = 64}};

  double energy_pj = 0.0;
  double stage_max = 0.0;
  double leak_columns = 0.0;
  std::size_t bus_boundaries = 0;

  // -- input broadcast from the SRAM ----------------------------------------
  {
    const std::size_t words = word_count(topology.input_neurons());
    const double sent = expected_sent_words(words, activity, cfg.event_driven);
    energy_pj += sent * (sram.read_energy_pj() + sram.write_energy_pj() +
                         d.bus_word_pj);
    stage_max = std::max(stage_max, kBusCyclesPerWord * sent);
    ++bus_boundaries;
  }

  for (std::size_t l = 0; l < layer_count; ++l) {
    const snn::LayerInfo& li = topology.layers()[l];
    // Heterogeneous chips size arrays per layer (Mapping::layer_mca_size);
    // homogeneous mappings resolve to cfg.mca_size.
    const LayerCost lc =
        layers.empty() ? layer_cost(li, mapping.layers[l],
                                    mapping.layer_mca_size(l), cfg, activity)
                       : layers[l];
    energy_pj += lc.energy_pj;
    leak_columns += lc.leak_columns;

    // -- output transfer toward the next layer ------------------------------
    const std::size_t words = word_count(li.neurons);
    const double sent = expected_sent_words(words, activity, cfg.event_driven);
    // The routing pass decided the boundary's path; route.uses_bus agrees
    // with Mapping::boundary_uses_bus by construction (final egress is a
    // bus route).
    const bool via_bus = routes.at(l + 1).uses_bus;
    if (via_bus) {
      energy_pj += sent * (d.bus_word_pj + sram.read_energy_pj() +
                           sram.write_energy_pj()) +
                   d.gcu_event_pj;
      ++bus_boundaries;
    } else {
      energy_pj += sent * d.switch_flit_pj;
    }
    energy_pj +=
        sent * static_cast<double>(2 * t.flit_bits + 16) * d.buffer_bit_pj;

    const double transfer_c =
        via_bus ? kBusCyclesPerWord * sent
                : std::ceil(sent / static_cast<double>(cfg.nc_dim));
    stage_max = std::max(stage_max, std::max(lc.compute_cycles, transfer_c));
  }

  // -- leakage over one steady-state (pipelined) step ------------------------
  const double leak_w =
      leak_columns * d.mca_column_leak_w + sram.leakage_w();
  const double step_ns = stage_max * 1e3 / t.resparc_clock_mhz;
  energy_pj += leak_w * step_ns * 1e3;  // W*ns -> pJ

  CostEstimate cost;
  cost.energy_pj_per_step = energy_pj;
  cost.cycles_per_step = stage_max;
  cost.utilization = mapping.utilization;
  cost.bus_boundaries = bus_boundaries;
  cost.total_mcas = mapping.total_mcas;
  cost.total_neurocells = mapping.total_neurocells;
  cost.activity = activity;
  return cost;
}

}  // namespace resparc::compile
