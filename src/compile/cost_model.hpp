// Analytic cost model: scores a candidate mapping without spike traces.
//
// Mirrors the executor's event accounting (core/executor.cpp,
// docs/execution.md) but replaces recorded per-step spike counts with one assumed
// activity factor (spikes/neuron/step), so candidates can be ranked at
// compile time in microseconds instead of replaying presentations.  All
// energies come from the same technology tables (tech::DigitalCosts,
// tech::Memristor, tech::SramModel) the executor charges, so the estimate
// tracks the measured numbers to first order — it is a *ranking* signal,
// not a substitute for trace-driven execution.
//
// The model splits into per-layer terms that depend only on a layer's
// tiling (layer_cost) and the terms that depend on placement (boundary
// transport, the pipelined critical path, leakage over it), which
// estimate_cost adds.  The search strategies (src/compile/search) memoise
// layer_cost per tiling and pass the results back in, so re-scoring a
// placement-only move re-costs only the boundaries.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>

#include "compile/program.hpp"
#include "core/config.hpp"
#include "core/mapper.hpp"
#include "noc/route.hpp"
#include "snn/topology.hpp"

namespace resparc::compile {

/// 64-bit words needed to carry `bits` spikes.
inline std::size_t word_count(std::size_t bits) { return (bits + 63) / 64; }

/// Expected number of non-zero 64-bit words of a spike vector whose bits
/// are independently set with probability `activity` — what the zero-check
/// logic forwards in event-driven mode (every word otherwise).
inline double expected_sent_words(std::size_t words, double activity,
                                  bool event_driven) {
  if (!event_driven) return static_cast<double>(words);
  const double p_zero_word = std::pow(1.0 - activity, 64.0);
  return static_cast<double>(words) * (1.0 - p_zero_word);
}

/// Placement-independent analytic terms of one mapped layer per timestep.
struct LayerCost {
  double energy_pj = 0.0;       ///< crossbar + control + neuron + CCU energy
  double compute_cycles = 0.0;  ///< the layer's compute stage: mux_cycles + 1
  double leak_columns = 0.0;    ///< leaking array columns: mca_count * N
};

/// Per-layer terms of `layer` tiled as `mapping` on arrays of `mca_size`
/// under `config`'s technology tables at spike `activity` (in (0,1]).
/// Depends only on the tiling, never on where the layer is placed.
LayerCost layer_cost(const snn::LayerInfo& layer,
                     const core::LayerMapping& mapping, std::size_t mca_size,
                     const core::ResparcConfig& config, double activity);

/// Estimates per-timestep energy and pipelined cycles of `mapping` at a
/// uniform spike `activity` (fraction of neurons spiking each step),
/// charging each boundary transfer along its Ml-NoC route — the same
/// table the executor replays on, so the ranking cannot drift from the
/// measured transport model.  `layers`, when non-empty, supplies each
/// layer's layer_cost (one per topology layer, else a ConfigError); when
/// empty every layer is costed fresh.  Both paths give bit-identical
/// totals.
CostEstimate estimate_cost(const snn::Topology& topology,
                           const core::Mapping& mapping,
                           const noc::RouteTable& routes,
                           double activity = 0.10,
                           std::span<const LayerCost> layers = {});

/// Convenience overload: derives the routes with noc::compute_routes
/// (identical result — the routing pass is deterministic).
CostEstimate estimate_cost(const snn::Topology& topology,
                           const core::Mapping& mapping,
                           double activity = 0.10);

}  // namespace resparc::compile
