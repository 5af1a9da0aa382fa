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
#pragma once

#include <cmath>
#include <cstddef>

#include "compile/program.hpp"
#include "core/mapper.hpp"
#include "noc/route.hpp"
#include "snn/topology.hpp"

namespace resparc::compile {

/// 64-bit words needed to carry `bits` spikes.
inline std::size_t word_count(std::size_t bits) { return (bits + 63) / 64; }

/// Expected number of non-zero 64-bit words of a spike vector whose bits
/// are independently set with probability `activity` — what the zero-check
/// logic forwards in event-driven mode (every word otherwise).  Shared by
/// estimate_cost and search::AnalyticOracle.
inline double expected_sent_words(std::size_t words, double activity,
                                  bool event_driven) {
  if (!event_driven) return static_cast<double>(words);
  const double p_zero_word = std::pow(1.0 - activity, 64.0);
  return static_cast<double>(words) * (1.0 - p_zero_word);
}

/// Estimates per-timestep energy and pipelined cycles of `mapping` at a
/// uniform spike `activity` (fraction of neurons spiking each step),
/// charging each boundary transfer along its Ml-NoC route — the same
/// table the executor replays on, so the ranking cannot drift from the
/// measured transport model.
CostEstimate estimate_cost(const snn::Topology& topology,
                           const core::Mapping& mapping,
                           const noc::RouteTable& routes,
                           double activity = 0.10);

/// Convenience overload: derives the routes with noc::compute_routes
/// (identical result — the routing pass is deterministic).
CostEstimate estimate_cost(const snn::Topology& topology,
                           const core::Mapping& mapping,
                           double activity = 0.10);

}  // namespace resparc::compile
