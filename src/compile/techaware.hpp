// Technology-aware MCA size selection (paper contribution #3).
//
// "RESPARC is a technology-aware architecture that maps a given SNN
// topology to the most optimized MCA size for the given crossbar
// technology."  Device reliability bounds the usable sizes
// (core::permissible_sizes, core/techaware.hpp); among the permitted sizes
// the mapper picks the one minimising energy per classification on a
// representative trace set.
#pragma once

#include <span>
#include <vector>

#include "core/config.hpp"
#include "snn/topology.hpp"
#include "snn/trace.hpp"

namespace resparc::compile {

/// One evaluated candidate.
struct SizeCandidate {
  std::size_t mca_size = 0;        ///< crossbar rows/columns of this candidate
  double energy_pj = 0.0;          ///< per classification
  double latency_ns = 0.0;         ///< pipelined, per classification
  double utilization = 0.0;        ///< whole-chip crosspoint utilisation
  std::size_t mca_count = 0;       ///< MCAs the mapping occupies
  std::size_t neurocells = 0;      ///< NeuroCells the mapping occupies
};

/// Result of the exploration.
struct TechAwareResult {
  std::vector<SizeCandidate> candidates;  ///< in the order evaluated
  std::size_t best_index = 0;             ///< argmin energy
  /// The energy-optimal candidate, `candidates[best_index]`.
  const SizeCandidate& best() const { return candidates[best_index]; }
};

/// Compiles `topology` with the "paper" strategy at every candidate size,
/// replays the trace set on each and picks the energy optimum.  `base`
/// supplies everything except mca_size.
TechAwareResult explore_mca_sizes(const snn::Topology& topology,
                                  std::span<const snn::SpikeTrace> traces,
                                  const core::ResparcConfig& base,
                                  std::span<const std::size_t> sizes);

}  // namespace resparc::compile
