// Technology-aware MCA size selection (paper contribution #3).
//
// "RESPARC is a technology-aware architecture that maps a given SNN
// topology to the most optimized MCA size for the given crossbar
// technology."  Device reliability bounds the usable sizes (large arrays
// suffer sneak paths / IR drop — section 1); among the permitted sizes the
// chip picks the one minimising energy per classification on a
// representative trace set.
#pragma once

#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/energy.hpp"
#include "snn/topology.hpp"
#include "snn/trace.hpp"

namespace resparc::core {

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

/// Every MCA size in `sizes` (in their order) whose worst-case IR-drop
/// signal attenuation (tech::worst_case_ir_attenuation) meets
/// `min_attenuation` for the given device technology: the "permissible by
/// the technology constraints" filter of section 1.  Throws ConfigError
/// when `min_attenuation` is outside (0, 1], a size is 0 or
/// `wire_resistance_ohm` is negative.
std::vector<std::size_t> permissible_sizes(std::span<const std::size_t> sizes,
                                           const tech::Technology& technology,
                                           double wire_resistance_ohm,
                                           double min_attenuation);

/// Evaluates every candidate size on the trace set and picks the energy
/// optimum.  `base` supplies everything except mca_size.
TechAwareResult explore_mca_sizes(const snn::Topology& topology,
                                  std::span<const snn::SpikeTrace> traces,
                                  const ResparcConfig& base,
                                  std::span<const std::size_t> sizes);

}  // namespace resparc::core
