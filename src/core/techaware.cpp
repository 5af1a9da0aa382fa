#include "core/techaware.hpp"

#include "common/error.hpp"
#include "core/resparc.hpp"
#include "tech/memristor.hpp"

namespace resparc::core {

std::vector<std::size_t> permissible_sizes(std::span<const std::size_t> sizes,
                                           const tech::Technology& technology,
                                           double wire_resistance_ohm,
                                           double min_attenuation) {
  require(min_attenuation > 0.0 && min_attenuation <= 1.0,
          "min_attenuation must be in (0,1]");
  const tech::Memristor device{technology.memristor};
  std::vector<std::size_t> ok;
  for (std::size_t n : sizes)
    if (tech::worst_case_ir_attenuation(device, n, wire_resistance_ohm) >=
        min_attenuation)
      ok.push_back(n);
  return ok;
}

TechAwareResult explore_mca_sizes(const snn::Topology& topology,
                                  std::span<const snn::SpikeTrace> traces,
                                  const ResparcConfig& base,
                                  std::span<const std::size_t> sizes) {
  require(!sizes.empty(), "explore_mca_sizes: no candidate sizes");
  require(!traces.empty(), "explore_mca_sizes: no traces");
  TechAwareResult result;
  for (std::size_t n : sizes) {
    ResparcConfig cfg = base;
    cfg.mca_size = n;
    ResparcChip chip(cfg);
    const Mapping& mapping = chip.load(topology);
    const RunReport report = chip.execute(traces);
    SizeCandidate c;
    c.mca_size = n;
    c.energy_pj = report.energy.total_pj();
    c.latency_ns = report.perf.latency_pipelined_ns();
    c.utilization = mapping.utilization;
    c.mca_count = mapping.total_mcas;
    c.neurocells = mapping.total_neurocells;
    result.candidates.push_back(c);
  }
  for (std::size_t i = 1; i < result.candidates.size(); ++i)
    if (result.candidates[i].energy_pj <
        result.candidates[result.best_index].energy_pj)
      result.best_index = i;
  return result;
}

}  // namespace resparc::core
