#include "compile/techaware.hpp"

#include "common/error.hpp"
#include "compile/compiler.hpp"
#include "core/executor.hpp"

namespace resparc::compile {

TechAwareResult explore_mca_sizes(const snn::Topology& topology,
                                  std::span<const snn::SpikeTrace> traces,
                                  const core::ResparcConfig& base,
                                  std::span<const std::size_t> sizes) {
  require(!sizes.empty(), "explore_mca_sizes: no candidate sizes");
  require(!traces.empty(), "explore_mca_sizes: no traces");
  TechAwareResult result;
  for (std::size_t n : sizes) {
    core::ResparcConfig cfg = base;
    cfg.mca_size = n;
    const CompiledProgram program = Compiler(cfg).compile(topology, "paper");
    const core::Mapping& mapping = program.mapping;
    const core::RunReport report =
        core::Executor(topology, mapping, program.routes,
                       noc::Fidelity::kAnalytic)
            .run_all(traces);
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

}  // namespace resparc::compile
