// Technology explorer — the paper's "technology-aware mapping" in action.
//
// For two memristive technologies (the default PCM device, Ag-Si) this
// example filters the candidate MCA sizes by a wire-reliability
// constraint, maps the MNIST benchmarks at every permitted size, and
// reports the energy-optimal choice per network (paper contribution #3).  Traces come from one
// Pipeline call per benchmark; the size exploration itself is the
// compile::explore_mca_sizes analysis.
//
//   ./technology_explorer
#include <cstdio>
#include <vector>

#include "api/pipeline.hpp"
#include "compile/techaware.hpp"
#include "core/techaware.hpp"
#include "snn/benchmarks.hpp"

int main() {
  using namespace resparc;
  const std::vector<std::size_t> sizes{32, 64, 128, 256};

  for (const tech::Technology& technology :
       {tech::default_technology(), tech::agsi_technology()}) {
    // Ag-Si's higher resistance tolerates more wire drop than PCM's 20k
    // on-state; the same wiring therefore permits larger Ag-Si arrays.
    const auto permitted =
        core::permissible_sizes(sizes, technology, 15.0, 0.75);
    std::printf("technology %s: permitted MCA sizes {", technology.name.c_str());
    for (std::size_t n : permitted) std::printf(" %zu", n);
    std::printf(" }\n");

    for (const auto& spec : {snn::mnist_mlp(), snn::mnist_cnn()}) {
      api::PipelineOptions opt;
      opt.images = 2;
      opt.timesteps = 24;
      opt.seed = 11;
      const api::Workload w = api::Pipeline(opt).benchmark(spec).run();

      core::ResparcConfig base = core::default_config();
      base.technology = technology;
      const compile::TechAwareResult result =
          compile::explore_mca_sizes(spec.topology, w.traces, base, permitted);
      std::printf("  %-10s ->", spec.topology.name().c_str());
      for (const auto& c : result.candidates)
        std::printf("  N%-3zu %8.3f uJ (util %4.1f%%)", c.mca_size,
                    c.energy_pj * 1e-6, 100.0 * c.utilization);
      std::printf("  => pick N%zu\n", result.best().mca_size);
    }
  }
  std::printf(
      "\nThe chip picks the largest reliable array for dense MLPs and an\n"
      "intermediate size for CNNs — 'technology-aware' mapping (section 1).\n");
  return 0;
}
