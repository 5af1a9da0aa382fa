// Ablation — mapping strategies across the compile layer.
//
// RESPARC's reconfigurability claim (section 3.1, Fig. 12c) makes the
// topology→fabric mapping a degree of freedom.  This ablation runs every
// registered compile::MappingStrategy (the paper's mapper "paper", the
// utilisation-first baseline "greedy-pack" and the search-based
// "anneal"/"beam") over all six paper benchmarks (MNIST, SVHN and CIFAR,
// each as MLP and CNN) at MCA 32/64/128 and reports what each strategy
// trades: crossbar utilisation, deployed arrays/NeuroCells,
// serial-bus boundaries, and — from an event-fidelity executor replay of
// identical traces — measured energy per classification, replay latency
// and NoC stall cycles.  (An earlier revision reported simulate-path
// throughput here, which is mapping-independent by construction and was
// identical across strategies; latency and stalls are the quantities a
// mapping actually moves.)  Results go to stdout and to
// bench/trajectory/ablation_mapping_strategy.json for the trajectory;
// tools/validate_trajectory.py checks there that in every (benchmark,
// MCA) cell the better search is no worse than either one-shot mapper,
// which is what justifies the strategy set.
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "api/backends.hpp"
#include "api/pipeline.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "compile/strategy.hpp"
#include "core/config.hpp"
#include "noc/route.hpp"
#include "snn/benchmarks.hpp"

namespace {

using namespace resparc;

struct Row {
  std::string benchmark;
  std::size_t mca = 0;
  std::string strategy;
  double utilization = 0.0;
  std::size_t mcas = 0;
  std::size_t neurocells = 0;
  std::size_t bus_boundaries = 0;
  double energy_uj = 0.0;
  double latency_ns = 0.0;
  double stall_cycles = 0.0;
};

}  // namespace

int main() {
  std::cout << "== Ablation: mapping strategies (compile layer) ==\n\n";

  const std::vector<std::string> strategies = compile::registered_strategies();

  Table t({"Benchmark", "MCA", "Strategy", "Utilisation", "MCAs", "NCs",
           "Bus bnd", "Energy (uJ)", "Latency (ns)", "Stall cyc"});
  std::vector<Row> rows;

  const std::vector<snn::BenchmarkSpec> specs = snn::paper_benchmarks();
  for (const auto& spec : specs) {
    const bench::Workload w = bench::make_workload(spec);
    for (const std::size_t mca : {32u, 64u, 128u}) {
      for (const std::string& strategy : strategies) {
        // Event fidelity: stall cycles are measured FIFO congestion and
        // the leakage term integrates over the stalled wall time, so the
        // replay exposes exactly what a placement costs.
        api::ResparcBackend backend(core::config_with_mca(mca), strategy,
                                    noc::Fidelity::kEvent);
        backend.load(spec.topology);
        const core::Mapping& m = backend.mapping();
        const api::ExecutionReport r =
            api::Pipeline::execute(backend, w.traces, bench::bench_threads());

        Row row;
        row.benchmark = spec.topology.name();
        row.mca = mca;
        row.strategy = strategy;
        row.utilization = m.utilization;
        row.mcas = m.total_mcas;
        row.neurocells = m.total_neurocells;
        row.bus_boundaries = backend.program().cost.bus_boundaries;
        row.energy_uj = r.energy_pj * 1e-6;
        row.latency_ns = r.latency_ns;
        row.stall_cycles = r.resparc->perf.cycles_stall;
        rows.push_back(row);

        t.add_row({row.benchmark, std::to_string(mca), strategy,
                   Table::num(row.utilization, 3), std::to_string(row.mcas),
                   std::to_string(row.neurocells),
                   std::to_string(row.bus_boundaries),
                   Table::num(row.energy_uj, 3),
                   Table::num(row.latency_ns, 1),
                   Table::num(row.stall_cycles, 1)});
      }
    }
  }
  t.print(std::cout);
  std::cout << "\ngreedy-pack lifts CNN utilisation (shared-window conv tiles "
               "+ packed pool\nwindows) and cuts deployed arrays; "
               "anneal/beam search per-layer sizes, tile\npolicies and "
               "NeuroCell alignment (docs/compile.md).  Energy, latency\nand "
               "stalls are event-fidelity replays of identical traces.\n";

  std::ostringstream config;
  config << "{\"benchmarks\": [";
  for (std::size_t i = 0; i < specs.size(); ++i)
    config << (i ? ", " : "") << '"' << specs[i].topology.name() << '"';
  config << "], \"mca_sizes\": [32, 64, 128], \"presentations\": "
         << bench::bench_images() << ", \"timesteps\": "
         << bench::bench_timesteps() << ", \"noc\": \"event\"}";
  std::ostringstream metrics;
  metrics << "{\"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    metrics << "    {\"benchmark\": \"" << r.benchmark << "\", \"mca\": "
            << r.mca << ", \"strategy\": \"" << r.strategy
            << "\", \"utilization\": " << Table::num(r.utilization, 4)
            << ", \"mcas\": " << r.mcas << ", \"neurocells\": " << r.neurocells
            << ", \"bus_boundaries\": " << r.bus_boundaries
            << ", \"energy_uj\": " << Table::num(r.energy_uj, 4)
            << ", \"latency_ns\": " << Table::num(r.latency_ns, 1)
            << ", \"stall_cycles\": " << Table::num(r.stall_cycles, 1) << "}"
            << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  metrics << "  ]}";

  bench::write_trajectory("ablation_mapping_strategy", config.str(), metrics.str());
  return 0;
}
