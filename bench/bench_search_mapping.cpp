// Bench — search-based mapping optimizer vs the one-shot heuristics.
//
// The headline trajectory of the search layer (src/compile/search,
// docs/compile.md): compile the paper-scale MNIST-CNN with greedy-pack
// (the strongest one-shot strategy), anneal and beam, then replay the
// same measured traces on every mapping under *event* NoC fidelity, so
// both axes the search optimises show up as measurements rather than
// model outputs:
//
//   * energy per classification (uJ/class) — the searched heterogeneous
//     MCA mixes must beat greedy-pack by >= 5% (the trajectory validator
//     enforces the floor);
//   * NoC stall cycles per classification — congestion on real switch
//     FIFOs; the searched placements must stall strictly less.
//
// The registered strategies search with the default SearchOptions, so
// the budget (annealing rounds / beam depth) and the search seed are
// fixed and the fresh JSON is comparable with the committed snapshot.
// Results are deterministic in RESPARC_BENCH_SEED for any thread count.
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "api/backends.hpp"
#include "api/pipeline.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "compile/search/search.hpp"
#include "core/config.hpp"
#include "noc/route.hpp"

namespace {

using namespace resparc;

struct Row {
  std::string strategy;
  double energy_uj = 0.0;
  double latency_ns = 0.0;
  double stall_cycles = 0.0;
  double stall_ns = 0.0;
  double utilization = 0.0;
  std::size_t mcas = 0;
  std::size_t neurocells = 0;
  std::size_t bus_boundaries = 0;
  std::size_t mixed_sizes = 0;  ///< layers tiled at a non-default MCA size
};

}  // namespace

int main() {
  std::cout << "== Bench: search-based mapping (anneal/beam vs greedy-pack) "
               "==\n\n";
  const snn::BenchmarkSpec spec = snn::mnist_cnn();
  const bench::Workload w = bench::make_workload(spec);
  const std::size_t mca = 64;
  const std::size_t budget = compile::search::SearchOptions{}.rounds;

  Table t({"Strategy", "Energy (uJ)", "Latency (ns)", "Stall cyc",
           "Utilisation", "MCAs", "NCs", "Bus bnd", "Mixed"});
  std::vector<Row> rows;

  for (const char* strategy : {"greedy-pack", "anneal", "beam"}) {
    // Event fidelity: real switch FIFOs, so stall cycles are measured
    // congestion, and the leakage term integrates over the stalled step.
    api::ResparcBackend backend(core::config_with_mca(mca), strategy,
                                noc::Fidelity::kEvent);
    backend.load(spec.topology);
    const core::Mapping& m = backend.mapping();
    const api::ExecutionReport r =
        api::Pipeline::execute(backend, w.traces, bench::bench_threads());

    Row row;
    row.strategy = strategy;
    row.energy_uj = r.energy_pj * 1e-6;
    row.latency_ns = r.latency_ns;
    row.stall_cycles = r.resparc->perf.cycles_stall;
    row.stall_ns = r.bucket_ns("noc_stall");
    row.utilization = m.utilization;
    row.mcas = m.total_mcas;
    row.neurocells = m.total_neurocells;
    row.bus_boundaries = backend.program().cost.bus_boundaries;
    for (std::size_t l = 0; l < m.layers.size(); ++l)
      if (m.layers[l].mca_size != 0) ++row.mixed_sizes;
    rows.push_back(row);

    t.add_row({row.strategy, Table::num(row.energy_uj, 3),
               Table::num(row.latency_ns, 1), Table::num(row.stall_cycles, 1),
               Table::num(row.utilization, 3), std::to_string(row.mcas),
               std::to_string(row.neurocells),
               std::to_string(row.bus_boundaries),
               std::to_string(row.mixed_sizes)});
  }
  t.print(std::cout);
  std::cout << "\nanneal/beam search per-layer MCA sizes, tile policies and "
               "NeuroCell\nalignment (docs/compile.md); greedy-pack is the "
               "strongest one-shot\nbaseline.  Energy and stalls are measured "
               "event-fidelity replays of\nidentical traces.\n";

  std::ostringstream config;
  config << "{\"benchmark\": \"" << spec.topology.name()
         << "\", \"mca\": " << mca
         << ", \"presentations\": " << bench::bench_images()
         << ", \"timesteps\": " << bench::bench_timesteps()
         << ", \"search_budget\": " << budget
         << ", \"noc\": \"event\"}";
  std::ostringstream metrics;
  metrics << "{\"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    metrics << "    {\"strategy\": \"" << r.strategy
            << "\", \"energy_uj\": " << Table::num(r.energy_uj, 4)
            << ", \"latency_ns\": " << Table::num(r.latency_ns, 1)
            << ", \"stall_cycles\": " << Table::num(r.stall_cycles, 1)
            << ", \"stall_ns\": " << Table::num(r.stall_ns, 1)
            << ", \"utilization\": " << Table::num(r.utilization, 4)
            << ", \"mcas\": " << r.mcas
            << ", \"neurocells\": " << r.neurocells
            << ", \"bus_boundaries\": " << r.bus_boundaries
            << ", \"mixed_sizes\": " << r.mixed_sizes << "}"
            << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  metrics << "  ]}";

  bench::write_trajectory("bench_search_mapping", config.str(), metrics.str());
  return 0;
}
