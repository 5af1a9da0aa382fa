// Ablation — technology-aware MCA size selection (contribution #3).
//
// "RESPARC maps a given SNN topology to the most optimized MCA size for
// the given crossbar technology."  This bench filters candidate sizes by
// a device-reliability constraint (worst-case IR-drop attenuation) and
// then picks the energy optimum per benchmark, reporting the choice.
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "compile/techaware.hpp"
#include "core/techaware.hpp"

int main() {
  using namespace resparc;
  std::cout << "== Ablation: technology-aware MCA size selection ==\n\n";

  const std::vector<std::size_t> all_sizes{32, 64, 128, 256};
  const tech::Technology technology = tech::default_technology();
  // A resistive wire (15 ohm/segment) plus a 75% signal floor knocks out
  // the largest arrays — the paper's reliability constraint in action.
  const auto permitted =
      core::permissible_sizes(all_sizes, technology, 15.0, 0.75);

  std::cout << "Device-permissible sizes (wire IR-drop >= 75% signal): ";
  for (std::size_t n : permitted) std::cout << n << ' ';
  std::cout << "\n\n";

  Table t({"Benchmark", "Chosen N", "Energy @ chosen (uJ)", "Energy @ 32",
           "Energy @ max permitted", "Utilisation"});
  Csv csv({"benchmark", "chosen", "energy_uj", "utilization"});

  for (const auto& w : bench::paper_workloads()) {
    const compile::TechAwareResult result = compile::explore_mca_sizes(
        w.topology(), w.traces, core::default_config(), permitted);
    const auto& best = result.best();
    t.add_row({w.topology().name(), std::to_string(best.mca_size),
               Table::num(best.energy_pj * 1e-6, 3),
               Table::num(result.candidates.front().energy_pj * 1e-6, 3),
               Table::num(result.candidates.back().energy_pj * 1e-6, 3),
               Table::num(best.utilization, 3)});
    csv.add_row({w.topology().name(), std::to_string(best.mca_size),
                 Table::num(best.energy_pj * 1e-6, 4),
                 Table::num(best.utilization, 4)});
  }
  t.print(std::cout);
  std::cout << "\nMLPs pick the largest permitted array (peripheral\n"
               "amortisation); CNNs settle on an intermediate size where\n"
               "utilisation and peripheral cost balance.\n";
  bench::note_csv_written("ablation_techaware.csv",
                          csv.write("ablation_techaware.csv"));
  return 0;
}
