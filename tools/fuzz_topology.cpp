// fuzz_topology: bulk driver of the differential test layer.
//
// Expands a range of seeds into random legal workloads (snn/fuzz.hpp)
// and, by default, pushes each through the simulator and its naive
// reference and through both replay paths, demanding bit-for-bit
// agreement (api/differential.hpp).
// Used to hunt for divergences beyond what tests/test_differential.cpp
// sweeps per ctest run, and to pick seeds for the regression corpus
// (tests/data/corpus/): the printed one-line summaries show which
// features each seed covers.
//
//   fuzz_topology                          verify seeds 0..199
//   fuzz_topology --count 10000            a long overnight hunt
//   fuzz_topology --start 5000 --count 64  a disjoint seed window
//   fuzz_topology --list --count 50        print summaries, skip verify
//
// Exit status: 0 when every case agreed, 1 on the first divergence
// (printed with the seed so it can be added to the corpus), 2 on usage.
#include <cstdlib>
#include <iostream>
#include <string>

#include "api/differential.hpp"
#include "snn/fuzz.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0 << " [--start N] [--count N] [--list]\n"
            << "  --start N  first seed (default 0)\n"
            << "  --count N  number of seeds (default 200)\n"
            << "  --list     print case summaries without verifying\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t start = 0;
  std::uint64_t count = 200;
  bool list_only = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--start" && i + 1 < argc) {
      start = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--count" && i + 1 < argc) {
      count = std::strtoull(argv[++i], nullptr, 10);
      if (count == 0) return usage(argv[0]);
    } else if (arg == "--list") {
      list_only = true;
    } else {
      return usage(argv[0]);
    }
  }

  std::uint64_t checked = 0;
  for (std::uint64_t seed = start; seed < start + count; ++seed) {
    const resparc::snn::FuzzCase c = resparc::snn::make_fuzz_case(seed);
    if (list_only) {
      std::cout << c.summary() << "\n";
      continue;
    }
    const resparc::api::DifferentialResult r =
        resparc::api::check_differential(c);
    if (!r.ok) {
      std::cerr << "DIVERGENCE " << r.detail << "\n";
      return 1;
    }
    ++checked;
    if (checked % 50 == 0)
      std::cout << checked << "/" << count << " cases agreed (last: "
                << c.summary() << ")\n";
  }
  if (!list_only)
    std::cout << checked << " cases: engine == reference, "
              << "execute == execute_each\n";
  return 0;
}
