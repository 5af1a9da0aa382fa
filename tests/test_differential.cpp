// Differential fuzz sweep: the simulator must agree bit-for-bit with the
// naive reference, and multi-trace replay with the reduced per-trace
// reports, on random legal workloads (api/differential.hpp,
// docs/execution.md).
//
// Two layers of coverage:
//   * a random sweep over kSweepCount seeds (RESPARC_FUZZ_COUNT=N in the
//     environment widens it for soak runs without a rebuild);
//   * the pinned regression corpus (tests/data/corpus/seeds.txt) —
//     hand-picked feature mixes and any seed that ever exposed a bug.
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/differential.hpp"
#include "api/pipeline.hpp"
#include "api/registry.hpp"
#include "common/rng.hpp"
#include "snn/fuzz.hpp"
#include "snn/simulator.hpp"

namespace resparc {
namespace {

constexpr std::uint64_t kSweepCount = 200;

std::uint64_t sweep_count() {
  if (const char* env = std::getenv("RESPARC_FUZZ_COUNT")) {
    const std::uint64_t n = std::strtoull(env, nullptr, 10);
    if (n > 0) return n;
  }
  return kSweepCount;
}

/// Seeds from tests/data/corpus/seeds.txt ('#' starts a comment).
std::vector<std::uint64_t> corpus_seeds() {
  const std::string path =
      std::string(RESPARC_SOURCE_DIR) + "/tests/data/corpus/seeds.txt";
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "missing corpus file: " << path;
  std::vector<std::uint64_t> seeds;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos) continue;
    seeds.push_back(std::strtoull(line.c_str() + first, nullptr, 10));
  }
  return seeds;
}

TEST(Differential, RandomSweepAllPathsAgree) {
  const std::uint64_t count = sweep_count();
  std::size_t spiking_cases = 0;
  for (std::uint64_t seed = 0; seed < count; ++seed) {
    const snn::FuzzCase c = snn::make_fuzz_case(seed);
    const api::DifferentialResult r = api::check_differential(c);
    ASSERT_TRUE(r.ok) << r.detail;
    // Track that the sweep exercises real activity, not a vacuous
    // all-silent agreement.
    if (c.encoder.max_rate > 0.5) ++spiking_cases;
  }
  EXPECT_GT(spiking_cases, count / 4);
}

TEST(Differential, RegressionCorpusAgrees) {
  const std::vector<std::uint64_t> seeds = corpus_seeds();
  ASSERT_FALSE(seeds.empty());
  for (const std::uint64_t seed : seeds) {
    const snn::FuzzCase c = snn::make_fuzz_case(seed);
    const api::DifferentialResult r = api::check_differential(c);
    ASSERT_TRUE(r.ok) << "corpus " << r.detail;
  }
}

// Fault injection freezes its per-cell state at program time, so the
// multi-trace replay and the reduced per-trace reports must stay
// bit-for-bit identical on faulted chips exactly as they are on pristine
// ones.  A smaller sweep than the pristine one: every seed costs a
// compile.
TEST(Differential, FaultedReplayEnginesAgree) {
  constexpr std::uint64_t kFaultSweep = 10;
  for (std::uint64_t seed = 0; seed < kFaultSweep; ++seed) {
    const snn::FuzzCase c = snn::make_fuzz_case(seed);
    const snn::Network net = snn::make_fuzz_network(c);
    snn::SimConfig cfg;
    cfg.timesteps = c.timesteps;
    cfg.encoder = c.encoder;
    cfg.record_trace = true;
    snn::Simulator sim(net, cfg);
    Rng rng(c.seed ^ 0xd1ffe8e47ull);
    const snn::SpikeTrace trace = sim.run(c.image, rng).trace;
    const std::vector<snn::SpikeTrace> traces = {trace, trace};

    api::BackendOptions options;
    options.resparc.faults.enabled = true;
    options.resparc.faults.chip_seed = seed + 1;
    options.resparc.faults.stuck_off_rate = 0.01;
    options.resparc.faults.stuck_on_rate = 0.005;
    options.resparc.faults.programming_sigma = 0.1;
    options.resparc.faults.read_noise_sigma = 0.05;
    // Keep every mPE placeable: this sweep checks engine agreement, not
    // the repair pass, and random fuzz topologies need the whole chip.
    options.resparc.faults.failed_density = 1.0;

    const std::string base = "resparc-" + std::to_string(c.mca_size);
    const auto accel = api::make_accelerator(base, options);
    accel->load(c.topology);
    const api::ExecutionReport ref = accel->execute(traces);
    ASSERT_TRUE(ref.faults.has_value()) << c.summary();
    const api::ExecutionReport r = api::Pipeline::execute(*accel, traces, 2);
    EXPECT_EQ(r.energy_pj, ref.energy_pj) << c.summary();
    EXPECT_EQ(r.latency_ns, ref.latency_ns) << c.summary();
    ASSERT_TRUE(r.faults.has_value()) << c.summary();
    EXPECT_EQ(r.faults->stuck_off_cells, ref.faults->stuck_off_cells)
        << c.summary();
    EXPECT_EQ(r.faults->stuck_on_cells, ref.faults->stuck_on_cells)
        << c.summary();
  }
}

// The generator itself must be deterministic — a corpus seed that
// expanded differently across builds would silently change the test.
TEST(Differential, FuzzCaseGenerationIsDeterministic) {
  const snn::FuzzCase a = snn::make_fuzz_case(42);
  const snn::FuzzCase b = snn::make_fuzz_case(42);
  EXPECT_EQ(a.summary(), b.summary());
  EXPECT_EQ(a.image, b.image);
  EXPECT_EQ(a.thresholds, b.thresholds);
  EXPECT_EQ(a.topology.layers().size(), b.topology.layers().size());
}

// Distinct seeds must explore distinct workloads (the generator isn't
// collapsing its random stream).
TEST(Differential, SeedsDiversify) {
  std::vector<std::string> summaries;
  for (std::uint64_t seed = 0; seed < 16; ++seed)
    summaries.push_back(snn::make_fuzz_case(seed).summary());
  std::size_t distinct = 0;
  for (std::size_t i = 1; i < summaries.size(); ++i)
    if (summaries[i] != summaries[0]) ++distinct;
  EXPECT_GT(distinct, 12u);
}

// A fuzz case must produce actual spikes end to end (guards against the
// whole differential layer passing on silent networks).
TEST(Differential, CasesProduceSpikes) {
  std::size_t live = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const snn::FuzzCase c = snn::make_fuzz_case(seed);
    const snn::Network net = snn::make_fuzz_network(c);
    snn::SimConfig cfg;
    cfg.timesteps = c.timesteps;
    cfg.encoder = c.encoder;
    snn::Simulator sim(net, cfg);
    Rng rng(c.seed);
    if (sim.run(c.image, rng).total_spikes > 0) ++live;
  }
  EXPECT_GT(live, 10u);
}

}  // namespace
}  // namespace resparc
