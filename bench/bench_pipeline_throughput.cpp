// Micro-benchmark — batched pipeline throughput vs thread count.
//
// Measures the two thread-pooled stages of api::Pipeline on the MNIST MLP
// benchmark: trace simulation (presentations/sec of Pipeline::run's
// simulate stage, timed on its own) and backend execution (traces/sec
// through Pipeline::execute on the RESPARC and CMOS backends), at 1, 2,
// 4 and 8 threads up to the host's hardware threads.
// Results go to stdout and to
// bench/trajectory/pipeline_throughput.json so future PRs can track the
// perf trajectory.
//
// Environment knobs:
//   RESPARC_BENCH_IMAGES    presentations per measurement (default 8)
//   RESPARC_BENCH_TIMESTEPS presentation length           (default 16)
//   RESPARC_BENCH_REPS      timing repetitions, min reported (default 5)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/pipeline.hpp"
#include "bench_util.hpp"
#include "common/thread_pool.hpp"
#include "snn/benchmarks.hpp"
#include "snn/simulator.hpp"

namespace {

using namespace resparc;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::size_t bench_reps() {
  if (const char* env = std::getenv("RESPARC_BENCH_REPS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 5;
}

/// Minimum wall time of fn() over `reps` runs — the stable statistic on
/// a shared/noisy machine.
template <typename Fn>
double min_seconds(std::size_t reps, Fn&& fn) {
  double best = 1e300;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    fn();
    best = std::min(best, seconds_since(start));
  }
  return best;
}

struct Row {
  std::size_t threads = 0;
  double simulate_tps = 0.0;          ///< presentations simulated per second
  double execute_resparc_tps = 0.0;   ///< traces replayed per second
  double execute_cmos_tps = 0.0;
};

}  // namespace

int main() {
  const std::size_t images =
      std::max<std::size_t>(bench::bench_images(), 8);
  const std::size_t timesteps =
      std::min<std::size_t>(bench::bench_timesteps(), 16);
  const std::size_t reps = bench_reps();
  const std::size_t host_threads =
      std::max(1u, std::thread::hardware_concurrency());
  std::printf("== pipeline throughput vs thread count ==\n");
  std::printf("(mnist-mlp, %zu presentations x %zu timesteps, %zu reps, "
              "%zu hardware threads)\n\n",
              images, timesteps, reps, host_threads);

  const snn::BenchmarkSpec spec = snn::mnist_mlp();

  // One warm workload provides the calibrated network and the traces
  // every row replays.
  api::PipelineOptions opt;
  opt.images = images;
  opt.timesteps = timesteps;
  opt.threads = 1;
  const api::Workload warm = api::Pipeline(opt).benchmark(spec).run();

  const auto resparc = api::make_accelerator("resparc-64");
  const auto cmos = api::make_accelerator("cmos");
  resparc->load(warm.topology());
  cmos->load(warm.topology());

  // The simulate stage timed on its own: the warm workload's images go
  // through the calibrated network exactly as Pipeline::run presents
  // them (one reused simulator per pool worker, per-presentation seeds,
  // traces recorded), so no other pipeline stage is inside the interval.
  snn::SimConfig sim_config;
  sim_config.timesteps = timesteps;
  sim_config.encoder = opt.encoder;
  ThreadPool& pool = ThreadPool::global();
  std::vector<std::unique_ptr<snn::Simulator>> sims(pool.width());
  const std::function<void(std::size_t, std::size_t)> present =
      [&](std::size_t i, std::size_t worker) {
        auto& sim = sims[worker];
        if (!sim)
          sim = std::make_unique<snn::Simulator>(warm.network, sim_config);
        Rng rng(api::presentation_seed(opt.seed, i));
        (void)sim->run(warm.test.images[i], rng);
      };

  // Traces are thread-count invariant (test-enforced), so every row
  // replays the one warm workload's traces — no per-row pipeline rebuild.
  // No row claims more threads than the host has.
  std::vector<Row> rows;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    if (threads > host_threads) break;
    Row row;
    row.threads = threads;

    row.simulate_tps =
        static_cast<double>(warm.traces.size()) /
        min_seconds(reps, [&] {
          pool.run_indexed(warm.traces.size(), threads, present);
        });

    row.execute_resparc_tps =
        static_cast<double>(warm.traces.size()) /
        min_seconds(reps, [&] {
          (void)api::Pipeline::execute(*resparc, warm.traces, threads);
        });

    row.execute_cmos_tps =
        static_cast<double>(warm.traces.size()) /
        min_seconds(reps, [&] {
          (void)api::Pipeline::execute(*cmos, warm.traces, threads);
        });

    rows.push_back(row);
    std::printf("threads %2zu: simulate %8.2f pres/s | execute resparc "
                "%8.2f traces/s | execute cmos %8.2f traces/s\n",
                row.threads, row.simulate_tps, row.execute_resparc_tps,
                row.execute_cmos_tps);
  }

  std::ostringstream config;
  config << "{\"benchmark\": \"mnist-mlp\", \"presentations\": " << images
         << ", \"timesteps\": " << timesteps << ", \"reps\": " << reps
         << ", \"hardware_threads\": " << host_threads << "}";
  std::ostringstream metrics;
  metrics << "{\"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    metrics << "    {\"threads\": " << r.threads
            << ", \"simulate_tps\": " << r.simulate_tps
            << ", \"execute_resparc_tps\": " << r.execute_resparc_tps
            << ", \"execute_cmos_tps\": " << r.execute_cmos_tps << "}"
            << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  metrics << "  ]}";

  bench::write_trajectory("pipeline_throughput", config.str(), metrics.str());
  return 0;
}
