// Micro-benchmark — the simulator across input sparsity
// (docs/execution.md, docs/benchmarks.md).
//
// The MNIST CNN workload is calibrated ONCE at full input rate (the
// paper's ~10%-activity regime); the sweep then presents the same fixed
// network with progressively sparser Poisson input by scaling the
// encoder rate — the physically meaningful experiment: a dimmer input on
// unchanged thresholds quiets every downstream layer, exactly the regime
// where event-driven execution pays (paper section 3.2, Fig. 13).  For
// each sparsity level the bench reports measured input sparsity and mean
// activity (snn/stats.hpp), the simulator's traces/sec and its
// speedup over the rate-1.0 row; throughput must rise monotonically with
// sparsity.  The simulator picks its stepped or touched branch per layer
// and step (snn/simulator.hpp), so this sweep is also what the
// Simulator touched-branch crossovers are measured with.  Results go to
// stdout and bench/trajectory/bench_sparse_execution.json (the trajectory
// envelope of bench/trajectory/README.md).
//
// Environment knobs:
//   RESPARC_BENCH_IMAGES    presentations per measurement (default 3)
//   RESPARC_BENCH_TIMESTEPS presentation length           (default 16)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "api/pipeline.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "snn/benchmarks.hpp"
#include "snn/simulator.hpp"
#include "snn/stats.hpp"

namespace {

using namespace resparc;
using Clock = std::chrono::steady_clock;

struct Row {
  double rate = 1.0;          ///< encoder max_rate scale
  double input_sparsity = 0;  ///< measured 1 - input activity
  double mean_activity = 0;   ///< measured spikes/neuron/step, all layers
  double tps = 0;             ///< simulated traces/sec
  double speedup = 0;         ///< tps / tps of the rate-1.0 row
};

/// Traces/sec of one reused, warmed simulator over the images.  Each of
/// `repeats` measurements runs whole passes for at least kMinSeconds;
/// the best is reported (the stable statistic on a shared machine).
double time_engine(const api::Workload& w, const snn::SimConfig& base,
                   std::size_t images, std::size_t repeats) {
  constexpr double kMinSeconds = 0.2;
  snn::SimConfig cfg = base;
  cfg.record_trace = false;
  snn::Simulator sim(w.network, cfg);
  snn::SimResult result;
  const auto pass = [&] {
    for (std::size_t i = 0; i < images; ++i) {
      Rng rng(api::presentation_seed(bench::bench_seed(), i));
      sim.run(w.test.images[i], rng, result);
    }
  };
  pass();  // warm-up: sizes every buffer
  double best = 0.0;
  for (std::size_t r = 0; r < repeats; ++r) {
    const auto start = Clock::now();
    std::size_t passes = 0;
    double seconds = 0.0;
    do {
      pass();
      ++passes;
      seconds = std::chrono::duration<double>(Clock::now() - start).count();
    } while (seconds < kMinSeconds);
    best = std::max(best, static_cast<double>(passes * images) / seconds);
  }
  return best;
}

}  // namespace

int main() {
  const std::size_t images = std::max<std::size_t>(bench::bench_images(), 3);
  const std::size_t timesteps =
      std::min<std::size_t>(bench::bench_timesteps(), 16);
  const std::size_t repeats = 5;

  std::printf("== simulator throughput vs input sparsity ==\n");
  std::printf("(mnist-cnn, %zu presentations x %zu timesteps, thresholds "
              "calibrated once at full rate)\n\n",
              images, timesteps);

  // One calibration at full rate; the sweep only changes the encoder.
  api::PipelineOptions opt;
  opt.images = images;
  opt.timesteps = timesteps;
  opt.threads = 1;
  const api::Workload w =
      api::Pipeline(opt).benchmark(snn::mnist_cnn()).run();

  const std::vector<double> rates = {1.0, 0.5, 0.2, 0.1, 0.05, 0.02};
  std::vector<Row> rows;
  for (const double rate : rates) {
    snn::SimConfig cfg;
    cfg.timesteps = timesteps;
    cfg.encoder.max_rate = rate;

    // Measured sparsity of this sweep point: every trace has one shape, so
    // the mean over traces is the slot-weighted mean over the set.
    double input_activity = 0.0;
    double activity = 0.0;
    {
      snn::Simulator sim(w.network, cfg);
      for (std::size_t i = 0; i < images; ++i) {
        Rng rng(api::presentation_seed(bench::bench_seed(), i));
        const snn::SpikeTrace trace = sim.run(w.test.images[i], rng).trace;
        input_activity += trace.layer_activity(0);
        activity += snn::mean_activity(trace);
      }
    }

    Row row;
    row.rate = rate;
    row.input_sparsity = 1.0 - input_activity / static_cast<double>(images);
    row.mean_activity = activity / static_cast<double>(images);
    row.tps = time_engine(w, cfg, images, repeats);
    // The sweep starts at rate 1.0, the baseline every speedup is over.
    row.speedup = row.tps / (rows.empty() ? row.tps : rows.front().tps);
    rows.push_back(row);

    std::printf("rate %4.2f | input sparsity %5.1f%% | activity %6.4f | "
                "%8.1f tr/s | speedup %5.2fx\n",
                row.rate, 100.0 * row.input_sparsity, row.mean_activity,
                row.tps, row.speedup);
  }

  std::ostringstream config;
  config << "{\"benchmark\": \"mnist-cnn\", \"presentations\": " << images
         << ", \"timesteps\": " << timesteps << ", \"repeats\": " << repeats
         << ", \"calibration\": \"once-at-full-rate\"}";
  std::ostringstream metrics;
  metrics << "{\"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    metrics << "    {\"rate\": " << Table::num(r.rate, 2)
            << ", \"input_sparsity\": " << Table::num(r.input_sparsity, 4)
            << ", \"mean_activity\": " << Table::num(r.mean_activity, 5)
            << ", \"tps\": " << Table::num(r.tps, 1)
            << ", \"speedup\": " << Table::num(r.speedup, 2) << "}"
            << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  metrics << "  ]}";

  bench::write_trajectory("bench_sparse_execution", config.str(), metrics.str());
  return 0;
}
