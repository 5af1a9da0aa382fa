#include "api/pipeline.hpp"

#include <algorithm>
#include <memory>
#include <ostream>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "data/synthetic.hpp"
#include "snn/quantize.hpp"
#include "snn/stats.hpp"
#include "train/convert.hpp"

namespace resparc::api {

std::uint64_t presentation_seed(std::uint64_t seed, std::size_t index) {
  // SplitMix64 over the (seed, index) pair: decorrelated per-presentation
  // streams that do not depend on simulation order or thread schedule.
  // Delegates to the shared stream discipline in common/rng.hpp
  // (bit-identical to the historical inline expansion).
  return stream_seed(seed, static_cast<std::uint64_t>(index));
}

// ------------------------------------------------------------- comparison --

const ComparisonEntry* ComparisonReport::find(const std::string& backend) const {
  for (const auto& entry : entries)
    if (entry.backend == backend) return &entry;
  return nullptr;
}

void ComparisonReport::print(std::ostream& os) const {
  Table t({"Backend", "Energy/class (uJ)", "Latency (us)", "Throughput (1/s)",
           "Energy gain", "Speedup"});
  for (const auto& e : entries) {
    t.add_row({e.report.backend, Table::num(e.report.energy_pj * 1e-6, 4),
               Table::num(e.report.latency_ns * 1e-3, 3),
               Table::num(e.report.throughput_hz, 0),
               Table::factor(e.energy_gain, 1), Table::factor(e.speedup, 1)});
  }
  t.print(os);
}

// --------------------------------------------------------------- pipeline --

Pipeline::Pipeline(PipelineOptions options) : options_(std::move(options)) {}

Pipeline& Pipeline::options(PipelineOptions options) {
  options_ = std::move(options);
  return *this;
}

Pipeline& Pipeline::benchmark(const snn::BenchmarkSpec& spec) {
  kind_ = spec.dataset;
  topology_ = spec.topology;
  network_.reset();
  return *this;
}

Pipeline& Pipeline::dataset(snn::DatasetKind kind) {
  kind_ = kind;
  return *this;
}

Pipeline& Pipeline::topology(snn::Topology topology) {
  topology_ = std::move(topology);
  network_.reset();
  return *this;
}

Pipeline& Pipeline::network(snn::Network network) {
  topology_ = network.topology();
  network_ = std::move(network);
  return *this;
}

data::Dataset Pipeline::synthesize(std::size_t count) const {
  require(kind_.has_value(), "pipeline: no dataset selected");
  require(topology_.has_value(), "pipeline: no topology selected");
  const data::SyntheticOptions opt{.count = count,
                                   .seed = options_.seed,
                                   .noise = options_.noise,
                                   .jitter_pixels = options_.jitter_pixels};
  // The SVHN/CIFAR MLP benchmarks consume the 16x16x3 downsampled input
  // (docs/architecture.md); any topology whose input matches the family's
  // native shape gets the native images.  A one-image probe picks the
  // variant without synthesising the full native set twice.
  const std::size_t want = topology_->input_shape().size();
  data::SyntheticOptions probe = opt;
  probe.count = 1;
  if (data::make_synthetic(*kind_, probe).shape.size() == want)
    return data::make_synthetic(*kind_, opt);
  data::Dataset down = data::make_synthetic_downsampled(*kind_, opt);
  require(down.shape.size() == want,
          "pipeline: topology input (" + std::to_string(want) +
              ") matches neither the native nor the downsampled shape of " +
              snn::to_string(*kind_));
  return down;
}

Workload Pipeline::run() {
  require(topology_.has_value() || network_.has_value(),
          "pipeline: no benchmark, topology or network selected");

  std::vector<snn::SpikeTrace> traces;
  std::vector<std::size_t> predicted;
  data::Dataset test;
  std::optional<train::TrainReport> training;
  double ann_test_accuracy = 0.0;

  // -- network construction -------------------------------------------------
  std::optional<snn::Network> net;
  if (options_.train) {
    require(!network_.has_value(),
            "pipeline: train and a caller-provided network are exclusive");
    const data::Dataset all =
        synthesize(options_.train_images + options_.images);
    const data::Dataset train_set = all.take(options_.train_images);
    test = all.drop(options_.train_images);

    train::Ann ann(*topology_);
    Rng rng(options_.seed + 1);
    ann.init_he(rng);
    training = train::train(ann, train_set, options_.train_config, rng);
    ann_test_accuracy = train::ann_accuracy(ann, test);
    net = train::convert_to_snn(ann, train_set.images);
    if (options_.weight_bits > 0)
      snn::quantize_network(*net, options_.weight_bits);
  } else if (network_.has_value()) {
    // Caller-prepared network: used as-is (already initialised/calibrated).
    // Copied, not consumed — run() must stay repeatable.
    test = synthesize(options_.images);
    net = *network_;
  } else {
    const data::Dataset ds =
        synthesize(std::max(options_.images, options_.calibration_images));
    test = ds.take(options_.images);
    net.emplace(*topology_);
    Rng rng(options_.seed + 1);
    net->init_random(rng, options_.init_scale);
    if (options_.weight_bits > 0)
      snn::quantize_network(*net, options_.weight_bits);
    snn::SimConfig calib_cfg;
    calib_cfg.timesteps = options_.timesteps;
    calib_cfg.encoder = options_.encoder;
    const std::size_t calib =
        std::min(options_.calibration_images, ds.images.size());
    if (calib > 0) {
      snn::calibrate_thresholds(
          *net,
          std::vector<std::vector<float>>(
              ds.images.begin(),
              ds.images.begin() + static_cast<std::ptrdiff_t>(calib)),
          calib_cfg, rng, options_.target_activity);
    }
  }

  // -- batched, deterministic trace simulation ------------------------------
  const std::size_t n = std::min(options_.images, test.images.size());
  require(n > 0, "pipeline: no images to present");
  if (options_.record_traces) {
    snn::SimConfig cfg;
    cfg.timesteps = options_.timesteps;
    cfg.encoder = options_.encoder;
    cfg.record_trace = true;
    traces.resize(n);
    predicted.resize(n);
    const snn::Network& net_ref = *net;

    // Presentations fan out over the persistent pool with one REUSED
    // simulator per worker (a reused simulator is bit-for-bit a fresh
    // one, so results stay thread-count invariant).
    ThreadPool& pool = ThreadPool::global();
    const std::size_t requested = resolve_threads(options_.threads, n);
    std::vector<std::unique_ptr<snn::Simulator>> sims(pool.width());
    const auto present = [&](std::size_t i, std::size_t worker) {
      auto& sim = sims[worker];
      if (!sim) sim = std::make_unique<snn::Simulator>(net_ref, cfg);
      Rng rng(presentation_seed(options_.seed, i));
      snn::SimResult r = sim->run(test.images[i], rng);
      traces[i] = std::move(r.trace);
      predicted[i] = r.predicted_class;
    };
    if (requested <= 1)
      for (std::size_t i = 0; i < n; ++i) present(i, 0);
    else
      pool.run_indexed(n, requested, present);
  }

  // -- assemble -------------------------------------------------------------
  Workload w{std::move(*net)};
  w.traces = std::move(traces);
  w.predicted = std::move(predicted);
  w.labels.assign(test.labels.begin(),
                  test.labels.begin() + static_cast<std::ptrdiff_t>(n));
  w.test = std::move(test);
  w.training = std::move(training);
  w.ann_test_accuracy = ann_test_accuracy;

  if (!w.traces.empty()) {
    double activity = 0.0;
    std::size_t correct = 0;
    for (std::size_t i = 0; i < n; ++i) {
      activity += snn::mean_activity(w.traces[i]);
      if (static_cast<int>(w.predicted[i]) == w.labels[i]) ++correct;
    }
    w.mean_activity = activity / static_cast<double>(n);
    w.accuracy = static_cast<double>(correct) / static_cast<double>(n);
  }
  return w;
}

// ------------------------------------------------------- batched execution --

namespace {

/// Reduces per-trace reports in presentation order, reproducing the exact
/// accumulate-then-divide arithmetic of the legacy sequential run_all().
/// Only native reports can be reduced exactly, so a backend that returns
/// neither a RESPARC nor a CMOS report is rejected.
ExecutionReport merge_reports(const std::vector<ExecutionReport>& parts) {
  bool all_resparc = true;
  bool all_cmos = true;
  for (const auto& p : parts) {
    all_resparc = all_resparc && p.resparc.has_value();
    all_cmos = all_cmos && p.cmos.has_value();
  }

  if (all_resparc) {
    core::RunReport total;
    for (const auto& p : parts) total += *p.resparc;
    const double n = static_cast<double>(total.classifications);
    total.energy /= n;
    total.perf /= n;
    // Every part replayed on the same chip instance, so they share one
    // fault manifest; run_all stamps it the same way.
    total.faults = parts.front().resparc->faults;
    return to_execution_report(total, parts.front().backend);
  }

  if (!all_cmos)
    throw ConfigError("pipeline: backend '" + parts.front().backend +
                      "' returned reports without a native RESPARC or CMOS "
                      "report; batched execution cannot reduce them");
  cmos::CmosReport total;
  for (const auto& p : parts) total += *p.cmos;
  const double n = static_cast<double>(total.classifications);
  total.energy /= n;
  total.cycles /= n;
  return to_execution_report(total, parts.front().backend);
}

}  // namespace

ExecutionReport Pipeline::execute(const Accelerator& accelerator,
                                  std::span<const snn::SpikeTrace> traces,
                                  std::size_t threads) {
  require(!traces.empty(), "pipeline: no traces to execute");
  require(accelerator.loaded(), "pipeline: accelerator has no network loaded");
  if (resolve_threads(threads, traces.size()) <= 1)
    return accelerator.execute(traces);
  std::vector<ExecutionReport> parts;
  execute_each(accelerator, traces, parts, threads);
  return merge_reports(parts);
}

void Pipeline::execute_each(const Accelerator& accelerator,
                            std::span<const snn::SpikeTrace> traces,
                            std::vector<ExecutionReport>& out,
                            std::size_t threads) {
  require(accelerator.loaded(), "pipeline: accelerator has no network loaded");
  out.clear();
  if (traces.empty()) return;
  const std::size_t workers = resolve_threads(threads, traces.size());
  if (workers <= 1) {
    accelerator.execute_each(traces, out);
    return;
  }
  // Contiguous per-worker chunks; stitching them back in index order keeps
  // out[i] == execute(traces[i]) for any thread count.
  out.resize(traces.size());
  std::vector<std::vector<ExecutionReport>> chunks(workers);
  const std::size_t n = traces.size();
  parallel_for(workers, threads, [&](std::size_t c) {
    const std::size_t begin = c * n / workers;
    const std::size_t end = (c + 1) * n / workers;
    if (end > begin)
      accelerator.execute_each(traces.subspan(begin, end - begin), chunks[c]);
  });
  for (std::size_t c = 0; c < workers; ++c) {
    const std::size_t begin = c * n / workers;
    for (std::size_t i = 0; i < chunks[c].size(); ++i)
      out[begin + i] = std::move(chunks[c][i]);
  }
}

ComparisonReport Pipeline::compare(const snn::Topology& topology,
                                   std::span<const snn::SpikeTrace> traces,
                                   std::span<const std::string> backends,
                                   const BackendOptions& options,
                                   std::size_t threads) {
  require(!backends.empty(), "pipeline: no backends to compare");
  ComparisonReport report;
  report.entries.reserve(backends.size());
  for (const std::string& name : backends) {
    const auto accelerator = make_accelerator(name, options);
    accelerator->load(topology);
    ComparisonEntry entry;
    entry.backend = name;
    entry.report = execute(*accelerator, traces, threads);
    entry.metrics = accelerator->metrics();
    report.entries.push_back(std::move(entry));
  }
  const ExecutionReport& ref = report.entries.front().report;
  for (auto& entry : report.entries) {
    if (entry.report.energy_pj > 0.0)
      entry.energy_gain = ref.energy_pj / entry.report.energy_pj;
    if (entry.report.latency_ns > 0.0)
      entry.speedup = ref.latency_ns / entry.report.latency_ns;
  }
  return report;
}

}  // namespace resparc::api
