// Pipeline: the one front-end that owns the paper's whole workflow.
//
// Every experiment in this repo is the same sequence — pick a dataset,
// build a network (random-init or offline-trained + Diehl-converted),
// calibrate thresholds, simulate spiking presentations, record traces,
// replay them on one or more accelerators.  Pipeline packages that
// sequence behind a builder so benches, examples and tests stop hand-
// wiring it:
//
//   api::Workload w = api::Pipeline().benchmark(snn::mnist_mlp()).run();
//   auto accel = api::make_accelerator("resparc-64");
//   accel->load(w.topology());
//   api::ExecutionReport r = api::Pipeline::execute(*accel, w.traces);
//
// Trace simulation is batched over presentations on a thread pool with a
// deterministic per-presentation RNG seed, so a run is bit-identical for
// every thread count (docs/execution.md).  Batched execute() reduces
// per-trace native reports in presentation order, reproducing the legacy
// sequential run_all() aggregation exactly.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "api/accelerator.hpp"
#include "api/registry.hpp"
#include "data/dataset.hpp"
#include "snn/benchmarks.hpp"
#include "snn/network.hpp"
#include "snn/simulator.hpp"
#include "train/trainer.hpp"

namespace resparc::api {

/// Knobs of the workflow; every field has the benches' historical default.
struct PipelineOptions {
  std::size_t images = 3;            ///< presentations simulated and traced
  std::size_t timesteps = 32;        ///< presentation length
  std::uint64_t seed = 7;            ///< master seed (data, weights, spikes)
  std::size_t threads = 0;           ///< simulation/executor workers (0 = all)
  bool record_traces = true;         ///< false: skip trace simulation (network
                                     ///< + test-set-only workloads)
  double target_activity = 0.10;     ///< per-layer calibration target
  std::size_t calibration_images = 2;  ///< images driving calibration
  int weight_bits = 0;               ///< device quantisation (0 = keep float)
  float init_scale = 1.0f;           ///< random-init weight scale
  double noise = 0.03;               ///< synthetic dataset pixel noise
  double jitter_pixels = 1.5;        ///< synthetic dataset glyph jitter
  snn::EncoderConfig encoder{};      ///< input spike encoding
  bool train = false;                ///< offline ANN training + conversion
  std::size_t train_images = 120;    ///< training split size (train = true)
  train::TrainConfig train_config{
      .epochs = 30, .batch_size = 10, .learning_rate = 0.02};
};

/// Product of Pipeline::run(): a network plus everything recorded while
/// presenting the traced image set.
struct Workload {
  /// Wraps the presented network (moved in by Pipeline::run()).
  explicit Workload(snn::Network net) : network(std::move(net)) {}

  snn::Network network;                  ///< the simulated (calibrated) SNN
  std::vector<snn::SpikeTrace> traces;   ///< one per presentation
  std::vector<int> labels;               ///< label of each presentation
  std::vector<std::size_t> predicted;    ///< simulator argmax per presentation
  double mean_activity = 0.0;            ///< spikes/neuron/step over traces
  double accuracy = 0.0;                 ///< argmax accuracy over traces
  data::Dataset test;                    ///< the traced (held-out) image set
  std::optional<train::TrainReport> training;  ///< set when options.train
  double ann_test_accuracy = 0.0;        ///< pre-conversion ANN accuracy

  /// Shape of the presented network.
  const snn::Topology& topology() const { return network.topology(); }
};

/// One backend's row of a comparison.
struct ComparisonEntry {
  std::string backend;        ///< registry key the entry was built from
  ExecutionReport report;     ///< replay result on this backend
  AcceleratorMetrics metrics; ///< tile implementation metrics
  double energy_gain = 1.0;   ///< reference energy / this energy
  double speedup = 1.0;       ///< reference latency / this latency
};

/// The same traces through a set of backends; ratios are relative to the
/// first entry (the reference baseline).
struct ComparisonReport {
  std::vector<ComparisonEntry> entries;  ///< one row per backend key

  /// The baseline entry every ratio is relative to (the first backend).
  const ComparisonEntry& reference() const { return entries.front(); }
  /// Entry built from registry key `backend` (nullptr when absent).
  const ComparisonEntry* find(const std::string& backend) const;
  /// Two-line-per-backend human-readable summary.
  void print(std::ostream& os) const;
};

/// Builder for the dataset -> network -> traces workflow.
class Pipeline {
 public:
  /// Builds a pipeline with the given option block.
  explicit Pipeline(PipelineOptions options = {});

  /// Replaces the option block (builder style).
  Pipeline& options(PipelineOptions options);
  /// In-place access to the option block (for single-field tweaks).
  PipelineOptions& mutable_options() { return options_; }

  /// Workload of one paper benchmark: its dataset family (downsampled for
  /// the SVHN/CIFAR MLP rows, docs/architecture.md) and its topology.
  Pipeline& benchmark(const snn::BenchmarkSpec& spec);

  /// Selects the synthetic dataset family explicitly.
  Pipeline& dataset(snn::DatasetKind kind);

  /// Random-init network of this shape (calibrated before tracing).
  Pipeline& topology(snn::Topology topology);

  /// Uses a caller-prepared network as-is (no init, no calibration).
  Pipeline& network(snn::Network network);

  /// Executes the workflow.  Deterministic in options.seed for any value
  /// of options.threads, and repeatable: the builder state is not
  /// consumed, so run() twice yields identical workloads.
  Workload run();

  /// Replays traces through a loaded accelerator, batched over
  /// presentations; the result is bit-identical to accel.execute(traces).
  static ExecutionReport execute(const Accelerator& accelerator,
                                 std::span<const snn::SpikeTrace> traces,
                                 std::size_t threads = 0);

  /// Replays each trace individually into `out[i]` (resized to
  /// traces.size()), fanning contiguous chunks over the global pool when
  /// threads != 1; each chunk goes through Accelerator::execute_each.
  /// The execute-into form the serving layer batches over:
  /// per-trace reports survive, so callers can attribute latency/energy
  /// to individual requests instead of a merged aggregate.  out[i] is
  /// bit-for-bit execute(traces[i]) for any thread count.
  static void execute_each(const Accelerator& accelerator,
                           std::span<const snn::SpikeTrace> traces,
                           std::vector<ExecutionReport>& out,
                           std::size_t threads = 0);

  /// Runs the same traces through every named backend (first = reference
  /// baseline for the ratio columns).  Backend names accept the registry's
  /// `"/<strategy>"` suffix ("resparc-64/greedy-pack"), so one comparison
  /// can pit mapping strategies against each other as easily as
  /// architectures; options.strategy selects the default for keys without
  /// a suffix.
  static ComparisonReport compare(const snn::Topology& topology,
                                  std::span<const snn::SpikeTrace> traces,
                                  std::span<const std::string> backends,
                                  const BackendOptions& options = {},
                                  std::size_t threads = 0);

 private:
  data::Dataset synthesize(std::size_t count) const;

  PipelineOptions options_;
  std::optional<snn::DatasetKind> kind_;
  std::optional<snn::Topology> topology_;
  std::optional<snn::Network> network_;
};

/// Deterministic per-presentation RNG seed: SplitMix64 over (seed, index),
/// shared by the threaded and sequential paths.
std::uint64_t presentation_seed(std::uint64_t seed, std::size_t index);

}  // namespace resparc::api
