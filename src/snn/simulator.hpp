// Event-driven functional SNN simulator: the repository's one spike
// engine (docs/execution.md).
//
// Executes a Network for T timesteps on one encoded input and records the
// full spike trace.  Propagation is input-driven ("event-driven"): only
// spiking neurons scatter their fan-out, mirroring both the biological
// motivation and the architecture's zero-skipping (section 3.2) — and
// making paper-scale networks simulable on a laptop.
//
// A presentation runs layer-major: all T steps of layer l, then all T
// steps of layer l + 1, fed the T spike vectors layer l recorded.  A
// layer's state depends only on its own inputs in step order, so this
// is the trace a step-major loop gives, while each layer's weights,
// membranes and gather lists stay in cache for its T steps.
//
// Every layer on every timestep takes one of two branches, chosen from
// what the step itself shows (events x fan-out against the layer size):
//
//   * stepped — scatter the input spikes (snn/scatter.hpp), then run the
//     branch-free IF update over the whole population straight into
//     packed spike words.  Busy steps, fully connected layers and layers
//     whose silent neurons still evolve (leak > 0, vth <= 0) go here.
//   * touched — scatter while stamping the outputs written, then step
//     only those plus the "hot" neurons a subtractive reset left at or
//     above threshold.  With no leak and vth > 0 an untouched, non-hot
//     membrane cannot change or fire, so skipping it is exact.
//
// Both branches add each output's inputs in the same order from +0.0f
// and apply the same IF rule, so the trace is bit-for-bit independent of
// which branch ran (api::check_differential proves it against a naive
// reference).
//
// The simulator is the single source of spike traces for BOTH architecture
// models (RESPARC and the CMOS baseline), which guarantees the two sides of
// every comparison saw identical workloads.
//
// calibrate_thresholds (below) runs no Simulator: it makes one layer-major
// pass of its own over every calibration image, with the same scatter and
// the stepped branch's IF update, choosing each layer's threshold before
// it steps that layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "snn/encoder.hpp"
#include "snn/network.hpp"
#include "snn/scatter.hpp"
#include "snn/trace.hpp"

namespace resparc {
class ThreadPool;
}

namespace resparc::snn {

/// Simulation configuration.
struct SimConfig {
  std::size_t timesteps = 32;  ///< presentation length per classification
  EncoderConfig encoder{};     ///< input spike encoding
  bool record_trace = true;    ///< keep the packed trace (off for accuracy-only runs)
};

/// Result of one presentation.
struct SimResult {
  SpikeTrace trace;  ///< empty when record_trace is false
  std::vector<std::size_t> output_spike_counts;  ///< per output neuron
  std::size_t predicted_class = 0;  ///< argmax of output spike counts
  std::size_t total_spikes = 0;     ///< all layers, whole presentation
};

/// Runs a Network presentation-by-presentation.
///
/// The first run() builds the per-layer state from the network as it is
/// then: each layer's IF constants (threshold, reset, leak) and a
/// cache-line-aligned copy of each conv layer's weights (ScatterPlan).
/// Later edits to those in the Network are not seen by this Simulator;
/// construct a new one.  Dense weights are read in place on every step.
class Simulator {
 public:
  /// The network must outlive the simulator.
  Simulator(const Network& net, SimConfig config);
  ~Simulator();

  /// The configuration this simulator runs with.
  const SimConfig& config() const { return config_; }

  /// Presents one image (flat CHW intensities in [0,1]) and returns spikes.
  SimResult run(std::span<const float> image, Rng& rng);

  /// Allocation-free steady-state form of run(): refills `out`, reusing
  /// its buffers.  A Simulator reused across presentations (with either
  /// overload) produces bit-for-bit the trace a freshly constructed one
  /// would; after a warm-up presentation, a record_trace=false run
  /// performs zero heap allocations (tests/test_allocation.cpp).
  void run(std::span<const float> image, Rng& rng, SimResult& out);

  /// Kept for source compatibility; does nothing.  One presentation
  /// always runs on the calling thread: partitioning a layer's scatter
  /// over a pool was slower than one thread at every measured size
  /// (docs/performance.md).  Parallelism comes from running
  /// presentations concurrently, one Simulator per worker.
  void set_pool(ThreadPool* /*pool*/, std::size_t /*parts*/ = 0) {}

  /// Branch crossover of a conv layer: a conv step takes the touched
  /// branch while events x fan-out (the most outputs the step can write)
  /// stays below this fraction of the layer's neurons.  Swept on the
  /// paper-scale MNIST-CNN (docs/performance.md section 4).
  static constexpr double kConvTouchedCrossover = 0.25;
  /// The same crossover for an avg-pool layer (fan-out 1).  Lower than
  /// conv's: a stepped pool step is one table add per event plus the IF
  /// pass, so the touched branch's stamp test and scattered IF pay off
  /// only on sparser steps.
  static constexpr double kPoolTouchedCrossover = 0.1;

 private:
  /// Per-layer engine state (defined in simulator.cpp).
  struct Layer;

  /// Builds (first run) or clears (reuse) the per-layer state.
  void ensure_layers();

  /// One timestep of layer l fed spikes `in`, which hold `events` set
  /// bits, on the branch the step calls for; returns its spikes.
  std::size_t step(std::size_t l, const SpikeVector& in, std::size_t events);
  /// One timestep of layer l on the stepped branch; returns its spikes.
  std::size_t step_stepped(std::size_t l, const SpikeVector& in);
  /// One timestep of layer l on the touched branch; returns its spikes.
  std::size_t step_touched(std::size_t l, const SpikeVector& in);

  const Network& net_;
  SimConfig config_;
  RateEncoder encoder_;

  // Per-presentation scratch, hoisted so the steady state is
  // allocation-free (buffers only ever grow).
  std::vector<Layer> layers_;                  ///< one per network layer
  std::vector<SpikeVector> input_spikes_;      ///< encoded input
  /// The latest layer's T spike vectors when no trace records them.
  std::vector<SpikeVector> relay_;
  /// Spikes of each of the T vectors the next layer reads.
  std::vector<std::size_t> events_;
};

/// Sets each layer's threshold to the (1 - target_activity) quantile of its
/// observed positive input currents, front to back, so every layer fires at
/// roughly `target_activity` — the regime the paper's energy numbers assume.
/// `images` are flat intensity vectors.  Returns the chosen thresholds.
///
/// One layer-major pass, with no Simulator: each image is encoded once, in
/// image order (the Rng advances exactly as by one encode per image).
/// Layer l scatters its T inputs of every image (snn/scatter.hpp), picks
/// its threshold, then steps once per image at that threshold; its spikes
/// are layer l + 1's inputs.  So every layer sees the one shared encoding,
/// with the thresholds below it already set.  Pool layers keep 0.5.
///
/// The positive currents (> 0.0f; NaN, +-0 and negatives never enter)
/// stream into one buffer, and select_kth_positive picks sample
/// k = min(n-1, floor(q*n)), q = 1 - target_activity, of the n kept.  The
/// selection is exact: the threshold is the value std::nth_element would
/// put at k.  Memory: the images' spikes of two adjacent layers, packed;
/// the buffer reserves neurons x timesteps x images floats of address
/// space, but only the pages holding kept samples (4 bytes each, plus one
/// page) become resident; the selection adds a fixed 512 KiB histogram.
std::vector<double> calibrate_thresholds(Network& net,
                                         std::span<const std::vector<float>> images,
                                         const SimConfig& config, Rng& rng,
                                         double target_activity);

/// The k-th smallest (0-based) of `values` in linear time: a two-pass
/// radix select over the float bit patterns, 16 high bits then 16 low
/// bits.  Every value must be > 0.0f and not NaN (subnormals and +inf are
/// fine): such floats order exactly as their uint32 encodings, so the
/// result is bit-for-bit the element std::nth_element would place at k.
/// Requires k < values.size().
float select_kth_positive(std::span<const float> values, std::size_t k);

/// Fraction of correct argmax classifications over the given image/label set.
double evaluate_accuracy(const Network& net, const SimConfig& config,
                         std::span<const std::vector<float>> images,
                         std::span<const int> labels, Rng& rng);

}  // namespace resparc::snn
