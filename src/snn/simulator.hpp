// Event-driven functional SNN simulator.
//
// Executes a Network for T timesteps on one encoded input and records the
// full spike trace.  Propagation is input-driven ("event-driven"): only
// spiking neurons scatter their fan-out, mirroring both the biological
// motivation and the architecture's zero-skipping (section 3.2) — and
// making paper-scale networks simulable on a laptop.
//
// The simulator is the single source of spike traces for BOTH architecture
// models (RESPARC and the CMOS baseline), which guarantees the two sides of
// every comparison saw identical workloads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "snn/encoder.hpp"
#include "snn/execution.hpp"
#include "snn/network.hpp"
#include "snn/scatter.hpp"
#include "snn/trace.hpp"

namespace resparc {
class ThreadPool;
}

namespace resparc::snn {

class SparseEngine;

/// Simulation configuration.
struct SimConfig {
  std::size_t timesteps = 32;  ///< presentation length per classification
  EncoderConfig encoder{};     ///< input spike encoding
  bool record_trace = true;    ///< keep the packed trace (off for accuracy-only runs)
  ExecutionMode mode = ExecutionMode::kDense;  ///< execution engine; all
                                               ///< modes are bit-for-bit
                                               ///< identical (test-enforced)
};

/// Result of one presentation.
struct SimResult {
  SpikeTrace trace;  ///< empty when record_trace is false
  std::vector<std::size_t> output_spike_counts;  ///< per output neuron
  std::size_t predicted_class = 0;  ///< argmax of output spike counts
  std::size_t total_spikes = 0;     ///< all layers, whole presentation
};

/// Runs a Network presentation-by-presentation.
class Simulator {
 public:
  /// The network must outlive the simulator.
  Simulator(const Network& net, SimConfig config);
  ~Simulator();

  const SimConfig& config() const { return config_; }

  /// Presents one image (flat CHW intensities in [0,1]) and returns spikes.
  SimResult run(std::span<const float> image, Rng& rng);

  /// Allocation-free steady-state form of run(): refills `out`, reusing
  /// its buffers.  A Simulator reused across presentations (with either
  /// overload) produces bit-for-bit the trace a freshly constructed one
  /// would; after a warm-up presentation, a record_trace=false run
  /// performs zero heap allocations (tests/test_allocation.cpp).
  void run(std::span<const float> image, Rng& rng, SimResult& out);

  /// Enables within-trace parallelism: layers with at least
  /// `min_outputs` neurons spread their event scatter over `parts`
  /// output partitions on `pool` (0 = pool width).  Results are
  /// bit-for-bit identical with any pool/parts value — each output
  /// element is written by exactly one partition in the serial order
  /// (docs/performance.md).  Pass nullptr to disable (the default).
  void set_pool(ThreadPool* pool, std::size_t parts = 0,
                std::size_t min_outputs = kMinPooledOutputs);

  /// Default set_pool() layer-size gate: paper-scale CNN feature maps
  /// qualify, MLP layers (where one presentation is already cheap) don't.
  static constexpr std::size_t kMinPooledOutputs = 8192;

  /// Collects per-neuron per-step input currents arriving at `layer` over
  /// one presentation (used by threshold calibration).  Layers after
  /// `layer` are not executed.
  void observe_currents(std::span<const float> image, Rng& rng,
                        std::size_t layer, std::vector<float>& samples_out);

 private:
  /// Scatters the active list of layer l's input into `current` —
  /// partitioned over the pool when enabled, serial otherwise.
  void accumulate_active(std::size_t l, std::span<const std::uint32_t> active,
                         std::span<float> current);

  /// Packed-word twin of accumulate_active: scatters straight from the
  /// input SpikeVector's words (no AER list), same pool partitioning.
  void accumulate_packed(std::size_t l, const SpikeVector& in,
                         std::span<float> current);

  /// Builds the per-layer scatter plans on first use.
  void ensure_plans();

  /// Builds (first run) or clears (reuse) the dense per-layer state.
  void ensure_dense_state();

  /// run() body for ExecutionMode::kDense and kPacked: every layer is
  /// scattered and stepped every timestep, with IfPopulation::step_packed
  /// writing spikes straight into 64-bit words.  The two modes differ
  /// only in how a layer's input reaches the scatter: dense builds the
  /// active-index list, packed decodes the words (no per-step AER list).
  /// Bit-for-bit identical traces (tests/test_differential.cpp).
  void run_stepped(std::span<const float> image, Rng& rng, SimResult& out);
  /// run() body for ExecutionMode::kSparse (snn/sparse_engine.hpp).
  void run_sparse(std::span<const float> image, Rng& rng, SimResult& out);

  const Network& net_;
  SimConfig config_;
  RateEncoder encoder_;

  // Within-trace parallelism (set_pool).
  ThreadPool* pool_ = nullptr;
  std::size_t pool_parts_ = 1;
  std::size_t pool_min_outputs_ = kMinPooledOutputs;
  /// Pre-built pool job reading pool_job_*; reusing one std::function
  /// keeps the pooled steady state allocation-free.
  std::function<void(std::size_t, std::size_t)> pool_fn_;
  /// Packed twin of pool_fn_, scattering from pool_job_packed_ instead of
  /// the index list.
  std::function<void(std::size_t, std::size_t)> pool_packed_fn_;
  std::size_t pool_job_layer_ = 0;                 ///< layer being scattered
  std::span<const std::uint32_t> pool_job_active_; ///< its input events
  const SpikeVector* pool_job_packed_ = nullptr;   ///< packed-mode input
  std::span<float> pool_job_current_;              ///< its output buffer

  // Per-presentation scratch, hoisted so the steady state is
  // allocation-free (buffers only ever grow).
  std::vector<IfPopulation> pops_;                  ///< dense-path membranes
  std::vector<std::vector<float>> currents_;        ///< per-layer drive
  std::vector<SpikeVector> prev_holder_;            ///< per-layer spikes
  std::vector<ScatterPlan> plans_;  ///< per-layer scatter tables (pool-shared)
  std::vector<SpikeVector> input_spikes_;           ///< encoded input
  std::vector<std::uint32_t> active_scratch_;       ///< event list per layer
  std::unique_ptr<SparseEngine> sparse_;            ///< sparse-mode engine
  std::vector<std::uint32_t> active_in_;            ///< sparse AER buffers
  std::vector<std::uint32_t> active_out_;
};

/// Sets each layer's threshold to the (1 - target_activity) quantile of its
/// observed positive input currents, front to back, so every layer fires at
/// roughly `target_activity` — the regime the paper's energy numbers assume.
/// `images` are flat intensity vectors.  Returns the chosen thresholds.
std::vector<double> calibrate_thresholds(Network& net,
                                         std::span<const std::vector<float>> images,
                                         const SimConfig& config, Rng& rng,
                                         double target_activity);

/// Fraction of correct argmax classifications over the given image/label set.
double evaluate_accuracy(const Network& net, const SimConfig& config,
                         std::span<const std::vector<float>> images,
                         std::span<const int> labels, Rng& rng);

}  // namespace resparc::snn
