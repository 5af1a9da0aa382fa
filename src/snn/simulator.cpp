#include "snn/simulator.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "snn/scatter.hpp"
#include "snn/sparse_engine.hpp"

namespace resparc::snn {

std::string to_string(ExecutionMode mode) {
  switch (mode) {
    case ExecutionMode::kSparse: return "sparse";
    case ExecutionMode::kPacked: return "packed";
    case ExecutionMode::kDense: break;
  }
  return "dense";
}

bool parse_execution_mode(const std::string& text, ExecutionMode& out) {
  if (text == "dense") {
    out = ExecutionMode::kDense;
    return true;
  }
  if (text == "sparse") {
    out = ExecutionMode::kSparse;
    return true;
  }
  if (text == "packed") {
    out = ExecutionMode::kPacked;
    return true;
  }
  return false;
}

Simulator::Simulator(const Network& net, SimConfig config)
    : net_(net), config_(config), encoder_(config.encoder) {
  require(config_.timesteps > 0, "simulator needs timesteps > 0");
  // One reusable pool job: run_indexed takes it by const reference, so
  // the pooled steady state allocates nothing per call.
  pool_fn_ = [this](std::size_t part, std::size_t /*worker*/) {
    scatter_accumulate(plans_[pool_job_layer_],
                       net_.layer(pool_job_layer_).weights, pool_job_active_,
                       pool_job_current_, part, pool_parts_);
  };
  pool_packed_fn_ = [this](std::size_t part, std::size_t /*worker*/) {
    scatter_accumulate(plans_[pool_job_layer_],
                       net_.layer(pool_job_layer_).weights, *pool_job_packed_,
                       pool_job_current_, part, pool_parts_);
  };
}

Simulator::~Simulator() = default;

void Simulator::set_pool(ThreadPool* pool, std::size_t parts,
                         std::size_t min_outputs) {
  pool_ = pool;
  pool_parts_ = pool == nullptr ? 1
               : parts == 0    ? pool->width()
                               : std::min(parts, pool->width());
  pool_min_outputs_ = min_outputs;
}

void Simulator::accumulate_active(std::size_t l,
                                  std::span<const std::uint32_t> active,
                                  std::span<float> current) {
  const LayerInfo& li = net_.topology().layers()[l];
  if (pool_ != nullptr && pool_parts_ > 1 && li.neurons >= pool_min_outputs_ &&
      !active.empty()) {
    pool_job_layer_ = l;
    pool_job_active_ = active;
    pool_job_current_ = current;
    pool_->run_indexed(pool_parts_, pool_parts_, pool_fn_);
    return;
  }
  scatter_accumulate(plans_[l], net_.layer(l).weights, active, current);
}

void Simulator::accumulate_packed(std::size_t l, const SpikeVector& in,
                                  std::span<float> current) {
  const LayerInfo& li = net_.topology().layers()[l];
  if (pool_ != nullptr && pool_parts_ > 1 && li.neurons >= pool_min_outputs_ &&
      !in.none()) {
    pool_job_layer_ = l;
    pool_job_packed_ = &in;
    pool_job_current_ = current;
    pool_->run_indexed(pool_parts_, pool_parts_, pool_packed_fn_);
    return;
  }
  scatter_accumulate(plans_[l], net_.layer(l).weights, in, current);
}

void Simulator::ensure_plans() {
  if (!plans_.empty()) return;
  const Topology& topo = net_.topology();
  plans_.reserve(topo.layer_count());
  for (const LayerInfo& li : topo.layers()) plans_.emplace_back(li);
}

void Simulator::ensure_dense_state() {
  const Topology& topo = net_.topology();
  ensure_plans();
  if (pops_.empty()) {
    pops_.reserve(topo.layer_count());
    currents_.resize(topo.layer_count());
    prev_holder_.resize(topo.layer_count());
    for (std::size_t l = 0; l < topo.layer_count(); ++l) {
      const std::size_t n = topo.layers()[l].neurons;
      pops_.emplace_back(n, net_.layer(l).neuron);
      currents_[l].assign(n, 0.0f);
      prev_holder_[l].reset(n);
    }
  } else {
    // Reuse: identical to reconstruction (IfPopulation::clear zeroes the
    // membranes exactly like the constructor; currents and spike words
    // are overwritten every step before being read).
    for (auto& pop : pops_) pop.clear();
  }
}

SimResult Simulator::run(std::span<const float> image, Rng& rng) {
  SimResult result;
  run(image, rng, result);
  return result;
}

void Simulator::run(std::span<const float> image, Rng& rng, SimResult& out) {
  const Topology& topo = net_.topology();
  require(image.size() == topo.input_shape().size(),
          "simulator: image size does not match topology input");
  out.trace.layers.clear();
  out.output_spike_counts.assign(topo.output_count(), 0);
  out.predicted_class = 0;
  out.total_spikes = 0;
  if (config_.mode == ExecutionMode::kSparse)
    run_sparse(image, rng, out);
  else
    run_stepped(image, rng, out);
  out.predicted_class = static_cast<std::size_t>(std::distance(
      out.output_spike_counts.begin(),
      std::max_element(out.output_spike_counts.begin(),
                       out.output_spike_counts.end())));
}

void Simulator::run_stepped(std::span<const float> image, Rng& rng,
                            SimResult& result) {
  const Topology& topo = net_.topology();
  ensure_dense_state();

  const std::size_t T = config_.timesteps;
  if (config_.record_trace) {
    result.trace.layers.resize(topo.layer_count() + 1);
    for (auto& lt : result.trace.layers) lt.reserve(T);
  }

  encoder_.encode_into(image, T, rng, input_spikes_);

  const bool packed = config_.mode == ExecutionMode::kPacked;
  for (std::size_t t = 0; t < T; ++t) {
    const SpikeVector* prev = &input_spikes_[t];
    result.total_spikes += prev->count();
    if (config_.record_trace) result.trace.layers[0].push_back(*prev);

    for (std::size_t l = 0; l < topo.layer_count(); ++l) {
      std::fill(currents_[l].begin(), currents_[l].end(), 0.0f);
      if (packed) {
        accumulate_packed(l, *prev, currents_[l]);
      } else {
        active_scratch_.clear();
        prev->append_active(active_scratch_);
        accumulate_active(l, active_scratch_, currents_[l]);
      }
      pops_[l].step_packed(currents_[l], prev_holder_[l]);
      prev = &prev_holder_[l];
      result.total_spikes += prev->count();
      if (config_.record_trace) result.trace.layers[l + 1].push_back(*prev);
    }

    const SpikeVector& out = prev_holder_.back();
    for (std::size_t i = 0; i < out.size(); ++i)
      if (out.get(i)) ++result.output_spike_counts[i];
  }
}

void Simulator::run_sparse(std::span<const float> image, Rng& rng,
                           SimResult& result) {
  const Topology& topo = net_.topology();

  const std::size_t T = config_.timesteps;
  if (config_.record_trace) {
    result.trace.layers.resize(topo.layer_count() + 1);
    for (auto& lt : result.trace.layers) lt.reserve(T);
  }

  encoder_.encode_into(image, T, rng, input_spikes_);

  if (!sparse_)
    sparse_ = std::make_unique<SparseEngine>(net_);
  else
    sparse_->reset();
  SparseEngine& engine = *sparse_;

  // Double-buffered AER lists: the input side of one layer is the output
  // side of the previous one.
  for (std::size_t t = 0; t < T; ++t) {
    active_in_.clear();
    input_spikes_[t].append_active(active_in_);
    result.total_spikes += active_in_.size();
    if (config_.record_trace)
      result.trace.layers[0].push_back(input_spikes_[t]);

    // Word-form view of the same spikes: saturated full-drive steps
    // scatter straight from these packed words (see step_layer).
    const SpikeVector* prev_vec = &input_spikes_[t];
    for (std::size_t l = 0; l < topo.layer_count(); ++l) {
      const SpikeVector& out =
          engine.step_layer(l, active_in_, active_out_, prev_vec);
      prev_vec = &out;
      active_in_.swap(active_out_);
      result.total_spikes += active_in_.size();
      if (config_.record_trace) result.trace.layers[l + 1].push_back(out);
    }

    // active_in_ now holds the output layer's spikes for this step.
    for (const std::uint32_t i : active_in_) ++result.output_spike_counts[i];
  }
}

void Simulator::observe_currents(std::span<const float> image, Rng& rng,
                                 std::size_t layer,
                                 std::vector<float>& samples_out) {
  const Topology& topo = net_.topology();
  require(layer < topo.layer_count(), "observe_currents: layer out of range");

  std::vector<IfPopulation> pops;
  std::vector<std::vector<float>> currents;
  std::vector<SpikeVector> spikes;
  for (std::size_t l = 0; l <= layer; ++l) {
    const std::size_t n = topo.layers()[l].neurons;
    pops.emplace_back(n, net_.layer(l).neuron);
    currents.emplace_back(n, 0.0f);
    spikes.emplace_back(n);
  }

  const auto input_spikes = encoder_.encode(image, config_.timesteps, rng);
  std::vector<std::uint32_t> active;
  ensure_plans();

  for (std::size_t t = 0; t < config_.timesteps; ++t) {
    const SpikeVector* prev = &input_spikes[t];
    for (std::size_t l = 0; l <= layer; ++l) {
      active.clear();
      prev->append_active(active);
      std::fill(currents[l].begin(), currents[l].end(), 0.0f);
      scatter_accumulate(plans_[l], net_.layer(l).weights, active,
                         currents[l]);
      if (l == layer) {
        samples_out.insert(samples_out.end(), currents[l].begin(),
                           currents[l].end());
        break;
      }
      pops[l].step_packed(currents[l], spikes[l]);
      prev = &spikes[l];
    }
  }
}

std::vector<double> calibrate_thresholds(
    Network& net, std::span<const std::vector<float>> images,
    const SimConfig& config, Rng& rng, double target_activity) {
  require(target_activity > 0.0 && target_activity < 1.0,
          "target activity must be in (0,1)");
  require(!images.empty(), "calibration needs at least one image");

  std::vector<double> chosen;
  const std::size_t layer_count = net.topology().layer_count();
  for (std::size_t l = 0; l < layer_count; ++l) {
    // Pool layers keep their fixed semantics: fire when at least half the
    // window was active.  Their threshold is not calibrated.
    if (net.topology().layers()[l].spec.kind == LayerKind::kAvgPool) {
      net.layer(l).neuron.v_threshold = 0.5;
      chosen.push_back(0.5);
      continue;
    }
    std::vector<float> samples;
    Simulator sim(net, config);
    for (const auto& img : images) sim.observe_currents(img, rng, l, samples);

    // Keep strictly positive currents; a layer that never receives positive
    // drive keeps threshold 1 (it will stay silent, which is honest).
    std::vector<float> pos;
    pos.reserve(samples.size());
    for (float s : samples)
      if (s > 0.0f) pos.push_back(s);
    double vth = 1.0;
    if (!pos.empty()) {
      // The threshold acts on *accumulated* membrane, so a neuron whose mean
      // positive per-step current is c fires roughly every vth/c steps.
      // Setting vth to the (1-a) quantile of per-step currents yields a
      // per-step fire probability of ~a for the upper tail of neurons.
      const double q = 1.0 - target_activity;
      const std::size_t idx = std::min(
          pos.size() - 1, static_cast<std::size_t>(q * static_cast<double>(pos.size())));
      std::nth_element(pos.begin(), pos.begin() + static_cast<std::ptrdiff_t>(idx),
                       pos.end());
      vth = std::max(1e-6, static_cast<double>(pos[idx]));
    }
    net.layer(l).neuron.v_threshold = vth;
    chosen.push_back(vth);
  }
  return chosen;
}

double evaluate_accuracy(const Network& net, const SimConfig& config,
                         std::span<const std::vector<float>> images,
                         std::span<const int> labels, Rng& rng) {
  require(images.size() == labels.size(),
          "evaluate_accuracy: images/labels size mismatch");
  require(!images.empty(), "evaluate_accuracy: empty set");
  SimConfig cfg = config;
  cfg.record_trace = false;
  Simulator sim(net, cfg);
  SimResult r;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < images.size(); ++i) {
    sim.run(images[i], rng, r);
    if (static_cast<int>(r.predicted_class) == labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(images.size());
}

}  // namespace resparc::snn
