#include "snn/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>

#include "common/error.hpp"
#include "snn/scatter.hpp"

namespace resparc::snn {

/// One layer's membranes, drive and spikes, plus the touched branch's
/// bookkeeping.
struct Simulator::Layer {
  IfPopulation pop;
  std::vector<float> current;  ///< +0.0f everywhere between steps
  SpikeVector out;             ///< spikes of the latest step
  ScatterPlan plan;            ///< scatter tables
  /// Most outputs one input event can write: k*k*out_c for conv, 1 for
  /// avg-pool.
  std::size_t fan_out = 0;
  /// Conv/pool layer with no leak and vth > 0: the regime where an
  /// untouched, non-hot neuron provably keeps its membrane and stays
  /// silent, so the touched branch is exact.
  bool may_touch = false;
  /// `fired` names exactly the set bits of `out` and `hot` exactly the
  /// neurons at or above threshold; false after a stepped step, which
  /// maintains neither.
  bool lists_valid = true;
  std::uint32_t epoch = 0;             ///< touched-step counter
  std::vector<std::uint32_t> stamp;    ///< epoch of each output's last write
  std::vector<std::uint32_t> touched;  ///< outputs written this step
  std::vector<std::uint32_t> step_set; ///< touched plus hot, deduplicated
  std::vector<std::uint32_t> fired;    ///< spikes of a touched step
  std::vector<std::uint32_t> hot;      ///< membrane >= vth after the step

  Layer(const LayerInfo& li, const LayerParams& params)
      : pop(li.neurons, params.neuron),
        current(li.neurons, 0.0f),
        out(li.neurons),
        plan(li, params.weights) {
    // The regime test runs on the float values the IF update compares.
    const bool inert =
        static_cast<float>(params.neuron.leak_per_step) <= 0.0f &&
        static_cast<float>(params.neuron.v_threshold) > 0.0f;
    switch (li.spec.kind) {
      case LayerKind::kDense:
        break;  // every event drives every column: always stepped
      case LayerKind::kConv:
        fan_out = li.spec.kernel * li.spec.kernel * li.out_shape.c;
        may_touch = inert;
        break;
      case LayerKind::kAvgPool:
        fan_out = 1;
        may_touch = inert;
        break;
    }
    if (may_touch) stamp.assign(li.neurons, 0);
  }
};

Simulator::Simulator(const Network& net, SimConfig config)
    : net_(net), config_(config), encoder_(config.encoder) {
  require(config_.timesteps > 0, "simulator needs timesteps > 0");
}

Simulator::~Simulator() = default;

void Simulator::ensure_layers() {
  const Topology& topo = net_.topology();
  if (layers_.empty()) {
    layers_.reserve(topo.layer_count());
    for (std::size_t l = 0; l < topo.layer_count(); ++l)
      layers_.emplace_back(topo.layers()[l], net_.layer(l));
    return;
  }
  // Reuse: back to the constructed state.  The current buffers are
  // already zero, and stamps self-correct because the epoch only grows.
  for (Layer& layer : layers_) {
    layer.pop.clear();
    layer.out.reset(layer.out.size());
    layer.fired.clear();
    layer.hot.clear();
    layer.lists_valid = true;
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
  ensure_layers();

  const std::size_t T = config_.timesteps;
  encoder_.encode_into(image, T, rng, input_spikes_);
  std::span<const SpikeVector> in(input_spikes_.data(), T);
  for (const SpikeVector& spikes : in) out.total_spikes += spikes.count();
  if (config_.record_trace) {
    out.trace.layers.resize(topo.layer_count() + 1);
    out.trace.layers[0].assign(in.begin(), in.end());
  }

  // Layer-major: every step of layer l, then every step of layer l + 1.
  // Each layer sees its inputs in step order, so the trace is the one a
  // step-major loop gives.  Without a trace the relay holds one layer's
  // T vectors: step t reads relay_[t] before overwriting it with its own.
  for (std::size_t l = 0; l < topo.layer_count(); ++l) {
    std::vector<SpikeVector>& dst =
        config_.record_trace ? out.trace.layers[l + 1] : relay_;
    dst.resize(T);
    for (std::size_t t = 0; t < T; ++t) {
      out.total_spikes += step(l, in[t]);
      dst[t] = layers_[l].out;
    }
    in = dst;
  }

  for (const SpikeVector& spikes : in)
    for (std::size_t i = 0; i < spikes.size(); ++i)
      if (spikes.get(i)) ++out.output_spike_counts[i];
  out.predicted_class = static_cast<std::size_t>(std::distance(
      out.output_spike_counts.begin(),
      std::max_element(out.output_spike_counts.begin(),
                       out.output_spike_counts.end())));
}

std::size_t Simulator::step(std::size_t l, const SpikeVector& in) {
  active_scratch_.clear();
  in.append_active(active_scratch_);
  const Layer& layer = layers_[l];
  // Most outputs this step can write, against the layer size.
  const double cover =
      static_cast<double>(active_scratch_.size() * layer.fan_out);
  const bool touched =
      layer.may_touch &&
      cover < kTouchedCrossover * static_cast<double>(layer.out.size());
  return touched ? step_touched(l, active_scratch_)
                 : step_stepped(l, active_scratch_);
}

std::size_t Simulator::step_stepped(std::size_t l,
                                    std::span<const std::uint32_t> active) {
  Layer& layer = layers_[l];
  scatter_accumulate(layer.plan, active, layer.current);
  // step_packed consumes the currents, leaving them +0.0f for the next step.
  const std::size_t fired = layer.pop.step_packed(layer.current, layer.out);
  layer.lists_valid = false;
  return fired;
}

std::size_t Simulator::step_touched(std::size_t l,
                                    std::span<const std::uint32_t> active) {
  Layer& layer = layers_[l];
  if (layer.lists_valid) {
    for (const std::uint32_t i : layer.fired) layer.out.clear(i);
  } else {
    // Coming off a stepped step: a neuron a reset left at or above
    // threshold fires again with no input, and only neurons that fired
    // in that step can be such, so filter its spikes.
    layer.hot.clear();
    layer.out.append_active(layer.hot);
    layer.pop.retain_hot(layer.hot);
    layer.out.reset(layer.out.size());
  }
  const std::uint32_t epoch = ++layer.epoch;
  layer.touched.clear();
  scatter_touched(layer.plan, active, layer.current, layer.stamp, epoch,
                  layer.touched);

  layer.step_set.assign(layer.touched.begin(), layer.touched.end());
  for (const std::uint32_t i : layer.hot)
    if (layer.stamp[i] != epoch) layer.step_set.push_back(i);
  layer.hot.clear();
  layer.fired.clear();
  layer.pop.step_at(layer.step_set, layer.current, layer.fired, layer.hot);
  for (const std::uint32_t i : layer.fired) layer.out.set(i);
  layer.lists_valid = true;

  // Restore the all-zero current, clearing only what was written.
  for (const std::uint32_t i : layer.touched) layer.current[i] = 0.0f;
  return layer.fired.size();
}

void Simulator::observe_currents(std::span<const float> image, Rng& rng,
                                 std::size_t layer, const CurrentSink& sink) {
  const Topology& topo = net_.topology();
  require(layer < topo.layer_count(), "observe_currents: layer out of range");

  ensure_layers();
  const std::size_t T = config_.timesteps;
  encoder_.encode_into(image, T, rng, input_spikes_);
  // Layer-major over the prefix, as run() does, on the stepped branch.
  std::span<const SpikeVector> in(input_spikes_.data(), T);
  for (std::size_t l = 0; l < layer; ++l) {
    relay_.resize(T);
    for (std::size_t t = 0; t < T; ++t) {
      active_scratch_.clear();
      in[t].append_active(active_scratch_);
      step_stepped(l, active_scratch_);
      relay_[t] = layers_[l].out;
    }
    in = relay_;
  }
  Layer& observed = layers_[layer];
  for (std::size_t t = 0; t < T; ++t) {
    active_scratch_.clear();
    in[t].append_active(active_scratch_);
    scatter_accumulate(observed.plan, active_scratch_, observed.current);
    sink(observed.current);
    std::fill(observed.current.begin(), observed.current.end(), 0.0f);
  }
}

void Simulator::observe_currents(std::span<const float> image, Rng& rng,
                                 std::size_t layer,
                                 std::vector<float>& samples_out) {
  observe_currents(image, rng, layer, [&](std::span<const float> step) {
    samples_out.insert(samples_out.end(), step.begin(), step.end());
  });
}

float select_kth_positive(std::span<const float> values, std::size_t k) {
  require(k < values.size(), "select_kth_positive: k out of range");
  // Rank k lies in the 16-bit bucket where the running count passes it;
  // the second pass resolves it among that bucket's members alone.
  std::vector<std::size_t> counts(std::size_t{1} << 16, 0);
  for (const float v : values) ++counts[std::bit_cast<std::uint32_t>(v) >> 16];
  std::uint32_t high = 0;
  while (k >= counts[high]) k -= counts[high++];

  std::fill(counts.begin(), counts.end(), 0);
  for (const float v : values) {
    const std::uint32_t bits = std::bit_cast<std::uint32_t>(v);
    if (bits >> 16 == high) ++counts[bits & 0xFFFFu];
  }
  std::uint32_t low = 0;
  while (k >= counts[low]) k -= counts[low++];
  return std::bit_cast<float>(high << 16 | low);
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
    // Keep strictly positive currents; a layer that never receives positive
    // drive keeps threshold 1 (it will stay silent, which is honest).  The
    // buffer is sized for every current but left uninitialised, so only
    // pages that kept samples reach are ever touched.  Each current is
    // stored at the end of the kept run, which advances only past a
    // positive one: no branch on the data.
    const std::size_t bound = net.topology().layers()[l].neurons *
                              config.timesteps * images.size();
    const auto pos = std::make_unique_for_overwrite<float[]>(bound);
    std::size_t kept = 0;
    Simulator sim(net, config);
    for (const auto& img : images)
      sim.observe_currents(img, rng, l, [&](std::span<const float> step) {
        float* out = pos.get();
        std::size_t n = kept;
        for (const float c : step) {
          out[n] = c;
          n += c > 0.0f ? 1 : 0;
        }
        kept = n;
      });

    double vth = 1.0;
    if (kept > 0) {
      // The threshold acts on *accumulated* membrane, so a neuron whose mean
      // positive per-step current is c fires roughly every vth/c steps.
      // Setting vth to the (1-a) quantile of per-step currents yields a
      // per-step fire probability of ~a for the upper tail of neurons.
      const double q = 1.0 - target_activity;
      const std::size_t idx = std::min(
          kept - 1, static_cast<std::size_t>(q * static_cast<double>(kept)));
      vth = std::max(1e-6, static_cast<double>(select_kth_positive(
                               {pos.get(), kept}, idx)));
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
