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
  /// A step goes touched while events x fan_out stays below this: the
  /// layer kind's crossover times its neurons.
  double touch_below = 0.0;
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
        touch_below = kConvTouchedCrossover;
        may_touch = inert;
        break;
      case LayerKind::kAvgPool:
        fan_out = 1;
        touch_below = kPoolTouchedCrossover;
        may_touch = inert;
        break;
    }
    touch_below *= static_cast<double>(li.neurons);
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
  // already zero, and stamps stay valid because next_epoch never repeats
  // an epoch a stamp holds.
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
  // events_[t] counts the spikes of in[t]: the encoder's here, then the
  // fires each layer's step returns.
  events_.resize(T);
  for (std::size_t t = 0; t < T; ++t) {
    events_[t] = in[t].count();
    out.total_spikes += events_[t];
  }
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
      events_[t] = step(l, in[t], events_[t]);
      out.total_spikes += events_[t];
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

std::size_t Simulator::step(std::size_t l, const SpikeVector& in,
                            std::size_t events) {
  const Layer& layer = layers_[l];
  // Most outputs this step can write, against the layer size.
  const bool touched =
      layer.may_touch &&
      static_cast<double>(events * layer.fan_out) < layer.touch_below;
  return touched ? step_touched(l, in) : step_stepped(l, in);
}

std::size_t Simulator::step_stepped(std::size_t l, const SpikeVector& in) {
  Layer& layer = layers_[l];
  scatter_accumulate(layer.plan, in, layer.current);
  // step_packed consumes the currents, leaving them +0.0f for the next step.
  const std::size_t fired = layer.pop.step_packed(layer.current, layer.out);
  layer.lists_valid = false;
  return fired;
}

std::size_t Simulator::step_touched(std::size_t l, const SpikeVector& in) {
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
  const std::uint32_t epoch = next_epoch(layer.epoch, layer.stamp);
  layer.touched.clear();
  scatter_touched(layer.plan, in, layer.current, layer.stamp, epoch,
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
  require(config.timesteps > 0, "calibration needs timesteps > 0");
  const Topology& topo = net.topology();
  const std::size_t T = config.timesteps;

  // One encoding per image, in image order: in[i*T + t] is image i's
  // input at step t.  Each layer's spikes replace it as the next layer's.
  std::vector<SpikeVector> in, out, encoded;
  RateEncoder encoder(config.encoder);
  for (const auto& img : images) {
    require(img.size() == topo.input_shape().size(),
            "calibration: image size does not match topology input");
    encoder.encode_into(img, T, rng, encoded);
    in.insert(in.end(), encoded.begin(), encoded.end());
  }

  std::vector<double> chosen;
  for (std::size_t l = 0; l < topo.layer_count(); ++l) {
    const LayerInfo& li = topo.layers()[l];
    LayerParams& params = net.layer(l);
    ScatterPlan plan(li, params.weights);
    std::vector<float> current(li.neurons, 0.0f);

    // Pool layers keep their fixed semantics: fire when at least half the
    // window was active.  Their threshold is not calibrated.
    double vth = 0.5;
    if (li.spec.kind != LayerKind::kAvgPool) {
      // Keep strictly positive currents; a layer that never receives
      // positive drive keeps threshold 1 (it will stay silent, which is
      // honest).  The buffer is sized for every current but left
      // uninitialised, so only pages that kept samples reach are ever
      // touched.  A block of kBlock currents with no positive one (a
      // third of conv1's on perfbench) is only cleared.  In any other,
      // each current is stored at the end of the kept run, which advances
      // only past a positive one: no branch on the data.
      constexpr std::size_t kBlock = 16;
      const auto pos =
          std::make_unique_for_overwrite<float[]>(li.neurons * in.size());
      std::size_t kept = 0;
      const auto keep = [&](const float* c, std::size_t n) {
        for (std::size_t j = 0; j < n; ++j) {
          pos[kept] = c[j];
          kept += c[j] > 0.0f ? 1 : 0;
        }
      };
      for (const SpikeVector& spikes : in) {
        scatter_accumulate(plan, spikes, current);
        float* const c = current.data();
        std::size_t b = 0;
        for (; b + kBlock <= li.neurons; b += kBlock) {
          bool any = false;
          for (std::size_t j = 0; j < kBlock; ++j) any |= c[b + j] > 0.0f;
          if (any) keep(c + b, kBlock);
        }
        keep(c + b, li.neurons - b);
        std::fill(current.begin(), current.end(), 0.0f);
      }
      vth = 1.0;
      if (kept > 0) {
        // The threshold acts on *accumulated* membrane, so a neuron whose
        // mean positive per-step current is c fires roughly every vth/c
        // steps.  Setting vth to the (1-a) quantile of per-step currents
        // yields a per-step fire probability of ~a for the upper tail.
        const double q = 1.0 - target_activity;
        const std::size_t idx = std::min(
            kept - 1, static_cast<std::size_t>(q * static_cast<double>(kept)));
        vth = std::max(1e-6, static_cast<double>(select_kth_positive(
                                 {pos.get(), kept}, idx)));
      }
    }
    params.neuron.v_threshold = vth;
    chosen.push_back(vth);
    if (l + 1 == topo.layer_count()) break;

    // Step the layer at its new threshold, one presentation per image;
    // step_packed leaves the currents +0.0f for the next scatter.
    IfPopulation pop(li.neurons, params.neuron);
    out.resize(in.size());
    for (std::size_t k = 0; k < in.size(); ++k) {
      if (k % T == 0) pop.clear();
      scatter_accumulate(plan, in[k], current);
      out[k].reset(li.neurons);
      pop.step_packed(current, out[k]);
    }
    std::swap(in, out);
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
