#include "api/differential.hpp"

#include <algorithm>
#include <vector>

#include "api/pipeline.hpp"
#include "api/registry.hpp"
#include "common/error.hpp"

namespace resparc::api {

namespace {

std::string diverged(const snn::FuzzCase& c, const std::string& what) {
  return c.summary() + ": " + what;
}

bool same_vector(const snn::SpikeVector& a, const snn::SpikeVector& b) {
  if (a.size() != b.size()) return false;
  const auto wa = a.words();
  const auto wb = b.words();
  for (std::size_t i = 0; i < wa.size(); ++i)
    if (wa[i] != wb[i]) return false;
  return true;
}

/// Exact comparison of two simulation results; fills `why` on divergence.
bool same_sim(const snn::SimResult& a, const snn::SimResult& b,
              std::string& why) {
  if (a.total_spikes != b.total_spikes) {
    why = "total_spikes " + std::to_string(a.total_spikes) + " vs " +
          std::to_string(b.total_spikes);
    return false;
  }
  if (a.predicted_class != b.predicted_class) {
    why = "predicted_class";
    return false;
  }
  if (a.output_spike_counts != b.output_spike_counts) {
    why = "output_spike_counts";
    return false;
  }
  if (a.trace.layers.size() != b.trace.layers.size()) {
    why = "trace layer count";
    return false;
  }
  for (std::size_t l = 0; l < a.trace.layers.size(); ++l) {
    if (a.trace.layers[l].size() != b.trace.layers[l].size()) {
      why = "trace timesteps at layer " + std::to_string(l);
      return false;
    }
    for (std::size_t t = 0; t < a.trace.layers[l].size(); ++t)
      if (!same_vector(a.trace.layers[l][t], b.trace.layers[l][t])) {
        why = "spikes at layer " + std::to_string(l) + " step " +
              std::to_string(t);
        return false;
      }
  }
  return true;
}

/// Exact comparison of two replay reports (unified fields, energy and
/// latency buckets, plus every native counter).
bool same_report(const ExecutionReport& a, const ExecutionReport& b,
                 std::string& why) {
  if (a.classifications != b.classifications) {
    why = "classifications";
    return false;
  }
  if (a.energy_pj != b.energy_pj) {
    why = "energy_pj";
    return false;
  }
  if (a.latency_ns != b.latency_ns) {
    why = "latency_ns";
    return false;
  }
  if (a.throughput_hz != b.throughput_hz) {
    why = "throughput_hz";
    return false;
  }
  if (a.energy_breakdown_pj != b.energy_breakdown_pj) {
    why = "energy_breakdown_pj";
    return false;
  }
  if (a.latency_breakdown_ns != b.latency_breakdown_ns) {
    why = "latency_breakdown_ns";
    return false;
  }
  if (a.resparc.has_value() != b.resparc.has_value()) {
    why = "native report presence";
    return false;
  }
  if (a.resparc) {
    const core::RunReport& ra = *a.resparc;
    const core::RunReport& rb = *b.resparc;
    const core::EnergyBreakdown &ea = ra.energy, &eb = rb.energy;
    if (ea.neuron_pj != eb.neuron_pj || ea.crossbar_pj != eb.crossbar_pj ||
        ea.buffer_pj != eb.buffer_pj || ea.control_pj != eb.control_pj ||
        ea.comm_pj != eb.comm_pj || ea.leakage_pj != eb.leakage_pj) {
      why = "native energy breakdown";
      return false;
    }
    const core::EventCounts &va = ra.events, &vb = rb.events;
    if (va.mca_activations != vb.mca_activations ||
        va.mca_skips != vb.mca_skips ||
        va.neuron_integrations != vb.neuron_integrations ||
        va.neuron_fires != vb.neuron_fires ||
        va.buffer_bits != vb.buffer_bits ||
        va.switch_flits != vb.switch_flits ||
        va.switch_skips != vb.switch_skips || va.bus_words != vb.bus_words ||
        va.bus_skips != vb.bus_skips ||
        va.ccu_transfers != vb.ccu_transfers ||
        va.sram_reads != vb.sram_reads || va.sram_writes != vb.sram_writes) {
      why = "native event counters";
      return false;
    }
    if (ra.perf.cycles_pipelined != rb.perf.cycles_pipelined ||
        ra.perf.cycles_serial != rb.perf.cycles_serial ||
        ra.perf.cycles_compute != rb.perf.cycles_compute ||
        ra.perf.cycles_transport != rb.perf.cycles_transport ||
        ra.perf.cycles_stall != rb.perf.cycles_stall ||
        ra.perf.clock_mhz != rb.perf.clock_mhz) {
      why = "native perf counters";
      return false;
    }
    const auto same_level = [](const noc::LevelStats& x,
                               const noc::LevelStats& y) {
      return x.words == y.words && x.hops == y.hops && x.drops == y.drops &&
             x.stall_cycles == y.stall_cycles &&
             x.busy_cycles == y.busy_cycles && x.queue_peak == y.queue_peak;
    };
    if (!same_level(ra.noc.mesh, rb.noc.mesh) ||
        !same_level(ra.noc.tree, rb.noc.tree) ||
        !same_level(ra.noc.bus, rb.noc.bus)) {
      why = "native noc counters";
      return false;
    }
    if (ra.classifications != rb.classifications) {
      why = "native classifications";
      return false;
    }
  }
  return true;
}

/// Adds the fan-out of input `idx` of layer `li` (weights `w`) into
/// `current`, one output at a time.
void add_fan_out(const snn::LayerInfo& li, const Matrix& w, std::size_t idx,
                 std::vector<float>& current) {
  const Shape3 in = li.in_shape;
  const Shape3 out = li.out_shape;
  switch (li.spec.kind) {
    case snn::LayerKind::kDense:
      for (std::size_t c = 0; c < li.neurons; ++c) current[c] += w(idx, c);
      break;
    case snn::LayerKind::kConv: {
      const std::size_t k = li.spec.kernel;
      const std::size_t pad = li.spec.same_padding ? k / 2 : 0;
      const std::size_t c = idx / (in.h * in.w);
      const std::size_t y = idx / in.w % in.h;
      const std::size_t x = idx % in.w;
      for (std::size_t ky = 0; ky < k; ++ky) {
        // Output row oy = y + pad - ky, kept only when inside the image.
        if (y + pad < ky || y + pad - ky >= out.h) continue;
        for (std::size_t kx = 0; kx < k; ++kx) {
          if (x + pad < kx || x + pad - kx >= out.w) continue;
          const std::size_t pixel = (y + pad - ky) * out.w + (x + pad - kx);
          const std::size_t row = (c * k + ky) * k + kx;
          for (std::size_t oc = 0; oc < out.c; ++oc)
            current[oc * out.h * out.w + pixel] += w(row, oc);
        }
      }
      break;
    }
    case snn::LayerKind::kAvgPool: {
      const std::size_t p = li.spec.pool;
      const std::size_t c = idx / (in.h * in.w);
      const std::size_t y = idx / in.w % in.h;
      const std::size_t x = idx % in.w;
      current[(c * out.h + y / p) * out.w + x / p] +=
          1.0f / static_cast<float>(p * p);
      break;
    }
  }
}

/// The scalar IF rule on one neuron: integrate, optional leak, threshold,
/// reset.  Returns true when it fires.
bool if_rule(const snn::IfParams& p, float& membrane, float current) {
  const float vth = static_cast<float>(p.v_threshold);
  const float vreset = static_cast<float>(p.v_reset);
  const float leak = static_cast<float>(p.leak_per_step);
  float v = membrane + current;
  if (leak > 0.0f) v = v > leak ? v - leak : 0.0f;
  const bool fire = v >= vth;
  if (fire) {
    if (p.subtractive_reset) {
      v -= vth;
      if (v < vreset) v = vreset;
    } else {
      v = vreset;
    }
  }
  membrane = v;
  return fire;
}

}  // namespace

snn::SimResult reference_run(const snn::Network& net,
                             const snn::SimConfig& config,
                             std::span<const float> image, Rng& rng) {
  const snn::Topology& topo = net.topology();
  require(image.size() == topo.input_shape().size(),
          "reference_run: image size does not match topology input");
  snn::SimResult out;
  out.output_spike_counts.assign(topo.output_count(), 0);
  if (config.record_trace) out.trace.layers.resize(topo.layer_count() + 1);

  std::vector<std::vector<float>> membranes;
  for (const snn::LayerInfo& li : topo.layers())
    membranes.emplace_back(li.neurons, 0.0f);

  snn::RateEncoder encoder(config.encoder);
  const std::vector<snn::SpikeVector> input =
      encoder.encode(image, config.timesteps, rng);
  for (std::size_t t = 0; t < config.timesteps; ++t) {
    snn::SpikeVector prev = input[t];
    out.total_spikes += prev.count();
    if (config.record_trace) out.trace.layers[0].push_back(prev);
    for (std::size_t l = 0; l < topo.layer_count(); ++l) {
      const snn::LayerInfo& li = topo.layers()[l];
      std::vector<float> current(li.neurons, 0.0f);
      for (std::size_t i = 0; i < prev.size(); ++i)
        if (prev.get(i)) add_fan_out(li, net.layer(l).weights, i, current);
      snn::SpikeVector spikes(li.neurons);
      for (std::size_t i = 0; i < li.neurons; ++i)
        if (if_rule(net.layer(l).neuron, membranes[l][i], current[i]))
          spikes.set(i);
      out.total_spikes += spikes.count();
      if (config.record_trace) out.trace.layers[l + 1].push_back(spikes);
      prev = std::move(spikes);
    }
    for (std::size_t i = 0; i < prev.size(); ++i)
      if (prev.get(i)) ++out.output_spike_counts[i];
  }
  out.predicted_class = static_cast<std::size_t>(std::distance(
      out.output_spike_counts.begin(),
      std::max_element(out.output_spike_counts.begin(),
                       out.output_spike_counts.end())));
  return out;
}

DifferentialResult check_differential(const snn::FuzzCase& c) {
  DifferentialResult out;
  const snn::Network net = snn::make_fuzz_network(c);

  // -- simulation: the engine must match the naive reference -----------
  snn::SimConfig cfg;
  cfg.timesteps = c.timesteps;
  cfg.encoder = c.encoder;
  cfg.record_trace = true;

  // Same seed for both: the encoder consumes identical random streams, so
  // any divergence is the engine's, not the input's.
  Rng engine_rng(c.seed ^ 0xd1ffe8e47ull);
  const snn::SimResult engine = snn::Simulator(net, cfg).run(c.image, engine_rng);
  Rng reference_rng(c.seed ^ 0xd1ffe8e47ull);
  const snn::SimResult reference =
      reference_run(net, cfg, c.image, reference_rng);
  std::string why;
  if (!same_sim(reference, engine, why)) {
    out.ok = false;
    out.detail = diverged(c, "engine vs reference: " + why);
    return out;
  }

  // -- replay: multi-trace execute vs reduced per-trace execute_each ----
  const auto accel = make_accelerator("resparc-" + std::to_string(c.mca_size));
  accel->load(c.topology);
  // Two presentations (the same trace twice) so the reduction has more
  // than one part even though one fuzz case yields one trace.
  const std::vector<snn::SpikeTrace> traces = {engine.trace, engine.trace};
  const ExecutionReport whole = accel->execute(traces);
  const ExecutionReport reduced = Pipeline::execute(*accel, traces, 2);
  if (!same_report(whole, reduced, why)) {
    out.ok = false;
    out.detail = diverged(c, "execute vs execute_each: " + why);
    return out;
  }
  return out;
}

}  // namespace resparc::api
