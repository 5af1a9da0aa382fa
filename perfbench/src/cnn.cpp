// cnn-paper / cnn-sparse: the paper-scale MNIST-CNN end to end.
//
// Set-up (repeated kSetupReps times, setup_s is the median): synthesize
// the image pool, random-init the network, calibrate thresholds at
// encoder rate 1.0, compile with greedy-pack and anneal for MCA-64 and
// load three backends.  Measured window: one presentation after another
// — simulate at the workload's encoder rate, then replay the trace on
// resparc-64/greedy-pack (analytic NoC, the "core" layer),
// resparc-64/anneal (event NoC, the "noc" layer) and cmos, cycling over
// the kPool images with fresh input spikes each time.  A presentation's
// host latency runs from the start of its simulation to the end of its
// last replay.  Modelled metrics and the digest cover the first pass over
// the pool only, so they do not depend on how fast the host is.
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/backends.hpp"
#include "api/pipeline.hpp"
#include "api/registry.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "compile/compiler.hpp"
#include "data/synthetic.hpp"
#include "snn/benchmarks.hpp"
#include "snn/network.hpp"
#include "snn/simulator.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace compile = resparc::compile;
namespace data = resparc::data;

/// Distinct images presented in turn; also the set the modelled metrics
/// and the digest are taken over (the first pass).
constexpr std::size_t kPool = 64;

struct Prepared {
  data::Dataset images;
  std::optional<snn::Network> network;
  std::optional<compile::CompiledProgram> anneal;  ///< for the check chip
  std::unique_ptr<api::Accelerator> core;  ///< resparc-64/greedy-pack, analytic
  std::unique_ptr<api::Accelerator> noc;   ///< resparc-64/anneal, event NoC
  std::unique_ptr<api::Accelerator> cmos;
};

struct SetupTimes {
  double total = 0, data = 0, calibrate = 0, greedy = 0, anneal = 0, load = 0;
};

api::ResparcBackend& resparc_of(api::Accelerator& accelerator) {
  return dynamic_cast<api::ResparcBackend&>(accelerator);
}

Prepared set_up(const Options& options, Tracer& tracer, SetupTimes& t) {
  Span setup(tracer, "bench.setup");
  Prepared p;
  data::Dataset calibration;
  const snn::BenchmarkSpec spec = snn::mnist_cnn();
  const snn::Topology& topology = spec.topology;
  {
    Span span(tracer, "data.synth");
    p.images = data::make_synthetic(
        spec.dataset, {.count = kPool, .seed = options.seed, .noise = 0.03,
                       .jitter_pixels = 1.5});
    calibration = data::make_synthetic(
        spec.dataset, {.count = kCalibrationImages, .seed = kModelSeed,
                       .noise = 0.03, .jitter_pixels = 1.5});
    t.data = span.stop();
  }
  resparc::Rng rng(kModelSeed + 1);
  {
    Span span(tracer, "snn.init");
    p.network.emplace(topology);
    p.network->init_random(rng);
  }
  {
    Span span(tracer, "snn.calibrate");
    snn::SimConfig config;
    config.timesteps = kTimesteps;  // encoder at its default rate 1.0
    snn::calibrate_thresholds(*p.network, calibration.images, config, rng,
                              kTargetActivity);
    t.calibrate = span.stop();
  }

  p.core = api::make_accelerator("resparc-64/greedy-pack");
  api::BackendOptions event;
  event.noc = resparc::noc::Fidelity::kEvent;
  p.noc = api::make_accelerator("resparc-64/anneal", event);
  std::optional<compile::CompiledProgram> greedy;
  {
    Span span(tracer, "compile.greedy-pack");
    greedy = compile::Compiler(resparc_of(*p.core).config())
                 .compile(topology, "greedy-pack");
    t.greedy = span.stop();
  }
  {
    Span span(tracer, "compile.anneal");
    p.anneal = compile::Compiler(resparc_of(*p.noc).config())
                   .compile(topology, "anneal");
    t.anneal = span.stop();
  }
  {
    Span span(tracer, "core.load");
    resparc_of(*p.core).load_program(topology, std::move(*greedy));
    resparc_of(*p.noc).load_program(topology, *p.anneal);
    t.load = span.stop();
  }
  {
    Span span(tracer, "cmos.load");
    p.cmos = api::make_accelerator("cmos");
    p.cmos->load(topology);
  }
  t.total = setup.stop();
  return p;
}

/// One presentation's host timings and work counts.
struct Sample {
  bool traced = false;
  double latency = 0, simulate = 0, core = 0, noc = 0, cmos = 0;
  double spikes = 0;
  double layer_spikes[kReportedLayers] = {};
};

bool finite_positive(double v) { return std::isfinite(v) && v > 0.0; }

/// The per-presentation output check: every reported value finite and
/// positive.
bool plausible(const api::ExecutionReport& r) {
  return r.classifications == 1 && finite_positive(r.energy_pj) &&
         finite_positive(r.latency_ns) && finite_positive(r.throughput_hz);
}

}  // namespace

Result run_cnn(const Options& options, Tracer& tracer, double input_rate) {
  Result result;
  Span run(tracer, "bench.run");

  std::vector<double> setup_s;
  std::vector<SetupTimes> times(kSetupReps);
  std::optional<Prepared> p;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    p.reset();
    p.emplace(set_up(options, tracer, times[rep]));
    setup_s.push_back(times[rep].total);
  }

  snn::SimConfig config;
  config.timesteps = kTimesteps;
  config.encoder.max_rate = input_rate;
  config.record_trace = true;
  snn::Simulator simulator(*p->network, config);
  if (options.threads > 1)
    simulator.set_pool(&resparc::ThreadPool::global(), options.threads);

  snn::SimResult sim;
  std::vector<api::ExecutionReport> core_r, noc_r, cmos_r;
  auto replay = [](const api::Accelerator& accelerator,
                   const snn::SpikeTrace& trace,
                   std::vector<api::ExecutionReport>& out) {
    api::Pipeline::execute_each(accelerator, {&trace, 1}, out, 1);
  };

  // Warm-up presentation: lazy simulator/executor state is built here,
  // outside every timed interval.
  {
    resparc::Rng rng(api::presentation_seed(options.seed, ~std::size_t{0}));
    simulator.run(p->images.images[0], rng, sim);
    replay(*p->core, sim.trace, core_r);
    replay(*p->noc, sim.trace, noc_r);
    replay(*p->cmos, sim.trace, cmos_r);
  }

  std::vector<snn::SpikeTrace> pool_traces;
  std::vector<api::ExecutionReport> pool_core, pool_noc, pool_cmos;
  std::vector<Sample> samples;
  const std::size_t input_neurons = p->images.images[0].size();

  auto present = [&](std::size_t i, bool traced) {
    Sample s;
    s.traced = traced;
    {
      Span all(tracer, "bench.presentation");
      Span simulate(tracer, "snn.simulate");
      resparc::Rng rng(api::presentation_seed(options.seed, i));
      simulator.run(p->images.images[i % kPool], rng, sim);
      s.simulate = simulate.stop();
      Span core(tracer, "core.replay");
      replay(*p->core, sim.trace, core_r);
      s.core = core.stop();
      Span noc(tracer, "noc.replay");
      replay(*p->noc, sim.trace, noc_r);
      s.noc = noc.stop();
      Span cmos(tracer, "cmos.replay");
      replay(*p->cmos, sim.trace, cmos_r);
      s.cmos = cmos.stop();
      s.latency = all.stop();
      s.spikes = static_cast<double>(trace_spikes(sim.trace));
      simulate.count("spikes", s.spikes);
    }
    for (std::size_t l = 0; l < sim.trace.layer_count() && l < kReportedLayers;
         ++l)
      s.layer_spikes[l] = static_cast<double>(sim.trace.layer_spike_count(l));
    samples.push_back(s);

    ++result.attempted;
    if (!plausible(core_r.front()) || !plausible(noc_r.front()) ||
        !plausible(cmos_r.front()))
      result.fail("presentation " + std::to_string(i) +
                  ": non-finite or non-positive report value");
    if (i < kPool) {
      pool_traces.push_back(sim.trace);
      pool_core.push_back(core_r.front());
      pool_noc.push_back(noc_r.front());
      pool_cmos.push_back(cmos_r.front());
    }
  };

  // The measured window.  A traced run spends its first half untraced
  // and its second half traced; the difference is the tracing overhead.
  std::size_t next = 0;
  auto window = [&](double seconds, bool traced) {
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    const std::size_t first = next;
    do present(next++, traced);
    while (next - first < kPool || Clock::now() < deadline);
  };
  if (options.trace) {
    {
      Span untraced(tracer, "bench.untraced");
      tracer.set_enabled(false);
      window(options.seconds / 2, false);
      tracer.set_enabled(true);
    }
    window(options.seconds / 2, true);
  } else {
    window(options.seconds, false);
  }

  // Output checks over the fixed pool.
  Span check(tracer, "bench.check");
  api::ExecutionReport batch_core, batch_noc, batch_cmos, batch_analytic;
  {
    Span span(tracer, "core.replay");
    batch_core = api::Pipeline::execute(*p->core, pool_traces, 1);
  }
  {
    Span span(tracer, "noc.replay");
    batch_noc = api::Pipeline::execute(*p->noc, pool_traces, 1);
  }
  {
    Span span(tracer, "cmos.replay");
    batch_cmos = api::Pipeline::execute(*p->cmos, pool_traces, 1);
  }
  {
    // The anneal program again, with the analytic NoC model.
    Span span(tracer, "core.replay");
    auto analytic = api::make_accelerator("resparc-64/anneal");
    resparc_of(*analytic).load_program(p->network->topology(), *p->anneal);
    batch_analytic = api::Pipeline::execute(*analytic, pool_traces, 1);
  }
  const struct {
    const char* name;
    const std::vector<api::ExecutionReport>& parts;
    const api::ExecutionReport& batched;
  } backends[] = {{"resparc-64/greedy-pack", pool_core, batch_core},
                  {"resparc-64/anneal@event", pool_noc, batch_noc},
                  {"cmos", pool_cmos, batch_cmos}};
  for (const auto& b : backends)
    if (!same_report(reduce_reports(b.parts), b.batched))
      result.fail(std::string(b.name) +
                  ": per-trace reports do not reduce to the batched "
                  "Pipeline::execute result");
  if (batch_noc.latency_ns < batch_analytic.latency_ns)
    result.fail("event-NoC latency below the analytic latency");
  if (!(batch_core.energy_pj < batch_cmos.energy_pj) ||
      !(batch_noc.energy_pj < batch_cmos.energy_pj))
    result.fail("RESPARC energy not below CMOS energy");

  Digest digest;
  for (const auto& trace : pool_traces) digest.add(trace);
  for (const auto& b : backends) digest.add(b.batched);
  digest.add(batch_analytic);
  result.digest = digest.hex();
  check.stop();
  run.stop();

  // End-to-end metrics.  Host timings are taken per pool image as the
  // median over its presentations, which keeps a transient stall of the
  // host out of the figures; pres_per_s is one pass over the pool.
  std::vector<std::vector<double>> by_image(kPool);
  for (std::size_t i = 0; i < samples.size(); ++i)
    if (samples[i].traced == options.trace)
      by_image[i % kPool].push_back(samples[i].latency);
  std::vector<double> per_image;
  double pass_s = 0.0;
  for (const auto& latencies : by_image) {
    per_image.push_back(median(latencies));
    pass_s += per_image.back();
  }
  result.end_to_end = {
      {"setup_s", median(setup_s), "s"},
      {"pres_per_s", static_cast<double>(kPool) / pass_s, "1/s"},
      {"p50_us", 1e6 * quantile(per_image, 0.50), "us"},
      {"model_energy_uj", 1e-6 * batch_noc.energy_pj, "uJ"},
      {"model_latency_us", 1e-3 * batch_noc.latency_ns, "us"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };
  for (const Metric& m : result.end_to_end)
    if (!finite_positive(m.value))
      result.fail("end-to-end metric " + m.name + " is not positive");

  if (!options.trace) return result;

  // Per-layer metrics from the traced half.
  auto column = [&](double Sample::*field) {
    std::vector<double> out;
    for (const Sample& s : samples)
      if (s.traced) out.push_back(s.*field);
    return out;
  };
  auto setup_median = [&](double SetupTimes::*field) {
    std::vector<double> out;
    for (const SetupTimes& t : times) out.push_back(t.*field);
    return median(out);
  };
  const double simulate_s = mean(column(&Sample::simulate));
  const double spikes = mean(column(&Sample::spikes));
  const double input_bits =
      static_cast<double>(input_neurons) * static_cast<double>(kTimesteps);
  const resparc::core::RunReport& noc_run = *batch_noc.resparc;
  const double n = static_cast<double>(noc_run.classifications);
  const double words = static_cast<double>(noc_run.noc.mesh.words +
                                           noc_run.noc.tree.words +
                                           noc_run.noc.bus.words);
  const double drops = static_cast<double>(noc_run.noc.total_drops());
  const double activations =
      static_cast<double>(noc_run.events.mca_activations);
  const double skips = static_cast<double>(noc_run.events.mca_skips);

  auto& m = result.per_layer;
  m.push_back({"tail.p99_us", 1e6 * quantile(per_image, 0.99), "us"});
  m.push_back({"data.synth_s", setup_median(&SetupTimes::data), "s"});
  m.push_back({"snn.calibrate_s", setup_median(&SetupTimes::calibrate), "s"});
  m.push_back(
      {"compile.greedy-pack_s", setup_median(&SetupTimes::greedy), "s"});
  m.push_back({"compile.anneal_s", setup_median(&SetupTimes::anneal), "s"});
  m.push_back({"core.load_s", setup_median(&SetupTimes::load), "s"});
  m.push_back({"snn.simulate_ms_per_pres", 1e3 * simulate_s, "ms"});
  m.push_back({"snn.spikes_per_pres", spikes, "count"});
  m.push_back({"snn.ns_per_spike", 1e9 * simulate_s / spikes, "ns"});
  std::vector<std::vector<double>> layer_spikes(kReportedLayers);
  for (const Sample& s : samples)
    if (s.traced)
      for (std::size_t l = 0; l < kReportedLayers; ++l)
        layer_spikes[l].push_back(s.layer_spikes[l]);
  m.push_back({"snn.input_sparsity", 1.0 - mean(layer_spikes[0]) / input_bits,
               "ratio"});
  for (std::size_t l = 0; l < kReportedLayers; ++l)
    m.push_back({"snn.L" + std::to_string(l) + ".spikes_per_pres",
                 mean(layer_spikes[l]), "count"});
  m.push_back(
      {"core.replay_ms_per_trace", 1e3 * mean(column(&Sample::core)), "ms"});
  m.push_back(
      {"noc.replay_ms_per_trace", 1e3 * mean(column(&Sample::noc)), "ms"});
  m.push_back(
      {"cmos.replay_ms_per_trace", 1e3 * mean(column(&Sample::cmos)), "ms"});
  m.push_back({"core.mca_activations", activations / n, "count"});
  m.push_back({"core.mca_skip_ratio", skips / (activations + skips), "ratio"});
  m.push_back({"noc.words", words / n, "count"});
  m.push_back({"noc.drop_ratio", drops / (words + drops), "ratio"});
  m.push_back(
      {"noc.stall_cycles", noc_run.noc.total_stall_cycles() / n, "cycles"});

  const double traced = mean(column(&Sample::latency));
  std::vector<double> untraced_latency;
  for (const Sample& s : samples)
    if (!s.traced) untraced_latency.push_back(s.latency);
  const double untraced = mean(untraced_latency);
  m.push_back({"trace.overhead_pct", 100.0 * (traced - untraced) / untraced,
               "%"});
  return result;
}

}  // namespace perfbench
