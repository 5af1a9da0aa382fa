// mlp-serve: open-loop traffic through serve::Server.
//
// Set-up (repeated kSetupReps times, setup_s is the median): synthesize
// the image pool, random-init and calibrate the MNIST-MLP, pre-record one
// trace per pool image, start a server and bind two tenants —
// resparc-64/greedy-pack and resparc-64/anneal, both compiled through the
// server's ProgramCache — with kSessionsPerTenant sessions each.
// Measured window: the calling thread is the load generator.  It sends a
// Poisson arrival schedule (kRequestsPerSecond, fixed by the seed) to
// random sessions, without waiting for replies; most requests carry a
// pre-recorded trace, a kImageShare minority a raw image the server
// simulates.  A request's latency runs from its scheduled send time to
// its ordered delivery, so a stalled generator or server is charged to
// every request it delayed.
#include <cmath>
#include <future>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/backends.hpp"
#include "api/pipeline.hpp"
#include "api/registry.hpp"
#include "common/rng.hpp"
#include "compile/compiler.hpp"
#include "data/synthetic.hpp"
#include "serve/server.hpp"
#include "snn/benchmarks.hpp"
#include "snn/network.hpp"
#include "snn/simulator.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace compile = resparc::compile;
namespace data = resparc::data;
namespace serve = resparc::serve;

constexpr std::size_t kPool = 32;              ///< images, one trace each
constexpr double kRequestsPerSecond = 1000.0;  ///< offered load
constexpr double kImageShare = 0.03;           ///< raw-image requests
constexpr std::size_t kSessionsPerTenant = 4;
const char* const kTenants[] = {"resparc-64/greedy-pack", "resparc-64/anneal"};
constexpr std::size_t kTenantCount = std::size(kTenants);
constexpr std::size_t kSessions = kTenantCount * kSessionsPerTenant;

/// One scheduled request.
struct Arrival {
  double offset_s = 0;     ///< scheduled send time after the start
  std::size_t slot = 0;    ///< session slot; tenant = slot / kSessionsPerTenant
  bool image = false;      ///< raw image (else pre-recorded trace)
  std::size_t item = 0;    ///< pool index
};

/// What the response callback keeps of one delivered response.
struct Outcome {
  bool delivered = false;
  Clock::time_point at{};
  serve::Response response;
};

/// Per-session delivery log, indexed by sequence; only the dispatcher
/// delivering that session writes it (ordered delivery is single-drainer
/// per session), main reads it after Server::drain().
using Deliveries = std::vector<std::vector<Outcome>>;

std::vector<Arrival> make_schedule(std::uint64_t seed, double seconds) {
  resparc::Rng rng(resparc::stream_seed(seed, 0x5e7e));
  auto gap = [&rng] {
    return -std::log1p(-rng.uniform()) / kRequestsPerSecond;
  };
  std::vector<Arrival> schedule;
  for (double t = gap(); t < seconds; t += gap()) {
    Arrival a;
    a.offset_s = t;
    a.slot = rng.below(kSessions);
    a.image = rng.uniform() < kImageShare;
    a.item = rng.below(kPool);
    schedule.push_back(a);
  }
  return schedule;
}

struct Prepared {
  data::Dataset images;
  std::optional<snn::Network> network;
  std::vector<snn::SpikeTrace> traces;  ///< one per pool image
  std::unique_ptr<serve::Server> server;
  std::vector<serve::SessionId> sessions;  ///< by slot
};

struct SetupTimes {
  double total = 0, data = 0, calibrate = 0, add_tenant = 0;
};

snn::SimConfig sim_config() {
  snn::SimConfig config;
  config.timesteps = kTimesteps;
  config.record_trace = true;
  return config;
}

Prepared set_up(const Options& options, Tracer& tracer, Deliveries& log,
                SetupTimes& t) {
  Span setup(tracer, "bench.setup");
  Prepared p;
  data::Dataset calibration;
  const snn::BenchmarkSpec spec = snn::mnist_mlp();
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
    p.network.emplace(spec.topology);
    p.network->init_random(rng);
  }
  {
    Span span(tracer, "snn.calibrate");
    snn::calibrate_thresholds(*p.network, calibration.images, sim_config(),
                              rng, kTargetActivity);
    t.calibrate = span.stop();
  }
  {
    Span span(tracer, "snn.record");
    snn::Simulator simulator(*p.network, sim_config());
    for (std::size_t j = 0; j < kPool; ++j) {
      resparc::Rng present(api::presentation_seed(options.seed, j));
      p.traces.push_back(simulator.run(p.images.images[j], present).trace);
    }
  }
  {
    Span span(tracer, "serve.start");
    serve::ServerConfig config;
    // The generator is the calling thread; the rest dispatch.  Two
    // replicas per tenant let trace requests pass a batch that is busy
    // simulating a raw image, so the tail is the image path itself
    // rather than head-of-line blocking behind it.
    config.dispatchers = options.threads - 1;
    config.replicas = 2;
    config.seed = options.seed;
    p.server = std::make_unique<serve::Server>(config);
  }
  {
    Span span(tracer, "serve.add_tenant");
    for (const char* backend : kTenants) {
      serve::TenantSpec tenant;
      tenant.backend = backend;
      tenant.topology = spec.topology;
      tenant.network = *p.network;
      tenant.sim = sim_config();
      p.server->add_tenant(backend, std::move(tenant));
    }
    t.add_tenant = span.stop();
  }
  {
    Span span(tracer, "serve.open_session");
    for (std::size_t slot = 0; slot < kSessions; ++slot) {
      serve::SessionOptions session;
      session.on_response = [&log, slot](const serve::Response& r) {
        if (r.sequence >= log[slot].size()) return;  // counted as lost
        Outcome& o = log[slot][r.sequence];
        o.at = Clock::now();
        o.response = r;
        o.delivered = true;
      };
      p.sessions.push_back(p.server->open_session(
          kTenants[slot / kSessionsPerTenant], std::move(session)));
    }
  }
  t.total = setup.stop();
  return p;
}

/// One request as the generator saw it.
struct Sent {
  bool traced = false;
  bool admitted = false;
  std::uint64_t sequence = 0;
  double lag_s = 0;
  std::future<serve::Response> future;
};

}  // namespace

Result run_serve(const Options& options, Tracer& tracer) {
  Result result;
  Span run(tracer, "bench.run");

  const std::vector<Arrival> schedule =
      make_schedule(options.seed, options.seconds);
  Deliveries log(kSessions);
  for (const Arrival& a : schedule) log[a.slot].emplace_back();

  std::vector<double> setup_s;
  std::vector<SetupTimes> times(kSetupReps);
  std::optional<Prepared> p;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    p.reset();
    p.emplace(set_up(options, tracer, log, times[rep]));
    setup_s.push_back(times[rep].total);
  }
  serve::Server& server = *p->server;

  // The measured window.  A traced run sends its first half untraced.
  std::vector<Sent> sent(schedule.size());
  std::vector<std::uint64_t> next_sequence(kSessions, 0);
  std::optional<Span> untraced;
  if (options.trace) {
    untraced.emplace(tracer, "bench.untraced");
    tracer.set_enabled(false);
  }
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  for (std::size_t k = 0; k < schedule.size(); ++k) {
    const Arrival& a = schedule[k];
    if (untraced && a.offset_s >= options.seconds / 2) {
      tracer.set_enabled(true);
      untraced.reset();
    }
    serve::Request request;
    if (a.image)
      request.image = p->images.images[a.item];
    else
      request.trace = p->traces[a.item];
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(a.offset_s));
    {
      Span idle(tracer, "bench.idle");
      std::this_thread::sleep_until(due);
    }
    Sent& s = sent[k];
    s.traced = options.trace && !untraced;
    s.lag_s = seconds_between(due, Clock::now());
    Span submit(tracer, "serve.submit");
    try {
      s.future = server.submit(p->sessions[a.slot], std::move(request));
      s.admitted = true;
      s.sequence = next_sequence[a.slot]++;
    } catch (const serve::ServeError& e) {
      result.fail(std::string("request refused: ") + e.what());
    }
  }
  untraced.reset();
  tracer.set_enabled(options.trace);
  {
    Span drain(tracer, "serve.drain");
    server.drain();
  }
  const double window_s = seconds_between(start, Clock::now());

  // Output checks: every trace response equals an offline replay of its
  // trace, every image response an offline simulation seeded with the
  // request's session seed, replayed offline.
  Span check(tracer, "bench.check");
  std::vector<std::unique_ptr<api::Accelerator>> offline;
  std::vector<std::vector<api::ExecutionReport>> pool_reports(kTenantCount);
  std::vector<double> replay_s;
  for (std::size_t tn = 0; tn < kTenantCount; ++tn) {
    auto accelerator = api::make_accelerator(kTenants[tn]);
    auto& backend = dynamic_cast<api::ResparcBackend&>(*accelerator);
    {
      Span span(tracer, "compile.offline");
      const std::string key = kTenants[tn];
      backend.load_program(
          p->network->topology(),
          compile::Compiler(backend.config())
              .compile(p->network->topology(), key.substr(key.find('/') + 1)));
    }
    for (const snn::SpikeTrace& trace : p->traces) {
      Span span(tracer, "core.replay");
      pool_reports[tn].push_back(accelerator->execute(trace));
      replay_s.push_back(span.stop());
    }
    if (!same_report(reduce_reports(pool_reports[tn]),
                     api::Pipeline::execute(*accelerator, p->traces, 1)))
      result.fail(std::string(kTenants[tn]) +
                  ": per-trace reports do not reduce to the batched "
                  "Pipeline::execute result");
    offline.push_back(std::move(accelerator));
  }

  snn::Simulator simulator(*p->network, sim_config());
  std::vector<double> latency_traced, latency_untraced, queue, batch,
      sim_batch, lag, simulate_s, spikes;
  std::vector<std::vector<double>> layer_spikes(kReportedLayers);
  Digest digest;
  for (const snn::SpikeTrace& trace : p->traces) digest.add(trace);
  for (const auto& reports : pool_reports)
    for (const auto& r : reports) digest.add(r);
  std::uint64_t completed = 0;
  for (std::size_t k = 0; k < schedule.size(); ++k) {
    const Arrival& a = schedule[k];
    Sent& s = sent[k];
    ++result.attempted;
    lag.push_back(s.lag_s);
    if (!s.admitted) continue;  // counted when refused
    try {
      s.future.get();
    } catch (const std::exception& e) {
      result.fail(std::string("request failed: ") + e.what());
      continue;
    }
    const Outcome& o = log[a.slot][s.sequence];
    if (!o.delivered) {
      result.fail("response future completed without a callback");
      continue;
    }
    ++completed;
    const serve::Response& r = o.response;
    const std::size_t tenant = a.slot / kSessionsPerTenant;
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(a.offset_s));
    (s.traced ? latency_traced : latency_untraced)
        .push_back(seconds_between(due, o.at));
    if (s.traced || !options.trace) {
      queue.push_back(1e-9 * static_cast<double>(r.queue_ns));
      batch.push_back(1e-9 * static_cast<double>(r.batch_ns));
      if (r.simulated)
        sim_batch.push_back(1e-9 * static_cast<double>(r.batch_ns));
    }

    const api::ExecutionReport* expected = &pool_reports[tenant][a.item];
    api::ExecutionReport image_report;
    bool ok = r.simulated == a.image;
    if (a.image) {
      resparc::Rng rng(server.sessions().request_seed(
          p->sessions[a.slot], s.sequence));
      snn::SimResult sim;
      {
        Span span(tracer, "snn.simulate");
        simulator.run(p->images.images[a.item], rng, sim);
        simulate_s.push_back(span.stop());
      }
      spikes.push_back(static_cast<double>(trace_spikes(sim.trace)));
      for (std::size_t l = 0;
           l < sim.trace.layer_count() && l < kReportedLayers; ++l)
        layer_spikes[l].push_back(
            static_cast<double>(sim.trace.layer_spike_count(l)));
      {
        Span span(tracer, "core.replay");
        image_report = offline[tenant]->execute(sim.trace);
      }
      ok = ok && r.predicted_class == sim.predicted_class;
      expected = &image_report;
      digest.add(static_cast<std::uint64_t>(sim.predicted_class));
    }
    if (!ok || !same_report(r.report, *expected))
      result.fail("request " + std::to_string(k) + " (" +
                  (a.image ? "image" : "trace") +
                  "): response differs from the offline result");
    digest.add(r.report);
  }
  result.digest = digest.hex();
  check.stop();
  run.stop();

  const api::ExecutionReport model = reduce_reports(pool_reports[1]);
  std::vector<double>& latency =
      options.trace ? latency_traced : latency_untraced;
  result.end_to_end = {
      {"setup_s", median(setup_s), "s"},
      {"pres_per_s", static_cast<double>(completed) / window_s, "1/s"},
      {"p50_us", 1e6 * quantile(latency, 0.50), "us"},
      {"model_energy_uj", 1e-6 * model.energy_pj, "uJ"},
      {"model_latency_us", 1e-3 * model.latency_ns, "us"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };
  for (const Metric& m : result.end_to_end)
    if (!(m.value > 0.0))
      result.fail("end-to-end metric " + m.name + " is not positive");

  if (!options.trace) return result;

  auto setup_median = [&](double SetupTimes::*field) {
    std::vector<double> out;
    for (const SetupTimes& t : times) out.push_back(t.*field);
    return median(out);
  };
  const serve::ServerStats stats = server.stats();
  const resparc::core::RunReport& run_report = *model.resparc;
  const double n = static_cast<double>(run_report.classifications);
  const double words = static_cast<double>(run_report.noc.mesh.words +
                                           run_report.noc.tree.words +
                                           run_report.noc.bus.words);
  const double drops = static_cast<double>(run_report.noc.total_drops());
  const double activations =
      static_cast<double>(run_report.events.mca_activations);
  const double skips = static_cast<double>(run_report.events.mca_skips);
  const double sim_mean = mean(simulate_s);
  const double spikes_mean = mean(spikes);

  auto& m = result.per_layer;
  m.push_back({"tail.p99_us", 1e6 * quantile(latency, 0.99), "us"});
  m.push_back({"data.synth_s", setup_median(&SetupTimes::data), "s"});
  m.push_back({"snn.calibrate_s", setup_median(&SetupTimes::calibrate), "s"});
  m.push_back(
      {"serve.add_tenant_s", setup_median(&SetupTimes::add_tenant), "s"});
  m.push_back({"serve.cache_misses",
               static_cast<double>(server.program_cache().stats().misses),
               "count"});
  m.push_back({"snn.simulate_ms_per_pres", 1e3 * sim_mean, "ms"});
  m.push_back({"snn.spikes_per_pres", spikes_mean, "count"});
  m.push_back({"snn.ns_per_spike",
               spikes_mean > 0 ? 1e9 * sim_mean / spikes_mean : 0.0, "ns"});
  m.push_back({"snn.input_sparsity",
               1.0 - mean(layer_spikes[0]) /
                         static_cast<double>(p->images.images[0].size() *
                                             kTimesteps),
               "ratio"});
  for (std::size_t l = 0; l < kReportedLayers; ++l)
    m.push_back({"snn.L" + std::to_string(l) + ".spikes_per_pres",
                 mean(layer_spikes[l]), "count"});
  m.push_back({"core.replay_ms_per_trace", 1e3 * mean(replay_s), "ms"});
  m.push_back({"core.mca_activations", activations / n, "count"});
  m.push_back({"core.mca_skip_ratio", skips / (activations + skips), "ratio"});
  m.push_back({"noc.words", words / n, "count"});
  m.push_back({"noc.drop_ratio", drops / (words + drops), "ratio"});
  m.push_back(
      {"noc.stall_cycles", run_report.noc.total_stall_cycles() / n, "cycles"});
  m.push_back({"serve.queue_us.p50", 1e6 * quantile(queue, 0.50), "us"});
  m.push_back({"serve.queue_us.p99", 1e6 * quantile(queue, 0.99), "us"});
  m.push_back({"serve.batch_us.p50", 1e6 * quantile(batch, 0.50), "us"});
  m.push_back(
      {"serve.sim_batch_us.p99", 1e6 * quantile(sim_batch, 0.99), "us"});
  m.push_back({"serve.mean_batch",
               stats.batches > 0 ? static_cast<double>(stats.completed) /
                                       static_cast<double>(stats.batches)
                                 : 0.0,
               "count"});
  m.push_back({"serve.batches", static_cast<double>(stats.batches), "count"});
  m.push_back({"serve.rejected", static_cast<double>(stats.rejected), "count"});
  m.push_back({"serve.retries", static_cast<double>(stats.retries), "count"});
  m.push_back({"serve.gen_lag_us.p99", 1e6 * quantile(lag, 0.99), "us"});
  const double traced_p50 = quantile(latency_traced, 0.5);
  const double untraced_p50 = quantile(latency_untraced, 0.5);
  m.push_back({"trace.overhead_pct",
               100.0 * (traced_p50 - untraced_p50) / untraced_p50, "%"});
  return result;
}

}  // namespace perfbench
