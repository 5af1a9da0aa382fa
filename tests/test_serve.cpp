// The multi-tenant serving subsystem (src/serve, docs/serving.md): RS-*
// error codes asserted by Error::code(), warm/corrupt program-cache
// behaviour with its hit counters, per-session ordered delivery, batch-
// formation invariance of per-request results, tenants that cannot stall
// each other, cross-session determinism under co-tenant load, and the
// latency recorder's HDR quantiles.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "api/pipeline.hpp"
#include "compile/program.hpp"
#include "core/config.hpp"
#include "serve/latency.hpp"
#include "serve/program_cache.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "snn/benchmarks.hpp"

namespace resparc::serve {
namespace {

/// Shared small workload: a calibrated network with several traced
/// presentations, built once for the whole suite (compiles are slow).
class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    api::PipelineOptions opt;
    opt.images = 6;
    opt.timesteps = 8;
    opt.seed = 11;
    opt.threads = 1;
    workload_ = new api::Workload(
        api::Pipeline(opt)
            .dataset(snn::DatasetKind::kMnistLike)
            .topology(snn::small_mlp_topology(snn::DatasetKind::kMnistLike))
            .run());
  }
  static void TearDownTestSuite() {
    delete workload_;
    workload_ = nullptr;
  }

  /// A trace-replay tenant over the shared workload's topology.
  static TenantSpec trace_tenant() {
    TenantSpec spec;
    spec.backend = "resparc-64";
    spec.topology = workload_->topology();
    return spec;
  }

  /// A raw-image tenant: same topology plus the calibrated network and
  /// the simulation settings the workload's traces were recorded with.
  static TenantSpec image_tenant() {
    TenantSpec spec = trace_tenant();
    spec.network = workload_->network;
    spec.sim.timesteps = 8;
    return spec;
  }

  static const snn::SpikeTrace& trace(std::size_t i) {
    return workload_->traces[i % workload_->traces.size()];
  }
  static const std::vector<float>& image(std::size_t i) {
    return workload_->test.images[i % workload_->test.images.size()];
  }

  static api::Workload* workload_;
};

api::Workload* ServeTest::workload_ = nullptr;

/// Runs `fn`, returning the ServeError code it throws ("" when it does
/// not throw a ServeError).
template <typename Fn>
std::string code_of(Fn&& fn) {
  try {
    fn();
  } catch (const ServeError& e) {
    return e.code();
  } catch (...) {
  }
  return "";
}

/// Parks the dispatcher that publishes a session's first response.
/// on_response callbacks run on the publishing dispatcher before the
/// promise is set, so a callback that blocks holds that dispatcher and
/// its replica until release(): later work queues behind it with no
/// timing assumption.  Destroying the gate releases it, so a failed
/// assertion cannot hang the server's shutdown.
class FirstResponseGate {
 public:
  FirstResponseGate() = default;
  FirstResponseGate(const FirstResponseGate&) = delete;
  FirstResponseGate& operator=(const FirstResponseGate&) = delete;
  ~FirstResponseGate() { release(); }

  /// The callback to install as SessionOptions::on_response.
  std::function<void(const Response&)> callback() const {
    return [state = state_](const Response&) {
      if (state->first.exchange(false)) {
        state->entered.set_value();
        state->released.wait();
      }
    };
  }
  /// Blocks until a dispatcher is parked on the first response.
  void wait_entered() { entered_.wait(); }
  /// Lets the parked dispatcher go (idempotent).
  void release() {
    if (!state_->release_called.exchange(true)) state_->release.set_value();
  }

 private:
  struct State {
    std::atomic<bool> first{true};
    std::atomic<bool> release_called{false};
    std::promise<void> entered;
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
  };
  std::shared_ptr<State> state_ = std::make_shared<State>();
  std::future<void> entered_ = state_->entered.get_future();
};

/// A per-test scratch directory under the gtest temp root.
std::string scratch_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "resparc_serve_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// ----------------------------------------------------------- error codes --

TEST_F(ServeTest, ErrorCodesAreStable) {
  Server server({.replicas = 1, .dispatchers = 1, .queue_capacity = 2});
  server.add_tenant("t", trace_tenant());

  EXPECT_EQ(code_of([&] { server.add_tenant("t", trace_tenant()); }),
            kErrDuplicateTenant);
  EXPECT_EQ(code_of([&] { server.open_session("nope"); }), kErrUnknownTenant);
  EXPECT_EQ(code_of([&] { server.submit(999, {.trace = trace(0)}); }),
            kErrUnknownSession);

  const SessionId s = server.open_session("t");
  EXPECT_EQ(code_of([&] { server.submit(s, {}); }), kErrEmptyRequest);
  // The trace tenant has no network bound, so raw images are refused.
  EXPECT_EQ(code_of([&] { server.submit(s, {.image = image(0)}); }),
            kErrNoNetwork);

  server.close_session(s);
  EXPECT_FALSE(server.sessions().is_open(s));
  EXPECT_EQ(code_of([&] { server.submit(s, {.trace = trace(0)}); }),
            kErrUnknownSession);
  EXPECT_EQ(code_of([&] { server.close_session(s); }), kErrUnknownSession);

  server.shutdown();
  EXPECT_EQ(code_of([&] { server.open_session("t"); }), kErrShutdown);
  EXPECT_EQ(code_of([&] { server.add_tenant("t2", trace_tenant()); }),
            kErrShutdown);
}

TEST_F(ServeTest, FullQueueRejectsWithCode) {
  // The only dispatcher parks on request 0's response, so the next
  // three requests deterministically fill the queue.
  Server server({.replicas = 1, .dispatchers = 1, .queue_capacity = 3});
  server.add_tenant("t", trace_tenant());
  FirstResponseGate gate;
  const SessionId s =
      server.open_session("t", {.on_response = gate.callback()});

  std::vector<std::future<Response>> futures;
  futures.push_back(server.submit(s, {.trace = trace(0)}));
  gate.wait_entered();
  for (int i = 1; i <= 3; ++i)
    futures.push_back(server.submit(s, {.trace = trace(i)}));
  EXPECT_EQ(code_of([&] { server.submit(s, {.trace = trace(4)}); }),
            kErrQueueFull);
  EXPECT_EQ(server.stats().rejected, 1u);

  // Shutdown still executes the admitted requests before stopping.
  gate.release();
  server.shutdown();
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
  EXPECT_EQ(server.stats().completed, 4u);
}

// --------------------------------------------------------- program cache --

TEST(ProgramCacheKey, DiscriminatesEveryTripleComponent) {
  const auto config = core::default_config();
  const auto topo_a = snn::small_mlp_topology(snn::DatasetKind::kMnistLike);
  const auto topo_b = snn::small_mlp_topology(snn::DatasetKind::kSvhnLike);
  const std::uint64_t base =
      compile::program_cache_key(config, topo_a, "paper");
  EXPECT_EQ(base, compile::program_cache_key(config, topo_a, "paper"));
  EXPECT_NE(base, compile::program_cache_key(config, topo_a, "greedy-pack"));
  EXPECT_NE(base, compile::program_cache_key(config, topo_b, "paper"));
  const core::ResparcConfig other = core::config_with_mca(config.mca_size / 2);
  EXPECT_NE(base, compile::program_cache_key(other, topo_a, "paper"));
}

TEST_F(ServeTest, ProgramCacheWarmRestartSkipsRecompile) {
  const std::string dir = scratch_dir("warm");
  const auto config = core::default_config();
  const auto topology = workload_->topology();

  ProgramCache first({.directory = dir});
  first.get_or_compile(config, topology, "paper");
  EXPECT_EQ(first.stats().misses, 1u);
  // Same triple again: served from the in-memory LRU.
  first.get_or_compile(config, topology, "paper");
  EXPECT_EQ(first.stats().memory_hits, 1u);
  EXPECT_EQ(first.stats().misses, 1u);

  // A fresh cache over the same directory (= a restarted server)
  // rehydrates the persisted blob instead of compiling.
  ProgramCache second({.directory = dir});
  second.get_or_compile(config, topology, "paper");
  EXPECT_EQ(second.stats().disk_hits, 1u);
  EXPECT_EQ(second.stats().misses, 0u);
}

TEST_F(ServeTest, CorruptBlobIsEvictedAndRecompiledTransparently) {
  const std::string dir = scratch_dir("corrupt");
  const auto config = core::default_config();
  const auto topology = workload_->topology();

  ProgramCache first({.directory = dir});
  first.get_or_compile(config, topology, "paper");
  const std::string path =
      first.blob_path(compile::program_cache_key(config, topology, "paper"));
  ASSERT_TRUE(std::filesystem::exists(path));

  // Tamper with the persisted blob: flip its payload to garbage.
  {
    std::ofstream out(path, std::ios::trunc);
    out << "RESPARC-PROGRAM v1\nthis blob has been tampered with\n";
  }

  // A restarted cache must reject the blob on rehydrate, evict it, and
  // recompile without surfacing any error to the caller.
  ProgramCache second({.directory = dir});
  auto program = second.get_or_compile(config, topology, "paper");
  ASSERT_NE(program, nullptr);
  EXPECT_EQ(second.stats().corrupt_evictions, 1u);
  EXPECT_EQ(second.stats().disk_hits, 0u);
  EXPECT_EQ(second.stats().misses, 1u);
  EXPECT_FALSE(second.last_corruption_code().empty());
  // The eviction removed the bad blob and the recompile re-persisted a
  // good one: a third cache rehydrates cleanly.
  ProgramCache third({.directory = dir});
  EXPECT_NO_THROW(third.rehydrate(config, topology, "paper"));
  EXPECT_EQ(third.stats().disk_hits, 1u);
}

TEST_F(ServeTest, RehydrateReportsCorruptionByCode) {
  const std::string dir = scratch_dir("rehydrate");
  const auto config = core::default_config();
  const auto topology = workload_->topology();

  ProgramCache cache({.directory = dir});
  // No blob yet: rehydrate refuses (only get_or_compile compiles).
  EXPECT_EQ(code_of([&] { cache.rehydrate(config, topology, "paper"); }),
            kErrCacheCorrupt);

  cache.get_or_compile(config, topology, "paper");
  const std::string path =
      cache.blob_path(compile::program_cache_key(config, topology, "paper"));
  {
    std::ofstream out(path, std::ios::trunc);
    out << "garbage\n";
  }
  cache.clear_memory();
  EXPECT_EQ(code_of([&] { cache.rehydrate(config, topology, "paper"); }),
            kErrCacheCorrupt);
  EXPECT_EQ(cache.stats().corrupt_evictions, 1u);
}

TEST_F(ServeTest, ServerRestartUsesWarmCache) {
  const std::string dir = scratch_dir("server_warm");
  ServerConfig cfg;
  cfg.replicas = 2;
  cfg.dispatchers = 1;
  cfg.cache.directory = dir;
  {
    Server server(cfg);
    server.add_tenant("t", trace_tenant());
    // Two replicas, one compile: the second load is a memory hit.
    EXPECT_EQ(server.program_cache().stats().misses, 1u);
    EXPECT_EQ(server.program_cache().stats().memory_hits, 1u);
  }
  {
    Server server(cfg);
    server.add_tenant("t", trace_tenant());
    // The restarted server rehydrates from disk: zero compiles.
    EXPECT_EQ(server.program_cache().stats().misses, 0u);
    EXPECT_EQ(server.program_cache().stats().disk_hits, 1u);
    EXPECT_EQ(server.program_cache().stats().memory_hits, 1u);
    const SessionId s = server.open_session("t");
    EXPECT_NO_THROW(server.submit(s, {.trace = trace(0)}).get());
  }
}

// ------------------------------------------------------- ordered delivery --

TEST_F(ServeTest, ResponsesDeliverInPerSessionSubmitOrder) {
  Server server({.replicas = 2, .dispatchers = 4, .batch_max = 3});
  server.add_tenant("t", trace_tenant());

  std::mutex order_mutex;
  std::vector<std::uint64_t> delivered;
  SessionOptions opts;
  opts.on_response = [&](const Response& r) {
    std::lock_guard<std::mutex> lock(order_mutex);
    delivered.push_back(r.sequence);
  };
  const SessionId s = server.open_session("t", std::move(opts));

  constexpr std::size_t kRequests = 24;
  std::vector<std::future<Response>> futures;
  for (std::size_t i = 0; i < kRequests; ++i)
    futures.push_back(server.submit(s, {.trace = trace(i)}));
  server.drain();

  for (std::size_t i = 0; i < kRequests; ++i) {
    const Response r = futures[i].get();
    EXPECT_EQ(r.sequence, i);
    EXPECT_GT(r.report.energy_pj, 0.0);
    EXPECT_EQ(r.queue_ns + r.batch_ns, r.total_ns);
  }
  std::lock_guard<std::mutex> lock(order_mutex);
  ASSERT_EQ(delivered.size(), kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) EXPECT_EQ(delivered[i], i);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, kRequests);
  EXPECT_EQ(stats.completed, kRequests);
  EXPECT_GE(stats.batches, (kRequests + 2) / 3);
  EXPECT_EQ(server.latency().count(), kRequests);
}

TEST_F(ServeTest, BatchFormationCannotChangeResults) {
  // The same traces through maximally different batching regimes must
  // produce bit-identical per-request reports (requests execute
  // per-trace, so batch formation only amortises scheduling).  Requests
  // 1..11 queue behind the parked request 0, so the batched run forms
  // backlog batches of batch_max.
  constexpr std::size_t kRequests = 12;
  auto run = [&](std::size_t batch_max) {
    Server server({.replicas = 1, .dispatchers = 2, .batch_max = batch_max});
    server.add_tenant("t", trace_tenant());
    FirstResponseGate gate;
    const SessionId s =
        server.open_session("t", {.on_response = gate.callback()});
    std::vector<std::future<Response>> futures;
    futures.push_back(server.submit(s, {.trace = trace(0)}));
    gate.wait_entered();
    for (std::size_t i = 1; i < kRequests; ++i)
      futures.push_back(server.submit(s, {.trace = trace(i)}));
    gate.release();
    std::vector<Response> responses;
    for (auto& f : futures) responses.push_back(f.get());
    return responses;
  };

  const auto singles = run(1);
  const auto batched = run(8);
  ASSERT_EQ(singles.size(), batched.size());
  for (std::size_t i = 0; i < singles.size(); ++i) {
    EXPECT_EQ(singles[i].report.energy_pj, batched[i].report.energy_pj) << i;
    EXPECT_EQ(singles[i].report.latency_ns, batched[i].report.latency_ns) << i;
    EXPECT_EQ(singles[i].batch_size, 1u);
  }
  EXPECT_EQ(batched[1].batch_size, 8u);
}

TEST_F(ServeTest, ParkedTenantDoesNotStallAnother) {
  // Tenant "a"'s only replica and one dispatcher are parked on its first
  // response; tenant "b" must still be served by the other dispatcher.
  Server server({.replicas = 1, .dispatchers = 2});
  server.add_tenant("a", trace_tenant());
  server.add_tenant("b", trace_tenant());
  FirstResponseGate gate;
  const SessionId a =
      server.open_session("a", {.on_response = gate.callback()});
  const SessionId b = server.open_session("b");

  std::future<Response> parked = server.submit(a, {.trace = trace(0)});
  gate.wait_entered();
  std::future<Response> other = server.submit(b, {.trace = trace(1)});
  ASSERT_EQ(other.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_NO_THROW(other.get());

  gate.release();
  EXPECT_NO_THROW(parked.get());
}

// ---------------------------------------------------------- determinism --

TEST_F(ServeTest, SessionResultsAreImmuneToCoTenantLoad) {
  constexpr std::uint64_t kSeed = 0xfeedULL;
  constexpr std::size_t kRequests = 6;

  // Reference: an idle server simulating the image stream alone.
  std::vector<std::size_t> reference;
  std::vector<double> reference_energy;
  {
    Server server({.replicas = 1, .dispatchers = 1});
    server.add_tenant("vision", image_tenant());
    const SessionId s = server.open_session("vision", {.seed = kSeed});
    std::vector<std::future<Response>> futures;
    for (std::size_t i = 0; i < kRequests; ++i)
      futures.push_back(server.submit(s, {.image = image(i)}));
    for (auto& f : futures) {
      const Response r = f.get();
      EXPECT_TRUE(r.simulated);
      reference.push_back(r.predicted_class);
      reference_energy.push_back(r.report.energy_pj);
    }
  }

  // Same session seed on a busy server: a co-tenant hammers the chip
  // from another thread while the image stream runs.
  Server server({.replicas = 2, .dispatchers = 4, .batch_max = 4});
  server.add_tenant("vision", image_tenant());
  server.add_tenant("replay", trace_tenant());
  const SessionId noisy = server.open_session("replay");
  std::atomic<bool> stop{false};
  std::thread co_tenant([&] {
    std::size_t i = 0;
    while (!stop.load()) {
      try {
        server.submit(noisy, {.trace = trace(i++)});
      } catch (const ServeError&) {
        std::this_thread::yield();  // queue full: back off, keep hammering
      }
    }
  });

  const SessionId s = server.open_session("vision", {.seed = kSeed});
  std::vector<std::future<Response>> futures;
  for (std::size_t i = 0; i < kRequests; ++i)
    futures.push_back(server.submit(s, {.image = image(i)}));
  for (std::size_t i = 0; i < kRequests; ++i) {
    const Response r = futures[i].get();
    EXPECT_EQ(r.predicted_class, reference[i]) << "request " << i;
    EXPECT_EQ(r.report.energy_pj, reference_energy[i]) << "request " << i;
  }
  stop.store(true);
  co_tenant.join();
  server.drain();
}

TEST_F(ServeTest, SessionsOwnDecorrelatedSeedStreams) {
  Server server({.replicas = 1, .dispatchers = 1});
  server.add_tenant("t", trace_tenant());
  const SessionId a = server.open_session("t");
  const SessionId b = server.open_session("t");
  // Distinct sessions draw from distinct SplitMix64 streams; the same
  // sequence index never repeats a seed across sessions.
  EXPECT_NE(server.sessions().request_seed(a, 0),
            server.sessions().request_seed(b, 0));
  EXPECT_NE(server.sessions().request_seed(a, 0),
            server.sessions().request_seed(a, 1));
  // The stream is a pure function of (seed, sequence): reproducible.
  EXPECT_EQ(server.sessions().request_seed(a, 3),
            server.sessions().request_seed(a, 3));
}

// ------------------------------------------------------- latency recorder --

TEST(LatencyHistogram, QuantilesTrackKnownDistribution) {
  LatencyHistogram h;
  EXPECT_EQ(h.quantile(0.5), 0u);  // empty histogram reports zero
  for (std::uint64_t v = 1; v <= 100000; ++v) h.record(v);
  EXPECT_EQ(h.count(), 100000u);
  EXPECT_EQ(h.max_ns(), 100000u);
  EXPECT_NEAR(h.mean_ns(), 50000.5, 1e-6);
  // Log-linear buckets with 6 sub-bits: <= ~1.6% relative error, plus
  // the bucket-upper-bound rounding.
  EXPECT_NEAR(static_cast<double>(h.quantile(0.50)), 50000.0, 50000.0 * 0.02);
  EXPECT_NEAR(static_cast<double>(h.quantile(0.95)), 95000.0, 95000.0 * 0.02);
  EXPECT_NEAR(static_cast<double>(h.quantile(0.99)), 99000.0, 99000.0 * 0.02);
  EXPECT_EQ(h.quantile(1.0), 100000u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
}

TEST(LatencyHistogram, SmallValuesAreExact) {
  LatencyHistogram h;
  for (std::uint64_t v : {1u, 2u, 3u, 10u, 63u}) h.record(v);
  // Below 2^kSubBits the buckets are unit-width: quantiles are exact.
  EXPECT_EQ(h.quantile(0.2), 1u);
  EXPECT_EQ(h.quantile(0.6), 3u);
  EXPECT_EQ(h.max_ns(), 63u);
}

TEST(LatencyRecorder, RecordsEveryStageAndRendersJson) {
  LatencyRecorder recorder;
  Response response;
  response.queue_ns = 1000;
  response.batch_ns = 2000;
  response.total_ns = 3000;
  response.report.latency_ns = 500.0;  // no breakdown: all compute
  recorder.record_response(response);
  EXPECT_EQ(recorder.count(), 1u);
  EXPECT_EQ(recorder.snapshot(LatencyRecorder::Stage::kQueue).count, 1u);
  EXPECT_GE(recorder.snapshot(LatencyRecorder::Stage::kQueue).p50_ns, 1000u);
  EXPECT_EQ(recorder.snapshot(LatencyRecorder::Stage::kCompute).max_ns, 500u);

  const std::string json = recorder.to_json();
  for (const char* key :
       {"\"requests\"", "\"queue\"", "\"batch\"", "\"compute\"",
        "\"transport\"", "\"stall\"", "\"total\"", "\"p99_ns\""})
    EXPECT_NE(json.find(key), std::string::npos) << key;
  const std::string table = recorder.to_string();
  EXPECT_NE(table.find("total"), std::string::npos);
}

}  // namespace
}  // namespace resparc::serve
