// serve::Server — the multi-tenant serving front-end (docs/serving.md).
//
// Where api::Pipeline is batch-oriented and single-workload, the server
// admits many concurrent request streams against many tenants sharing one
// process:
//
//   serve::Server server({.replicas = 2, .batch_max = 8});
//   server.add_tenant("vision", {.backend = "resparc-64/greedy-pack",
//                                .topology = spec.topology});
//   serve::SessionId s = server.open_session("vision");
//   std::future<serve::Response> r = server.submit(s, {.trace = trace});
//
// The moving parts:
//  * Admission: per-tenant bounded FIFO queues; a full queue rejects the
//    submit with RS-QUEUE-FULL instead of blocking the producer.
//  * Batch formation: work-conserving.  A dispatcher that finds a tenant
//    with queued requests and a free replica takes up to batch_max of
//    them at once, so batches form only from backlog, while every
//    replica of the tenant is busy.  Requests execute per-trace, so how
//    a batch was cut can never change any result (test-enforced).
//  * Replicas: each tenant owns `replicas` loaded accelerator instances;
//    RESPARC tenants compile once through the shared ProgramCache and
//    load the same program into every replica.
//  * Dispatchers: a fixed pool of threads forms batches (rotating
//    round-robin over tenants for fairness), checks out a free replica,
//    executes via api::Pipeline::execute_each, and publishes responses
//    through the SessionManager's ordered delivery.
//  * Accounting: every response feeds the lock-free LatencyRecorder
//    (queue/batch/compute/transport/stall/total percentiles).
//  * Degradation: tenants binding per-replica fault seeds
//    (TenantSpec::replica_chip_seeds) get canary-checked replicas — a
//    replica whose first-checkout canary replay diverges from the
//    pristine signature is retired, its batch retries onto a healthy
//    replica with bounded exponential backoff, and the tenant keeps
//    serving at reduced capacity (RS-REPLICA-DEGRADED /
//    RS-RETRY-EXHAUSTED when nothing healthy remains,
//    docs/reliability.md).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/registry.hpp"
#include "common/thread_safety.hpp"
#include "serve/canary.hpp"
#include "serve/latency.hpp"
#include "serve/program_cache.hpp"
#include "serve/request.hpp"
#include "serve/session.hpp"
#include "snn/simulator.hpp"

namespace resparc::serve {

/// Server sizing and scheduling knobs.
struct ServerConfig {
  /// Loaded accelerator instances per tenant (the tenant's maximum
  /// in-flight batch parallelism).
  std::size_t replicas = 1;
  /// Dispatcher threads shared by all tenants (0 = one per hardware
  /// thread, capped at 8).
  std::size_t dispatchers = 0;
  /// Per-tenant pending-queue capacity; a full queue rejects
  /// (RS-QUEUE-FULL).
  std::size_t queue_capacity = 64;
  /// Maximum requests per formed batch.
  std::size_t batch_max = 8;
  /// Master seed deriving every session's RNG stream.
  std::uint64_t seed = 7;
  /// Compiled-program cache (directory "" = no persistence).
  ProgramCacheConfig cache{};
  /// How many degraded replicas one batch may burn through at checkout
  /// before it is abandoned with RS-RETRY-EXHAUSTED (each retry re-runs
  /// the canary on the next free replica, docs/reliability.md).
  std::size_t max_retries = 3;
  /// Base delay of the bounded exponential backoff between retries
  /// (doubles per attempt, capped at base << 6; 0 = no backoff).
  std::chrono::microseconds retry_backoff{50};
};

/// Monotonic serving counters (consistent snapshot via Server::stats()).
struct ServerStats {
  std::uint64_t submitted = 0;   ///< requests admitted into a queue
  std::uint64_t rejected = 0;    ///< requests refused (queue full)
  std::uint64_t completed = 0;   ///< responses published
  std::uint64_t batches = 0;     ///< batches dispatched
  std::uint64_t max_batch = 0;   ///< largest batch formed

  // Degraded-replica serving (docs/reliability.md):
  std::uint64_t canary_checks = 0;      ///< canary replays executed
  std::uint64_t degraded_replicas = 0;  ///< replicas retired by the canary
  std::uint64_t retries = 0;            ///< batch re-dispatches onto another replica
  std::uint64_t retry_exhausted = 0;    ///< batches abandoned (RS-RETRY-EXHAUSTED)
};

/// The multi-tenant serving front-end.  All public methods are
/// thread-safe; submit() and the response callbacks are designed to be
/// called from many producer threads concurrently.
class Server {
 public:
  /// Spawns the dispatcher pool (no tenants yet).
  explicit Server(ServerConfig config = {});
  /// shutdown() + joins the dispatchers.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds a tenant: compiles/loads `replicas` accelerator instances
  /// (RESPARC backends compile once through the program cache).  Throws
  /// ServeError (RS-TENANT-DUP) when the name is taken and propagates
  /// backend/compile errors unchanged.
  void add_tenant(const std::string& name, TenantSpec spec);

  /// True when a tenant with this name is bound.
  bool has_tenant(const std::string& name) const;

  /// Opens a session against a tenant (RS-TENANT-UNKNOWN when absent).
  SessionId open_session(const std::string& tenant,
                         SessionOptions options = {});

  /// Closes a session; in-flight requests still deliver.
  void close_session(SessionId session);

  /// Admits one request.  Throws ServeError with RS-QUEUE-FULL /
  /// RS-SESSION-UNKNOWN / RS-REQUEST-EMPTY / RS-TENANT-NO-NETWORK /
  /// RS-SHUTDOWN; on success the future completes in per-session submit
  /// order.
  std::future<Response> submit(SessionId session, Request request);

  /// Blocks until every admitted request has been executed and
  /// published.
  void drain();

  /// Rejects new work (RS-SHUTDOWN), drains the queues and stops the
  /// dispatchers.  Idempotent; the destructor calls it.
  void shutdown();

  /// The per-stage latency histograms (updated live).
  const LatencyRecorder& latency() const { return recorder_; }
  /// The shared compiled-program cache.
  ProgramCache& program_cache() { return cache_; }
  /// The session layer (ordered delivery, seeds).
  SessionManager& sessions() { return sessions_; }
  /// Snapshot of the serving counters.
  ServerStats stats() const;
  /// The configuration the server was built with (after resolution).
  const ServerConfig& config() const { return config_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    SessionId session = 0;
    std::uint64_t sequence = 0;
    std::uint64_t seed = 0;  ///< captured at submit: RNG for simulation
    Request request;
    Clock::time_point submitted;
  };

  struct TenantState {
    std::string name;
    TenantSpec spec;
    std::deque<Pending> queue;
    std::vector<std::unique_ptr<api::Accelerator>> replicas;
    /// Lazily built per replica for raw-image tenants; only the
    /// dispatcher holding the replica touches its simulator.
    std::vector<std::unique_ptr<snn::Simulator>> simulators;
    std::vector<std::size_t> free_replicas;  ///< replica indices not in flight

    // Canary state (docs/reliability.md).  The trace and reference
    // signature are immutable after add_tenant; the per-replica health
    // vectors are guarded by the server mutex.
    bool canary_enabled = false;      ///< spec bound replica_chip_seeds
    snn::SpikeTrace canary;           ///< deterministic probe trace
    CanarySignature canary_reference; ///< pristine replay signature
    std::vector<char> canary_checked; ///< replica passed/failed its probe
    std::vector<char> degraded;       ///< replica retired by the canary
    std::size_t healthy = 0;          ///< replicas not (yet) degraded
  };

  void dispatcher_loop(std::size_t id);
  /// Executes one formed batch on a checked-out replica (no lock held)
  /// and publishes its responses.
  void execute_batch(TenantState& tenant, std::size_t replica,
                     std::vector<Pending> batch, Clock::time_point dispatch);
  /// Runs the replica's first-checkout canary when armed and not yet
  /// done (no lock held during the replay).  Returns false when the
  /// replica is degraded — the caller must not serve on it; a degraded
  /// replica is retired (never returned to free_replicas).
  bool check_replica(TenantState& tenant, std::size_t replica);
  /// Fails every request of `batch` with ServeError(code) — delivery
  /// order per session is preserved by the session layer.  Call with the
  /// server lock released (promise continuations run inline).
  void abandon_batch(std::vector<Pending>& batch, const char* code,
                     const std::string& why);

  ServerConfig config_;
  ProgramCache cache_;
  SessionManager sessions_;
  LatencyRecorder recorder_;

  mutable Mutex mutex_;
  std::condition_variable cv_;  ///< dispatchers + drain() park here
  bool stop_ RESPARC_GUARDED_BY(mutex_) = false;
  std::size_t pending_ RESPARC_GUARDED_BY(mutex_) = 0;   ///< queued requests
  std::size_t inflight_ RESPARC_GUARDED_BY(mutex_) = 0;  ///< batches executing
  ServerStats stats_ RESPARC_GUARDED_BY(mutex_);
  /// Tenants by name; unique_ptr keeps TenantState addresses stable for
  /// the dispatchers' unlocked execution phase.
  std::unordered_map<std::string, std::unique_ptr<TenantState>> tenants_
      RESPARC_GUARDED_BY(mutex_);
  /// Insertion-ordered view for round-robin fairness.
  std::vector<TenantState*> tenant_order_ RESPARC_GUARDED_BY(mutex_);

  /// Serialises shutdown()'s joins (shutdown is idempotent and callable
  /// from any thread, including concurrently with the destructor's call).
  std::mutex join_mutex_;
  std::vector<std::thread> dispatchers_;
};

}  // namespace resparc::serve
