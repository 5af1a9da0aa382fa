#include "serve/server.hpp"

#include <algorithm>
#include <utility>

#include "api/backends.hpp"
#include "api/pipeline.hpp"
#include "common/rng.hpp"

namespace resparc::serve {

namespace {

std::uint64_t wall_ns(std::chrono::steady_clock::duration d) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(d);
  return ns.count() > 0 ? static_cast<std::uint64_t>(ns.count()) : 0;
}

}  // namespace

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      cache_(config_.cache),
      sessions_(config_.seed) {
  if (config_.replicas == 0) config_.replicas = 1;
  if (config_.queue_capacity == 0) config_.queue_capacity = 1;
  if (config_.batch_max == 0) config_.batch_max = 1;
  if (config_.dispatchers == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    config_.dispatchers = std::min<std::size_t>(8, hw == 0 ? 1 : hw);
  }
  dispatchers_.reserve(config_.dispatchers);
  for (std::size_t d = 0; d < config_.dispatchers; ++d)
    dispatchers_.emplace_back([this, d] { dispatcher_loop(d); });
}

Server::~Server() { shutdown(); }

void Server::add_tenant(const std::string& name, TenantSpec spec) {
  {
    MutexLock lock(mutex_);
    if (stop_)
      throw ServeError("server is shutting down", kErrShutdown);
    if (tenants_.count(name) != 0)
      throw ServeError("tenant \"" + name + "\" is already bound",
                       kErrDuplicateTenant);
  }

  // Replays need the recorded trace regardless of what the caller set.
  spec.sim.record_trace = true;
  auto state = std::make_unique<TenantState>();
  state->name = name;
  state->spec = std::move(spec);
  const TenantSpec& s = state->spec;

  // Compile/load outside the server lock — binding a tenant is the
  // expensive path and must not stall the dispatchers.  RESPARC replicas
  // share one compile through the program cache (a warm cache directory
  // makes a server restart skip compilation entirely).  A replica with a
  // non-zero fault seed compiles its own fault-aware program (the fault
  // config changes the fingerprint, so the repair pass re-places around
  // that chip instance's failed mPEs, docs/reliability.md).
  auto build_replica = [&](const api::BackendOptions& options) {
    auto accelerator = api::make_accelerator(s.backend, options);
    if (auto* resparc = dynamic_cast<api::ResparcBackend*>(accelerator.get())) {
      const auto program = cache_.get_or_compile(resparc->config(), s.topology,
                                                 resparc->strategy());
      resparc->load_program(s.topology, *program);
    } else {
      accelerator->load(s.topology);
    }
    return accelerator;
  };
  for (std::size_t r = 0; r < config_.replicas; ++r) {
    api::BackendOptions options = s.options;
    const std::uint64_t chip_seed =
        r < s.replica_chip_seeds.size() ? s.replica_chip_seeds[r] : 0;
    if (chip_seed != 0) {
      options.resparc.faults.enabled = true;
      options.resparc.faults.chip_seed = chip_seed;
    }
    state->replicas.push_back(build_replica(options));
    state->free_replicas.push_back(r);
  }
  state->simulators.resize(state->replicas.size());

  // Canary probe: a deterministic synthetic trace plus the signature a
  // pristine replica produces for it, recorded before any replica
  // serves.  Replay is deterministic, so the exact-equality comparison
  // at first checkout has no false positives.
  state->canary_enabled = !s.replica_chip_seeds.empty();
  state->canary_checked.assign(state->replicas.size(), 0);
  state->degraded.assign(state->replicas.size(), 0);
  state->healthy = state->replicas.size();
  if (state->canary_enabled) {
    state->canary = make_canary_trace(s.topology, /*timesteps=*/4,
                                      stream_seed(config_.seed, 0xCA9A59ull));
    const auto reference = build_replica(s.options);
    std::vector<api::ExecutionReport> reports;
    api::Pipeline::execute_each(*reference, {&state->canary, 1}, reports, 1);
    state->canary_reference = canary_signature(reports.front());
  }

  MutexLock lock(mutex_);
  if (stop_) throw ServeError("server is shutting down", kErrShutdown);
  auto [it, inserted] = tenants_.emplace(name, std::move(state));
  if (!inserted)
    throw ServeError("tenant \"" + name + "\" is already bound",
                     kErrDuplicateTenant);
  tenant_order_.push_back(it->second.get());
}

bool Server::has_tenant(const std::string& name) const {
  MutexLock lock(mutex_);
  return tenants_.count(name) != 0;
}

SessionId Server::open_session(const std::string& tenant,
                               SessionOptions options) {
  {
    MutexLock lock(mutex_);
    if (stop_) throw ServeError("server is shutting down", kErrShutdown);
    if (tenants_.count(tenant) == 0)
      throw ServeError("tenant \"" + tenant + "\" is not bound",
                       kErrUnknownTenant);
  }
  return sessions_.open(tenant, std::move(options));
}

void Server::close_session(SessionId session) { sessions_.close(session); }

std::future<Response> Server::submit(SessionId session, Request request) {
  if (!request.has_trace() && request.image.empty())
    throw ServeError("request carries neither a trace nor an image",
                     kErrEmptyRequest);
  // Resolves the session (throws RS-SESSION-UNKNOWN) before admission.
  const std::string tenant_name = sessions_.tenant_of(session);

  MutexLock lock(mutex_);
  if (stop_) throw ServeError("server is shutting down", kErrShutdown);
  auto it = tenants_.find(tenant_name);
  if (it == tenants_.end())
    throw ServeError("tenant \"" + tenant_name + "\" is not bound",
                     kErrUnknownTenant);
  TenantState& tenant = *it->second;
  if (!request.has_trace() && !tenant.spec.network.has_value())
    throw ServeError("tenant \"" + tenant_name +
                         "\" has no network for raw-image requests",
                     kErrNoNetwork);
  if (tenant.canary_enabled && tenant.healthy == 0)
    throw ServeError("tenant \"" + tenant_name +
                         "\" has no healthy replicas left",
                     kErrReplicaDegraded);
  if (tenant.queue.size() >= config_.queue_capacity) {
    ++stats_.rejected;
    throw ServeError("tenant \"" + tenant_name + "\" queue is full (" +
                         std::to_string(config_.queue_capacity) + ")",
                     kErrQueueFull);
  }

  // Sequence reservation and enqueue are atomic under the server lock,
  // so per-session queue order == sequence order == delivery order.
  auto [sequence, future] = sessions_.begin_request(session);
  Pending pending;
  pending.session = session;
  pending.sequence = sequence;
  pending.seed = sessions_.request_seed(session, sequence);
  pending.request = std::move(request);
  pending.submitted = Clock::now();
  tenant.queue.push_back(std::move(pending));
  ++pending_;
  ++stats_.submitted;
  // notify_all: the first dispatcher scheduled takes the request; notify_one
  // raised the request p50 in alternating mlp-serve pairs (ROADMAP.md).
  cv_.notify_all();
  return std::move(future);
}

void Server::dispatcher_loop(std::size_t id) {
  MutexLock lock(mutex_);
  std::size_t rr = id;  // rotating scan start: fairness across tenants
  for (;;) {
    if (stop_ && pending_ == 0) return;

    TenantState* pick = nullptr;
    TenantState* doomed = nullptr;
    const std::size_t n = tenant_order_.size();
    for (std::size_t k = 0; k < n && pick == nullptr; ++k) {
      TenantState* t = tenant_order_[(rr + k) % n];
      if (t->queue.empty()) continue;
      if (t->canary_enabled && t->healthy == 0) {
        // No replica can ever serve this tenant again: fail its queue
        // fast instead of letting drain()/shutdown() hang on it.
        doomed = t;
        break;
      }
      if (t->free_replicas.empty()) continue;
      pick = t;
      rr = (rr + k + 1) % n;
    }

    if (doomed != nullptr) {
      std::vector<Pending> dead(std::make_move_iterator(doomed->queue.begin()),
                                std::make_move_iterator(doomed->queue.end()));
      doomed->queue.clear();
      pending_ -= dead.size();
      const std::string why =
          "tenant \"" + doomed->name + "\" has no healthy replicas left";
      lock.unlock();
      abandon_batch(dead, kErrReplicaDegraded, why);
      lock.lock();
      stats_.completed += dead.size();
      cv_.notify_all();
      continue;
    }

    if (pick == nullptr) {
      cv_.wait(lock.native());
      continue;
    }

    // Work-conserving: take whatever backlog is queued, up to batch_max,
    // and check out a replica.
    const std::size_t take = std::min(config_.batch_max, pick->queue.size());
    std::vector<Pending> batch;
    batch.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(pick->queue.front()));
      pick->queue.pop_front();
    }
    pending_ -= take;
    std::size_t replica = pick->free_replicas.back();
    pick->free_replicas.pop_back();
    ++inflight_;
    ++stats_.batches;
    stats_.max_batch =
        std::max<std::uint64_t>(stats_.max_batch, take);
    lock.unlock();

    // Serve the batch, retrying past replicas that fail their
    // first-checkout canary.  A degraded replica is retired for good
    // (never returned to free_replicas), so the tenant keeps serving at
    // reduced capacity on whatever remains healthy.
    std::size_t attempt = 0;
    for (;;) {
      if (check_replica(*pick, replica)) {
        execute_batch(*pick, replica, std::move(batch), Clock::now());
        lock.lock();
        pick->free_replicas.push_back(replica);
        break;
      }

      lock.lock();
      const char* code = nullptr;
      std::string why;
      if (pick->healthy == 0) {
        code = kErrReplicaDegraded;
        why = "tenant \"" + pick->name + "\" has no healthy replicas left";
      } else if (attempt >= config_.max_retries) {
        ++stats_.retry_exhausted;
        code = kErrRetryExhausted;
        why = "batch hit " + std::to_string(attempt + 1) +
              " degraded replicas of tenant \"" + pick->name +
              "\" (max_retries " + std::to_string(config_.max_retries) + ")";
      }
      if (code != nullptr) {
        lock.unlock();
        abandon_batch(batch, code, why);
        lock.lock();
        break;
      }

      ++attempt;
      ++stats_.retries;
      // Bounded exponential backoff before stealing the next replica:
      // base << (attempt-1), capped at base << 6.  The timed wait doubles
      // as the replica-return wakeup.
      const auto backoff = config_.retry_backoff *
                           (std::uint64_t{1}
                            << std::min<std::size_t>(attempt - 1, 6));
      if (backoff.count() > 0) cv_.wait_for(lock.native(), backoff);
      while (pick->free_replicas.empty() && pick->healthy > 0)
        cv_.wait(lock.native());
      if (pick->healthy == 0) {
        why = "tenant \"" + pick->name + "\" has no healthy replicas left";
        lock.unlock();
        abandon_batch(batch, kErrReplicaDegraded, why);
        lock.lock();
        break;
      }
      replica = pick->free_replicas.back();
      pick->free_replicas.pop_back();
      lock.unlock();
    }

    --inflight_;
    stats_.completed += take;
    // Wake peers: the freed replica may unblock this tenant's next
    // batch, and drain()/shutdown() waiters recheck their predicates.
    cv_.notify_all();
  }
}

bool Server::check_replica(TenantState& tenant, std::size_t replica) {
  {
    MutexLock lock(mutex_);
    if (!tenant.canary_enabled || tenant.canary_checked[replica])
      return tenant.degraded[replica] == 0;
  }

  // Replay the canary unlocked — only the dispatcher holding the
  // checked-out replica touches it.  Any execution failure counts as
  // divergence: a replica that cannot replay the probe cannot serve.
  bool ok = false;
  try {
    std::vector<api::ExecutionReport> reports;
    api::Pipeline::execute_each(*tenant.replicas[replica],
                                {&tenant.canary, 1}, reports, 1);
    ok = canary_signature(reports.front()) == tenant.canary_reference;
  } catch (...) {
    ok = false;
  }

  MutexLock lock(mutex_);
  ++stats_.canary_checks;
  tenant.canary_checked[replica] = 1;
  if (!ok) {
    tenant.degraded[replica] = 1;
    --tenant.healthy;
    ++stats_.degraded_replicas;
  }
  return ok;
}

void Server::abandon_batch(std::vector<Pending>& batch, const char* code,
                           const std::string& why) {
  for (const Pending& pending : batch)
    sessions_.abandon(pending.session, pending.sequence,
                      std::make_exception_ptr(ServeError(why, code)));
}

void Server::execute_batch(TenantState& tenant, std::size_t replica,
                           std::vector<Pending> batch,
                           Clock::time_point dispatch) {
  const std::size_t n = batch.size();
  std::vector<snn::SpikeTrace> traces;
  std::vector<std::size_t> predicted(n, 0);
  std::vector<char> simulated(n, 0);
  std::vector<std::size_t> live;  // batch indices that reached execution
  traces.reserve(n);
  live.reserve(n);

  // Materialise every request's trace.  A request that fails to simulate
  // (malformed image) is abandoned individually — one bad request must
  // not poison its batchmates.
  for (std::size_t i = 0; i < n; ++i) {
    Pending& pending = batch[i];
    try {
      if (pending.request.has_trace()) {
        traces.push_back(std::move(pending.request.trace));
      } else {
        auto& simulator = tenant.simulators[replica];
        // Only the dispatcher holding the checked-out replica touches
        // its simulator, so lazy construction needs no lock.
        if (!simulator)
          simulator = std::make_unique<snn::Simulator>(*tenant.spec.network,
                                                       tenant.spec.sim);
        Rng rng(pending.seed);
        snn::SimResult result = simulator->run(pending.request.image, rng);
        predicted[i] = result.predicted_class;
        simulated[i] = 1;
        traces.push_back(std::move(result.trace));
      }
      live.push_back(i);
    } catch (...) {
      sessions_.abandon(pending.session, pending.sequence,
                        std::current_exception());
    }
  }

  try {
    std::vector<api::ExecutionReport> reports;
    // One thread: the batch replays inline on this dispatcher.
    api::Pipeline::execute_each(*tenant.replicas[replica], traces, reports,
                                1);
    const auto done = Clock::now();
    for (std::size_t j = 0; j < live.size(); ++j) {
      const Pending& pending = batch[live[j]];
      Response response;
      response.session = pending.session;
      response.sequence = pending.sequence;
      response.predicted_class = predicted[live[j]];
      response.simulated = simulated[live[j]] != 0;
      response.batch_size = n;
      response.report = std::move(reports[j]);
      response.queue_ns = wall_ns(dispatch - pending.submitted);
      response.batch_ns = wall_ns(done - dispatch);
      response.total_ns = wall_ns(done - pending.submitted);
      recorder_.record_response(response);
      sessions_.publish(std::move(response));
    }
  } catch (...) {
    for (const std::size_t i : live)
      sessions_.abandon(batch[i].session, batch[i].sequence,
                        std::current_exception());
  }
}

void Server::drain() {
  MutexLock lock(mutex_);
  while (pending_ != 0 || inflight_ != 0) cv_.wait(lock.native());
}

void Server::shutdown() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  std::lock_guard<std::mutex> join_lock(join_mutex_);
  for (auto& dispatcher : dispatchers_)
    if (dispatcher.joinable()) dispatcher.join();
}

ServerStats Server::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

}  // namespace resparc::serve
