#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>

#include "common/thread_safety.hpp"

namespace resparc {

namespace {
// Set while a thread executes inside a pool job; a nested run_indexed
// from such a thread runs inline instead of deadlocking on the job
// mutex.
thread_local bool t_inside_pool_job = false;
}  // namespace

struct ThreadPool::Impl {
  Mutex mutex;                      ///< guards job publication + working
  std::condition_variable cv_work;  ///< workers park here between jobs
  std::condition_variable cv_done;  ///< caller waits for completion here
  bool stop RESPARC_GUARDED_BY(mutex) = false;  ///< set once, in the dtor

  // --- the currently published job --------------------------------------
  // The scalar job fields are written under `mutex` before the generation
  // bump publishes them; workers read them lock-free inside work() after
  // observing the new generation under the mutex (see work()'s analysis
  // opt-out below).
  std::uint64_t generation RESPARC_GUARDED_BY(mutex) = 0;  ///< bumped per job
  std::size_t count RESPARC_GUARDED_BY(mutex) = 0;     ///< items in the job
  std::size_t chunk RESPARC_GUARDED_BY(mutex) = 1;     ///< indices per grab
  std::size_t worker_cap RESPARC_GUARDED_BY(mutex) = 0;  ///< workers allowed
  const std::function<void(std::size_t, std::size_t)>* fn
      RESPARC_GUARDED_BY(mutex) = nullptr;
  std::atomic<std::size_t> next{0};       ///< claim cursor
  std::atomic<std::size_t> joined{0};     ///< pool workers that took a slot
  std::atomic<bool> cancelled{false};     ///< first exception stops claims
  std::size_t working RESPARC_GUARDED_BY(mutex) = 0;  ///< workers in the job
  std::exception_ptr error RESPARC_GUARDED_BY(mutex);  ///< first exception

  // --- FIFO admission ----------------------------------------------------
  // Ticket lock over job submission: neither condition-variable wakeups
  // nor mutex acquisition carry any ordering, so without tickets a
  // tight-loop producer re-acquiring the mutex could win the admission
  // race every time and starve other submitters indefinitely
  // (tests/test_thread_pool.cpp stresses this with many small bursts
  // from competing producers).  The ticket is drawn from a lock-free
  // atomic BEFORE the mutex: a caller stuck behind a barging fast
  // resubmitter still claims its place in line, and the resubmitter's
  // next ticket parks it on the CV until the queue ahead has drained.
  std::atomic<std::uint64_t> next_ticket{0};
  std::uint64_t now_serving RESPARC_GUARDED_BY(mutex) = 0;

  /// Claims chunks and runs items until the job is drained or cancelled.
  /// `fn` is dereferenced only after a successful claim, so a worker
  /// arriving after teardown (the cursor is parked at `count`) never
  /// touches a dead job.
  ///
  /// Analysis opt-out: `fn`/`count`/`chunk` are read without the mutex.
  /// They are immutable for the lifetime of one generation and were
  /// published under the mutex before the participating worker observed
  /// that generation (worker_loop) or before the first claim (the
  /// caller), so the reads are ordered by the mutex even though no lock
  /// is held here — a protocol the static analysis cannot express.
  void work(std::size_t worker_id) RESPARC_NO_THREAD_SAFETY_ANALYSIS {
    for (;;) {
      if (cancelled.load(std::memory_order_relaxed)) return;
      const std::size_t begin =
          next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= count) return;
      const std::size_t end = std::min(count, begin + chunk);
      const auto& call = *fn;
      for (std::size_t i = begin; i < end; ++i) {
        // Per-item check keeps cancellation prompt even inside a chunk.
        if (cancelled.load(std::memory_order_relaxed)) return;
        try {
          call(i, worker_id);
        } catch (...) {
          MutexLock lock(mutex);
          if (!error) error = std::current_exception();
          cancelled.store(true, std::memory_order_relaxed);
          // Park the cursor so no further chunk can be claimed — after
          // the caller observes working == 0 the job can be torn down
          // with no worker able to reach `fn` again.
          next.store(count, std::memory_order_relaxed);
          return;
        }
      }
    }
  }

  /// Body of one parked worker thread.  A worker only participates in a
  /// job it observed `fn` for under the mutex, and announces itself in
  /// `working` first, so the caller's completion wait covers it; workers
  /// that never wake for a generation are simply not involved in it.
  void worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      MutexLock lock(mutex);
      while (!stop && generation == seen) cv_work.wait(lock.native());
      if (stop) return;
      seen = generation;
      if (fn == nullptr) continue;  // woke after the job already ended
      ++working;
      const std::size_t cap = worker_cap;
      lock.unlock();

      // Participation slots are first-come; workers beyond the cap (or a
      // drained cursor) fall straight through.
      const std::size_t slot = joined.fetch_add(1, std::memory_order_relaxed);
      if (slot < cap) {
        t_inside_pool_job = true;
        work(slot + 1);  // the caller is worker 0
        t_inside_pool_job = false;
      }

      lock.lock();
      if (--working == 0) cv_done.notify_all();
    }
  }
};

ThreadPool::ThreadPool(std::size_t threads) : impl_(new Impl) {
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 1 : hw;
  }
  workers_.reserve(threads > 0 ? threads - 1 : 0);
  for (std::size_t t = 1; t < threads; ++t)
    workers_.emplace_back([impl = impl_] { impl->worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(impl_->mutex);
    impl_->stop = true;
  }
  impl_->cv_work.notify_all();
  for (auto& w : workers_) w.join();
  delete impl_;
}

void ThreadPool::run_indexed(
    std::size_t count, std::size_t max_workers,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (count == 0) return;
  if (max_workers == 0) max_workers = width();
  // Nested call from inside a job, or nothing to fan out to: run inline.
  if (t_inside_pool_job || workers_.empty() || max_workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i, 0);
    return;
  }

  Impl& im = *impl_;
  // One job at a time, admitted strictly in ticket order: each caller
  // draws a ticket and waits until the previous job tore down AND its
  // number is up, so a burst-submitting producer cannot starve the rest.
  const std::uint64_t ticket =
      im.next_ticket.fetch_add(1, std::memory_order_relaxed);
  MutexLock lock(im.mutex);
  while (im.fn != nullptr || ticket != im.now_serving)
    im.cv_done.wait(lock.native());

  const std::size_t active = std::min(max_workers, width());
  im.count = count;
  // Chunked claiming: ~8 grabs per worker amortises the atomic without
  // starving the tail; the per-item cancel check keeps chunks
  // interruptible.
  im.chunk = std::max<std::size_t>(1, count / (active * 8));
  im.worker_cap = active - 1;  // caller occupies worker slot 0
  im.fn = &fn;
  im.next.store(0, std::memory_order_relaxed);
  im.joined.store(0, std::memory_order_relaxed);
  im.cancelled.store(false, std::memory_order_relaxed);
  im.error = nullptr;
  ++im.generation;
  const std::size_t wake = std::min(im.worker_cap, workers_.size());
  lock.unlock();
  // Wake only as many workers as the job can use — a small capped job on
  // a wide pool must not stampede every parked thread.
  for (std::size_t t = 0; t < wake; ++t) im.cv_work.notify_one();

  t_inside_pool_job = true;
  im.work(0);
  t_inside_pool_job = false;

  lock.lock();
  // Park the cursor (idempotent when the job drained normally) so any
  // worker waking from here on claims nothing, then wait out the workers
  // that did join.  Only they were ever counted — an idle pool thread
  // that never woke for this generation owes nothing.
  im.next.store(im.count, std::memory_order_relaxed);
  while (im.working != 0) im.cv_done.wait(lock.native());
  im.fn = nullptr;
  ++im.now_serving;  // admit the next ticket holder
  std::exception_ptr error = im.error;
  im.error = nullptr;
  lock.unlock();
  im.cv_done.notify_all();  // wake the queued callers; the next ticket wins
  if (error) std::rethrow_exception(error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace resparc
