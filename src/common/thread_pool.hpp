// Persistent worker pool behind the repo's indexed parallel-for.
//
// Workers are spawned once and parked on a condition variable between
// jobs, so a steady state of many small batches (api::Pipeline's per-
// presentation fan-out, the mapping search's neighbourhood scoring)
// costs no thread spawn/join per call.  Work items are claimed in contiguous
// chunks from a shared atomic cursor, so the assignment of indices to
// workers is nondeterministic — callers that need deterministic results
// must make each item independent (own RNG, own output slot) and reduce
// the pre-sized output sequentially afterwards.  That is exactly the
// contract api::Pipeline relies on for its thread-count-invariant runs
// (docs/performance.md).
//
// Cancellation is cooperative: the first exception thrown by any worker
// sets a job-wide stop flag that every claim loop checks per item, so the
// remaining workers stop promptly instead of draining the counter
// (tests/test_thread_pool.cpp pins this).
#pragma once

#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

namespace resparc {

/// Number of workers actually used for `threads` requested (0 = all
/// hardware threads, always at least 1, never more than `count`).
inline std::size_t resolve_threads(std::size_t threads, std::size_t count) {
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 1 : hw;
  }
  if (threads > count) threads = count;
  return threads == 0 ? 1 : threads;
}

/// Persistent pool of parked worker threads executing indexed jobs.
///
/// One job runs at a time; concurrent callers serialize on an internal
/// ticket lock and are admitted in strict arrival order, so a producer
/// submitting a tight stream of small jobs cannot starve other callers
/// (condition-variable wakeups alone carry no ordering).  A call from
/// inside a worker (nested parallelism) degrades to inline serial
/// execution instead of deadlocking.
class ThreadPool {
 public:
  /// Spawns `threads - 1` workers (the caller of run() is the extra
  /// worker); 0 means one per hardware thread.
  explicit ThreadPool(std::size_t threads = 0);

  /// Joins all workers (any in-flight job must have completed).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Workers this pool can apply to one job, caller included.
  std::size_t width() const { return workers_.size() + 1; }

  /// Runs fn(index, worker) for every index in [0, count); `worker` is a
  /// stable id in [0, width()) for per-worker scratch (the caller is
  /// worker 0).  At most `max_workers` workers participate (0 = all).
  /// Blocks until every index ran or the job was cancelled by an
  /// exception; the first exception is rethrown on the caller.
  void run_indexed(std::size_t count, std::size_t max_workers,
                   const std::function<void(std::size_t, std::size_t)>& fn);

  /// The process-wide pool (one worker per hardware thread), spawned on
  /// first use.  api::Pipeline runs all its batched work on this
  /// instance.
  static ThreadPool& global();

 private:
  struct Impl;
  Impl* impl_;                       ///< job state shared with workers
  std::vector<std::thread> workers_; ///< parked worker threads
};

/// Runs fn(i) for every i in [0, count) on up to `threads` workers of the
/// global pool (capped at the pool width; results are thread-count
/// invariant by the independence contract above).  The first exception
/// thrown by any worker is rethrown on the caller after the job stops.
template <typename Fn>
void parallel_for(std::size_t count, std::size_t threads, Fn&& fn) {
  if (count == 0) return;
  threads = resolve_threads(threads, count);
  if (threads <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  ThreadPool::global().run_indexed(
      count, threads, [&fn](std::size_t i, std::size_t) { fn(i); });
}

}  // namespace resparc
