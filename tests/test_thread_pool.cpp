// Persistent ThreadPool semantics (common/thread_pool.hpp): exactly-once
// execution, worker ids, job reuse, nested-call degradation, the
// parallel_for wrapper, and — the satellite this PR fixes — prompt
// cooperative cancellation after a worker throws (the legacy spawn-per-
// call pool let surviving workers drain the whole counter).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "api/pipeline.hpp"
#include "common/thread_pool.hpp"
#include "snn/benchmarks.hpp"

namespace resparc {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (const std::size_t count : {1u, 7u, 64u, 1000u}) {
    std::vector<std::atomic<int>> hits(count);
    for (auto& h : hits) h = 0;
    pool.run_indexed(count, 0, [&](std::size_t i, std::size_t) { ++hits[i]; });
    for (std::size_t i = 0; i < count; ++i)
      ASSERT_EQ(hits[i], 1) << "index " << i << " of " << count;
  }
}

TEST(ThreadPool, WorkerIdsAreStableAndInRange) {
  ThreadPool pool(4);
  ASSERT_EQ(pool.width(), 4u);
  std::vector<std::atomic<int>> by_worker(pool.width());
  for (auto& c : by_worker) c = 0;
  pool.run_indexed(512, 0, [&](std::size_t, std::size_t worker) {
    ASSERT_LT(worker, pool.width());
    ++by_worker[worker];
  });
  int total = 0;
  for (auto& c : by_worker) total += c;
  EXPECT_EQ(total, 512);
}

TEST(ThreadPool, MaxWorkersCapsParticipation) {
  ThreadPool pool(8);
  std::atomic<int> max_seen{0};
  pool.run_indexed(256, 2, [&](std::size_t, std::size_t worker) {
    int seen = static_cast<int>(worker);
    int cur = max_seen.load();
    while (seen > cur && !max_seen.compare_exchange_weak(cur, seen)) {
    }
  });
  // Worker ids are dense from 0: a cap of 2 admits ids {0, 1} only.
  EXPECT_LT(max_seen.load(), 2);
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  for (int job = 0; job < 50; ++job)
    pool.run_indexed(100, 0,
                     [&](std::size_t i, std::size_t) { sum += static_cast<long>(i); });
  EXPECT_EQ(sum.load(), 50L * (99L * 100L / 2L));
}

TEST(ThreadPool, NestedCallRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> inner_items{0};
  pool.run_indexed(8, 0, [&](std::size_t, std::size_t) {
    pool.run_indexed(4, 0,
                     [&](std::size_t, std::size_t) { ++inner_items; });
  });
  EXPECT_EQ(inner_items.load(), 32);
}

TEST(ThreadPool, ExceptionPropagatesAndCancelsPromptly) {
  ThreadPool pool(4);
  // A huge job whose very first item throws: with cooperative
  // cancellation the surviving workers must stop claiming almost
  // immediately instead of draining the remaining ~10^6 items.
  const std::size_t count = 1u << 20;
  std::atomic<std::size_t> executed{0};
  EXPECT_THROW(
      pool.run_indexed(count, 0,
                       [&](std::size_t i, std::size_t) {
                         if (i == 0) throw std::runtime_error("boom");
                         ++executed;
                       }),
      std::runtime_error);
  // Generous bound: anything close to `count` means cancellation failed.
  // (One chunk per worker may complete before the flag is seen.)
  EXPECT_LT(executed.load(), count / 4);
}

TEST(ThreadPool, ParallelForMatchesSerialAndRethrows) {
  for (const std::size_t threads : {1u, 2u, 4u}) {
    std::vector<int> out(1000, 0);
    parallel_for(out.size(), threads,
                 [&](std::size_t i) { out[i] = static_cast<int>(i % 7); });
    for (std::size_t i = 0; i < out.size(); ++i)
      ASSERT_EQ(out[i], static_cast<int>(i % 7));
  }
  EXPECT_THROW(parallel_for(64, 4,
                            [](std::size_t i) {
                              if (i == 13) throw std::runtime_error("x");
                            }),
               std::runtime_error);
}

TEST(ThreadPool, PipelineSinglePresentationUsesPoolDeterministically) {
  // A single presentation with threads = 4 must equal the threads = 1
  // run bit-for-bit: one presentation always runs on one thread.
  api::PipelineOptions opt;
  opt.images = 1;
  opt.timesteps = 6;
  opt.threads = 1;
  const auto spec = snn::mnist_cnn();
  const api::Workload serial = api::Pipeline(opt).benchmark(spec).run();
  opt.threads = 4;
  const api::Workload pooled = api::Pipeline(opt).benchmark(spec).run();
  ASSERT_EQ(serial.traces.size(), pooled.traces.size());
  EXPECT_EQ(serial.predicted, pooled.predicted);
  for (std::size_t l = 0; l < serial.traces[0].layers.size(); ++l) {
    for (std::size_t t = 0; t < serial.traces[0].layers[l].size(); ++t) {
      const auto a = serial.traces[0].layers[l][t].words();
      const auto b = pooled.traces[0].layers[l][t].words();
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "layer " << l << " step " << t;
    }
  }
}

TEST(ThreadPool, ConcurrentProducersManySmallBursts) {
  // The serving layer's pattern: several producer threads each submitting
  // a tight stream of small jobs to one shared pool.  Every item must run
  // exactly once AND admission must be fair: with tickets every queued
  // producer is admitted in arrival order, so each completes a healthy
  // share of jobs inside the window (pre-ticket, neither CV wakeups nor
  // mutex acquisition carried any ordering, and a tight-loop producer
  // could win the admission race indefinitely).  The deadline-based
  // window keeps the assertion immune to thread start-up jitter, which
  // on an idle machine can exceed a whole burst of tiny jobs.
  ThreadPool pool(4);
  constexpr int kProducers = 4;
  constexpr int kCount = 16;
  constexpr long long kPerJob =
      static_cast<long long>(kCount) * (kCount + 1) / 2;

  std::atomic<int> ready{0};
  std::array<std::atomic<long long>, kProducers> sums{};
  std::array<std::atomic<int>, kProducers> jobs{};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      ++ready;
      while (ready.load() < kProducers) std::this_thread::yield();
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(60);
      while (std::chrono::steady_clock::now() < deadline) {
        pool.run_indexed(kCount, 0, [&](std::size_t i, std::size_t) {
          sums[p].fetch_add(static_cast<long long>(i) + 1,
                            std::memory_order_relaxed);
        });
        jobs[p].fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : producers) t.join();

  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(sums[p].load(), jobs[p].load() * kPerJob)
        << "producer " << p << " lost or duplicated items";
    // Thousands of jobs fit in the window; a starved producer completes
    // (near) zero.  The floor is deliberately generous so slow machines
    // and sanitizer builds stay green.
    EXPECT_GE(jobs[p].load(), 10) << "producer " << p << " was starved";
  }
}

TEST(ThreadPool, AdmissionIsFifoUnderContention) {
  // Occupy the pool with a long job, queue three producers at spaced
  // intervals, and check they are admitted in arrival order.
  ThreadPool pool(2);
  std::mutex order_mutex;
  std::vector<int> order;

  std::thread blocker([&] {
    pool.run_indexed(8, 2, [](std::size_t, std::size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    });
    std::lock_guard<std::mutex> lock(order_mutex);
    order.push_back(0);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  std::vector<std::thread> producers;
  for (int p = 1; p <= 3; ++p) {
    producers.emplace_back([&, p] {
      // The ticket is drawn as soon as run_indexed reaches the mutex, so
      // the launch stagger below fixes the admission order.
      pool.run_indexed(4, 2, [](std::size_t, std::size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      });
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(p);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  blocker.join();
  for (auto& t : producers) t.join();

  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace resparc
