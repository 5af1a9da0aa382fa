// Tail-latency accounting for the serving layer (docs/serving.md).
//
// Wall-clock latencies are long-tailed, so the recorder keeps HDR-style
// histograms instead of samples: 64 linear sub-buckets per power of two
// of nanoseconds, giving <= ~1.6% relative quantile error over the full
// uint64 range at a fixed ~30 KiB per stage.  Buckets are plain atomic
// counters, so record() is lock-free and safe from every dispatcher
// thread; quantiles are computed over a snapshot.
//
// One LatencyRecorder tracks six stages per request — the serving-side
// queue/batch wall times plus the accelerator model's
// compute/transport/stall decomposition (api::ExecutionReport::
// latency_breakdown_ns, docs/noc.md) and the end-to-end total — and
// renders them as a text table or JSON.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace resparc::serve {

struct Response;

/// Lock-free log-linear histogram of nanosecond values (HDR-style:
/// 64 linear sub-buckets per power of two).
class LatencyHistogram {
 public:
  /// Sub-bucket resolution: values within one power of two are split
  /// into 2^kSubBits linear buckets (relative error <= 2^-kSubBits).
  static constexpr unsigned kSubBits = 6;

  /// Records one value (thread-safe, lock-free).
  void record(std::uint64_t ns);

  /// Values recorded so far.
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  /// Largest recorded value (exact, not bucket-rounded).
  std::uint64_t max_ns() const { return max_.load(std::memory_order_relaxed); }
  /// Mean of the recorded values (exact sum / count; 0 when empty).
  double mean_ns() const;

  /// Value at quantile `q` in [0,1]: the upper bound of the first bucket
  /// whose cumulative count reaches q * count (0 when empty).  q >= 1
  /// returns max_ns().
  std::uint64_t quantile(double q) const;

  /// Resets every counter to zero (not safe against concurrent record()).
  void reset();

 private:
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static constexpr std::size_t kGroups = 64 - kSubBits + 1;
  static constexpr std::size_t kBuckets = kGroups * kSub;

  static std::size_t bucket_of(std::uint64_t ns);
  static std::uint64_t bucket_upper(std::size_t bucket);

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// Point-in-time percentile summary of one stage.
struct LatencySnapshot {
  std::uint64_t count = 0;   ///< values recorded
  double mean_ns = 0.0;      ///< exact mean
  std::uint64_t p50_ns = 0;  ///< median (bucket upper bound)
  std::uint64_t p95_ns = 0;  ///< 95th percentile
  std::uint64_t p99_ns = 0;  ///< 99th percentile
  std::uint64_t max_ns = 0;  ///< exact maximum
};

/// Per-stage histograms over the serving latency decomposition.
class LatencyRecorder {
 public:
  /// The tracked stages, in report order.
  enum class Stage : std::size_t {
    kQueue = 0,   ///< submit -> dispatch (admission + wait for a free replica)
    kBatch,       ///< wall time of the request's whole batch execution
    kCompute,     ///< accelerator model "compute" bucket
    kTransport,   ///< accelerator model "transport" bucket
    kStall,       ///< accelerator model "noc_stall" bucket
    kTotal,       ///< submit -> response published (end-to-end)
  };
  /// Number of tracked stages.
  static constexpr std::size_t kStages = 6;

  /// "queue" / "batch" / "compute" / "transport" / "stall" / "total".
  static const char* stage_name(Stage stage);

  /// Records one value into one stage (thread-safe, lock-free).
  void record(Stage stage, std::uint64_t ns) {
    stages_[static_cast<std::size_t>(stage)].record(ns);
  }

  /// Records every stage of one completed response: the serving-side
  /// queue/batch/total stamps plus the report's latency_breakdown_ns
  /// buckets (compute/transport/noc_stall; backends without a breakdown
  /// contribute their whole latency_ns as compute).
  void record_response(const Response& response);

  /// Direct access to one stage's histogram.
  const LatencyHistogram& histogram(Stage stage) const {
    return stages_[static_cast<std::size_t>(stage)];
  }

  /// Percentile summary of one stage.
  LatencySnapshot snapshot(Stage stage) const;

  /// Requests recorded (the kTotal stage's count).
  std::uint64_t count() const {
    return histogram(Stage::kTotal).count();
  }

  /// Resets every stage (not safe against concurrent record()).
  void reset();

  /// Text table: one row per stage, p50/p95/p99/max/mean columns.
  std::string to_string() const;
  /// JSON object: {"requests":N,"stages":{"queue":{...},...}} with
  /// count/mean_ns/p50_ns/p95_ns/p99_ns/max_ns per stage.
  std::string to_json() const;

 private:
  std::array<LatencyHistogram, kStages> stages_{};
};

}  // namespace resparc::serve
