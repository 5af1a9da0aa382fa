// In-memory span recorder of the traced run (--trace 1).
//
// Every call the benchmark makes into a library layer is wrapped in a
// Span named "<layer>.<what>" (data, snn, compile, core, noc, cmos,
// serve); "bench.*" spans mark the benchmark's own phases and
// "bench.idle" the open-loop generator waiting for its schedule.  A Span
// always times its call, so the untraced run measures the same
// intervals; only when the Tracer is enabled does it also keep the span,
// with its parent and an optional work count, in memory.  At exit the spans go
// out as Chrome trace-event JSON (chrome://tracing, Perfetto) and are
// folded into per-layer self time.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

/// One finished span.
struct SpanRecord {
  const char* name = "";
  std::uint32_t thread = 0;   ///< small per-process thread index
  std::int64_t start_ns = 0;  ///< since the tracer's epoch
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;       ///< 1-based
  std::uint64_t parent = 0;   ///< enclosing span on the same thread (0 = none)
  const char* count_name = nullptr;  ///< optional work count of the call
  double count_value = 0.0;
};

/// Wall time of one thread's spans split by layer.
struct LayerAccount {
  double wall_s = 0.0;       ///< duration of the root span
  double idle_s = 0.0;       ///< self time of "bench.idle" spans
  double untraced_s = 0.0;   ///< self time of "bench.untraced" (the
                             ///< untraced half of a traced run)
  double uncovered_s = 0.0;  ///< wall - layer self - idle - untraced
  std::map<std::string, double> self_s;  ///< per layer, self time
};

class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Starts or stops keeping spans (timing is unaffected).
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  std::int64_t ns_since_epoch(Clock::time_point t) const;
  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }
  void record(const SpanRecord& span);

  /// Self time per layer of the thread that recorded `root`, and the
  /// part of the root's duration no layer span covers.
  LayerAccount account(const char* root) const;

  /// Writes every recorded span as Chrome trace-event JSON.
  void write_chrome_json(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  // guarded by mutex_
};

/// Times one call; keeps it when the tracer is enabled at construction.
/// Spans on one thread must stop in reverse order of their start.  The
/// record is handed to the tracer on destruction, so counts measured
/// after stop() (outside the timed interval) still attach to it.
class Span {
 public:
  Span(Tracer& tracer, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a work count (one per span) to the recorded span.
  void count(const char* name, double value);
  /// Ends the timed interval once and returns its duration in seconds.
  double stop();

 private:
  Tracer& tracer_;
  SpanRecord record_;
  Clock::time_point start_;
  bool traced_ = false;
  bool open_ = true;
  double seconds_ = 0.0;
};

}  // namespace perfbench
