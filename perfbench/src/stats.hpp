// Shared helpers of the benchmark driver: order statistics, the output
// digest, resident-memory probe, report reduction/comparison and the
// metric/result records every workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "api/accelerator.hpp"
#include "snn/trace.hpp"

namespace perfbench {

namespace api = resparc::api;
namespace snn = resparc::snn;

using Clock = std::chrono::steady_clock;

/// Seconds from `a` to `b`.
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Median of `values` (0 when empty).
double median(std::vector<double> values);

/// Nearest-rank quantile q in [0, 1] of `values` (0 when empty).
double quantile(std::vector<double> values, double q);

/// Arithmetic mean (0 when empty).
double mean(const std::vector<double>& values);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// 64-bit FNV-1a over everything fed to it: two runs of the same code on
/// the same seed must produce the same digest.
class Digest {
 public:
  void add_bytes(const void* data, std::size_t size);
  void add(std::uint64_t value) { add_bytes(&value, sizeof value); }
  void add(double value) { add_bytes(&value, sizeof value); }
  void add(const snn::SpikeTrace& trace);
  /// Headline numbers and named buckets of one replay report.
  void add(const api::ExecutionReport& report);
  std::string hex() const;

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ull;
};

/// Reduces per-trace reports of one backend (in trace order) into the
/// per-classification report of the whole set, the same accumulation the
/// batched replay performs.
api::ExecutionReport reduce_reports(
    const std::vector<api::ExecutionReport>& parts);

/// True when the headline numbers and every named bucket match exactly.
bool same_report(const api::ExecutionReport& a, const api::ExecutionReport& b);

/// Spikes summed over every layer and timestep of a trace.
std::size_t trace_spikes(const snn::SpikeTrace& trace);

/// One named, unit-tagged number of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main().
struct Result {
  std::uint64_t attempted = 0;       ///< presentations or requests tried
  std::uint64_t failed = 0;          ///< failed, refused or wrong outputs
  std::vector<std::string> failures; ///< first few check failures, for stderr
  std::vector<Metric> end_to_end;    ///< printed with --trace 0
  std::vector<Metric> per_layer;     ///< printed with --trace 1
  std::string digest;                ///< of the deterministic outputs

  /// Counts one failed check; keeps its description for the log.
  void fail(const std::string& what);
};

}  // namespace perfbench
