// The unified accelerator surface (docs/architecture.md).
//
// Every architecture model this repo compares — the memristive RESPARC
// fabric, the CMOS FALCON-style baseline, and any future variant — is
// driven through the same three-call contract:
//
//   auto accel = api::make_accelerator("resparc", options);   // registry.hpp
//   accel->load(topology);                                    // place the SNN
//   api::ExecutionReport r = accel->execute(traces);          // replay spikes
//
// Backends consume identical snn::SpikeTrace workloads (the functional
// simulator is the single trace source), so an ExecutionReport from one
// backend is directly comparable with another's.  The report keeps both the
// unified headline numbers and, for the built-in backends, the native
// typed report so figure benches can reach architecture-specific detail
// (event counters, paper energy buckets) without downcasting accelerators.
// Reports are immutable values whose copies share the native report
// (docs/serving.md, "What a response carries").
#pragma once

#include <algorithm>
#include <array>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cmos/falcon.hpp"
#include "common/shared_value.hpp"
#include "core/energy.hpp"
#include "snn/topology.hpp"
#include "snn/trace.hpp"

namespace resparc::api {

/// Implementation-metric roll-up of one accelerator tile (paper Fig. 8/9).
struct AcceleratorMetrics {
  double area_mm2 = 0.0;       ///< silicon area of one tile
  double power_mw = 0.0;       ///< peak dynamic power at full activity
  double gate_count = 0.0;     ///< logic gates of the digital periphery
  double frequency_mhz = 0.0;  ///< operating clock
};

/// A report's named buckets: up to kCapacity (name, value) pairs, held
/// inline in the order the backend emitted them.  The list keeps a view of
/// each name, so names must have static storage (string literals).
/// Equality compares names and values in order.
class BucketList {
 public:
  /// One bucket: its name and its value.
  using value_type = std::pair<std::string_view, double>;
  /// Most buckets a list holds: both built-in backends emit three.
  static constexpr std::size_t kCapacity = 3;

  /// An empty list.
  BucketList() = default;
  /// The given buckets, in order; more than kCapacity is a ConfigError.
  BucketList(std::initializer_list<value_type> buckets);

  /// First bucket.
  const value_type* begin() const { return items_.data(); }
  /// One past the last bucket.
  const value_type* end() const { return items_.data() + size_; }
  /// Number of buckets.
  std::size_t size() const { return size_; }
  /// True when the list holds no bucket.
  bool empty() const { return size_ == 0; }
  /// Bucket `i` (i < size()).
  const value_type& operator[](std::size_t i) const { return items_[i]; }
  /// Value of the bucket called `name` (0 when absent).
  double value(std::string_view name) const;

  /// Same names and values in the same order.
  friend bool operator==(const BucketList& a, const BucketList& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  std::array<value_type, kCapacity> items_{};
  std::size_t size_ = 0;
};

/// Backend-independent result of replaying traces.  Energy and latency are
/// per classification (averaged over the trace set).
///
/// A report is immutable once made and cheap to copy: the buckets are
/// inline and the native report and fault manifest are SharedValue
/// handles, so every copy (batched results, serving responses, promises,
/// callbacks) reads the one block the replay made.  Copying a report
/// allocates at most once, for a backend name longer than the string's
/// inline buffer.
struct ExecutionReport {
  std::string backend;               ///< Accelerator::name() of the producer
  std::size_t classifications = 0;   ///< presentations replayed
  double energy_pj = 0.0;            ///< total energy per classification
  double latency_ns = 0.0;           ///< steady-state latency per classification
  double throughput_hz = 0.0;        ///< classifications per second

  /// Named energy buckets (paper Fig. 12 style), backend-defined:
  /// RESPARC reports neuron/crossbar/peripherals, CMOS reports
  /// core/memory_access/memory_leakage.
  BucketList energy_breakdown_pj;

  /// Named latency buckets (ns per classification, serial decomposition):
  /// the RESPARC backend reports compute / transport / noc_stall from the
  /// Ml-NoC model (docs/noc.md; stall is 0 in analytic fidelity).
  /// Backends without a transport model leave it empty.
  BucketList latency_breakdown_ns;

  /// Realised device-fault manifest of the chip instance the replay ran
  /// on (RESPARC backend with ResparcConfig::faults enabled); absent on
  /// fault-free runs and non-RESPARC backends (docs/reliability.md).
  /// Shared with `resparc->faults` and every other report of the chip.
  SharedValue<tech::FaultManifest> faults;

  /// Native typed report when the producer is the RESPARC backend.
  SharedValue<core::RunReport> resparc;
  /// Native typed report when the producer is the CMOS baseline backend.
  SharedValue<cmos::CmosReport> cmos;

  /// Value of one named breakdown bucket (0 when absent).
  double bucket_pj(std::string_view name) const {
    return energy_breakdown_pj.value(name);
  }

  /// Value of one named latency bucket (0 when absent).
  double bucket_ns(std::string_view name) const {
    return latency_breakdown_ns.value(name);
  }
};

/// Abstract accelerator: anything that can host an SNN topology and replay
/// spike traces against it.  Implementations must keep execute() const and
/// thread-safe so the batched pipeline can replay traces concurrently.
class Accelerator {
 public:
  virtual ~Accelerator() = default;

  /// Display name, e.g. "RESPARC-64" or "CMOS".
  virtual std::string name() const = 0;

  /// Places `topology` onto the fabric, replacing any previous network.
  virtual void load(const snn::Topology& topology) = 0;

  /// True once a network is loaded.
  virtual bool loaded() const = 0;

  /// Replays a set of traces against the loaded network; energy and
  /// latency in the report are averaged per classification.
  virtual ExecutionReport execute(
      std::span<const snn::SpikeTrace> traces) const = 0;

  /// Convenience: replay a single trace.
  ExecutionReport execute(const snn::SpikeTrace& trace) const {
    return execute(std::span<const snn::SpikeTrace>(&trace, 1));
  }

  /// Replays every trace separately: `reports_out` is cleared and
  /// refilled with one report per trace, in trace order, each
  /// execute(traces[i]).  Pipeline::execute_each fans this out over
  /// threads.
  void execute_each(std::span<const snn::SpikeTrace> traces,
                    std::vector<ExecutionReport>& reports_out) const;

  /// Implementation metrics of one tile (area/power/gates/frequency).
  virtual AcceleratorMetrics metrics() const = 0;

  /// True when this backend compiles topologies through the mapping-
  /// strategy layer (honours BackendOptions::strategy and `"/<strategy>"`
  /// registry-key suffixes).  The registry rejects a strategy suffix on
  /// backends that return false instead of silently ignoring it.
  virtual bool supports_mapping_strategies() const { return false; }
};

/// Converts a native RESPARC report to the unified form.
ExecutionReport to_execution_report(const core::RunReport& report,
                                    std::string backend);
/// Converts a native CMOS baseline report to the unified form.
ExecutionReport to_execution_report(const cmos::CmosReport& report,
                                    std::string backend);

}  // namespace resparc::api
