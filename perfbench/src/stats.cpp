#include "stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "core/energy.hpp"

namespace perfbench {

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Digest::add_bytes(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    state_ ^= bytes[i];
    state_ *= 0x100000001b3ull;
  }
}

void Digest::add(const snn::SpikeTrace& trace) {
  for (const auto& layer : trace.layers)
    for (const auto& step : layer) {
      add(static_cast<std::uint64_t>(step.size()));
      const auto words = step.words();
      add_bytes(words.data(), words.size_bytes());
    }
}

void Digest::add(const api::ExecutionReport& report) {
  add(static_cast<std::uint64_t>(report.classifications));
  add(report.energy_pj);
  add(report.latency_ns);
  add(report.throughput_hz);
  for (const auto& [name, value] : report.energy_breakdown_pj) {
    add_bytes(name.data(), name.size());
    add(value);
  }
  for (const auto& [name, value] : report.latency_breakdown_ns) {
    add_bytes(name.data(), name.size());
    add(value);
  }
}

std::string Digest::hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(state_));
  return buffer;
}

api::ExecutionReport reduce_reports(
    const std::vector<api::ExecutionReport>& parts) {
  const std::string& backend = parts.front().backend;
  if (parts.front().resparc.has_value()) {
    resparc::core::RunReport total;
    for (const auto& part : parts) {
      total.energy += part.resparc->energy;
      total.events += part.resparc->events;
      total.perf += part.resparc->perf;
      total.noc += part.resparc->noc;
      total.classifications += part.resparc->classifications;
    }
    const double n = static_cast<double>(total.classifications);
    total.energy /= n;
    total.perf /= n;
    return api::to_execution_report(total, backend);
  }
  resparc::cmos::CmosReport total;
  for (const auto& part : parts) {
    total.energy += part.cmos->energy;
    total.events += part.cmos->events;
    total.cycles += part.cmos->cycles;
    total.clock_mhz = part.cmos->clock_mhz;
    total.classifications += part.cmos->classifications;
  }
  const double n = static_cast<double>(total.classifications);
  total.energy /= n;
  total.cycles /= n;
  return api::to_execution_report(total, backend);
}

bool same_report(const api::ExecutionReport& a,
                 const api::ExecutionReport& b) {
  return a.classifications == b.classifications &&
         a.energy_pj == b.energy_pj && a.latency_ns == b.latency_ns &&
         a.throughput_hz == b.throughput_hz &&
         a.energy_breakdown_pj == b.energy_breakdown_pj &&
         a.latency_breakdown_ns == b.latency_breakdown_ns;
}

std::size_t trace_spikes(const snn::SpikeTrace& trace) {
  std::size_t total = 0;
  for (std::size_t l = 0; l < trace.layer_count(); ++l)
    total += trace.layer_spike_count(l);
  return total;
}

void Result::fail(const std::string& what) {
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

}  // namespace perfbench
