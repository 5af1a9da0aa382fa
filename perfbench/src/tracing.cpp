#include "tracing.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

namespace {

thread_local std::uint64_t t_open_span = 0;  // innermost traced span
thread_local std::uint32_t t_thread = 0;     // 0 = not yet assigned
std::atomic<std::uint32_t> g_threads{0};

std::uint32_t thread_index() {
  if (t_thread == 0) t_thread = g_threads.fetch_add(1) + 1;
  return t_thread;
}

std::string layer_of(const char* name) {
  const std::string s(name);
  return s.substr(0, s.find('.'));
}

}  // namespace

std::int64_t Tracer::ns_since_epoch(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

void Tracer::record(const SpanRecord& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

LayerAccount Tracer::account(const char* root) const {
  std::lock_guard<std::mutex> lock(mutex_);
  LayerAccount out;
  const SpanRecord* top = nullptr;
  for (const auto& span : spans_)
    if (std::string(span.name) == root) top = &span;
  if (top == nullptr) return out;

  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  for (const auto& span : spans_)
    if (span.thread == top->thread && span.parent != 0)
      child_ns[span.parent] += span.end_ns - span.start_ns;

  double layers_s = 0.0;
  for (const auto& span : spans_) {
    if (span.thread != top->thread) continue;
    const auto it = child_ns.find(span.id);
    const double self_s =
        1e-9 * static_cast<double>(span.end_ns - span.start_ns -
                                   (it == child_ns.end() ? 0 : it->second));
    const std::string layer = layer_of(span.name);
    if (std::string(span.name) == "bench.idle") {
      out.idle_s += self_s;
    } else if (std::string(span.name) == "bench.untraced") {
      out.untraced_s += self_s;
    } else if (layer != "bench") {
      out.self_s[layer] += self_s;
      layers_s += self_s;
    }
  }
  out.wall_s = 1e-9 * static_cast<double>(top->end_ns - top->start_ns);
  out.uncovered_s = out.wall_s - layers_s - out.idle_s - out.untraced_s;
  return out;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace file " + path);
  os << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  char buffer[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::snprintf(buffer, sizeof buffer,
                  "{\"ph\": \"X\", \"pid\": 1, \"tid\": %u, \"ts\": %.3f, "
                  "\"dur\": %.3f, ",
                  s.thread, 1e-3 * static_cast<double>(s.start_ns),
                  1e-3 * static_cast<double>(s.end_ns - s.start_ns));
    os << buffer << "\"name\": \"" << s.name << "\", \"cat\": \""
       << layer_of(s.name) << "\", \"args\": {\"id\": " << s.id
       << ", \"parent\": " << s.parent;
    if (s.count_name != nullptr)
      os << ", \"" << s.count_name << "\": " << s.count_value;
    os << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]}\n";
}

Span::Span(Tracer& tracer, const char* name)
    : tracer_(tracer), traced_(tracer.enabled()) {
  record_.name = name;
  if (traced_) {
    record_.thread = thread_index();
    record_.id = tracer_.next_id();
    record_.parent = t_open_span;
    t_open_span = record_.id;
  }
  start_ = Clock::now();
}

void Span::count(const char* name, double value) {
  record_.count_name = name;
  record_.count_value = value;
}

Span::~Span() {
  stop();
  if (traced_) tracer_.record(record_);
}

double Span::stop() {
  if (!open_) return seconds_;
  const auto end = Clock::now();
  open_ = false;
  seconds_ = seconds_between(start_, end);
  if (traced_) {
    t_open_span = record_.parent;
    record_.start_ns = tracer_.ns_since_epoch(start_);
    record_.end_ns = tracer_.ns_since_epoch(end);
  }
  return seconds_;
}

}  // namespace perfbench
