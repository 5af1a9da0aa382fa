// perfbench: one command, three workloads, end-to-end and per-layer
// metrics (perfbench/README.md).
//
//   perfbench --workload <cnn-paper|cnn-sparse|mlp-serve> --seed <n>
//             --seconds <s> --trace <0|1> [--threads <n>] [--trace-out <f>]
//
// Prints a human-readable summary, a provenance line, the output digest
// and, as the last line, one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1).  Exits 1 when an output check failed, 2 on bad usage.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "workloads.hpp"

namespace {

using namespace perfbench;

/// Every per-layer metric, in output order.  A workload that does not
/// exercise a layer reports 0 for its metrics.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const LayerMetric kPerLayer[] = {
    {"tail.p99_us", "us"},
    {"data.synth_s", "s"},
    {"snn.calibrate_s", "s"},
    {"compile.greedy-pack_s", "s"},
    {"compile.anneal_s", "s"},
    {"core.load_s", "s"},
    {"serve.add_tenant_s", "s"},
    {"serve.cache_misses", "count"},
    {"snn.simulate_ms_per_pres", "ms"},
    {"snn.spikes_per_pres", "count"},
    {"snn.ns_per_spike", "ns"},
    {"snn.input_sparsity", "ratio"},
    {"snn.L0.spikes_per_pres", "count"},
    {"snn.L1.spikes_per_pres", "count"},
    {"snn.L2.spikes_per_pres", "count"},
    {"snn.L3.spikes_per_pres", "count"},
    {"snn.L4.spikes_per_pres", "count"},
    {"snn.L5.spikes_per_pres", "count"},
    {"snn.L6.spikes_per_pres", "count"},
    {"core.replay_ms_per_trace", "ms"},
    {"noc.replay_ms_per_trace", "ms"},
    {"cmos.replay_ms_per_trace", "ms"},
    {"core.mca_activations", "count"},
    {"core.mca_skip_ratio", "ratio"},
    {"noc.words", "count"},
    {"noc.drop_ratio", "ratio"},
    {"noc.stall_cycles", "cycles"},
    {"serve.queue_us.p50", "us"},
    {"serve.queue_us.p99", "us"},
    {"serve.batch_us.p50", "us"},
    {"serve.sim_batch_us.p99", "us"},
    {"serve.mean_batch", "count"},
    {"serve.batches", "count"},
    {"serve.rejected", "count"},
    {"serve.retries", "count"},
    {"serve.gen_lag_us.p99", "us"},
    {"trace.overhead_pct", "%"},
    {"trace.wall_s", "s"},
    {"trace.self.data_s", "s"},
    {"trace.self.snn_s", "s"},
    {"trace.self.compile_s", "s"},
    {"trace.self.core_s", "s"},
    {"trace.self.noc_s", "s"},
    {"trace.self.cmos_s", "s"},
    {"trace.self.serve_s", "s"},
    {"trace.idle_s", "s"},
    {"trace.untraced_s", "s"},
    {"trace.uncovered_s", "s"},
};
const char* const kLayers[] = {"data", "snn",  "compile", "core",
                               "noc",  "cmos", "serve"};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<cnn-paper|cnn-sparse|mlp-serve> --seed <n> --seconds <s> "
               "--trace <0|1> [--threads <n>] [--trace-out <file>]\n",
               why.c_str());
  std::exit(2);
}

/// CPUs this process may run on (what `nproc` prints).
std::size_t cpus_available() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return static_cast<std::size_t>(CPU_COUNT(&set));
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::uint64_t parse_uint(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(text, &used);
  } catch (const std::exception&) {
    usage(flag + " needs a whole number, got \"" + text + "\"");
  }
  if (used != text.size() || text.empty() || text[0] == '-')
    usage(flag + " needs a whole number, got \"" + text + "\"");
  return v;
}

std::string json_number(double v) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", std::isfinite(v) ? v : 0.0);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string trace_out;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = parse_uint(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = static_cast<double>(parse_uint(flag, value));
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--threads") {
      options.threads = parse_uint(flag, value);
      if (options.threads == 0) usage("--threads must be at least 1");
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds and --trace are required");
  if (options.seconds < 1) usage("--seconds must be at least 1");

  const bool serve = options.workload == "mlp-serve";
  if (!serve && options.workload != "cnn-paper" &&
      options.workload != "cnn-sparse")
    usage("unknown workload \"" + options.workload + "\"");
  const std::size_t nproc = cpus_available();
  if (options.threads == 0)
    options.threads = serve ? std::min<std::size_t>(4, nproc) : 1;
  if (options.threads > nproc)
    usage("--threads " + std::to_string(options.threads) + " exceeds the " +
          std::to_string(nproc) + " CPUs available");
  if (serve && options.threads < 2)
    usage("mlp-serve needs at least 2 threads (generator + dispatcher)");

  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": "
      "%g, \"trace\": %d, \"threads\": %zu, \"nproc\": %zu, \"compiler\": "
      "\"%s\", \"build_type\": \"%s\", \"native_arch\": %d}}\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0, options.threads, nproc,
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, PERFBENCH_NATIVE_ARCH);
  std::fflush(stdout);

  Tracer tracer;
  tracer.set_enabled(options.trace);
  Result result;
  try {
    if (serve)
      result = run_serve(options, tracer);
    else
      result = run_cnn(options, tracer,
                       options.workload == "cnn-sparse" ? 0.02 : 1.0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }

  std::vector<Metric> metrics = result.end_to_end;
  if (options.trace) {
    const LayerAccount account = tracer.account("bench.run");
    result.per_layer.push_back({"trace.wall_s", account.wall_s, "s"});
    for (const char* layer : kLayers) {
      const auto it = account.self_s.find(layer);
      result.per_layer.push_back({std::string("trace.self.") + layer + "_s",
                                  it == account.self_s.end() ? 0.0 : it->second,
                                  "s"});
    }
    result.per_layer.push_back({"trace.idle_s", account.idle_s, "s"});
    result.per_layer.push_back({"trace.untraced_s", account.untraced_s, "s"});
    result.per_layer.push_back({"trace.uncovered_s", account.uncovered_s, "s"});
    for (const auto& [layer, seconds] : account.self_s) {
      bool known = false;
      for (const char* name : kLayers) known = known || layer == name;
      if (!known)
        throw std::logic_error("span outside the known layers: " + layer);
    }

    metrics.clear();
    for (const LayerMetric& lm : kPerLayer) {
      double value = 0.0;
      for (const Metric& m : result.per_layer)
        if (m.name == lm.name) value = m.value;
      metrics.push_back({lm.name, value, lm.unit});
    }
    for (const Metric& m : result.per_layer) {
      bool known = false;
      for (const LayerMetric& lm : kPerLayer)
        known = known || m.name == lm.name;
      if (!known)
        throw std::logic_error("per-layer metric not in the list: " + m.name);
    }
    if (!trace_out.empty()) tracer.write_chrome_json(trace_out);
  }

  for (const Metric& m : metrics)
    std::printf("  %-28s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::printf("{\"digest\": \"%s\"}\n", result.digest.c_str());
  for (const std::string& failure : result.failures)
    std::fprintf(stderr, "perfbench: check failed: %s\n", failure.c_str());

  const bool correct = result.failed == 0;
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}
