#include "bench_util.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <system_error>

namespace resparc::bench {
namespace {

std::size_t env_or(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  const long parsed = std::atol(value);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

}  // namespace

std::size_t bench_images() { return env_or("RESPARC_BENCH_IMAGES", 3); }

std::size_t bench_timesteps() { return env_or("RESPARC_BENCH_TIMESTEPS", 32); }

std::size_t bench_threads() { return env_or("RESPARC_BENCH_THREADS", 0); }

std::uint64_t bench_seed() {
  return static_cast<std::uint64_t>(env_or("RESPARC_BENCH_SEED", 7));
}

api::PipelineOptions bench_options(std::uint64_t seed, double target_activity) {
  api::PipelineOptions options;
  options.images = bench_images();
  options.timesteps = bench_timesteps();
  options.threads = bench_threads();
  options.seed = seed;
  options.target_activity = target_activity;
  options.noise = 0.03;
  options.jitter_pixels = 1.5;
  return options;
}

Workload make_workload(const snn::BenchmarkSpec& spec,
                       const api::PipelineOptions& options) {
  return api::Pipeline(options).benchmark(spec).run();
}

std::vector<Workload> paper_workloads() {
  std::vector<Workload> out;
  for (const auto& spec : snn::paper_benchmarks())
    out.push_back(make_workload(spec));
  return out;
}

std::string bench_commit() {
  const char* value = std::getenv("RESPARC_GIT_COMMIT");
  return value != nullptr && value[0] != '\0'
             ? std::string(value)
             : std::string(RESPARC_CONFIGURE_COMMIT);
}

std::string trajectory_envelope(const std::string& bench,
                                const std::string& config_json,
                                const std::string& metrics_json) {
  std::string out;
  out += "{\n";
  out += "  \"bench\": \"" + bench + "\",\n";
  out += "  \"schema_version\": 1,\n";
  out += "  \"commit\": \"" + bench_commit() + "\",\n";
  out += "  \"config\": " + config_json + ",\n";
  out += "  \"metrics\": " + metrics_json + "\n";
  out += "}\n";
  return out;
}

std::string trajectory_dir() {
  const char* value = std::getenv("RESPARC_TRAJECTORY_DIR");
  return value != nullptr && value[0] != '\0' ? std::string(value)
                                              : std::string("bench/trajectory");
}

bool write_trajectory(const std::string& bench, const std::string& config_json,
                      const std::string& metrics_json) {
  const std::string dir = trajectory_dir();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best effort; open decides
  const std::string path = dir + "/" + bench + ".json";
  std::ofstream out(path);
  if (out) out << trajectory_envelope(bench, config_json, metrics_json);
  const bool ok = static_cast<bool>(out);
  note_csv_written(path, ok);
  return ok;
}

void note_csv_written(const std::string& path, bool ok) {
  if (ok)
    std::printf("[csv] wrote %s\n", path.c_str());
  else
    std::printf("[csv] could not write %s (continuing)\n", path.c_str());
}

}  // namespace resparc::bench
