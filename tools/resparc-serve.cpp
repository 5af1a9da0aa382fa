// resparc-serve: drive the multi-tenant serving layer from the shell.
//
// Builds a paper benchmark workload (synthetic dataset, calibrated
// network, recorded traces), binds N identical tenants on a
// serve::Server, replays the traces closed-loop from one producer per
// tenant, and prints the serving counters plus the per-stage latency
// table (docs/serving.md).
//
//   resparc-serve                          1 tenant, mnist-mlp defaults
//   resparc-serve --tenants 4 --requests 200
//   resparc-serve --benchmark cifar-mlp --backend resparc-128
//   resparc-serve --cache-dir /tmp/rcache  persist compiled programs
//   resparc-serve --json                   machine-readable summary
//
// Exit status: 0 on success, 2 on usage errors, 1 on serving failures.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "api/pipeline.hpp"
#include "serve/server.hpp"
#include "snn/benchmarks.hpp"

namespace {

using namespace resparc;

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --benchmark NAME  paper benchmark topology (mnist-mlp, svhn-mlp,\n"
      << "                    cifar-mlp, mnist-cnn, svhn-cnn, cifar-cnn)\n"
      << "  --backend KEY     accelerator registry key (default resparc-64)\n"
      << "  --tenants N       concurrent tenants/producers   (default 1)\n"
      << "  --requests N      requests per tenant            (default 64)\n"
      << "  --replicas N      loaded replicas per tenant     (default 1)\n"
      << "  --batch-max N     max requests per batch         (default 8)\n"
      << "  --images N        distinct traces in the workload(default 8)\n"
      << "  --timesteps N     presentation length            (default 16)\n"
      << "  --seed N          server master seed             (default 7)\n"
      << "  --cache-dir PATH  persist compiled programs under PATH\n"
      << "  --json            print a JSON summary instead of tables\n";
  return 2;
}

const snn::BenchmarkSpec* find_benchmark(
    const std::vector<snn::BenchmarkSpec>& all, const std::string& name) {
  for (const auto& spec : all)
    if (spec.topology.name() == name) return &spec;
  return nullptr;
}

struct Options {
  std::string benchmark = "mnist-mlp";
  std::string backend = "resparc-64";
  std::size_t tenants = 1;
  std::size_t requests = 64;
  std::size_t replicas = 1;
  std::size_t batch_max = 8;
  std::size_t images = 8;
  std::size_t timesteps = 16;
  std::uint64_t seed = 7;
  std::string cache_dir;
  bool json = false;
};

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](auto& out) {
      if (i + 1 >= argc) return false;
      const long v = std::atol(argv[++i]);
      if (v <= 0) return false;
      out = static_cast<std::remove_reference_t<decltype(out)>>(v);
      return true;
    };
    if (arg == "--json") {
      opts.json = true;
    } else if (arg == "--benchmark" && i + 1 < argc) {
      opts.benchmark = argv[++i];
    } else if (arg == "--backend" && i + 1 < argc) {
      opts.backend = argv[++i];
    } else if (arg == "--cache-dir" && i + 1 < argc) {
      opts.cache_dir = argv[++i];
    } else if (arg == "--tenants") {
      if (!next(opts.tenants)) return usage(argv[0]);
    } else if (arg == "--requests") {
      if (!next(opts.requests)) return usage(argv[0]);
    } else if (arg == "--replicas") {
      if (!next(opts.replicas)) return usage(argv[0]);
    } else if (arg == "--batch-max") {
      if (!next(opts.batch_max)) return usage(argv[0]);
    } else if (arg == "--images") {
      if (!next(opts.images)) return usage(argv[0]);
    } else if (arg == "--timesteps") {
      if (!next(opts.timesteps)) return usage(argv[0]);
    } else if (arg == "--seed") {
      if (!next(opts.seed)) return usage(argv[0]);
    } else {
      return usage(argv[0]);
    }
  }

  const auto benchmarks = snn::paper_benchmarks();
  const snn::BenchmarkSpec* spec = find_benchmark(benchmarks, opts.benchmark);
  if (spec == nullptr) {
    std::cerr << "resparc-serve: unknown benchmark \"" << opts.benchmark
              << "\"\n";
    return usage(argv[0]);
  }

  try {
    api::PipelineOptions popt;
    popt.images = opts.images;
    popt.timesteps = opts.timesteps;
    popt.threads = 0;
    const api::Workload workload =
        api::Pipeline(popt).benchmark(*spec).run();

    serve::ServerConfig config;
    config.replicas = opts.replicas;
    config.dispatchers = std::max<std::size_t>(opts.tenants, 2);
    config.batch_max = opts.batch_max;
    config.seed = opts.seed;
    config.cache.directory = opts.cache_dir;
    serve::Server server(config);

    serve::TenantSpec tenant;
    tenant.backend = opts.backend;
    tenant.topology = workload.topology();
    std::vector<serve::SessionId> sessions;
    for (std::size_t t = 0; t < opts.tenants; ++t) {
      const std::string name = "tenant-" + std::to_string(t);
      server.add_tenant(name, tenant);
      sessions.push_back(server.open_session(name));
    }

    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> producers;
    for (std::size_t t = 0; t < opts.tenants; ++t) {
      producers.emplace_back([&, t] {
        std::deque<std::future<serve::Response>> inflight;
        for (std::size_t i = 0; i < opts.requests; ++i) {
          serve::Request request;
          request.trace = workload.traces[i % workload.traces.size()];
          inflight.push_back(server.submit(sessions[t], std::move(request)));
          if (inflight.size() >= 32) {
            inflight.front().get();
            inflight.pop_front();
          }
        }
        while (!inflight.empty()) {
          inflight.front().get();
          inflight.pop_front();
        }
      });
    }
    for (auto& p : producers) p.join();
    server.drain();
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();

    const serve::ServerStats stats = server.stats();
    const auto& cache = server.program_cache().stats();
    const double rps =
        static_cast<double>(stats.completed) / std::max(seconds, 1e-9);
    if (opts.json) {
      std::cout << "{\"benchmark\": \"" << opts.benchmark << "\", \"backend\": \""
                << opts.backend << "\", \"tenants\": " << opts.tenants
                << ", \"completed\": " << stats.completed
                << ", \"rejected\": " << stats.rejected
                << ", \"batches\": " << stats.batches
                << ", \"max_batch\": " << stats.max_batch
                << ", \"throughput_rps\": " << rps
                << ", \"cache\": {\"memory_hits\": " << cache.memory_hits
                << ", \"disk_hits\": " << cache.disk_hits
                << ", \"misses\": " << cache.misses
                << ", \"corrupt_evictions\": " << cache.corrupt_evictions
                << "}, \"latency\": " << server.latency().to_json() << "}\n";
    } else {
      std::cout << "benchmark " << opts.benchmark << " on " << opts.backend
                << ": " << opts.tenants << " tenant(s) x " << opts.requests
                << " requests\n"
                << "completed " << stats.completed << " (" << stats.rejected
                << " rejected) in " << stats.batches << " batches (max "
                << stats.max_batch << ") — " << rps << " req/s\n"
                << "program cache: " << cache.memory_hits << " memory hits, "
                << cache.disk_hits << " disk hits, " << cache.misses
                << " misses\n\n"
                << server.latency().to_string();
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "resparc-serve: " << error.what() << "\n";
    return 1;
  }
}
