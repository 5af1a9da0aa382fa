// Shared workload builder for the figure benches — a thin veneer over
// api::Pipeline.
//
// Every bench consumes the same artefact: a paper benchmark (Fig. 10 row)
// plus spike traces recorded by the functional simulator on the matching
// synthetic dataset.  Traces are independent of the architecture
// configuration, so one build serves every MCA size / event-driven mode,
// and identical traces feed every backend of a comparison.
//
// Environment knobs (all optional, for quick runs):
//   RESPARC_BENCH_IMAGES    images per benchmark      (default 3)
//   RESPARC_BENCH_TIMESTEPS presentation length       (default 32)
//   RESPARC_BENCH_THREADS   pipeline workers          (default all cores)
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "api/pipeline.hpp"
#include "snn/benchmarks.hpp"

namespace resparc::bench {

/// The benches consume the API-level workload directly.
using api::Workload;

/// Number of images per benchmark (env RESPARC_BENCH_IMAGES, default 3).
std::size_t bench_images();

/// Presentation length in timesteps (env RESPARC_BENCH_TIMESTEPS, 32).
std::size_t bench_timesteps();

/// Pipeline workers (env RESPARC_BENCH_THREADS, default 0 = all cores).
std::size_t bench_threads();

/// Root seed every bench derives its random streams from (env
/// RESPARC_BENCH_SEED, default 7).  Benches must not seed Rng ad hoc:
/// draw per-purpose streams with stream_seed(bench_seed(), k) so one env
/// knob re-rolls every bench coherently and streams never collide.
std::uint64_t bench_seed();

/// Pipeline options pre-loaded with the bench environment knobs.
api::PipelineOptions bench_options(std::uint64_t seed = bench_seed(),
                                   double target_activity = 0.10);

/// Builds the workload for one Fig. 10 benchmark through api::Pipeline:
/// synthesises the matching dataset (downsampled for the SVHN/CIFAR MLPs),
/// initialises weights, calibrates thresholds to ~`target_activity` per
/// layer, and records the traces.  Deterministic in the options seed for
/// any thread count.
Workload make_workload(const snn::BenchmarkSpec& spec,
                       const api::PipelineOptions& options = bench_options());

/// All six paper benchmarks as ready workloads (paper row order).
std::vector<Workload> paper_workloads();

/// Writes `content` under bench_output/<name> next to the working
/// directory (best effort; failures are reported but not fatal).
void note_csv_written(const std::string& path, bool ok);

/// Commit hash recorded in trajectory JSON: RESPARC_GIT_COMMIT when set
/// (CI injects the SHA), otherwise the short hash CMake read at configure
/// time ("unknown" when the source tree is not a git checkout).
std::string bench_commit();

/// Renders the versioned bench-trajectory envelope documented in
/// bench/trajectory/README.md: {"bench", "schema_version", "commit",
/// "config": {...}, "metrics": {...}}.  `config_json` and `metrics_json`
/// are pre-rendered JSON objects (including their braces); the envelope
/// supplies everything else, so every tracked bench stays validatable by
/// tools/validate_trajectory.py.
std::string trajectory_envelope(const std::string& bench,
                                const std::string& config_json,
                                const std::string& metrics_json);

/// Directory tracked benches write their trajectory JSON into:
/// RESPARC_TRAJECTORY_DIR when set, otherwise "bench/trajectory" (created
/// on demand) — so a run from the repo root refreshes the committed
/// snapshots in place and nothing strays into the working directory.
std::string trajectory_dir();

/// Writes `<trajectory_dir()>/<bench>.json` with the rendered envelope
/// (trajectory_envelope) and reports the path via note_csv_written.
/// Returns false when the directory or file cannot be created.
bool write_trajectory(const std::string& bench, const std::string& config_json,
                      const std::string& metrics_json);

}  // namespace resparc::bench
