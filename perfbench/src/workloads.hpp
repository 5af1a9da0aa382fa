// The benchmark's workloads (perfbench/README.md says why each exists).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "stats.hpp"
#include "tracing.hpp"

namespace perfbench {

/// Command-line settings of one run.
struct Options {
  std::string workload;     ///< cnn-paper | cnn-sparse | mlp-serve
  std::uint64_t seed = 1;   ///< every input is derived from it
  double seconds = 10.0;    ///< length of the measured window
  bool trace = false;       ///< per-layer run: spans on, per-layer metrics out
  std::size_t threads = 0;  ///< threads the workload may use (<= nproc)
};

/// Seed of the network under test: its random weights and the images its
/// thresholds are calibrated on.  --seed varies the presented inputs, not
/// the model, so modelled metrics move with the inputs alone.
inline constexpr std::uint64_t kModelSeed = 7;
/// Presentation length of every workload (the paper's T).
inline constexpr std::size_t kTimesteps = 32;
/// Per-layer firing target thresholds are calibrated to.
inline constexpr double kTargetActivity = 0.10;
/// Images driving threshold calibration.
inline constexpr std::size_t kCalibrationImages = 2;
/// Set-up repetitions per run; setup_s is their median.
inline constexpr std::size_t kSetupReps = 9;
/// Trace layers reported one by one (input + the six MNIST-CNN layers).
inline constexpr std::size_t kReportedLayers = 7;

/// cnn-paper (input_rate 1.0) and cnn-sparse (input_rate 0.02).
Result run_cnn(const Options& options, Tracer& tracer, double input_rate);

/// mlp-serve: open-loop Poisson traffic through serve::Server.
Result run_serve(const Options& options, Tracer& tracer);

}  // namespace perfbench
