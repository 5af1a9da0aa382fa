// Random-topology fuzz cases for the differential test layer.
//
// One seed deterministically expands into a complete, legal workload — a
// validated Topology (conv/pool/dense mixes with odd kernels, divisible
// pool windows and a dense classifier head), per-layer neuron parameters
// (random thresholds, occasional leak and hard-reset variants), an
// encoder configuration (Poisson or deterministic, variable max_rate as
// the sparsity lever) and one input image.  The differential harness
// (api/differential.hpp, tests/test_differential.cpp) runs each case
// through every execution engine and every replay path and demands
// bit-for-bit agreement; tools/fuzz_topology generates and verifies
// cases in bulk and prints the feature summary used to pick regression
// corpus seeds (tests/data/corpus/).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "snn/encoder.hpp"
#include "snn/network.hpp"
#include "snn/topology.hpp"

namespace resparc::snn {

/// Everything one differential run needs, expanded from a single seed.
struct FuzzCase {
  Topology topology;             ///< validated random layer stack
  std::uint64_t seed = 0;        ///< the generator seed (names the case)
  std::size_t timesteps = 6;     ///< presentation length
  std::size_t mca_size = 64;     ///< crossbar size of the replayed chip
  EncoderConfig encoder{};       ///< input encoding (max_rate = sparsity)
  std::vector<double> thresholds{};  ///< per-layer v_threshold
  double leak = 0.0;             ///< leak_per_step of non-pool layers
  bool subtractive = true;       ///< reset style of every layer
  float init_scale = 1.0f;       ///< weight init scale
  std::vector<float> image{};    ///< one input presentation, values in [0,1]

  /// One-line feature description ("seed=12 28x1x6x6 conv3+pool2+dense
  /// leak mca=128 T=7"), used by tools/fuzz_topology and the corpus notes.
  std::string summary() const;
};

/// Expands `seed` into a fuzz case.  Pure function of the seed: the same
/// seed always yields the same topology, parameters and image, so a seed
/// recorded in the regression corpus replays exactly.
FuzzCase make_fuzz_case(std::uint64_t seed);

/// Builds the runnable network of a case: random weights
/// (Network::init_random off a seed-derived stream) plus the case's
/// thresholds, leak and reset style applied per layer.
Network make_fuzz_network(const FuzzCase& c);

}  // namespace resparc::snn
