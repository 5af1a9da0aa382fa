// Differential oracle of the execution stack (docs/execution.md).
//
// One fuzz case (snn/fuzz.hpp) is pushed through every path that claims
// bit-for-bit equivalence and the results are compared exactly:
//
//   * simulation — snn::Simulator (whichever branch each layer and step
//     takes) must agree spike-for-spike with reference_run, a naive
//     whole-network simulator kept here, on the full trace, every output
//     count and the total spike tally;
//   * replay — the "resparc-<mca>" accelerator's multi-trace execute()
//     must equal the per-trace execute_each reports reduced in trace
//     order (Pipeline::execute on two threads), field for field,
//     including every native counter.
//
// check_differential returns the first divergence as a human-readable
// string naming the seed, the paths compared and the field that split,
// so a fuzz failure is directly actionable.  tests/test_differential.cpp
// sweeps random seeds plus the regression corpus
// (tests/data/corpus/seeds.txt); tools/fuzz_topology drives bulk hunts.
#pragma once

#include <span>
#include <string>

#include "common/rng.hpp"
#include "snn/fuzz.hpp"
#include "snn/simulator.hpp"

namespace resparc::api {

/// Outcome of one differential run.
struct DifferentialResult {
  bool ok = true;      ///< every compared path agreed exactly
  std::string detail;  ///< first divergence ("seed=.. engine vs reference ..");
                       ///< empty when ok
};

/// Naive reference for snn::Simulator::run: the same encoder and RNG
/// stream, then per step and layer a zeroed current buffer that every
/// active input (ascending index) adds its weights into — no ScatterPlan,
/// no kernels — and the scalar IF rule over every neuron.  Slow and
/// obviously correct; the oracle the engine is checked against.
snn::SimResult reference_run(const snn::Network& net,
                             const snn::SimConfig& config,
                             std::span<const float> image, Rng& rng);

/// Runs `c` through the engine, the reference and both replay paths and
/// compares exactly.
/// Deterministic: the same case always produces the same verdict.
DifferentialResult check_differential(const snn::FuzzCase& c);

}  // namespace resparc::api
