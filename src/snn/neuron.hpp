// Integrate-and-Fire neuron model (paper section 2.1, Fig. 1(c)).
//
// The neuron accumulates weighted input current onto its membrane potential
// and emits a spike when the potential crosses the threshold.  Reset is by
// threshold subtraction ("soft reset"), the variant the Diehl et al.
// conversion algorithm assumes, because it preserves rate proportionality
// across layers.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "snn/trace.hpp"

namespace resparc::snn {

/// Parameters of one layer's IF population.
struct IfParams {
  double v_threshold = 1.0;  ///< firing threshold
  double v_reset = 0.0;      ///< floor used when subtractive reset undershoots
  bool subtractive_reset = true;  ///< subtract vth on fire (vs reset to v_reset)
  double leak_per_step = 0.0;     ///< optional leak subtracted every step (>= 0)
};

/// State and update rule of a population of IF neurons.
class IfPopulation {
 public:
  IfPopulation(std::size_t size, IfParams params)
      : params_(params), membrane_(size, 0.0f) {}

  std::size_t size() const { return membrane_.size(); }
  const IfParams& params() const { return params_; }

  /// Integrates `current` (one value per neuron) and writes 0/1 spikes.
  /// Returns the number of neurons that fired.  The update loop is
  /// branch-free (the leak/reset regime is fixed before it), so it
  /// vectorises.
  std::size_t step(std::span<const float> current,
                   std::span<std::uint8_t> spikes_out);

  /// Packed variant of step(): the same rule, run by
  /// kernels::if_step_words, which builds each 64-neuron spike word
  /// straight from the compare masks and stores it once — the producer
  /// side of the packed datapath (docs/performance.md).  `out` must be
  /// sized to the population;
  /// every word is fully overwritten, so no stale bit survives from a
  /// previous step.  The step consumes `current`: every value is +0.0f
  /// on return, ready for the next step's scatter.  Returns the number
  /// of neurons that fired.
  /// Bit-for-bit the same spikes and membranes as step()
  /// (tests/test_neuron.cpp, tests/test_differential.cpp).
  std::size_t step_packed(std::span<float> current, SpikeVector& out);

  /// Sparse variant of step(): integrates `current` for just the neurons
  /// named in `indices` (which must be duplicate-free) and appends every
  /// firing index to `fired_out`.  A stepped neuron whose post-step
  /// membrane still sits at or above threshold is appended to `hot_out`:
  /// under subtractive reset it fires again next step even with zero
  /// input, so the caller must re-step it.  Bit-for-bit equivalent to
  /// step() only when leak_per_step == 0 and v_threshold > 0 — the regime
  /// where un-stepped silent neurons are provably inert; the simulator's
  /// touched branch (snn/simulator.hpp) runs only there.
  void step_at(std::span<const std::uint32_t> indices,
               std::span<const float> current,
               std::vector<std::uint32_t>& fired_out,
               std::vector<std::uint32_t>& hot_out);

  /// Drops from `indices` every neuron whose membrane sits below
  /// threshold, keeping the order — applied to the neurons that fired in
  /// a step() / step_packed(), it leaves the hot set step_at() would have
  /// reported (a neuron that did not fire ends the step below threshold).
  void retain_hot(std::vector<std::uint32_t>& indices) const;

  /// Zeroes all membranes — the state a freshly constructed population
  /// starts from.  Reusing a population across presentations with
  /// clear() is bit-for-bit identical to constructing a new one (the
  /// allocation-free steady state relies on this).
  void clear() { membrane_.assign(membrane_.size(), 0.0f); }

  /// Membrane potential of neuron `i` (for tests and the examples).
  float membrane(std::size_t i) const { return membrane_[i]; }

 private:
  IfParams params_;
  std::vector<float> membrane_;
};

}  // namespace resparc::snn
