// Sparse, spike-event-driven execution engine (docs/execution.md).
//
// The dense simulator path touches every neuron of every layer on every
// timestep: it zero-fills a full current buffer, scans every input bit
// and steps the whole population into packed spike words — O(neurons)
// fixed cost per layer per step even when almost nothing spiked.  This
// engine replaces that inner loop with an AER-style event path:
//
//   * the previous layer's spikes arrive as an ascending active-index
//     list (SpikeVector::append_active), so silent inputs are never
//     visited;
//   * accumulation scatters each event through the layer's connectivity,
//     stamping the output columns it touches;
//   * only touched columns — plus "hot" neurons whose membrane stayed at
//     or above threshold after a subtractive reset — are stepped
//     (IfPopulation::step_at); everything else is provably inert when
//     leak_per_step == 0;
//   * the touched entries of the current buffer are cleared afterwards,
//     keeping the all-zero invariant without a full refill.
//
// The arithmetic and its ordering are identical to the dense path, so the
// produced spike trains are bit-for-bit the same (tests/
// test_sparse_execution.cpp enforces this across every bundled topology);
// wall-clock cost scales with spike events instead of network size, which
// is the executable form of the paper's section 3.2 event-driven lever.
// Layers outside the provably-inert regime (leak > 0, or a non-positive
// threshold) transparently fall back to the dense population step while
// keeping the sparse accumulation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "snn/network.hpp"
#include "snn/scatter.hpp"
#include "snn/trace.hpp"

namespace resparc::snn {

/// Event-driven executor for one presentation.  Construct per
/// presentation (like the dense path's per-run populations): the engine
/// snapshots the network's neuron parameters at construction, and the
/// network must outlive it.
class SparseEngine {
 public:
  /// Snapshots `net`'s neuron parameters and sizes the scratch state.
  explicit SparseEngine(const Network& net);

  /// Returns the engine to its just-constructed state (zero membranes,
  /// no pending spikes) without releasing any scratch storage — the
  /// allocation-free way to reuse one engine across presentations.
  /// Bit-for-bit equivalent to constructing a fresh engine.
  void reset();

  /// Runs one timestep of layer `l`.  `in_active` is the previous
  /// layer's ascending active-index list (its spikes in AER form); the
  /// returned vector (this layer's spikes) stays valid until the next
  /// step_layer call for the same layer.  `out_active` is cleared and
  /// refilled with the layer's ascending active list.  When `in_packed`
  /// names the same spikes in word form, a saturated (full-drive) step
  /// scatters straight from the packed words through the popcount/mask
  /// kernels (snn/scatter.hpp packed overload) instead of the index
  /// list — same event order, bit-for-bit identical currents.
  const SpikeVector& step_layer(std::size_t l,
                                std::span<const std::uint32_t> in_active,
                                std::vector<std::uint32_t>& out_active,
                                const SpikeVector* in_packed = nullptr);

  /// Spikes emitted by layer `l` in its most recent step.
  std::size_t last_fired(std::size_t l) const {
    return state_[l].fired.size();
  }

 private:
  struct LayerState {
    IfPopulation pop;                 ///< membranes (engine-owned)
    std::vector<float> current;       ///< all-zero between steps
    std::vector<std::uint32_t> touched;  ///< columns written this step
    std::vector<std::uint32_t> stamp;    ///< epoch marks backing `touched`
    std::vector<std::uint32_t> step_set;  ///< touched ∪ hot, deduplicated
    std::vector<std::uint32_t> fired;    ///< spikes of the latest step
    std::vector<std::uint32_t> hot;      ///< membrane >= vth after reset
    std::vector<std::uint8_t> spike_bytes;  ///< dense-fallback scratch
    SpikeVector out;                  ///< spikes of the latest step
    std::uint32_t epoch = 0;
    bool all_touched = false;  ///< dense layer: any event drives every column
    bool dense_fallback = false;  ///< leak > 0 or vth <= 0: step everyone
    /// Upper bound on columns one event can touch (kernel fan-out).  When
    /// events x touches would cover the population anyway, the engine
    /// saturates to a stamp-free full drive so a busy step never costs
    /// more than the dense path.
    std::size_t touches_per_event = 0;
    ScatterPlan plan;  ///< geometry tables + conv gather arena

    LayerState(const LayerInfo& li, const IfParams& params)
        : pop(li.neurons, params),
          current(li.neurons, 0.0f),
          stamp(li.neurons, 0),
          out(li.neurons),
          plan(li) {}
  };

  /// Scatters `in_active` through layer `l`'s connectivity into the
  /// current buffer.  Stamp=false is the full-drive variant (dense
  /// layers, or a saturated step): it compiles to the exact dense scatter
  /// loop with no per-write bookkeeping, so a busy step never pays for
  /// sparsity it does not have.
  template <bool Stamp>
  void accumulate(std::size_t l, std::span<const std::uint32_t> in_active,
                  LayerState& st);

  const Network& net_;
  std::vector<LayerState> state_;
};

}  // namespace resparc::snn
