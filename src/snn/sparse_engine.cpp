#include "snn/sparse_engine.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "snn/scatter.hpp"

namespace resparc::snn {

SparseEngine::SparseEngine(const Network& net) : net_(net) {
  const Topology& topo = net.topology();
  state_.reserve(topo.layer_count());
  for (std::size_t l = 0; l < topo.layer_count(); ++l) {
    const LayerInfo& li = topo.layers()[l];
    const IfParams& p = net.layer(l).neuron;
    state_.emplace_back(li, p);
    LayerState& st = state_.back();
    // Any event into a fully connected layer drives every output column,
    // so per-column stamping is pure overhead there.
    st.all_touched = li.spec.kind == LayerKind::kDense;
    // Outside this regime a silent neuron still changes state (leak) or
    // can fire spontaneously (vth <= 0), so the population must be
    // stepped densely; accumulation stays sparse either way.
    st.dense_fallback = p.leak_per_step > 0.0 || p.v_threshold <= 0.0;
    // Byte scratch for the dense stepper, used by fallback layers every
    // step and by any layer on a saturated (full-drive) step.
    st.spike_bytes.assign(li.neurons, 0);
    switch (li.spec.kind) {
      case LayerKind::kDense:
        st.touches_per_event = li.neurons;
        break;
      case LayerKind::kConv:
        st.touches_per_event =
            li.spec.kernel * li.spec.kernel * li.out_shape.c;
        break;
      case LayerKind::kAvgPool:
        st.touches_per_event = 1;
        break;
    }
  }
}

template <bool Stamp>
void SparseEngine::accumulate(std::size_t l,
                              std::span<const std::uint32_t> in_active,
                              LayerState& st) {
  const LayerInfo& li = st.plan.layer();
  const Matrix& w = net_.layer(l).weights;

  // The stamp-free (full-drive) form IS the dense engine's scatter: both
  // run the shared kernels in snn/scatter.cpp, so dense/sparse parity is
  // structural rather than maintained across two loop nests.
  if constexpr (!Stamp) {
    scatter_accumulate(st.plan, w, in_active, st.current);
    return;
  }

  std::vector<float>& current = st.current;
  const std::uint32_t epoch = st.epoch;

  // Stamps `c` as touched.
  const auto touch = [&](std::size_t c) {
    if (st.stamp[c] != epoch) {
      st.stamp[c] = epoch;
      st.touched.push_back(static_cast<std::uint32_t>(c));
    }
  };

  // The stamped loops read the same ScatterPlan tables as snn/scatter.cpp
  // and keep its event order, so each output element sees the same plain
  // adds in the same order and the result is bit-for-bit identical to the
  // stamp-free path.  Only the traversal differs: stamped conv adds each
  // tap across channels straight into `current` instead of gathering.
  switch (li.spec.kind) {
    case LayerKind::kDense: {
      for (const std::uint32_t r : in_active) {
        const auto row = w.row(r);
        for (std::size_t c = 0; c < row.size(); ++c) current[c] += row[c];
      }
      break;
    }
    case LayerKind::kConv: {
      const Shape3 out = li.out_shape;
      const std::size_t plane = out.h * out.w;
      ChannelCursor cursor(li.in_shape.h * li.in_shape.w);
      for (const std::uint32_t idx : in_active) {
        st.plan.for_each_tap(
            idx, cursor, [&](std::size_t row, std::size_t pixel) {
              const auto kernels = w.row(row);
              for (std::size_t oc = 0; oc < out.c; ++oc) {
                const std::size_t at = oc * plane + pixel;
                touch(at);
                current[at] += kernels[oc];
              }
            });
      }
      break;
    }
    case LayerKind::kAvgPool: {
      const std::size_t p = li.spec.pool;
      const float share = 1.0f / static_cast<float>(p * p);
      for (const std::uint32_t idx : in_active) {
        const std::size_t at = st.plan.pool_target(idx);
        touch(at);
        current[at] += share;
      }
      break;
    }
  }
}

void SparseEngine::reset() {
  for (LayerState& st : state_) {
    st.pop.clear();
    // Only the bits named in `fired` can be set in `out` (step_layer
    // retires the previous step through the same list), so clearing via
    // the list restores the all-zero invariant without an O(words) wipe.
    for (const std::uint32_t i : st.fired) st.out.clear(i);
    st.fired.clear();
    st.hot.clear();
    st.touched.clear();
    // The all-zero `current` invariant already holds between steps, and
    // `stamp`/`epoch` are self-correcting (epoch strictly increases), so
    // nothing else needs touching.
  }
}

template void SparseEngine::accumulate<true>(
    std::size_t, std::span<const std::uint32_t>, LayerState&);
template void SparseEngine::accumulate<false>(
    std::size_t, std::span<const std::uint32_t>, LayerState&);

const SpikeVector& SparseEngine::step_layer(
    std::size_t l, std::span<const std::uint32_t> in_active,
    std::vector<std::uint32_t>& out_active, const SpikeVector* in_packed) {
  require(l < state_.size(), "sparse engine: layer out of range");
  LayerState& st = state_[l];
  ++st.epoch;

  // Retire the previous step's spikes so `out` can be rebuilt from the
  // fired list alone.
  for (const std::uint32_t i : st.fired) st.out.clear(i);
  st.fired.clear();
  st.touched.clear();
  out_active.clear();

  // A step saturates once the events' combined fan-out covers the
  // population: stamping would cost more than stepping everyone.
  const bool full_drive =
      !in_active.empty() &&
      (st.all_touched ||
       in_active.size() * st.touches_per_event >= st.current.size());
  if (!in_active.empty()) {
    if (full_drive) {
      // A saturated step visits every input event anyway; with the packed
      // words at hand, decode them inline (same ascending order as the
      // index list) instead of re-reading the AER indices.
      if (in_packed != nullptr)
        scatter_accumulate(st.plan, net_.layer(l).weights, *in_packed,
                           st.current);
      else
        accumulate<false>(l, in_active, st);
    } else {
      accumulate<true>(l, in_active, st);
    }
  }

  if (st.dense_fallback || full_drive) {
    // Either every membrane evolves every step (leak / zero threshold) or
    // the events cover the population anyway: run the dense, vectorizable
    // update over the buffer — a busy step never costs more than the
    // dense path.
    st.pop.step(st.current, st.spike_bytes);
    const float vth = static_cast<float>(st.pop.params().v_threshold);
    st.hot.clear();
    for (std::size_t i = 0; i < st.spike_bytes.size(); ++i) {
      if (!st.spike_bytes[i]) continue;
      const std::uint32_t idx = static_cast<std::uint32_t>(i);
      st.fired.push_back(idx);
      st.out.set(idx);
      out_active.push_back(idx);
      // A subtractive reset can leave a fired membrane at or above
      // threshold; the next (possibly sparse) step must revisit it.
      if (st.pop.membrane(i) >= vth) st.hot.push_back(idx);
    }
  } else {
    // Step set = touched columns ∪ hot carry-overs (a subtractive reset
    // can leave the membrane at or above threshold, in which case the
    // neuron fires again next step with no input at all).
    st.step_set.assign(st.touched.begin(), st.touched.end());
    for (const std::uint32_t i : st.hot)
      if (st.stamp[i] != st.epoch) st.step_set.push_back(i);
    st.hot.clear();
    st.pop.step_at(st.step_set, st.current, st.fired, st.hot);
    st.step_set.clear();
    for (const std::uint32_t i : st.fired) st.out.set(i);
    st.out.append_active(out_active);
  }

  // Restore the all-zero current invariant, clearing only what was
  // written.
  if (full_drive) {
    std::fill(st.current.begin(), st.current.end(), 0.0f);
  } else {
    for (const std::uint32_t i : st.touched) st.current[i] = 0.0f;
  }
  return st.out;
}

}  // namespace resparc::snn
