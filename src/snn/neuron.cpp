#include "snn/neuron.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/kernels.hpp"

namespace resparc::snn {

namespace {

/// The IF rule over neurons [0, n): integrate, optional leak, threshold,
/// reset; fire[i] gets 0/1.  The regime is a template parameter, so the
/// body has no branch and vectorises.  Per neuron it is exactly the
/// scalar rule
///
///   v = m + c;  if (leak) v = v > leak ? v - leak : 0;
///   if (v >= vth) { fire; v = subtractive ? max(v - vth, vreset) : vreset; }
///
/// with std::max(a, b) = (a < b ? b : a), the "if (v < vreset) v =
/// vreset" floor.  The leak is written max(0, v - leak): with gradual
/// underflow v - leak > 0 exactly when v > leak (NaN and +-inf included),
/// so the two agree bit for bit, and unlike the compare-and-select form
/// GCC keeps it branch-free.
template <bool Leak, bool Subtractive>
void if_update(float* __restrict m, const float* __restrict cur,
               std::uint8_t* __restrict fire, std::size_t n, float vth,
               float vreset, float leak) {
  for (std::size_t i = 0; i < n; ++i) {
    float v = m[i] + cur[i];
    if constexpr (Leak) v = std::max(0.0f, v - leak);
    const bool f = v >= vth;
    const float reset = Subtractive ? std::max(v - vth, vreset) : vreset;
    m[i] = f ? reset : v;
    fire[i] = f;
  }
}

/// Runs if_update in the regime `p` selects.
void if_update(const IfParams& p, float* m, const float* cur,
               std::uint8_t* fire, std::size_t n) {
  const float vth = static_cast<float>(p.v_threshold);
  const float vreset = static_cast<float>(p.v_reset);
  const float leak = static_cast<float>(p.leak_per_step);
  if (leak > 0.0f) {
    if (p.subtractive_reset)
      if_update<true, true>(m, cur, fire, n, vth, vreset, leak);
    else
      if_update<true, false>(m, cur, fire, n, vth, vreset, leak);
  } else {
    if (p.subtractive_reset)
      if_update<false, true>(m, cur, fire, n, vth, vreset, leak);
    else
      if_update<false, false>(m, cur, fire, n, vth, vreset, leak);
  }
}

/// Packs up to 64 0/1 lanes into a word (lane j -> bit j).  Eight lanes
/// at a time: multiplying the 0/1 bytes b0..b7 of x by 0x0102040810204080
/// lands b_j on bit 56+j with no carries, so the top byte is the packed
/// group.
std::uint64_t pack_lanes(const std::uint8_t* lanes, std::size_t n) {
  std::uint64_t word = 0;
  for (std::size_t g = 0; g * 8 < n; ++g) {
    std::uint64_t x = 0;
    for (std::size_t j = 0; j < 8; ++j)
      x |= std::uint64_t{lanes[g * 8 + j]} << (8 * j);
    word |= ((x * 0x0102040810204080ull) >> 56) << (8 * g);
  }
  return word;
}

}  // namespace

std::size_t IfPopulation::step(std::span<const float> current,
                               std::span<std::uint8_t> spikes_out) {
  if (current.size() != membrane_.size() || spikes_out.size() != membrane_.size())
    throw ShapeError("IfPopulation::step: span size mismatch");
  if_update(params_, membrane_.data(), current.data(), spikes_out.data(),
            membrane_.size());
  std::size_t fired = 0;
  for (const std::uint8_t s : spikes_out) fired += s;
  return fired;
}

std::size_t IfPopulation::step_packed(std::span<const float> current,
                                      SpikeVector& out) {
  if (current.size() != membrane_.size() || out.size() != membrane_.size())
    throw ShapeError("IfPopulation::step_packed: size mismatch");
  std::size_t fired = 0;
  const std::size_t n = membrane_.size();
  for (std::size_t base = 0; base < n; base += 64) {
    const std::size_t chunk = std::min<std::size_t>(64, n - base);
    std::uint8_t lanes[64];
    if_update(params_, membrane_.data() + base, current.data() + base, lanes,
              chunk);
    // pack_lanes reads whole groups of eight lanes.
    std::fill(lanes + chunk, lanes + 64, std::uint8_t{0});
    const std::uint64_t word = pack_lanes(lanes, chunk);
    fired += kernels::popcount64(word);
    out.set_word(base >> 6, word);
  }
  return fired;
}

void IfPopulation::step_at(std::span<const std::uint32_t> indices,
                           std::span<const float> current,
                           std::vector<std::uint32_t>& fired_out,
                           std::vector<std::uint32_t>& hot_out) {
  if (current.size() != membrane_.size())
    throw ShapeError("IfPopulation::step_at: span size mismatch");
  const float vth = static_cast<float>(params_.v_threshold);
  const float vreset = static_cast<float>(params_.v_reset);
  for (const std::uint32_t i : indices) {
    // Same arithmetic as step(), minus the leak branch (callers guarantee
    // leak_per_step == 0, where skipping silent neurons is exact).
    float v = membrane_[i] + current[i];
    if (v >= vth) {
      fired_out.push_back(i);
      if (params_.subtractive_reset) {
        v -= vth;
        if (v < vreset) v = vreset;
      } else {
        v = vreset;
      }
      if (v >= vth) hot_out.push_back(i);
    }
    membrane_[i] = v;
  }
}

void IfPopulation::retain_hot(std::vector<std::uint32_t>& indices) const {
  const float vth = static_cast<float>(params_.v_threshold);
  std::erase_if(indices, [&](std::uint32_t i) { return !(membrane_[i] >= vth); });
}

void IfPopulation::reset() {
  membrane_.assign(membrane_.size(), static_cast<float>(params_.v_reset));
}

}  // namespace resparc::snn
