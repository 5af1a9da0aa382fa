#include "snn/neuron.hpp"

#include "common/error.hpp"
#include "common/kernels.hpp"

namespace resparc::snn {

namespace {

kernels::IfRule if_rule(const IfParams& p) {
  return {.v_threshold = static_cast<float>(p.v_threshold),
          .v_reset = static_cast<float>(p.v_reset),
          .leak = static_cast<float>(p.leak_per_step),
          .subtractive_reset = p.subtractive_reset};
}

/// kernels::if_fire over neurons [0, n), one 0/1 byte per neuron.
template <bool Leak, bool Subtractive>
void if_update(const kernels::IfRule& r, float* __restrict m,
               const float* __restrict cur, std::uint8_t* __restrict fire,
               std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    fire[i] = kernels::if_fire<Leak, Subtractive>(m[i], cur[i], r.v_threshold,
                                                  r.v_reset, r.leak);
}

}  // namespace

std::size_t IfPopulation::step(std::span<const float> current,
                               std::span<std::uint8_t> spikes_out) {
  if (current.size() != membrane_.size() || spikes_out.size() != membrane_.size())
    throw ShapeError("IfPopulation::step: span size mismatch");
  const kernels::IfRule r = if_rule(params_);
  float* m = membrane_.data();
  std::uint8_t* fire = spikes_out.data();
  const std::size_t n = membrane_.size();
  if (r.leak > 0.0f) {
    if (r.subtractive_reset)
      if_update<true, true>(r, m, current.data(), fire, n);
    else
      if_update<true, false>(r, m, current.data(), fire, n);
  } else {
    if (r.subtractive_reset)
      if_update<false, true>(r, m, current.data(), fire, n);
    else
      if_update<false, false>(r, m, current.data(), fire, n);
  }
  std::size_t fired = 0;
  for (const std::uint8_t s : spikes_out) fired += s;
  return fired;
}

std::size_t IfPopulation::step_packed(std::span<float> current,
                                      SpikeVector& out) {
  if (current.size() != membrane_.size() || out.size() != membrane_.size())
    throw ShapeError("IfPopulation::step_packed: size mismatch");
  return kernels::if_step_words(if_rule(params_), membrane_.data(),
                                current.data(),
                                out.words_for_overwrite().data(),
                                membrane_.size());
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

}  // namespace resparc::snn
