// Unit tests for the IF neuron population (snn/neuron.hpp).
#include "snn/neuron.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace resparc::snn {
namespace {

TEST(IfNeuron, AccumulatesBelowThreshold) {
  IfPopulation pop(1, {.v_threshold = 1.0});
  std::vector<float> current{0.4f};
  std::vector<std::uint8_t> spikes(1);
  EXPECT_EQ(pop.step(current, spikes), 0u);
  EXPECT_EQ(spikes[0], 0);
  EXPECT_FLOAT_EQ(pop.membrane(0), 0.4f);
}

TEST(IfNeuron, FiresAtThreshold) {
  IfPopulation pop(1, {.v_threshold = 1.0});
  std::vector<float> current{1.0f};
  std::vector<std::uint8_t> spikes(1);
  EXPECT_EQ(pop.step(current, spikes), 1u);
  EXPECT_EQ(spikes[0], 1);
}

TEST(IfNeuron, SubtractiveResetKeepsRemainder) {
  IfPopulation pop(1, {.v_threshold = 1.0, .subtractive_reset = true});
  std::vector<float> current{1.3f};
  std::vector<std::uint8_t> spikes(1);
  pop.step(current, spikes);
  EXPECT_NEAR(pop.membrane(0), 0.3f, 1e-6f);
}

TEST(IfNeuron, HardResetDiscardsRemainder) {
  IfPopulation pop(1, {.v_threshold = 1.0, .subtractive_reset = false});
  std::vector<float> current{1.7f};
  std::vector<std::uint8_t> spikes(1);
  pop.step(current, spikes);
  EXPECT_FLOAT_EQ(pop.membrane(0), 0.0f);
}

TEST(IfNeuron, RateProportionalToDrive) {
  // Subtractive reset: long-run rate = drive / threshold.
  IfPopulation pop(1, {.v_threshold = 1.0});
  std::vector<float> current{0.25f};
  std::vector<std::uint8_t> spikes(1);
  int fired = 0;
  for (int t = 0; t < 400; ++t) {
    pop.step(current, spikes);
    fired += spikes[0];
  }
  EXPECT_EQ(fired, 100);
}

TEST(IfNeuron, LeakReducesMembrane) {
  IfPopulation pop(1, {.v_threshold = 10.0, .leak_per_step = 0.1});
  std::vector<float> current{0.3f};
  std::vector<std::uint8_t> spikes(1);
  pop.step(current, spikes);
  EXPECT_NEAR(pop.membrane(0), 0.2f, 1e-6f);
  // Leak cannot take the membrane negative.
  std::vector<float> none{0.0f};
  for (int t = 0; t < 10; ++t) pop.step(none, spikes);
  EXPECT_GE(pop.membrane(0), 0.0f);
}

TEST(IfNeuron, IndependentNeurons) {
  IfPopulation pop(3, {.v_threshold = 1.0});
  std::vector<float> current{1.2f, 0.2f, 0.0f};
  std::vector<std::uint8_t> spikes(3);
  EXPECT_EQ(pop.step(current, spikes), 1u);
  EXPECT_EQ(spikes[0], 1);
  EXPECT_EQ(spikes[1], 0);
  EXPECT_EQ(spikes[2], 0);
}

TEST(IfNeuron, ShapeMismatchThrows) {
  IfPopulation pop(2, {});
  std::vector<float> current{1.0f};
  std::vector<std::uint8_t> spikes(2);
  EXPECT_THROW(pop.step(current, spikes), ShapeError);
}

TEST(IfNeuron, NegativeDriveNeverFires) {
  IfPopulation pop(1, {.v_threshold = 0.5});
  std::vector<float> current{-0.3f};
  std::vector<std::uint8_t> spikes(1);
  for (int t = 0; t < 20; ++t) EXPECT_EQ(pop.step(current, spikes), 0u);
  EXPECT_LT(pop.membrane(0), 0.0f);
}

// The scalar IF rule step() and step_packed() must reproduce: the
// branchy per-neuron loop both used before the update was vectorised.
std::size_t reference_step(const IfParams& p, std::vector<float>& membrane,
                           std::span<const float> current,
                           std::vector<std::uint8_t>& spikes) {
  const float vth = static_cast<float>(p.v_threshold);
  const float vreset = static_cast<float>(p.v_reset);
  const float leak = static_cast<float>(p.leak_per_step);
  std::size_t fired = 0;
  for (std::size_t i = 0; i < membrane.size(); ++i) {
    float v = membrane[i] + current[i];
    if (leak > 0.0f) v = v > leak ? v - leak : 0.0f;
    spikes[i] = 0;
    if (v >= vth) {
      spikes[i] = 1;
      ++fired;
      if (p.subtractive_reset) {
        v -= vth;
        if (v < vreset) v = vreset;
      } else {
        v = vreset;
      }
    }
    membrane[i] = v;
  }
  return fired;
}

TEST(IfNeuron, StepAndStepPackedMatchScalarReferenceInEveryRegime) {
  // 130 neurons = two full words plus a 2-bit tail.  v_reset > 0 makes
  // subtractive resets undershoot onto the floor; NaN and +-inf drive
  // fixed neurons.  Membranes are compared bit for bit (NaN included).
  constexpr std::size_t n = 130;
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(17);
  for (const double leak : {0.0, 0.15}) {
    for (const bool subtractive : {true, false}) {
      const IfParams params{.v_threshold = 0.8,
                            .v_reset = 0.25,
                            .subtractive_reset = subtractive,
                            .leak_per_step = leak};
      IfPopulation bytes_pop(n, params);
      IfPopulation words_pop(n, params);
      std::vector<float> reference(n, 0.0f);
      std::vector<std::uint8_t> want(n), got(n);
      SpikeVector words(n);
      for (std::size_t i = 0; i < n; ++i) words.set(i);  // stale bits
      for (int t = 0; t < 12; ++t) {
        std::vector<float> current(n);
        for (float& c : current) c = static_cast<float>(rng.uniform(-0.4, 1.2));
        current[3] = nan;
        current[64] = inf;
        current[65] = -inf;
        current[66] = t % 3 == 0 ? inf : -inf;  // inf - inf = NaN
        current[129] = t % 2 == 0 ? inf : 0.3f;
        const std::size_t fired =
            reference_step(params, reference, current, want);
        const std::string regime = std::string(leak > 0 ? "leak" : "no-leak") +
                                   (subtractive ? "/subtractive" : "/hard") +
                                   " t=" + std::to_string(t);
        EXPECT_EQ(bytes_pop.step(current, got), fired) << regime;
        EXPECT_EQ(words_pop.step_packed(current, words), fired) << regime;
        EXPECT_EQ(words.words()[2] >> 2, 0u) << regime;  // tail stays clean
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(std::bit_cast<std::uint32_t>(current[i]), 0u)
              << regime << " current " << i << " not consumed";
          ASSERT_EQ(got[i], want[i]) << regime << " neuron " << i;
          ASSERT_EQ(words.get(i), want[i] != 0) << regime << " neuron " << i;
          ASSERT_EQ(std::bit_cast<std::uint32_t>(bytes_pop.membrane(i)),
                    std::bit_cast<std::uint32_t>(reference[i]))
              << regime << " neuron " << i;
          ASSERT_EQ(std::bit_cast<std::uint32_t>(words_pop.membrane(i)),
                    std::bit_cast<std::uint32_t>(reference[i]))
              << regime << " neuron " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace resparc::snn
