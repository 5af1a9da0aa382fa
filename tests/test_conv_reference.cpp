// Cross-implementation equivalence: the event-driven scatter propagation
// in snn::Simulator and the gather-style dense forward in train::Ann are
// written independently; on binary inputs with identical weights they
// must produce identical layer drive.  This is the strongest correctness
// anchor for the convolution/pool arithmetic.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "snn/network.hpp"
#include "snn/scatter.hpp"
#include "snn/simulator.hpp"
#include "train/ann.hpp"

namespace resparc {
namespace {

using snn::LayerKind;
using snn::LayerSpec;
using snn::Topology;

/// One-step drive comparison: present a binary image for a single
/// timestep with huge thresholds (nothing fires), then compare the
/// membrane potentials against the ANN's linear pre-activations.
void expect_drive_matches(const Topology& topo, std::uint64_t seed) {
  snn::Network net(topo);
  train::Ann ann(topo);
  Rng rng(seed);
  ann.init_he(rng);
  for (std::size_t l = 0; l < topo.layer_count(); ++l) {
    net.layer(l).weights = ann.weights(l);
    net.layer(l).neuron.v_threshold = 1e9;  // never fire
  }

  // Binary input (0/1 pixels) so rate encoding at max_rate=1 is exact in
  // one deterministic step.
  std::vector<float> image(topo.input_shape().size());
  Rng img_rng(seed + 99);
  for (auto& p : image) p = img_rng.bernoulli(0.4) ? 1.0f : 0.0f;

  snn::SimConfig cfg;
  cfg.timesteps = 1;
  cfg.encoder.poisson = false;
  snn::Simulator sim(net, cfg);
  const snn::SimResult result = sim.run(image, rng);

  // First layer drive == ANN layer-0 pre-activation on the same binary
  // input.  (Deterministic encoder with phase 0.5 emits a spike in step 0
  // exactly for pixels with intensity 1.0 — verify that first.)
  for (std::size_t i = 0; i < image.size(); ++i)
    ASSERT_EQ(result.trace.layers[0][0].get(i), image[i] == 1.0f);

  // Layer-0 drive: scatter the step-0 input events through the engine's
  // own tables, then compare it with the ANN's layer-0 output.
  const train::ForwardPass pass = ann.forward(image);
  std::vector<float> drive(topo.layers()[0].neurons, 0.0f);
  {
    snn::ScatterPlan plan(topo.layers()[0], net.layer(0).weights);
    snn::scatter_accumulate(plan, result.trace.layers[0][0], drive);
  }
  // ANN pre-activation of layer 0 equals post-activation when no ReLU is
  // applied... the recorded activations are post-ReLU for hidden layers,
  // so compare only where the value is positive, and check clamped zeros
  // correspond to non-positive drive.
  const auto& ann_out = pass.activations[1];
  const bool relu_applied =
      topo.layer_count() > 1 && topo.layers()[0].spec.kind != LayerKind::kAvgPool;
  for (std::size_t i = 0; i < drive.size(); ++i) {
    if (!relu_applied || ann_out[i] > 0.0f) {
      EXPECT_NEAR(drive[i], ann_out[i], 1e-4f) << "neuron " << i;
    } else {
      EXPECT_LE(drive[i], 1e-6f) << "neuron " << i;
    }
  }
}

struct ShapeCase {
  const char* name;
  Topology topo;
};

class ConvReference : public ::testing::TestWithParam<int> {};

TEST_P(ConvReference, ScatterEqualsGather) {
  const int which = GetParam();
  switch (which) {
    case 0:
      expect_drive_matches(
          Topology("dense", Shape3{1, 1, 40}, {LayerSpec::dense(17)}), 1);
      break;
    case 1:
      expect_drive_matches(
          Topology("conv-same", Shape3{3, 9, 9},
                   {LayerSpec::conv(5, 3, true), LayerSpec::dense(4)}),
          2);
      break;
    case 2:
      expect_drive_matches(
          Topology("conv-valid", Shape3{2, 11, 11},
                   {LayerSpec::conv(4, 5, false), LayerSpec::dense(3)}),
          3);
      break;
    case 3:
      expect_drive_matches(
          Topology("pool", Shape3{4, 8, 8}, {LayerSpec::avg_pool(2)}), 4);
      break;
    case 4:
      expect_drive_matches(
          Topology("conv-k7", Shape3{1, 14, 14},
                   {LayerSpec::conv(6, 7, true), LayerSpec::dense(2)}),
          5);
      break;
    case 5:
      expect_drive_matches(
          Topology("wide-dense", Shape3{1, 4, 64}, {LayerSpec::dense(90)}), 6);
      break;
    default:
      FAIL();
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ConvReference, ::testing::Range(0, 6));

TEST(ConvReference, MultiStepRateConsistency) {
  // Over T deterministic steps with subtractive reset, a single dense
  // neuron's spike count equals floor of accumulated drive / threshold.
  Topology topo("rate", Shape3{1, 1, 8}, {LayerSpec::dense(1)});
  snn::Network net(topo);
  for (std::size_t r = 0; r < 8; ++r) net.layer(0).weights(r, 0) = 0.11f;
  net.layer(0).neuron.v_threshold = 1.0;
  snn::SimConfig cfg;
  cfg.timesteps = 50;
  cfg.encoder.poisson = false;
  snn::Simulator sim(net, cfg);
  Rng rng(7);
  std::vector<float> image(8, 1.0f);  // all inputs spike every step
  const snn::SimResult r = sim.run(image, rng);
  // drive per step = 8 * 0.11 = 0.88 -> after 50 steps: floor(44.0) spikes.
  EXPECT_EQ(r.output_spike_counts[0], 44u);
}

}  // namespace
}  // namespace resparc
