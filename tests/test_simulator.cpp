// Unit tests for the event-driven functional simulator (snn/simulator.hpp).
#include "snn/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "snn/benchmarks.hpp"
#include "snn/quantize.hpp"

namespace resparc::snn {
namespace {

/// A 2-input, 2-output single-layer net with hand weights.
Network tiny_dense() {
  Topology topo("tiny", Shape3{1, 1, 2}, {LayerSpec::dense(2)});
  Network net(topo);
  auto& w = net.layer(0).weights;
  w(0, 0) = 1.0f;  // input 0 -> output 0
  w(1, 1) = 1.0f;  // input 1 -> output 1
  net.layer(0).neuron.v_threshold = 1.0;
  return net;
}

SimConfig det_config(std::size_t T) {
  SimConfig cfg;
  cfg.timesteps = T;
  cfg.encoder.poisson = false;
  return cfg;
}

TEST(Simulator, IdentityLayerPassesSpikesThrough) {
  Network net = tiny_dense();
  Simulator sim(net, det_config(8));
  Rng rng(1);
  std::vector<float> img{1.0f, 0.0f};
  const SimResult r = sim.run(img, rng);
  // Input 0 spikes every step; weight 1 >= vth 1 -> output 0 fires each step.
  EXPECT_EQ(r.output_spike_counts[0], 8u);
  EXPECT_EQ(r.output_spike_counts[1], 0u);
  EXPECT_EQ(r.predicted_class, 0u);
}

TEST(Simulator, TraceShapeMatchesRun) {
  Network net = tiny_dense();
  Simulator sim(net, det_config(5));
  Rng rng(2);
  std::vector<float> img{1.0f, 1.0f};
  const SimResult r = sim.run(img, rng);
  ASSERT_EQ(r.trace.layer_count(), 2u);  // input + 1 layer
  EXPECT_EQ(r.trace.timesteps(), 5u);
  EXPECT_EQ(r.trace.layers[0][0].size(), 2u);
  EXPECT_EQ(r.trace.layers[1][0].size(), 2u);
}

TEST(Simulator, RecordTraceOffLeavesTraceEmpty) {
  Network net = tiny_dense();
  SimConfig cfg = det_config(5);
  cfg.record_trace = false;
  Simulator sim(net, cfg);
  Rng rng(3);
  std::vector<float> img{1.0f, 0.0f};
  const SimResult r = sim.run(img, rng);
  EXPECT_EQ(r.trace.layer_count(), 0u);
  EXPECT_EQ(r.output_spike_counts[0], 5u);  // classification still works
}

TEST(Simulator, HalfWeightHalvesRate) {
  Topology topo("t", Shape3{1, 1, 1}, {LayerSpec::dense(1)});
  Network net(topo);
  net.layer(0).weights(0, 0) = 0.5f;
  net.layer(0).neuron.v_threshold = 1.0;
  Simulator sim(net, det_config(40));
  Rng rng(4);
  std::vector<float> img{1.0f};
  const SimResult r = sim.run(img, rng);
  EXPECT_EQ(r.output_spike_counts[0], 20u);  // fires every other step
}

TEST(Simulator, InputSizeChecked) {
  Network net = tiny_dense();
  Simulator sim(net, det_config(4));
  Rng rng(5);
  std::vector<float> img{1.0f};  // wrong size
  EXPECT_THROW(sim.run(img, rng), ConfigError);
}

TEST(Simulator, ConvLayerMatchesManualConvolution) {
  // 1x3x3 input, one 3x3 'same' filter of all ones, threshold high enough
  // to never fire: membrane after 1 step = conv(input).
  Topology topo("c", Shape3{1, 3, 3}, {LayerSpec::conv(1, 3, true)});
  Network net(topo);
  for (std::size_t r = 0; r < 9; ++r) net.layer(0).weights(r, 0) = 1.0f;
  net.layer(0).neuron.v_threshold = 100.0;
  Simulator sim(net, det_config(1));
  Rng rng(6);
  // Single bright pixel at the centre -> after one step the centre output
  // receives exactly one contribution; all 9 outputs receive exactly 1.
  std::vector<float> img(9, 0.0f);
  img[4] = 1.0f;
  const SimResult r = sim.run(img, rng);
  EXPECT_EQ(r.trace.layers[1][0].count(), 0u);  // no fires (high vth)
  EXPECT_EQ(r.output_spike_counts[0] + r.output_spike_counts[4], 0u);
}

TEST(Simulator, ConvSpikesWhenDriveSufficient) {
  Topology topo("c", Shape3{1, 3, 3}, {LayerSpec::conv(1, 3, true)});
  Network net(topo);
  for (std::size_t r = 0; r < 9; ++r) net.layer(0).weights(r, 0) = 1.0f;
  net.layer(0).neuron.v_threshold = 1.0;
  Simulator sim(net, det_config(1));
  Rng rng(7);
  std::vector<float> img(9, 0.0f);
  img[4] = 1.0f;  // centre spikes; every output neuron sees weight 1
  const SimResult r = sim.run(img, rng);
  EXPECT_EQ(r.trace.layers[1][0].count(), 9u);  // all 9 outputs fire
}

TEST(Simulator, PoolAveragesSpatially) {
  Topology topo("p", Shape3{1, 2, 2}, {LayerSpec::avg_pool(2)});
  Network net(topo);
  net.layer(0).neuron.v_threshold = 1.0;
  Simulator sim(net, det_config(4));
  Rng rng(8);
  std::vector<float> img{1.0f, 1.0f, 1.0f, 1.0f};  // all 4 inputs spike/step
  const SimResult r = sim.run(img, rng);
  // Drive = 4 * 1/4 = 1 per step -> pool neuron fires every step.
  EXPECT_EQ(r.output_spike_counts[0], 4u);
}

TEST(Simulator, PoolQuarterDriveFiresQuarterRate) {
  Topology topo("p", Shape3{1, 2, 2}, {LayerSpec::avg_pool(2)});
  Network net(topo);
  net.layer(0).neuron.v_threshold = 1.0;
  Simulator sim(net, det_config(16));
  Rng rng(9);
  std::vector<float> img{1.0f, 0.0f, 0.0f, 0.0f};
  const SimResult r = sim.run(img, rng);
  EXPECT_EQ(r.output_spike_counts[0], 4u);  // 16 * 1/4
}

TEST(Simulator, TotalSpikesSumsAllLayers) {
  Network net = tiny_dense();
  Simulator sim(net, det_config(8));
  Rng rng(10);
  std::vector<float> img{1.0f, 1.0f};
  const SimResult r = sim.run(img, rng);
  EXPECT_EQ(r.total_spikes, 8u * 2u + 8u * 2u);  // inputs + outputs
}

/// A random-init small MNIST-CNN (conv, pool, conv, pool, dense, dense)
/// that fires in every layer.
Network small_cnn() {
  Network net(small_cnn_topology(DatasetKind::kMnistLike));
  Rng rng(8);
  net.init_random(rng, 1.0f);
  net.set_uniform_threshold(0.3);
  return net;
}

std::vector<float> random_image(const Network& net, Rng& rng) {
  std::vector<float> img(net.topology().input_shape().size());
  for (float& p : img) p = static_cast<float>(rng.uniform(0.0, 1.0));
  return img;
}

TEST(Simulator, RecordTraceOnAndOffAgreeAcrossReuse) {
  // With no trace the layers hand their spikes on through the reused
  // relay buffers instead; the results must not notice, presentation
  // after presentation, on busy input (stepped) and sparse input
  // (touched).
  const Network net = small_cnn();
  Rng irng(12);
  std::vector<std::vector<float>> images;
  for (int i = 0; i < 3; ++i) images.push_back(random_image(net, irng));
  for (const double rate : {1.0, 0.05}) {
    SimConfig on;
    on.timesteps = 7;
    on.encoder.max_rate = rate;
    SimConfig off = on;
    off.record_trace = false;
    Simulator traced(net, on), untraced(net, off);
    Rng r1(13), r2(13);
    SimResult a, b;
    for (const auto& img : images) {
      traced.run(img, r1, a);
      untraced.run(img, r2, b);
      EXPECT_EQ(a.trace.layer_count(), net.topology().layer_count() + 1);
      EXPECT_EQ(b.trace.layer_count(), 0u);
      EXPECT_EQ(a.output_spike_counts, b.output_spike_counts) << rate;
      EXPECT_EQ(a.predicted_class, b.predicted_class) << rate;
      EXPECT_EQ(a.total_spikes, b.total_spikes) << rate;
      EXPECT_GT(a.total_spikes, a.trace.layer_spike_count(0)) << rate;
    }
  }
}

TEST(Simulator, ConvWeightsAndThresholdsAreTakenAtFirstRun) {
  // The first run copies each layer's IF constants and each conv layer's
  // weights; dense weights are read in place on every step.
  Network net = small_cnn();
  Rng irng(14);
  const std::vector<float> img = random_image(net, irng);
  SimConfig cfg;
  cfg.timesteps = 6;
  Simulator sim(net, cfg);
  Rng r1(15);
  const SimResult first = sim.run(img, r1);
  ASSERT_GT(first.trace.layer_spike_count(1), 0u);

  // Silence conv1 through both its weights and its threshold: the
  // simulator that already ran does not see it, a new one does.
  for (float& w : net.layer(0).weights.flat()) w = 0.0f;
  net.layer(0).neuron.v_threshold = 1e9;
  Rng r2(15);
  const SimResult again = sim.run(img, r2);
  EXPECT_EQ(again.total_spikes, first.total_spikes);
  EXPECT_EQ(again.output_spike_counts, first.output_spike_counts);
  Rng r3(15);
  EXPECT_EQ(Simulator(net, cfg).run(img, r3).trace.layer_spike_count(1), 0u);

  // Layer 4 is dense: zeroing its weights silences it at once.
  const std::size_t dense = 4;
  ASSERT_EQ(net.topology().layers()[dense].spec.kind, LayerKind::kDense);
  ASSERT_GT(first.trace.layer_spike_count(dense + 1), 0u);
  for (float& w : net.layer(dense).weights.flat()) w = 0.0f;
  Rng r4(15);
  const SimResult dense_edit = sim.run(img, r4);
  EXPECT_EQ(dense_edit.trace.layer_spike_count(dense + 1), 0u);
  EXPECT_EQ(dense_edit.trace.layer_spike_count(1),
            first.trace.layer_spike_count(1));
}

TEST(Calibration, HitsTargetActivityOnRandomNet) {
  Topology topo("r", Shape3{1, 1, 64},
                {LayerSpec::dense(128), LayerSpec::dense(32)});
  Network net(topo);
  Rng rng(11);
  net.init_random(rng, 1.0f);
  std::vector<std::vector<float>> images;
  for (int i = 0; i < 4; ++i) {
    std::vector<float> img(64);
    for (auto& p : img) p = static_cast<float>(rng.uniform(0.0, 1.0));
    images.push_back(std::move(img));
  }
  SimConfig cfg = det_config(24);
  const double target = 0.10;
  calibrate_thresholds(net, images, cfg, rng, target);
  // Measure realised activity on the hidden layer.
  Simulator sim(net, cfg);
  double act = 0.0;
  for (const auto& img : images) {
    const SimResult r = sim.run(img, rng);
    act += r.trace.layer_activity(1);
  }
  act /= static_cast<double>(images.size());
  EXPECT_GT(act, 0.02);
  EXPECT_LT(act, 0.35);
}

TEST(Calibration, RejectsBadTarget) {
  Network net = tiny_dense();
  std::vector<std::vector<float>> images{{1.0f, 0.0f}};
  Rng rng(12);
  EXPECT_THROW(
      calibrate_thresholds(net, images, det_config(4), rng, 0.0),
      ConfigError);
  EXPECT_THROW(
      calibrate_thresholds(net, images, det_config(4), rng, 1.0),
      ConfigError);
}

/// select_kth_positive must return, bit for bit, what std::nth_element
/// places at k.
void expect_select_matches_nth_element(const std::vector<float>& values,
                                       std::size_t k) {
  std::vector<float> ref = values;
  std::nth_element(ref.begin(), ref.begin() + static_cast<std::ptrdiff_t>(k),
                   ref.end());
  EXPECT_EQ(std::bit_cast<std::uint32_t>(select_kth_positive(values, k)),
            std::bit_cast<std::uint32_t>(ref[k]))
      << "n=" << values.size() << " k=" << k;
}

/// The ranks worth checking: both ends, the middle and the calibration
/// quantile.
void expect_select_matches_at_edges(const std::vector<float>& values) {
  const std::size_t n = values.size();
  for (const std::size_t k : {std::size_t{0}, n / 2, n * 9 / 10, n - 1})
    expect_select_matches_nth_element(values, k);
}

TEST(SelectKthPositive, SingleValue) {
  expect_select_matches_nth_element({3.5f}, 0);
  expect_select_matches_nth_element({std::numeric_limits<float>::infinity()},
                                    0);
}

TEST(SelectKthPositive, TiesAndAllEqual) {
  expect_select_matches_at_edges(std::vector<float>(1000, 0.75f));
  // Few distinct values, many copies of each, in shuffled order.
  Rng rng(21);
  std::vector<float> ties(5000);
  for (auto& v : ties) v = 0.25f * static_cast<float>(1 + rng.below(4));
  for (std::size_t k = 0; k < ties.size(); k += 499)
    expect_select_matches_nth_element(ties, k);
  expect_select_matches_at_edges(ties);
}

TEST(SelectKthPositive, SubnormalsAndInfinity) {
  const float denorm = std::numeric_limits<float>::denorm_min();
  std::vector<float> values{std::numeric_limits<float>::infinity(),
                            denorm,
                            std::numeric_limits<float>::min(),
                            1e-40f,
                            std::numeric_limits<float>::max(),
                            2.0f * denorm,
                            std::numeric_limits<float>::infinity(),
                            1.0f,
                            denorm};
  for (std::size_t k = 0; k < values.size(); ++k)
    expect_select_matches_nth_element(values, k);
}

TEST(SelectKthPositive, MoreValuesThanOneHistogram) {
  Rng rng(22);
  // 200k values over many exponents, plus a dense cluster that shares its
  // 16 high bits so the second pass has to split one bucket finely.
  std::vector<float> values;
  for (int i = 0; i < 150000; ++i)
    values.push_back(static_cast<float>(rng.uniform(1e-6, 1e3)));
  const std::uint32_t base = std::bit_cast<std::uint32_t>(0.5f);
  for (int i = 0; i < 70000; ++i)
    values.push_back(std::bit_cast<float>(
        base | static_cast<std::uint32_t>(rng.below(1 << 16))));
  ASSERT_GT(values.size(), std::size_t{65536});
  expect_select_matches_at_edges(values);
  for (std::size_t k = 1; k < values.size(); k += 27361)
    expect_select_matches_nth_element(values, k);
}

TEST(SelectKthPositive, RejectsRankOutOfRange) {
  EXPECT_THROW(select_kth_positive(std::vector<float>{1.0f}, 1), ConfigError);
  EXPECT_THROW(select_kth_positive({}, 0), ConfigError);
}

TEST(Calibration, ThresholdsMatchNthElementReference) {
  Topology topo("cpcpd", Shape3{1, 12, 12},
                {LayerSpec::conv(4, 3), LayerSpec::avg_pool(2),
                 LayerSpec::conv(8, 3), LayerSpec::avg_pool(2),
                 LayerSpec::dense(10)});
  Network net(topo);
  Rng rng(31);
  net.init_random(rng, 1.0f);
  std::vector<std::vector<float>> images;
  for (int i = 0; i < 3; ++i) {
    std::vector<float> img(topo.input_shape().size());
    for (auto& p : img) p = static_cast<float>(rng.uniform(0.0, 1.0));
    images.push_back(std::move(img));
  }
  SimConfig cfg;
  cfg.timesteps = 16;  // Poisson encoding: every pass draws from the Rng
  const double target = 0.10;

  // The reference: every current collected, the positive ones copied out,
  // std::nth_element at the same rank, from a copy of the same Rng.
  Network ref_net = net;
  Rng ref_rng = rng;
  std::vector<double> expected;
  for (std::size_t l = 0; l < topo.layer_count(); ++l) {
    double vth = 0.5;
    if (topo.layers()[l].spec.kind != LayerKind::kAvgPool) {
      Simulator sim(ref_net, cfg);
      std::vector<float> samples;
      for (const auto& img : images)
        sim.observe_currents(img, ref_rng, l, samples);
      std::vector<float> pos;
      for (const float s : samples)
        if (s > 0.0f) pos.push_back(s);
      ASSERT_FALSE(pos.empty()) << "layer " << l;
      const std::size_t idx = std::min(
          pos.size() - 1, static_cast<std::size_t>(
                              (1.0 - target) * static_cast<double>(pos.size())));
      std::nth_element(pos.begin(),
                       pos.begin() + static_cast<std::ptrdiff_t>(idx),
                       pos.end());
      vth = std::max(1e-6, static_cast<double>(pos[idx]));
    }
    ref_net.layer(l).neuron.v_threshold = vth;
    expected.push_back(vth);
  }

  const std::vector<double> chosen =
      calibrate_thresholds(net, images, cfg, rng, target);
  ASSERT_EQ(chosen.size(), expected.size());
  for (std::size_t l = 0; l < chosen.size(); ++l) {
    EXPECT_EQ(chosen[l], expected[l]) << "layer " << l;
    EXPECT_EQ(net.layer(l).neuron.v_threshold, expected[l]) << "layer " << l;
  }
  // Both paths drew the same number of encodings.
  EXPECT_EQ(rng(), ref_rng());
}

TEST(EvaluateAccuracy, PerfectOnSeparableToy) {
  // Identity net: class = index of the bright pixel.
  Network net = tiny_dense();
  SimConfig cfg = det_config(8);
  std::vector<std::vector<float>> images{{1.0f, 0.0f}, {0.0f, 1.0f}};
  std::vector<int> labels{0, 1};
  Rng rng(13);
  EXPECT_DOUBLE_EQ(evaluate_accuracy(net, cfg, images, labels, rng), 1.0);
}

}  // namespace
}  // namespace resparc::snn
