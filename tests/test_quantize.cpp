// Unit tests for weight discretisation (snn/quantize.hpp).
#include "snn/quantize.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace resparc::snn {
namespace {

TEST(Quantize, OneBitIsSignTimesScale) {
  Matrix w(1, 4, std::vector<float>{0.9f, -0.9f, 0.3f, -0.0f});
  quantize_matrix(w, 1, 1.0f);
  EXPECT_FLOAT_EQ(w(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(w(0, 1), -1.0f);
  // |0.3| rounds to 0 at 1 bit (steps = 1, round(0.3) = 0).
  EXPECT_FLOAT_EQ(w(0, 2), 0.0f);
  EXPECT_FLOAT_EQ(w(0, 3), 0.0f);
}

TEST(Quantize, PreservesSign) {
  Rng rng(1);
  Matrix w(8, 8);
  for (float& v : w.flat()) v = static_cast<float>(rng.normal(0.0, 1.0));
  Matrix q = w;
  quantize_matrix(q, 4, 3.0f);
  for (std::size_t i = 0; i < w.size(); ++i) {
    const float orig = w.flat()[i];
    const float quant = q.flat()[i];
    if (quant != 0.0f) {
      EXPECT_EQ(std::signbit(orig), std::signbit(quant));
    }
  }
}

TEST(Quantize, EightBitsNearlyLossless) {
  Rng rng(2);
  Matrix w(16, 16);
  for (float& v : w.flat()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  const double mae = quantization_mae(w, 8, 1.0f);
  EXPECT_LT(mae, 1.0 / 255.0);
}

TEST(Quantize, ErrorMonotoneInBits) {
  Rng rng(3);
  Matrix w(32, 32);
  for (float& v : w.flat()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  double prev = 1e9;
  for (int bits : {1, 2, 4, 8}) {
    const double mae = quantization_mae(w, bits, 1.0f);
    EXPECT_LT(mae, prev);
    prev = mae;
  }
}

TEST(Quantize, ClampsBeyondScale) {
  Matrix w(1, 1, std::vector<float>{5.0f});
  quantize_matrix(w, 4, 1.0f);
  EXPECT_FLOAT_EQ(w(0, 0), 1.0f);
}

TEST(Quantize, ZeroScaleYieldsZeros) {
  Matrix w(1, 2, std::vector<float>{1.0f, -1.0f});
  quantize_matrix(w, 4, 0.0f);
  EXPECT_FLOAT_EQ(w(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(w(0, 1), 0.0f);
}

TEST(Quantize, RejectsBadBits) {
  Matrix w(1, 1);
  EXPECT_THROW(quantize_matrix(w, 0, 1.0f), ConfigError);
  EXPECT_THROW(quantize_matrix(w, 9, 1.0f), ConfigError);
}

class QuantizeBits : public ::testing::TestWithParam<int> {};

TEST_P(QuantizeBits, LevelsArePowerOfTwo) {
  // A fine ramp over [0, scale] quantises to exactly 2^bits distinct
  // magnitudes, from exact zero to exact full scale.
  const int bits = GetParam();
  Matrix ramp(1, 4097);
  for (int i = 0; i <= 4096; ++i)
    ramp(0, static_cast<std::size_t>(i)) = static_cast<float>(i) / 4096.0f;
  quantize_matrix(ramp, bits, 1.0f);
  EXPECT_EQ(ramp(0, 0), 0.0f);
  EXPECT_EQ(ramp(0, 4096), 1.0f);
  int distinct = 1;
  for (std::size_t i = 1; i < ramp.cols(); ++i) {
    EXPECT_GE(ramp(0, i), ramp(0, i - 1));
    if (ramp(0, i) != ramp(0, i - 1)) ++distinct;
  }
  EXPECT_EQ(distinct, 1 << bits);
}

INSTANTIATE_TEST_SUITE_P(AllPrecisions, QuantizeBits,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Quantize, NetworkQuantizesEveryTrainableLayer) {
  Topology topo("q", Shape3{1, 4, 4},
                {LayerSpec::conv(2, 3), LayerSpec::avg_pool(2),
                 LayerSpec::dense(3)});
  Network net(topo);
  Rng rng(4);
  net.init_random(rng, 1.0f);
  Network q = net;
  quantize_network(q, 2);
  // Conv and dense layers must change (coarse grid), pool has no weights.
  bool conv_changed = false, dense_changed = false;
  for (std::size_t i = 0; i < net.layer(0).weights.size(); ++i)
    conv_changed |= net.layer(0).weights.flat()[i] != q.layer(0).weights.flat()[i];
  for (std::size_t i = 0; i < net.layer(2).weights.size(); ++i)
    dense_changed |= net.layer(2).weights.flat()[i] != q.layer(2).weights.flat()[i];
  EXPECT_TRUE(conv_changed);
  EXPECT_TRUE(dense_changed);
  EXPECT_TRUE(q.layer(1).weights.empty());
}

TEST(Quantize, IdempotentAtSameBits) {
  Rng rng(5);
  Matrix w(8, 8);
  for (float& v : w.flat()) v = static_cast<float>(rng.uniform(-2.0, 2.0));
  Matrix q1 = w;
  quantize_matrix(q1, 4, 2.0f);
  Matrix q2 = q1;
  quantize_matrix(q2, 4, 2.0f);
  for (std::size_t i = 0; i < q1.size(); ++i)
    EXPECT_FLOAT_EQ(q1.flat()[i], q2.flat()[i]);
}

}  // namespace
}  // namespace resparc::snn
