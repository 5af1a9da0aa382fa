// Unit tests for packed spike vectors and traces (snn/trace.hpp).
#include "snn/trace.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace resparc::snn {
namespace {

TEST(SpikeVector, SetAndGet) {
  SpikeVector v(100);
  EXPECT_FALSE(v.get(63));
  v.set(63);
  v.set(64);
  EXPECT_TRUE(v.get(63));
  EXPECT_TRUE(v.get(64));
  EXPECT_FALSE(v.get(65));
}

TEST(SpikeVector, WordCountRoundsUp) {
  EXPECT_EQ(SpikeVector(1).word_count(), 1u);
  EXPECT_EQ(SpikeVector(64).word_count(), 1u);
  EXPECT_EQ(SpikeVector(65).word_count(), 2u);
  EXPECT_EQ(SpikeVector(0).word_count(), 0u);
}

TEST(SpikeVector, CountPopulation) {
  SpikeVector v(130);
  v.set(0);
  v.set(64);
  v.set(129);
  EXPECT_EQ(v.count(), 3u);
  EXPECT_FALSE(v.none());
}

TEST(SpikeVector, NoneOnEmpty) {
  SpikeVector v(70);
  EXPECT_TRUE(v.none());
}

TEST(SpikeVector, FromBytesMatches) {
  std::vector<std::uint8_t> bytes{1, 0, 0, 1, 1};
  const SpikeVector v = SpikeVector::from_bytes(bytes);
  EXPECT_EQ(v.size(), 5u);
  EXPECT_TRUE(v.get(0));
  EXPECT_FALSE(v.get(1));
  EXPECT_TRUE(v.get(3));
  EXPECT_TRUE(v.get(4));
  EXPECT_EQ(v.count(), 3u);
}

TEST(SpikeVector, CountRangeWithinWord) {
  SpikeVector v(64);
  v.set(3);
  v.set(10);
  v.set(20);
  EXPECT_EQ(v.count_range(0, 64), 3u);
  EXPECT_EQ(v.count_range(4, 20), 1u);   // only bit 10
  EXPECT_EQ(v.count_range(10, 11), 1u);
  EXPECT_EQ(v.count_range(11, 20), 0u);
}

TEST(SpikeVector, CountRangeAcrossWords) {
  SpikeVector v(200);
  v.set(63);
  v.set(64);
  v.set(127);
  v.set(128);
  EXPECT_EQ(v.count_range(63, 129), 4u);
  EXPECT_EQ(v.count_range(64, 128), 2u);
  EXPECT_EQ(v.count_range(0, 200), 4u);
}

TEST(SpikeVector, CountRangeClampsEnd) {
  SpikeVector v(10);
  v.set(9);
  EXPECT_EQ(v.count_range(5, 1000), 1u);
  EXPECT_EQ(v.count_range(10, 20), 0u);
  EXPECT_EQ(v.count_range(7, 7), 0u);
}

TEST(SpikeVector, NoneInRange) {
  SpikeVector v(128);
  v.set(100);
  EXPECT_TRUE(v.none_in_range(0, 100));
  EXPECT_FALSE(v.none_in_range(100, 101));
  EXPECT_TRUE(v.none_in_range(101, 128));
}

TEST(SpikeVector, TrailingBitsStayZero) {
  SpikeVector v(65);
  v.set(64);
  // Only one bit of the second word may be set; count must be exact.
  EXPECT_EQ(v.count(), 1u);
  EXPECT_EQ(v.words().size(), 2u);
  EXPECT_EQ(v.words()[1], 1u);
}

// Regression for the packed datapath's tail invariant: a full word
// stored into the last (partial) word must have its out-of-range bits
// masked BEFORE the store, or stale bits leak into count() /
// append_active() / words() consumers.
TEST(SpikeVector, SetWordMasksTailBits) {
  SpikeVector v(70);  // 6 valid bits in word 1
  v.set_word(1, ~std::uint64_t{0});
  EXPECT_EQ(v.words()[1], 0x3fu);
  EXPECT_EQ(v.count(), 6u);
  std::vector<std::uint32_t> active;
  v.append_active(active);
  ASSERT_EQ(active.size(), 6u);
  EXPECT_EQ(active.front(), 64u);
  EXPECT_EQ(active.back(), 69u);

  // A full word within range stores unmasked.
  v.set_word(0, ~std::uint64_t{0});
  EXPECT_EQ(v.words()[0], ~std::uint64_t{0});
  EXPECT_EQ(v.count(), 70u);

  // Exactly-full tail word: no masking either.
  SpikeVector full(128);
  full.set_word(1, ~std::uint64_t{0});
  EXPECT_EQ(full.count(), 64u);
}

TEST(SpikeTrace, ActivityAndCounts) {
  SpikeTrace trace;
  trace.layers.resize(2);
  for (int t = 0; t < 4; ++t) {
    SpikeVector a(10), b(10);
    if (t % 2 == 0) a.set(0);
    b.set(1);
    b.set(2);
    trace.layers[0].push_back(a);
    trace.layers[1].push_back(b);
  }
  EXPECT_EQ(trace.timesteps(), 4u);
  EXPECT_EQ(trace.layer_count(), 2u);
  EXPECT_EQ(trace.layer_spike_count(0), 2u);
  EXPECT_EQ(trace.layer_spike_count(1), 8u);
  EXPECT_DOUBLE_EQ(trace.layer_activity(0), 2.0 / 40.0);
  EXPECT_DOUBLE_EQ(trace.layer_activity(1), 8.0 / 40.0);
}

}  // namespace
}  // namespace resparc::snn
