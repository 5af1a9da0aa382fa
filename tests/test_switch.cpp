// Unit tests for the programmable switch (core/switch.hpp).
#include "core/switch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>

#include "common/rng.hpp"

namespace resparc::core {
namespace {

/// The per-flit switch the closed-form pass() replaced, kept as its
/// reference: a transfer offers its zero flits and then its non-zero
/// flits to a FIFO one at a time (the zero-check drops zero payloads),
/// then drains the FIFO.
struct PerFlitSwitch {
  bool zero_check;
  std::deque<std::uint64_t> queue;
  SwitchCounters counters;

  void offer(std::uint64_t payload) {
    if (zero_check && payload == 0) {
      ++counters.dropped_zero;
      return;
    }
    queue.push_back(payload);
    counters.buffered_max = std::max(counters.buffered_max, queue.size());
  }

  std::size_t pass(std::size_t sent, std::size_t zeros) {
    for (std::size_t w = 0; w < zeros; ++w) offer(0);
    for (std::size_t w = 0; w < sent; ++w) offer(1);
    std::size_t traversed = 0;
    for (; !queue.empty(); queue.pop_front()) {
      ++counters.forwarded;
      ++traversed;
    }
    return traversed;
  }
};

void expect_counters_equal(const SwitchCounters& a, const SwitchCounters& b) {
  EXPECT_EQ(a.forwarded, b.forwarded);
  EXPECT_EQ(a.dropped_zero, b.dropped_zero);
  EXPECT_EQ(a.buffered_max, b.buffered_max);
}

TEST(Switch, ForwardsNonZeroPackets) {
  ProgrammableSwitch sw(/*zero_check=*/true);
  EXPECT_EQ(sw.pass(1, 0), 1u);
  EXPECT_EQ(sw.counters().forwarded, 1u);
  EXPECT_EQ(sw.counters().dropped_zero, 0u);
}

TEST(Switch, ZeroCheckDropsAllZeroPackets) {
  // Section 3.2: "zero-check logic ... prevents data transfers resulting
  // from insignificant spike-packets".
  ProgrammableSwitch sw(true);
  EXPECT_EQ(sw.pass(0, 1), 0u);
  EXPECT_EQ(sw.counters().dropped_zero, 1u);
  EXPECT_EQ(sw.counters().forwarded, 0u);
  EXPECT_EQ(sw.counters().buffered_max, 0u);
}

TEST(Switch, ZeroCheckDisabledForwardsEverything) {
  ProgrammableSwitch sw(false);
  EXPECT_EQ(sw.pass(2, 3), 5u);
  EXPECT_EQ(sw.counters().forwarded, 5u);
  EXPECT_EQ(sw.counters().dropped_zero, 0u);
}

TEST(Switch, EmptyTransferChangesNothing) {
  for (const bool zero_check : {true, false}) {
    ProgrammableSwitch sw(zero_check);
    EXPECT_EQ(sw.pass(0, 0), 0u);
    expect_counters_equal(sw.counters(), SwitchCounters{});
  }
}

TEST(Switch, HighWaterMarkTracksQueue) {
  // Each transfer drains before the next, so the mark is the largest
  // single burst, not the running total.
  ProgrammableSwitch sw(false);
  sw.pass(3, 0);
  EXPECT_EQ(sw.counters().buffered_max, 3u);
  sw.pass(1, 1);
  EXPECT_EQ(sw.counters().buffered_max, 3u);
  sw.pass(2, 2);
  EXPECT_EQ(sw.counters().buffered_max, 4u);
}

TEST(Switch, ResetCounters) {
  ProgrammableSwitch sw(true);
  sw.pass(7, 2);
  sw.reset_counters();
  expect_counters_equal(sw.counters(), SwitchCounters{});
}

TEST(Switch, ClosedFormMatchesPerFlitQueue) {
  // Random transfer sequences, each on a fresh switch with a random
  // zero-check setting; counts straddle zero and the ~640 words of the
  // paper-scale CNN's widest layer output.  Every counter, the high-water
  // mark included, must equal the per-flit loop's after every transfer.
  Rng rng(29);
  for (int sequence = 0; sequence < 200; ++sequence) {
    const bool zero_check = rng.bernoulli(0.5);
    ProgrammableSwitch sw(zero_check);
    PerFlitSwitch ref{zero_check, {}, {}};
    const std::uint64_t transfers = 1 + rng.below(16);
    for (std::uint64_t t = 0; t < transfers; ++t) {
      const std::size_t sent = rng.bernoulli(0.2) ? 0 : rng.below(700);
      const std::size_t zeros = rng.bernoulli(0.2) ? 0 : rng.below(700);
      ASSERT_EQ(sw.pass(sent, zeros), ref.pass(sent, zeros))
          << "sequence " << sequence << " transfer " << t;
      expect_counters_equal(sw.counters(), ref.counters);
    }
  }
}

}  // namespace
}  // namespace resparc::core
