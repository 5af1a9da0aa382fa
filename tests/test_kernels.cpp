// Property tests for the shared kernel layer (common/kernels.hpp): every
// blocked/vectorizable kernel is compared against a naive scalar
// reference loop, bit-for-bit, across odd shapes — non-multiple-of-block
// sizes, k=1/3/5 convolutions, padded and unpadded.  Bit-for-bit is the
// right bar (not EXPECT_NEAR): the kernels' contract is a FIXED
// accumulation order, which is what keeps the simulator's stepped and
// touched branches identical and runs thread-count invariant.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/kernels.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "snn/benchmarks.hpp"
#include "snn/network.hpp"
#include "snn/scatter.hpp"
#include "snn/simulator.hpp"
#include "snn/topology.hpp"

namespace resparc {
namespace {

using snn::LayerSpec;
using snn::Topology;

std::vector<float> random_vec(std::size_t n, Rng& rng, double lo = -1.0,
                              double hi = 1.0) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(lo, hi));
  return v;
}

TEST(Kernels, Popcount64MatchesStdPopcount) {
  // Either branch of popcount64 (std::popcount under __POPCNT__, the SWAR
  // count otherwise) must agree with std::popcount on every word.
  std::vector<std::uint64_t> words = {0, ~std::uint64_t{0},
                                      0x5555555555555555ull,
                                      0xaaaaaaaaaaaaaaaaull,
                                      0x3333333333333333ull,
                                      0x0f0f0f0f0f0f0f0full,
                                      0x00ff00ff00ff00ffull,
                                      0x00000000ffffffffull};
  for (unsigned b = 0; b < 64; ++b) {
    words.push_back(std::uint64_t{1} << b);
    words.push_back(~(std::uint64_t{1} << b));
  }
  Rng rng(15);
  for (int i = 0; i < 10000; ++i) words.push_back(rng());
  for (const std::uint64_t w : words)
    ASSERT_EQ(kernels::popcount64(w), static_cast<unsigned>(std::popcount(w)))
        << std::hex << w;
}

TEST(Kernels, RowAdd4MatchesSequentialRowAddsBitForBit) {
  Rng rng(1);
  for (const std::size_t n : {1u, 3u, 4u, 7u, 16u, 63u, 100u}) {
    const auto r0 = random_vec(n, rng), r1 = random_vec(n, rng),
               r2 = random_vec(n, rng), r3 = random_vec(n, rng);
    auto a = random_vec(n, rng);
    auto b = a;
    kernels::row_add(a.data(), r0.data(), n);
    kernels::row_add(a.data(), r1.data(), n);
    kernels::row_add(a.data(), r2.data(), n);
    kernels::row_add(a.data(), r3.data(), n);
    kernels::row_add4(b.data(), r0.data(), r1.data(), r2.data(), r3.data(), n);
    EXPECT_EQ(a, b) << "n=" << n;
  }
}

TEST(Kernels, AccumulateRowsMatchesPerRowLoopBitForBit) {
  Rng rng(2);
  for (const std::size_t cols : {1u, 5u, 64u, 97u}) {
    for (const std::size_t count : {0u, 1u, 3u, 4u, 5u, 8u, 9u, 17u}) {
      Matrix w(32, cols);
      for (float& v : w.flat()) v = static_cast<float>(rng.normal(0.0, 1.0));
      std::vector<std::uint32_t> rows;
      for (std::size_t i = 0; i < count; ++i)
        rows.push_back(static_cast<std::uint32_t>(rng.below(32)));

      std::vector<float> naive(cols, 0.0f);
      for (const std::uint32_t r : rows) {
        const auto row = w.row(r);
        for (std::size_t c = 0; c < cols; ++c) naive[c] += row[c];
      }
      std::vector<float> fast(cols, 0.0f);
      kernels::accumulate_rows(w.flat().data(), cols, cols, rows, fast.data());
      EXPECT_EQ(naive, fast) << "cols=" << cols << " count=" << count;
    }
  }
}

TEST(Kernels, AccumulateRowsColumnSliceMatchesFullRun) {
  // The within-trace partitioning contract: a column slice accumulated
  // with the matrix stride equals the same columns of the full run.
  Rng rng(3);
  const std::size_t cols = 53;
  Matrix w(24, cols);
  for (float& v : w.flat()) v = static_cast<float>(rng.normal(0.0, 1.0));
  std::vector<std::uint32_t> rows{1, 5, 5, 9, 20, 23};
  std::vector<float> full(cols, 0.0f);
  kernels::accumulate_rows(w.flat().data(), cols, cols, rows, full.data());
  std::vector<float> sliced(cols, 0.0f);
  const std::size_t cut = 17;
  kernels::accumulate_rows(w.flat().data(), cols, cut, rows, sliced.data());
  kernels::accumulate_rows(w.flat().data() + cut, cols, cols - cut, rows,
                           sliced.data() + cut);
  EXPECT_EQ(full, sliced);
}

constexpr float kZero = 0.0f;

/// Bitwise equality: unlike operator==, tells +0.0f from -0.0f, so an
/// output the scatter must leave untouched cannot pass as a written zero.
bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// The dispatched kernels run the widest clone this CPU supports (on an
// AVX2 host the x86-64-v3 one); the inline bodies below are compiled at
// this translation unit's baseline ISA — the code of the default clone.
// The two must agree bit for bit, so results never depend on the host.
TEST(Kernels, DispatchedAccumulateRowsMatchesBaselineBody) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(16);
  // 52 and 64 are the MNIST-CNN conv gather widths; 37 leaves a tail at
  // every vector width.  A stride wider than cols reads a column slice.
  for (const std::size_t cols : {52u, 64u, 37u}) {
    for (const std::size_t stride : {cols, cols + 11}) {
      for (const std::size_t count : {0u, 1u, 3u, 4u, 7u, 9u, 25u}) {
        Matrix w(40, stride);
        for (float& v : w.flat()) v = static_cast<float>(rng.normal(0.0, 1.0));
        w.flat()[3] = nan;
        w.flat()[stride + 5] = inf;
        w.flat()[2 * stride + 5] = -inf;
        std::vector<std::uint32_t> rows;
        for (std::size_t i = 0; i < count; ++i)
          rows.push_back(static_cast<std::uint32_t>(rng.below(40)));
        auto dispatched = random_vec(cols, rng);
        auto baseline = dispatched;
        kernels::accumulate_rows(w.flat().data(), stride, cols, rows,
                                 dispatched.data());
        kernels::accumulate_rows_body(w.flat().data(), stride, cols, rows,
                                      baseline.data());
        EXPECT_TRUE(same_bits(dispatched, baseline))
            << "cols=" << cols << " stride=" << stride << " count=" << count;
      }
    }
  }
}

TEST(Kernels, DispatchedIfStepWordsMatchesBaselineBody) {
  // Every leak/reset regime; n = 1 (tail only), 64 (one full word), 130
  // (two words plus a 2-bit tail).  v_reset > 0 makes subtractive resets
  // undershoot onto the floor; NaN and +-inf drive fixed neurons.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(17);
  for (const float leak : {0.0f, 0.15f}) {
    for (const bool subtractive : {true, false}) {
      const kernels::IfRule rule{.v_threshold = 0.8f,
                                 .v_reset = 0.25f,
                                 .leak = leak,
                                 .subtractive_reset = subtractive};
      for (const std::size_t n : {1u, 64u, 130u}) {
        const std::size_t nwords = (n + 63) / 64;
        std::vector<float> m_dispatched(n, 0.0f), m_baseline(n, 0.0f);
        // Stale bits: every word must be overwritten.
        std::vector<std::uint64_t> w_dispatched(nwords, ~std::uint64_t{0});
        std::vector<std::uint64_t> w_baseline(nwords, ~std::uint64_t{0});
        for (int t = 0; t < 12; ++t) {
          std::vector<float> current(n);
          for (float& c : current) c = static_cast<float>(rng.uniform(-0.4, 1.2));
          current[0] = t % 4 == 1 ? nan : current[0];
          if (n > 66) {
            current[3] = nan;
            current[64] = inf;
            current[65] = -inf;
            current[66] = t % 3 == 0 ? inf : -inf;  // inf - inf = NaN
          }
          current[n - 1] = t % 2 == 0 ? inf : 0.3f;
          const std::string label =
              std::string(leak > 0 ? "leak" : "no-leak") +
              (subtractive ? "/subtractive" : "/hard") +
              " n=" + std::to_string(n) + " t=" + std::to_string(t);
          // Both calls consume their currents, so each reads its own copy.
          std::vector<float> cur_dispatched = current, cur_baseline = current;
          const std::size_t fired = kernels::if_step_words(
              rule, m_dispatched.data(), cur_dispatched.data(),
              w_dispatched.data(), n);
          EXPECT_EQ(fired, kernels::if_step_words_body(
                               rule, m_baseline.data(), cur_baseline.data(),
                               w_baseline.data(), n))
              << label;
          const std::vector<float> cleared(n, 0.0f);
          EXPECT_TRUE(same_bits(cur_dispatched, cleared)) << label;
          EXPECT_TRUE(same_bits(cur_baseline, cleared)) << label;
          EXPECT_EQ(w_dispatched, w_baseline) << label;
          EXPECT_TRUE(same_bits(m_dispatched, m_baseline)) << label;
          std::size_t ones = 0;
          for (const std::uint64_t w : w_dispatched)
            ones += static_cast<std::size_t>(std::popcount(w));
          EXPECT_EQ(ones, fired) << label;
          if (n % 64 != 0) {
            EXPECT_EQ(w_dispatched.back() >> (n % 64), 0u) << label;
          }
        }
      }
    }
  }
}

/// A sum_rows implementation: the dispatched kernel or one ISA's body.
using SumRowsFn = void (*)(const float*, std::size_t, std::size_t,
                           std::span<const std::uint32_t>, float*);

/// Checks `sum_rows` against the baseline-ISA body and a naive ordered
/// sum on every block of panels with 1, 5, 20, 47, 52, 64, 65 and 130
/// channels: padded widths 16 (1, 5, and the tails of 65 and 130), 32
/// (20), 48 (47) and 64 (52, 64 and the full blocks of 65 and 130).  Row
/// lists run from empty to longer than the panel, with repeats; NaN,
/// +-inf and -0.0f weights included.
void expect_sum_rows_matches(SumRowsFn sum_rows, const std::string& name) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(18);
  for (const std::size_t channels : {1u, 5u, 20u, 47u, 52u, 64u, 65u, 130u}) {
    Matrix w(40, channels);
    for (float& v : w.flat()) v = static_cast<float>(rng.normal(0.0, 1.0));
    w(0, 0) = nan;
    w(1, channels - 1) = inf;
    w(2, channels - 1) = -inf;
    w(3, channels / 2) = -0.0f;
    const kernels::RowPanel panel(w.flat().data(), w.rows(), w.cols());
    ASSERT_EQ(reinterpret_cast<std::uintptr_t>(panel.data()) % 64, 0u);
    ASSERT_EQ(panel.stride() % kernels::kPanelQuantum, 0u);
    for (const std::size_t count : {0u, 1u, 3u, 4u, 7u, 9u, 25u, 468u}) {
      std::vector<std::uint32_t> rows;
      for (std::size_t i = 0; i < count; ++i)
        rows.push_back(static_cast<std::uint32_t>(rng.below(40)));
      for (std::size_t c0 = 0; c0 < channels; c0 += kernels::kRowBlock) {
        const std::size_t width =
            std::min(kernels::kRowBlock, panel.stride() - c0);
        const std::string label =
            name + " channels=" + std::to_string(channels) + " block=" +
            std::to_string(c0) + " width=" + std::to_string(width) +
            " count=" + std::to_string(count);
        // Stale values: every output of the block must be overwritten.
        std::vector<float> got(width, 7.0f), baseline(width, 7.0f);
        sum_rows(panel.data() + c0, panel.stride(), width, rows, got.data());
        kernels::sum_rows_body(panel.data() + c0, panel.stride(), width, rows,
                               baseline.data());
        EXPECT_TRUE(same_bits(got, baseline)) << label;
        std::vector<float> naive(width, 0.0f);
        for (const std::uint32_t r : rows)
          for (std::size_t j = 0; j + c0 < channels && j < width; ++j)
            naive[j] += w(r, c0 + j);
        EXPECT_TRUE(same_bits(got, naive)) << label;
      }
    }
  }
}

TEST(Kernels, DispatchedSumRowsMatchesBaselineBody) {
  // Whichever version the loader bound on this CPU.
  expect_sum_rows_matches(kernels::sum_rows, "dispatched");
}

#if defined(__x86_64__) && defined(__GNUC__)
/// The kernel's body compiled at x86-64-v4, as its AVX-512 version is.
[[gnu::target("arch=x86-64-v4")]] void sum_rows_v4(
    const float* w, std::size_t stride, std::size_t width,
    std::span<const std::uint32_t> rows, float* out) {
  kernels::sum_rows_body<kernels::Lanes64>(w, stride, width, rows, out);
}
#endif

TEST(Kernels, SumRowsV4MatchesBaselineBody) {
  // The 64-byte-vector version on any AVX-512 CPU, whatever the loader
  // bound.
#if defined(__x86_64__) && defined(__GNUC__)
  if (!__builtin_cpu_supports("x86-64-v4"))
    GTEST_SKIP() << "this CPU lacks AVX-512F (x86-64-v4), so it cannot run "
                    "the 64-byte-vector version of sum_rows";
  expect_sum_rows_matches(sum_rows_v4, "x86-64-v4");
#else
  GTEST_SKIP() << "the x86-64-v4 version of sum_rows exists only on x86-64";
#endif
}

TEST(Kernels, RowPanelPadsEachRowToWholeCacheLines) {
  Rng rng(20);
  for (const std::size_t cols : {1u, 16u, 52u, 65u}) {
    Matrix w(7, cols);
    for (float& v : w.flat()) v = static_cast<float>(rng.normal(0.0, 1.0));
    const kernels::RowPanel panel(w.flat().data(), w.rows(), w.cols());
    EXPECT_EQ(panel.rows(), 7u);
    EXPECT_EQ(panel.cols(), cols);
    EXPECT_EQ(panel.stride(), (cols + 15) / 16 * 16);
    for (std::size_t r = 0; r < w.rows(); ++r) {
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(panel.row(r)) % 64, 0u);
      EXPECT_TRUE(same_bits({panel.row(r), cols}, w.row(r))) << r;
      for (std::size_t c = cols; c < panel.stride(); ++c)
        EXPECT_TRUE(same_bits({panel.row(r) + c, 1}, {&kZero, 1})) << r;
    }
  }
}

TEST(Kernels, DispatchedCountWordsMatchesBaselineBody) {
  // Empty, all-zero, all-ones and random sparse vectors.
  Rng rng(21);
  std::vector<std::vector<std::uint64_t>> vectors = {
      {}, {0, 0, 0}, {~std::uint64_t{0}, ~std::uint64_t{0}}};
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint64_t> v(rng.below(40));
    for (auto& w : v) w = rng.bernoulli(0.5) ? rng() & rng() & rng() : 0;
    vectors.push_back(v);
  }
  for (const auto& v : vectors) {
    std::size_t bits = 0, nonzero = 0;
    for (const std::uint64_t w : v) {
      bits += static_cast<std::size_t>(std::popcount(w));
      nonzero += w != 0 ? 1 : 0;
    }
    const kernels::WordCounts got = kernels::count_words(v);
    const kernels::WordCounts base =
        kernels::count_words_body(v.data(), v.size());
    EXPECT_EQ(got.bits, bits);
    EXPECT_EQ(got.nonzero, nonzero);
    EXPECT_EQ(base.bits, bits);
    EXPECT_EQ(base.nonzero, nonzero);
  }
}

TEST(Kernels, DispatchedCountMaskedMatchesBaselineBody) {
  // One call counts every group of a layer.  Cases: no groups, groups
  // with zero entries (first, middle and last), all-ones masks, entries
  // on the last word of the vector, and random words, masks, indices and
  // group sizes.
  Rng rng(19);
  std::vector<std::uint64_t> words(13);
  for (auto& w : words) w = rng();
  words[5] = ~std::uint64_t{0};
  words.back() = std::uint64_t{1} << 63;
  const auto check = [&](const std::vector<std::uint64_t>& masks,
                         const std::vector<std::uint32_t>& index,
                         const std::vector<std::uint32_t>& bounds,
                         const std::string& label) {
    const std::size_t groups = bounds.size() - 1;
    // A sentinel past the last group must stay untouched.
    std::vector<std::uint32_t> got(groups + 1, 0xdeadbeefu);
    std::vector<std::uint32_t> base(groups + 1, 0xdeadbeefu);
    kernels::count_masked(words.data(), masks.data(), index.data(),
                          bounds.data(), groups, got.data());
    kernels::count_masked_body(words.data(), masks.data(), index.data(),
                               bounds.data(), groups, base.data());
    EXPECT_EQ(got, base) << label;
    EXPECT_EQ(got.back(), 0xdeadbeefu) << label;
    for (std::size_t g = 0; g < groups; ++g) {
      std::uint32_t want = 0;
      for (std::uint32_t i = bounds[g]; i < bounds[g + 1]; ++i)
        want += static_cast<std::uint32_t>(
            std::popcount(words[index[i]] & masks[i]));
      EXPECT_EQ(got[g], want) << label << " group " << g;
    }
  };
  const std::uint32_t last = static_cast<std::uint32_t>(words.size() - 1);
  check({}, {}, {0}, "no groups");
  check({}, {}, {0, 0, 0}, "groups with no entries");
  check({~std::uint64_t{0}, ~std::uint64_t{0}, ~std::uint64_t{0}},
        {5, 0, last}, {0, 3}, "all-ones masks");
  check({~std::uint64_t{0} << 63, 1}, {last, last}, {0, 0, 1, 1, 2, 2},
        "last word between empty groups");
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t groups = rng.below(12);
    std::vector<std::uint32_t> bounds = {0};
    for (std::size_t g = 0; g < groups; ++g)
      bounds.push_back(bounds.back() +
                       static_cast<std::uint32_t>(rng.below(6)));
    const std::size_t n = bounds.back();
    std::vector<std::uint64_t> masks(n);
    std::vector<std::uint32_t> index(n);
    for (std::size_t i = 0; i < n; ++i) {
      masks[i] = rng() & rng();
      index[i] = static_cast<std::uint32_t>(rng.below(words.size()));
    }
    check(masks, index, bounds, "random trial " + std::to_string(trial));
  }
}

TEST(Kernels, MatvecInMajorMatchesNaiveBitForBit) {
  Rng rng(4);
  for (const auto& [rows, cols] :
       {std::pair<std::size_t, std::size_t>{1, 1}, {7, 5}, {64, 64},
        {100, 33}, {33, 100}}) {
    Matrix w(rows, cols);
    for (float& v : w.flat()) v = static_cast<float>(rng.normal(0.0, 1.0));
    auto x = random_vec(rows, rng, 0.0, 1.0);
    if (rows > 2) x[rows / 2] = 0.0f;  // exercise the zero-skip path

    std::vector<float> naive(cols, 0.0f);
    for (std::size_t r = 0; r < rows; ++r) {
      if (x[r] == 0.0f) continue;
      for (std::size_t c = 0; c < cols; ++c) naive[c] += x[r] * w(r, c);
    }
    std::vector<float> fast(cols, 1.0f);  // must be overwritten
    kernels::matvec_in_major(w.flat().data(), rows, cols, x.data(),
                             fast.data());
    EXPECT_EQ(naive, fast) << rows << "x" << cols;
  }
}

TEST(Kernels, MatvecOutMajorMatchesNaiveBitForBit) {
  Rng rng(5);
  const std::size_t rows = 37, cols = 41;
  Matrix w(rows, cols);
  for (float& v : w.flat()) v = static_cast<float>(rng.normal(0.0, 1.0));
  const auto x = random_vec(cols, rng);
  std::vector<float> naive(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    float acc = 0.0f;
    for (std::size_t c = 0; c < cols; ++c) acc += w(r, c) * x[c];
    naive[r] = acc;
  }
  std::vector<float> fast(rows);
  kernels::matvec_out_major(w.flat().data(), rows, cols, x.data(),
                            fast.data());
  EXPECT_EQ(naive, fast);
}

// Naive bounds-checked conv (the loop nest train::Ann used before the
// kernel layer) — the reference every conv case is compared against.
void naive_conv(const float* in, std::size_t ic, std::size_t ih,
                std::size_t iw, const Matrix& w, std::size_t oc_n,
                std::size_t k, std::size_t pad, std::size_t oh,
                std::size_t ow, float* out) {
  for (std::size_t oc = 0; oc < oc_n; ++oc) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        float acc = 0.0f;
        for (std::size_t c = 0; c < ic; ++c) {
          for (std::size_t ky = 0; ky < k; ++ky) {
            const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy + ky) -
                                      static_cast<std::ptrdiff_t>(pad);
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(ih)) continue;
            for (std::size_t kx = 0; kx < k; ++kx) {
              const std::ptrdiff_t ix = static_cast<std::ptrdiff_t>(ox + kx) -
                                        static_cast<std::ptrdiff_t>(pad);
              if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(iw)) continue;
              acc += in[(c * ih + static_cast<std::size_t>(iy)) * iw +
                        static_cast<std::size_t>(ix)] *
                     w((c * k + ky) * k + kx, oc);
            }
          }
        }
        out[(oc * oh + oy) * ow + ox] = acc;
      }
    }
  }
}

struct ConvCase {
  std::size_t ic, ih, iw, oc, k;
  bool same;
};

TEST(Kernels, ConvForwardMatchesNaiveAcrossOddShapes) {
  // Odd shapes on purpose: patch sizes straddling the GEMM block (48),
  // k=1/3/5, padded and unpadded, non-square images.
  const ConvCase cases[] = {
      {1, 5, 5, 1, 1, false},   // degenerate 1x1
      {3, 9, 9, 5, 3, true},    // patch 27 < block
      {7, 8, 6, 4, 3, true},    // patch 63, non-square
      {6, 11, 11, 3, 3, false}, // valid conv, patch 54 > block
      {2, 13, 7, 9, 5, true},   // k=5, patch 50
      {4, 7, 7, 2, 5, false},   // k=5 valid, output 3x3
      {52, 14, 14, 64, 3, true} // the paper-scale MNIST-CNN layer
  };
  Rng rng(6);
  for (const ConvCase& cc : cases) {
    const std::size_t pad = cc.same ? cc.k / 2 : 0;
    const std::size_t oh = cc.same ? cc.ih : cc.ih - cc.k + 1;
    const std::size_t ow = cc.same ? cc.iw : cc.iw - cc.k + 1;
    const auto in = random_vec(cc.ic * cc.ih * cc.iw, rng, 0.0, 1.0);
    Matrix w(cc.ic * cc.k * cc.k, cc.oc);
    for (float& v : w.flat()) v = static_cast<float>(rng.normal(0.0, 0.5));

    std::vector<float> naive(cc.oc * oh * ow, -1.0f);
    naive_conv(in.data(), cc.ic, cc.ih, cc.iw, w, cc.oc, cc.k, pad, oh, ow,
               naive.data());
    std::vector<float> fast(cc.oc * oh * ow, 1.0f);
    kernels::Scratch scratch;
    kernels::conv2d_forward(in.data(), cc.ic, cc.ih, cc.iw, w.flat().data(),
                            cc.oc, cc.k, pad, oh, ow, fast.data(), scratch);
    EXPECT_EQ(naive, fast) << cc.ic << "x" << cc.ih << "x" << cc.iw << " k"
                           << cc.k << (cc.same ? " same" : " valid");
  }
}

TEST(Kernels, Im2colZeroFillsOutOfImageTaps) {
  // 1x2x2 input, k=3 same padding: every patch row is one tap; corners
  // must be zero-filled exactly where the tap leaves the image.
  const float in[] = {1.0f, 2.0f, 3.0f, 4.0f};
  std::vector<float> col(9 * 4, -1.0f);
  kernels::im2col(in, 1, 2, 2, 3, 1, 2, 2, col.data());
  // Tap (ky=1, kx=1) is the identity: row 4 equals the image.
  EXPECT_EQ(col[4 * 4 + 0], 1.0f);
  EXPECT_EQ(col[4 * 4 + 3], 4.0f);
  // Tap (ky=0, kx=0) reads up-left: only output (1,1) sees pixel (0,0).
  EXPECT_EQ(col[0 * 4 + 0], 0.0f);
  EXPECT_EQ(col[0 * 4 + 1], 0.0f);
  EXPECT_EQ(col[0 * 4 + 2], 0.0f);
  EXPECT_EQ(col[0 * 4 + 3], 1.0f);
}

/// Input spikes with per-neuron probability `density` (0 = all silent).
snn::SpikeVector random_spikes(std::size_t n, double density, Rng& rng) {
  snn::SpikeVector in(n);
  for (std::size_t i = 0; i < n; ++i)
    if (rng.bernoulli(density)) in.set(i);
  return in;
}

/// The scatter inputs of one layer of `n` inputs: random at 0.4, silent,
/// every input (so a partial last word is full up to its last valid
/// bit), and the last input alone.
std::vector<std::pair<snn::SpikeVector, std::string>> scatter_inputs(
    std::size_t n, Rng& rng) {
  snn::SpikeVector all(n), last(n);
  for (std::size_t i = 0; i < n; ++i) all.set(i);
  last.set(n - 1);
  return {{random_spikes(n, 0.4, rng), "density 0.4"},
          {random_spikes(n, 0.0, rng), "silent"},
          {all, "all inputs"},
          {last, "last input"}};
}

/// Runs scatter_accumulate and its touched form on one plan and compares
/// each result bitwise with `want`.  The touched list must name each
/// written output exactly once.
void expect_scatter_matches(snn::ScatterPlan& plan,
                            const snn::SpikeVector& in,
                            const std::vector<float>& want,
                            const std::string& label) {
  std::vector<float> by_index(plan.layer().neurons, 0.0f);
  snn::scatter_accumulate(plan, in, by_index);
  EXPECT_TRUE(same_bits(want, by_index)) << label;
  std::vector<float> by_touch(plan.layer().neurons, 0.0f);
  std::vector<std::uint32_t> stamp(plan.layer().neurons, 0);
  std::vector<std::uint32_t> touched;
  snn::scatter_touched(plan, in, by_touch, stamp, 1, touched);
  EXPECT_TRUE(same_bits(want, by_touch)) << label << " touched";
  std::vector<std::uint32_t> named(touched);
  std::sort(named.begin(), named.end());
  EXPECT_EQ(std::adjacent_find(named.begin(), named.end()), named.end())
      << label;
  for (std::size_t i = 0; i < by_touch.size(); ++i) {
    if (std::memcmp(&by_touch[i], &kZero, sizeof(float)) != 0) {
      EXPECT_TRUE(std::binary_search(named.begin(), named.end(), i))
          << label << " output " << i;
    }
  }
}

// Naive CHW conv scatter: per event, per in-image tap, per output
// channel, one add straight into the CHW buffer — the layout-free
// definition the output-stationary gather must reproduce.
std::vector<float> naive_conv_scatter(const snn::LayerInfo& li,
                                      const Matrix& w,
                                      std::span<const std::uint32_t> active) {
  const Shape3 in = li.in_shape;
  const Shape3 out = li.out_shape;
  const std::size_t k = li.spec.kernel;
  const std::size_t pad = li.spec.same_padding ? k / 2 : 0;
  std::vector<float> current(out.size(), 0.0f);
  for (const std::uint32_t idx : active) {
    const std::size_t c = idx / (in.h * in.w);
    const std::size_t y = idx / in.w % in.h;
    const std::size_t x = idx % in.w;
    for (std::size_t ky = 0; ky < k; ++ky) {
      for (std::size_t kx = 0; kx < k; ++kx) {
        const std::ptrdiff_t oy = static_cast<std::ptrdiff_t>(y + pad) -
                                  static_cast<std::ptrdiff_t>(ky);
        const std::ptrdiff_t ox = static_cast<std::ptrdiff_t>(x + pad) -
                                  static_cast<std::ptrdiff_t>(kx);
        if (oy < 0 || oy >= static_cast<std::ptrdiff_t>(out.h) || ox < 0 ||
            ox >= static_cast<std::ptrdiff_t>(out.w))
          continue;
        for (std::size_t oc = 0; oc < out.c; ++oc)
          current[(oc * out.h + static_cast<std::size_t>(oy)) * out.w +
                  static_cast<std::size_t>(ox)] += w((c * k + ky) * k + kx, oc);
      }
    }
  }
  return current;
}

TEST(Kernels, ConvScatterMatchesNaiveChwLoopBitForBit) {
  // The gather and the touched form, against the naive loop (not against
  // each other, so a layout bug they share cannot pass).  Each plan
  // serves every call, which also checks that each call leaves its gather
  // lists empty for the next.  The 5x67 input has rows wider than one
  // 64-bit spike word.  Both inputs (144 and 670 spikes) end in a partial
  // word, read through its last valid bit by the "all inputs" and "last
  // input" cases.  Both forms read the plan's padded weight panel:
  // 5, 7 and 13 channels sum one 16-wide block, 64 one full 64-wide
  // block, and 65 and 130 full blocks plus a 16-wide remainder whose
  // padding channels must not be stored.
  Rng rng(10);
  for (const Shape3 shape : {Shape3{2, 9, 8}, Shape3{2, 5, 67}}) {
    for (const std::size_t k : {1u, 3u, 5u}) {
      for (const bool same : {true, false}) {
        for (const std::size_t oc : {5u, 7u, 13u, 64u, 65u, 130u}) {
          const Topology topo("conv-scatter", shape,
                              {LayerSpec::conv(oc, k, same)});
          snn::Network net(topo);
          net.init_random(rng, 1.0f);
          const snn::LayerInfo& li = topo.layers()[0];
          const Matrix& w = net.layer(0).weights;
          snn::ScatterPlan plan(li, w);
          for (const auto& [in, what] :
               scatter_inputs(li.in_shape.size(), rng)) {
            std::vector<std::uint32_t> active;
            in.append_active(active);
            expect_scatter_matches(
                plan, in, naive_conv_scatter(li, w, active),
                "in " + std::to_string(shape.h) + "x" +
                    std::to_string(shape.w) + " k" + std::to_string(k) +
                    (same ? " same" : " valid") + " oc " + std::to_string(oc) +
                    " " + what);
          }
        }
      }
    }
  }
}

TEST(Kernels, PoolScatterMatchesNaiveLoopBitForBit) {
  // Odd channel count, rows wider than one spike word, pool 2 and 3:
  // the table-driven pool scatter against the per-event decode it
  // replaced.
  Rng rng(11);
  for (const std::size_t pool : {2u, 3u}) {
    const Topology topo("pool-scatter", Shape3{5, 6, 66},
                        {LayerSpec::avg_pool(pool)});
    const snn::LayerInfo& li = topo.layers()[0];
    const Shape3 in = li.in_shape;
    const Shape3 out = li.out_shape;
    const Matrix none;
    snn::ScatterPlan plan(li, none);
    for (const auto& [spikes, what] : scatter_inputs(in.size(), rng)) {
      std::vector<float> want(out.size(), 0.0f);
      const float share = 1.0f / static_cast<float>(pool * pool);
      for (std::size_t idx = 0; idx < in.size(); ++idx) {
        if (!spikes.get(idx)) continue;
        const std::size_t c = idx / (in.h * in.w);
        const std::size_t y = idx / in.w % in.h;
        const std::size_t x = idx % in.w;
        want[(c * out.h + y / pool) * out.w + x / pool] += share;
      }
      expect_scatter_matches(plan, spikes, want,
                             "pool " + std::to_string(pool) + " " + what);
    }
  }
}

TEST(Kernels, DenseScatterMatchesNaiveOrderedSumBitForBit) {
  // The dense scatter decodes the packed words into batches for
  // accumulate_rows; each output must still be the plain sum of its
  // weights over the spiking inputs in ascending order from +0.0f.
  // Input sizes straddle one word, end in a partial word, and (700 at
  // full density) fill several batches.
  Rng rng(12);
  for (const std::size_t n : {1u, 63u, 64u, 65u, 300u, 700u}) {
    for (const std::size_t cols : {1u, 5u, 33u}) {
      const Topology topo("dense-scatter", Shape3{1, 1, n},
                          {LayerSpec::dense(cols)});
      snn::Network net(topo);
      net.init_random(rng, 1.0f);
      const Matrix& w = net.layer(0).weights;
      snn::ScatterPlan plan(topo.layers()[0], w);
      for (const auto& [in, what] : scatter_inputs(n, rng)) {
        std::vector<float> want(cols, 0.0f);
        for (std::size_t r = 0; r < n; ++r)
          if (in.get(r))
            for (std::size_t c = 0; c < cols; ++c) want[c] += w(r, c);
        std::vector<float> got(cols, 0.0f);
        snn::scatter_accumulate(plan, in, got);
        EXPECT_TRUE(same_bits(want, got))
            << "in " << n << " cols " << cols << " " << what;
      }
    }
  }
}

TEST(Kernels, TouchedEpochWrapResetsStamps) {
  // After 2^32 - 1 touched steps the next epoch would be 0, the stamp of
  // every output never written: next_epoch must instead clear the stamps
  // and restart at 1, so the following touched scatter reports every
  // output it writes, also those last stamped in epoch 1.
  const Topology topo("epoch-wrap", Shape3{1, 4, 4},
                      {LayerSpec::avg_pool(2)});
  const snn::LayerInfo& li = topo.layers()[0];
  const Matrix none;
  const snn::ScatterPlan plan(li, none);
  std::vector<std::uint32_t> stamp = {1, 0, 7, UINT32_MAX};

  std::uint32_t epoch = 6;
  EXPECT_EQ(snn::next_epoch(epoch, stamp), 7u);
  EXPECT_EQ(stamp, (std::vector<std::uint32_t>{1, 0, 7, UINT32_MAX}));

  epoch = UINT32_MAX;
  const std::uint32_t next = snn::next_epoch(epoch, stamp);
  EXPECT_EQ(next, 1u);
  EXPECT_EQ(epoch, 1u);
  EXPECT_EQ(stamp, (std::vector<std::uint32_t>(4, 0)));

  std::fill(stamp.begin(), stamp.end(), 1u);  // left by the old epoch 1
  epoch = UINT32_MAX;
  snn::SpikeVector in(li.in_shape.size());
  for (std::size_t i = 0; i < in.size(); ++i) in.set(i);
  std::vector<float> current(li.neurons, 0.0f);
  std::vector<std::uint32_t> touched;
  snn::scatter_touched(plan, in, current, stamp, snn::next_epoch(epoch, stamp),
                       touched);
  std::sort(touched.begin(), touched.end());
  EXPECT_EQ(touched, (std::vector<std::uint32_t>{0, 1, 2, 3}));
  for (const float c : current) EXPECT_EQ(c, 1.0f);
}

TEST(Kernels, ReusedSimulatorMatchesFreshBitForBit) {
  // The allocation-free steady state reuses one Simulator across
  // presentations; the trace must equal a fresh simulator's exactly, on
  // busy input and on sparse input (both simulator branches).
  const Topology topo = snn::small_cnn_topology(snn::DatasetKind::kMnistLike);
  snn::Network net(topo);
  Rng wrng(8);
  net.init_random(wrng, 1.0f);
  net.set_uniform_threshold(1.5);

  std::vector<float> img_a(topo.input_shape().size());
  std::vector<float> img_b(topo.input_shape().size());
  for (auto& p : img_a) p = static_cast<float>(wrng.uniform(0.0, 1.0));
  for (auto& p : img_b) p = static_cast<float>(wrng.uniform(0.0, 1.0));

  for (const double rate : {1.0, 0.05}) {
    snn::SimConfig cfg;
    cfg.timesteps = 6;
    cfg.encoder.max_rate = rate;
    snn::Simulator reused(net, cfg);
    Rng r1(9);
    (void)reused.run(img_a, r1);
    const snn::SimResult second = reused.run(img_b, r1);

    snn::Simulator fresh(net, cfg);
    Rng r2(9);
    (void)fresh.run(img_a, r2);
    const snn::SimResult expect = fresh.run(img_b, r2);

    EXPECT_EQ(second.output_spike_counts, expect.output_spike_counts);
    EXPECT_EQ(second.total_spikes, expect.total_spikes);
    ASSERT_EQ(second.trace.layers.size(), expect.trace.layers.size());
    for (std::size_t l = 0; l < expect.trace.layers.size(); ++l) {
      for (std::size_t t = 0; t < expect.trace.layers[l].size(); ++t) {
        const auto got = second.trace.layers[l][t].words();
        const auto want = expect.trace.layers[l][t].words();
        ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(),
                               want.end()))
            << "rate " << rate << " layer " << l << " t " << t;
      }
    }
  }
}

}  // namespace
}  // namespace resparc
