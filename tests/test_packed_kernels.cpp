// Property tests of the packed 64-bit spike read paths
// (docs/performance.md): the packed crossbar and MCA reads against their
// byte/offset twins.  Every comparison is exact — the packed datapath's
// contract is bit-for-bit equality, not tolerance.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/mca.hpp"
#include "snn/trace.hpp"
#include "tech/crossbar_model.hpp"
#include "tech/memristor.hpp"

namespace resparc {
namespace {

// -------------------------------------------- CrossbarModel packed reads --

TEST(PackedKernels, CrossbarPackedReadMatchesByteRead) {
  Rng rng(17);
  const std::size_t rows = 100, cols = 32;  // non-multiple-of-64 rows
  tech::Memristor device{tech::MemristorParams{}};
  tech::CrossbarModel xbar(rows, cols, device);
  Matrix mags(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      mags.at(r, c) = static_cast<float>(rng.uniform());
  xbar.program(mags);

  for (int trial = 0; trial < 6; ++trial) {
    std::vector<std::uint8_t> bytes(rows);
    for (auto& b : bytes) b = rng.bernoulli(0.3) ? 1 : 0;
    std::vector<std::uint64_t> words((rows + 63) / 64, 0);
    for (std::size_t r = 0; r < rows; ++r)
      if (bytes[r]) words[r >> 6] |= std::uint64_t{1} << (r & 63);
    // Stale bits beyond rows() must be ignored.
    words.back() |= ~std::uint64_t{0} << (rows & 63);

    std::vector<double> from_bytes(cols, 0.0), from_words(cols, 0.0);
    xbar.read_currents(std::span<const std::uint8_t>(bytes), from_bytes);
    xbar.read_currents(std::span<const std::uint64_t>(words), from_words);
    for (std::size_t c = 0; c < cols; ++c)
      ASSERT_EQ(from_bytes[c], from_words[c]) << "col " << c;
  }
}

// ---------------------------------------------------- Mca window decoding --

// An MCA programmed at input offset k over input v must equal the same MCA
// at offset 0 over v shifted down by k — the window() decode is the only
// thing that differs, so this isolates the unaligned read path.
TEST(PackedKernels, McaAccumulateOffsetInvariance) {
  Rng rng(18);
  const std::size_t mca_size = 64;
  const std::size_t rows = 50, cols = 20;
  Matrix weights(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      weights.at(r, c) = static_cast<float>(rng.uniform(-1.0, 1.0));

  // Offsets straddle word boundaries (the unaligned cases).
  for (const std::size_t offset : {0u, 1u, 63u, 64u, 65u, 100u}) {
    const std::size_t input_len = offset + rows + 10;
    snn::SpikeVector full(input_len);
    snn::SpikeVector shifted(rows + 10);
    for (std::size_t i = 0; i < input_len; ++i)
      if (rng.bernoulli(0.35)) {
        full.set(i);
        if (i >= offset && i - offset < rows + 10) shifted.set(i - offset);
      }

    core::Mca at_offset(mca_size, tech::Memristor{tech::MemristorParams{}});
    core::Mca at_zero(mca_size, tech::Memristor{tech::MemristorParams{}});
    at_offset.program(weights, offset, 1.0f);
    at_zero.program(weights, 0, 1.0f);

    std::vector<float> acc_offset(cols, 0.0f), acc_zero(cols, 0.0f);
    const std::size_t n_offset = at_offset.accumulate(full, acc_offset);
    const std::size_t n_zero = at_zero.accumulate(shifted, acc_zero);
    EXPECT_EQ(n_offset, full.count_range(offset, offset + rows));
    EXPECT_EQ(n_offset, n_zero) << "offset=" << offset;
    EXPECT_EQ(acc_offset, acc_zero) << "offset=" << offset;
  }
}

}  // namespace
}  // namespace resparc
