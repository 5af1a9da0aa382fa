// Shared SIMD-friendly hot-loop kernels (docs/performance.md).
//
// Every hot inner loop of the repository — the trainer's dense/conv
// forward, the functional simulator's spike-driven row accumulate, conv
// gather (over cache-line-aligned weight panels, RowPanel) and IF update,
// and the executor's per-group active-row count and per-layer spike and
// flit count — is implemented exactly once here.  The kernels share three
// invariants:
//
//   * contiguous unit-stride inner loops over `__restrict` pointers, so
//     the compiler can auto-vectorize without runtime alias checks;
//   * a FIXED accumulation order: for every output element the floating-
//     point additions happen in one documented order that does not depend
//     on blocking, thread count, or call site.  Results are bit-for-bit
//     deterministic and thread-invariant, which is what keeps the
//     simulator's two scatter branches bit-identical;
//   * no hidden allocation: kernels write into caller-provided buffers;
//     workspace (im2col) lives in a caller-owned Scratch arena, and a
//     weight panel (RowPanel) is built once by its owner.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace resparc::kernels {

/// Number of set bits in `x` — the one popcount of src/.  With the POPCNT
/// instruction available (`__POPCNT__`, e.g. -march=native) this is
/// std::popcount, one instruction.  The baseline x86-64 target has no
/// POPCNT and compiles std::popcount to a call into libgcc
/// (`__popcountdi2`), so there it is an inline SWAR bit count: a dozen
/// ALU operations and one multiply, no call (docs/performance.md).
inline unsigned popcount64(std::uint64_t x) {
#if defined(__POPCNT__)
  return static_cast<unsigned>(std::popcount(x));
#else
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
  return static_cast<unsigned>((x * 0x0101010101010101ull) >> 56);
#endif
}

/// acc[i] += row[i] for i in [0, n) — the spike-driven row accumulate.
/// One active input row of a crossbar/weight matrix is added onto the
/// output accumulator in ascending column order.
inline void row_add(float* __restrict acc, const float* __restrict row,
                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] += row[i];
}

/// acc[i] += (((r0[i]) then r1[i]) then r2[i]) then r3[i] — four rows in
/// one pass.  Per element the additions happen strictly in r0..r3 order,
/// so the result is bit-for-bit identical to four row_add calls; the
/// fusion only saves three acc loads/stores per element (the dense
/// accumulate is memory-bound, so this is the cache-blocking lever).
inline void row_add4(float* __restrict acc, const float* __restrict r0,
                     const float* __restrict r1, const float* __restrict r2,
                     const float* __restrict r3, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    float v = acc[i];
    v += r0[i];
    v += r1[i];
    v += r2[i];
    v += r3[i];
    acc[i] = v;
  }
}

/// y[i] += a * x[i] for i in [0, n).
inline void axpy(float* __restrict y, float a, const float* __restrict x,
                 std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

/// Single-accumulator dot product in ascending index order (the order the
/// scalar loops it replaced used, so gradients stay bit-for-bit).
inline float dot(const float* __restrict a, const float* __restrict b,
                 std::size_t n) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

/// The body of accumulate_rows.  Inline so that the runtime-dispatched
/// entry compiles it once per vector width (see below) and a test can
/// compile it at the baseline ISA to compare the two bit for bit.
[[gnu::always_inline]] inline void accumulate_rows_body(
    const float* __restrict w, std::size_t stride, std::size_t cols,
    std::span<const std::uint32_t> rows, float* __restrict acc) {
  std::size_t i = 0;
  // Fused groups of four: per output element the adds still happen in
  // ascending row order (see row_add4), so any grouping is bit-for-bit
  // identical to the plain per-row loop — the fusion is free to change
  // with no numeric effect.
  for (; i + 4 <= rows.size(); i += 4) {
    row_add4(acc, w + static_cast<std::size_t>(rows[i]) * stride,
             w + static_cast<std::size_t>(rows[i + 1]) * stride,
             w + static_cast<std::size_t>(rows[i + 2]) * stride,
             w + static_cast<std::size_t>(rows[i + 3]) * stride, cols);
  }
  for (; i < rows.size(); ++i)
    row_add(acc, w + static_cast<std::size_t>(rows[i]) * stride, cols);
}

/// Widest block one sum_rows call sums, in columns.
inline constexpr std::size_t kRowBlock = 64;

/// Column quantum of a RowPanel: 16 floats, one 64-byte cache line.
/// Panel strides and sum_rows block widths are multiples of it.
inline constexpr std::size_t kPanelQuantum = 16;

/// A row-major float matrix copied onto 64-byte cache lines: each row
/// starts on a line boundary and is zero-padded from `cols` to `stride`,
/// the next multiple of kPanelQuantum.  sum_rows reads it one whole line
/// per vector load.  Move-only; built once (the conv gather's weight
/// copy, snn::ScatterPlan).
class RowPanel {
 public:
  RowPanel() = default;
  /// Copies the rows x cols row-major matrix `w` (row r at w + r*cols).
  RowPanel(const float* w, std::size_t rows, std::size_t cols);

  /// Rows copied.
  std::size_t rows() const { return rows_; }
  /// Real columns per row, before the padding.
  std::size_t cols() const { return cols_; }
  /// Floats between row starts: cols rounded up to kPanelQuantum.
  std::size_t stride() const { return stride_; }
  /// First float of row 0; 64-byte aligned.
  const float* data() const { return data_.get(); }
  /// Row r: cols() weights, then zeros up to stride().
  const float* row(std::size_t r) const { return data() + r * stride_; }

 private:
  struct Free {
    void operator()(float* p) const;
  };
  std::size_t rows_ = 0, cols_ = 0, stride_ = 0;
  std::unique_ptr<float[], Free> data_;
};

/// GCC generic vector of 4 floats: one SSE register.
using Lanes16 = float __attribute__((vector_size(16)));
/// GCC generic vector of 8 floats: one AVX register.
using Lanes32 = float __attribute__((vector_size(32)));
/// GCC generic vector of 16 floats: one AVX-512 register.
using Lanes64 = float __attribute__((vector_size(64)));

#if defined(__AVX512F__)
/// The widest vector the build's baseline ISA holds in one register:
/// the one sum_rows_body uses unless told otherwise.
using BaselineLanes = Lanes64;
#elif defined(__AVX__)
/// As above, for an AVX baseline.
using BaselineLanes = Lanes32;
#else
/// As above, for an SSE baseline.
using BaselineLanes = Lanes16;
#endif

/// A block of sum_rows_body as one Lanes accumulator per index in K.
/// The pack expansions unroll every per-vector statement at compile
/// time, so the accumulators stay in registers over the whole list.
template <typename Lanes, std::size_t... K>
[[gnu::always_inline]] inline void sum_rows_lanes(
    std::index_sequence<K...>, const float* __restrict w, std::size_t stride,
    std::span<const std::uint32_t> rows, float* __restrict out) {
  constexpr std::size_t kLanes = sizeof(Lanes) / sizeof(float);
  Lanes acc[sizeof...(K)] = {};
  Lanes x[sizeof...(K)];
  for (const std::uint32_t r : rows) {
    const float* __restrict row = std::assume_aligned<64>(
        w + static_cast<std::size_t>(r) * stride);
    (__builtin_memcpy(&x[K], row + K * kLanes, sizeof(Lanes)), ...);
    ((acc[K] += x[K]), ...);
  }
  (__builtin_memcpy(out + K * kLanes, &acc[K], sizeof(Lanes)), ...);
}

/// The body of sum_rows, summing with `Lanes` vectors.  The block is held
/// in registers over the entire row list, so each row costs its loads and
/// adds and nothing else.  Per element the adds run in list order from
/// +0.0f, whatever the vector width.  Inline so each ISA version of
/// sum_rows compiles it at its own width (kernels.cpp) and a test can
/// compile it at the baseline ISA to compare them bit for bit.
template <typename Lanes = BaselineLanes>
[[gnu::always_inline]] inline void sum_rows_body(
    const float* __restrict w, std::size_t stride, std::size_t width,
    std::span<const std::uint32_t> rows, float* __restrict out) {
  constexpr std::size_t kPerQuantum = kPanelQuantum * sizeof(float) /
                                      sizeof(Lanes);
  switch (width / kPanelQuantum) {
    case 1:
      return sum_rows_lanes<Lanes>(std::make_index_sequence<kPerQuantum>{},
                                   w, stride, rows, out);
    case 2:
      return sum_rows_lanes<Lanes>(
          std::make_index_sequence<2 * kPerQuantum>{}, w, stride, rows, out);
    case 3:
      return sum_rows_lanes<Lanes>(
          std::make_index_sequence<3 * kPerQuantum>{}, w, stride, rows, out);
    default:
      return sum_rows_lanes<Lanes>(
          std::make_index_sequence<4 * kPerQuantum>{}, w, stride, rows, out);
  }
}

/// The body of count_masked: one popcount per plan entry.  popcount64's
/// bit count is the idiom GCC turns into one POPCNT where the target has
/// it, so the x86-64-v3 clone issues the instruction and the baseline
/// clone keeps the inline count.
[[gnu::always_inline]] inline std::size_t count_masked_body(
    const std::uint64_t* __restrict words,
    const std::uint64_t* __restrict masks,
    const std::uint32_t* __restrict index, std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i)
    total += popcount64(words[index[i]] & masks[i]);
  return total;
}

/// Set bits and nonzero words of a packed spike vector.
struct WordCounts {
  std::size_t bits = 0;     ///< set bits: neurons that fired
  std::size_t nonzero = 0;  ///< words with a set bit: flits sent
};

/// The body of count_words: both counts in one walk.
[[gnu::always_inline]] inline WordCounts count_words_body(
    const std::uint64_t* __restrict words, std::size_t n) {
  WordCounts c;
  for (std::size_t i = 0; i < n; ++i) {
    c.bits += popcount64(words[i]);
    c.nonzero += words[i] != 0 ? 1 : 0;
  }
  return c;
}

// ------------------------------------------------ dispatched kernels --
// accumulate_rows, sum_rows and if_step_words are the simulator's
// per-step hot passes, count_masked and count_words the replay's.  On
// x86-64 each is compiled more than once from its one inline body and the
// loader binds the widest version the CPU supports.  accumulate_rows,
// if_step_words, count_masked and count_words carry an x86-64-v3 (AVX2,
// POPCNT) clone next to the build's baseline (GCC/Clang target_clones).
// sum_rows has three versions, each summing with the vector its ISA holds
// in one register: 16 bytes at the baseline, 32 at x86-64-v3 and 64 at
// x86-64-v4 (AVX-512F), bound by an ifunc resolver (kernels.cpp).  All
// versions give the same bits: the bodies fix the per-element order of
// every addition and contain no multiply-add, so vector width cannot
// change a result (docs/performance.md).

/// Adds weight rows `rows` of the input-major matrix starting at `w`
/// (row r begins at w + r*stride) onto `acc[0, cols)`: acc[c] += sum
/// over rows of w[r][c], accumulated in the given row order (groups of
/// four fused via row_add4 — bit-for-bit identical to one row_add per
/// row).  `cols <= stride` lets a caller accumulate a column slice of a
/// wider matrix.  This is the simulator's dense-layer scatter, fed the
/// active-bit list of a SpikeVector.
void accumulate_rows(const float* w, std::size_t stride, std::size_t cols,
                     std::span<const std::uint32_t> rows, float* acc);

/// Writes out[c] = +0.0f + the sum over `rows` of w[r*stride + c], added
/// in the given row order, for the `width` columns c in [0, width): the
/// same bits as accumulate_rows over a zeroed block, with the block held
/// in registers over the whole list.  `w` must be 64-byte aligned,
/// `stride` a multiple of kPanelQuantum (so every row is), `width` one of
/// 16, 32, 48 or 64 and `out` hold `width` floats: a block of a RowPanel.
/// The conv gather (snn/scatter.cpp) sums each output-channel block of a
/// touched pixel with it.
void sum_rows(const float* w, std::size_t stride, std::size_t width,
              std::span<const std::uint32_t> rows, float* out);

/// Returns the sum over i in [0, n) of popcount(words[index[i]] &
/// masks[i]): the spikes of packed vector `words` that fall in the bit
/// sets the (index, mask) entries name.  The executor counts each MCA
/// group's active rows with it from the group's word-mask plan.
std::size_t count_masked(const std::uint64_t* words,
                         const std::uint64_t* masks,
                         const std::uint32_t* index, std::size_t n);

/// Set bits and nonzero words of the packed vector `words` in one pass:
/// the fired neurons and the sent flits the executor charges for one
/// layer output.
WordCounts count_words(std::span<const std::uint64_t> words);

/// The constants of one integrate-and-fire population, narrowed to float
/// once per call (snn::IfParams holds them in double).
struct IfRule {
  float v_threshold = 1.0f;  ///< fires when the membrane reaches this
  float v_reset = 0.0f;      ///< hard-reset value; floor of a subtractive one
  float leak = 0.0f;  ///< subtracted every step when > 0
  bool subtractive_reset = true;  ///< fire subtracts v_threshold (else reset)
};

/// The IF rule for one neuron: integrate, optional leak, threshold,
/// reset.  Updates membrane `m` and returns whether the neuron fired.
/// The regime is a template parameter, so a loop over it has no branch
/// and vectorises.  It is exactly the scalar rule
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
[[gnu::always_inline]] inline bool if_fire(float& m, float cur, float vth,
                                           float vreset, float leak) {
  float v = m + cur;
  if constexpr (Leak) v = std::max(0.0f, v - leak);
  const bool f = v >= vth;
  const float reset = Subtractive ? std::max(v - vth, vreset) : vreset;
  m = f ? reset : v;
  return f;
}

/// kLaneBit[j] = 1 << j.  ANDed with a lane's all-ones/all-zeros compare
/// mask and OR-reduced, it builds a spike word from compare masks at any
/// vector width (a per-lane shift `f << j` needs AVX2's variable shifts).
inline constexpr auto kLaneBit = [] {
  std::array<std::uint32_t, 32> bits{};
  for (unsigned j = 0; j < 32; ++j) bits[j] = 1u << j;
  return bits;
}();

/// Runs if_fire over 32 neurons, clearing each current to +0.0f as it
/// reads it, and returns their spikes as one mask (neuron j -> bit j).
/// Fixed width, so the loop fully vectorises.
template <bool Leak, bool Subtractive>
[[gnu::always_inline]] inline std::uint32_t if_fire32(
    float* __restrict m, float* __restrict cur, float vth, float vreset,
    float leak) {
  std::uint32_t bits = 0;
  for (std::size_t j = 0; j < 32; ++j) {
    bits |= kLaneBit[j] & (0u - std::uint32_t{if_fire<Leak, Subtractive>(
                                   m[j], cur[j], vth, vreset, leak)});
    cur[j] = 0.0f;
  }
  return bits;
}

/// if_step_words for one fixed leak/reset regime: full 64-neuron words
/// from two if_fire32 masks, then a scalar tail word.  Returns the
/// number of neurons that fired.
template <bool Leak, bool Subtractive>
[[gnu::always_inline]] inline std::size_t if_step_words_regime(
    const IfRule& r, float* __restrict m, float* __restrict cur,
    std::uint64_t* __restrict words, std::size_t n) {
  const float vth = r.v_threshold, vreset = r.v_reset, leak = r.leak;
  std::size_t fired = 0;
  std::size_t base = 0;
  for (; base + 64 <= n; base += 64) {
    const std::uint64_t word =
        if_fire32<Leak, Subtractive>(m + base, cur + base, vth, vreset,
                                     leak) |
        std::uint64_t{if_fire32<Leak, Subtractive>(
            m + base + 32, cur + base + 32, vth, vreset, leak)}
            << 32;
    words[base >> 6] = word;
    fired += popcount64(word);
  }
  if (base < n) {  // tail word: bits at and above n stay zero
    std::uint64_t word = 0;
    for (std::size_t j = 0; base + j < n; ++j) {
      word |= std::uint64_t{if_fire<Leak, Subtractive>(
                  m[base + j], cur[base + j], vth, vreset, leak)}
              << j;
      cur[base + j] = 0.0f;
    }
    words[base >> 6] = word;
    fired += popcount64(word);
  }
  return fired;
}

/// The body of if_step_words: picks the leak/reset regime once, then
/// runs it over all n neurons.
[[gnu::always_inline]] inline std::size_t if_step_words_body(
    const IfRule& r, float* __restrict m, float* __restrict cur,
    std::uint64_t* __restrict words, std::size_t n) {
  if (r.leak > 0.0f)
    return r.subtractive_reset
               ? if_step_words_regime<true, true>(r, m, cur, words, n)
               : if_step_words_regime<true, false>(r, m, cur, words, n);
  return r.subtractive_reset
             ? if_step_words_regime<false, true>(r, m, cur, words, n)
             : if_step_words_regime<false, false>(r, m, cur, words, n);
}

/// Steps n IF neurons — membranes `m`, input currents `cur` — and writes
/// their spikes as ceil(n/64) packed words (neuron i -> bit i%64 of word
/// i/64; the tail word's bits at and above n are zero).  Every word is
/// built from the compare masks of 64 neurons and stored once.  The
/// currents are consumed: each is +0.0f on return, so a caller that
/// scatters the next step's drive onto them needs no clearing pass.
/// Returns the number of neurons that fired.
std::size_t if_step_words(const IfRule& r, float* m, float* cur,
                          std::uint64_t* words, std::size_t n);

/// out[c] = sum_r x[r] * w[r*cols + c] — input-major matvec (the layer
/// forward convention, paper Fig. 2).  Zero-fills `out`, skips zero
/// inputs (event-driven), accumulates rows in ascending order.
void matvec_in_major(const float* w, std::size_t rows, std::size_t cols,
                     const float* x, float* out);

/// out[r] = dot(w[r*cols ..], x) — output-major matvec (one contiguous
/// weight row per output), single-accumulator ascending order.
void matvec_out_major(const float* w, std::size_t rows, std::size_t cols,
                      const float* x, float* out);

/// Caller-owned scratch arena for kernels that need workspace (im2col).
/// Reused across calls: buffers only ever grow, so a warmed arena makes
/// the steady state allocation-free.
struct Scratch {
  std::vector<float> col;  ///< im2col patch matrix (pixels x inC*k*k)

  /// Grows `col` to at least `n` floats (never shrinks).
  void ensure_col(std::size_t n) {
    if (col.size() < n) col.resize(n);
  }
};

/// Dense NCHW conv2d forward via im2col + blocked GEMM.
///
/// `in` is (in_c, in_h, in_w) flat CHW; `w` is the im2col kernel matrix
/// (in_c*k*k rows x out_c cols, the layout snn::Network stores); `out`
/// is (out_c, out_h, out_w) flat CHW and is fully overwritten.  `pad` is
/// the symmetric zero padding (k/2 for "same", 0 for valid).
///
/// Accumulation order per output element is ascending patch index
/// (c, ky, kx) — identical to the naive 6-loop nest it replaced; padded
/// taps contribute an exact +/-0.0f, so results match the bounds-checked
/// scalar loop bit-for-bit (tests/test_kernels.cpp asserts equality).
void conv2d_forward(const float* in, std::size_t in_c, std::size_t in_h,
                    std::size_t in_w, const float* w, std::size_t out_c,
                    std::size_t k, std::size_t pad, std::size_t out_h,
                    std::size_t out_w, float* out, Scratch& scratch);

/// Fills `col` (in_c*k*k rows x out_h*out_w cols, row-major: one
/// contiguous row per kernel tap, holding that tap's value for every
/// output pixel) with the im2col patches of `in`; out-of-image taps
/// become 0.0f.  Exposed for the kernel property tests.
void im2col(const float* in, std::size_t in_c, std::size_t in_h,
            std::size_t in_w, std::size_t k, std::size_t pad,
            std::size_t out_h, std::size_t out_w, float* col);

}  // namespace resparc::kernels
