// Shared SIMD-friendly hot-loop kernels (docs/performance.md).
//
// Every hot inner loop of the repository — the trainer's dense/conv
// forward, the functional simulator's spike-driven row accumulate and
// conv gather, and the crossbar/MCA read paths — is implemented exactly
// once here.  The kernels share three invariants:
//
//   * contiguous unit-stride inner loops over `__restrict` pointers, so
//     the compiler can auto-vectorize without runtime alias checks;
//   * a FIXED accumulation order: for every output element the floating-
//     point additions happen in one documented order that does not depend
//     on blocking, thread count, or call site.  Results are bit-for-bit
//     deterministic and thread-invariant, which is what keeps every
//     partitioning of the simulator's scatter bit-identical;
//   * no hidden allocation: kernels write into caller-provided buffers;
//     workspace (im2col) lives in a caller-owned Scratch arena.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
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

/// acc[i] += v * row[i] for i in [0, n) — the crossbar read-current
/// accumulate (double precision: conductances are device-scale).
inline void scaled_row_add(double* __restrict acc, double v,
                           const double* __restrict row, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] += v * row[i];
}

/// Adds weight rows `rows` of the input-major matrix starting at `w`
/// (row r begins at w + r*stride) onto `acc[0, cols)`: acc[c] += sum
/// over rows of w[r][c], accumulated in the given row order (groups of
/// four fused via row_add4 — bit-for-bit identical to one row_add per
/// row).  `cols <= stride` lets a caller accumulate a column slice of a
/// wider matrix (the simulator's within-trace partitioning).  This is
/// the simulator's dense-layer scatter, fed the active-bit list of a
/// SpikeVector; the conv gather (snn/scatter.cpp) calls it once per
/// touched output pixel with that pixel's weight-row list.
void accumulate_rows(const float* w, std::size_t stride, std::size_t cols,
                     std::span<const std::uint32_t> rows, float* acc);

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
