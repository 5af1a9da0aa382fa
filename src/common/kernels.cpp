#include "common/kernels.hpp"

#include <algorithm>
#include <cstring>
#include <new>

// Function multi-versioning for the dispatched kernels (kernels.hpp,
// docs/performance.md).  On x86-64 ELF targets each carries an x86-64-v3
// clone next to the baseline one plus a resolver the loader runs once;
// a baseline that already has AVX2 (RESPARC_NATIVE_ARCH on a recent
// host) keeps its single body, which is at least as wide.
#if defined(__x86_64__) && defined(__ELF__) && !defined(__AVX2__) && \
    defined(__has_attribute)
#if __has_attribute(target_clones)
#define RESPARC_KERNEL_CLONES \
  __attribute__((target_clones("arch=x86-64-v3", "default")))
#endif
#endif
#ifndef RESPARC_KERNEL_CLONES
#define RESPARC_KERNEL_CLONES
#endif

// sum_rows binds one of three ISA versions through an ifunc resolver
// instead: each sums with a different vector type (kernels.hpp), which
// target_clones cannot express, and a 64-byte vector lowered onto
// narrower registers spills every accumulator to the stack.  A baseline
// that already has AVX-512F keeps its single body, as does a Clang
// without the ISA-level names of __builtin_cpu_supports (before 18).
#if defined(__x86_64__) && defined(__ELF__) && !defined(__AVX512F__) && \
    defined(__has_attribute) && \
    !(defined(__clang__) && __clang_major__ < 18)
#if __has_attribute(ifunc) && __has_attribute(target)
#define RESPARC_SUM_ROWS_IFUNC 1
#endif
#endif

namespace resparc::kernels {

RESPARC_KERNEL_CLONES
void accumulate_rows(const float* w, std::size_t stride, std::size_t cols,
                     std::span<const std::uint32_t> rows, float* acc) {
  accumulate_rows_body(w, stride, cols, rows, acc);
}

RowPanel::RowPanel(const float* w, std::size_t rows, std::size_t cols)
    : rows_(rows),
      cols_(cols),
      stride_((cols + kPanelQuantum - 1) / kPanelQuantum * kPanelQuantum) {
  const std::size_t n = rows_ * stride_;
  data_.reset(static_cast<float*>(
      ::operator new[](std::max<std::size_t>(n, 1) * sizeof(float),
                       std::align_val_t{64})));
  std::fill(data_.get(), data_.get() + n, 0.0f);
  for (std::size_t r = 0; r < rows_; ++r)
    std::copy(w + r * cols_, w + (r + 1) * cols_, data_.get() + r * stride_);
}

void RowPanel::Free::operator()(float* p) const {
  ::operator delete[](p, std::align_val_t{64});
}

#ifdef RESPARC_SUM_ROWS_IFUNC
namespace {

using SumRows = void(const float*, std::size_t, std::size_t,
                     std::span<const std::uint32_t>, float*);

[[gnu::target("arch=x86-64-v4")]] void sum_rows_v4(
    const float* w, std::size_t stride, std::size_t width,
    std::span<const std::uint32_t> rows, float* out) {
  sum_rows_body<Lanes64>(w, stride, width, rows, out);
}

[[gnu::target("arch=x86-64-v3")]] void sum_rows_v3(
    const float* w, std::size_t stride, std::size_t width,
    std::span<const std::uint32_t> rows, float* out) {
  sum_rows_body<Lanes32>(w, stride, width, rows, out);
}

void sum_rows_baseline(const float* w, std::size_t stride, std::size_t width,
                       std::span<const std::uint32_t> rows, float* out) {
  sum_rows_body(w, stride, width, rows, out);
}

}  // namespace

// Runs once, when the loader binds sum_rows: before static constructors,
// hence the explicit __builtin_cpu_init, and before any sanitizer runtime
// has started, hence no instrumentation (its shadow-memory checks would
// fault).
extern "C" {
[[gnu::no_sanitize("address", "thread", "undefined")]]
static SumRows* resparc_resolve_sum_rows() {
  __builtin_cpu_init();
  if (__builtin_cpu_supports("x86-64-v4")) return sum_rows_v4;
  if (__builtin_cpu_supports("x86-64-v3")) return sum_rows_v3;
  return sum_rows_baseline;
}
}

[[gnu::ifunc("resparc_resolve_sum_rows")]] void sum_rows(
    const float* w, std::size_t stride, std::size_t width,
    std::span<const std::uint32_t> rows, float* out);
#else
void sum_rows(const float* w, std::size_t stride, std::size_t width,
              std::span<const std::uint32_t> rows, float* out) {
  sum_rows_body(w, stride, width, rows, out);
}
#endif

RESPARC_KERNEL_CLONES
std::size_t if_step_words(const IfRule& r, float* m, float* cur,
                          std::uint64_t* words, std::size_t n) {
  return if_step_words_body(r, m, cur, words, n);
}

RESPARC_KERNEL_CLONES
std::size_t count_masked(const std::uint64_t* words,
                         const std::uint64_t* masks,
                         const std::uint32_t* index, std::size_t n) {
  return count_masked_body(words, masks, index, n);
}

RESPARC_KERNEL_CLONES
WordCounts count_words(std::span<const std::uint64_t> words) {
  return count_words_body(words.data(), words.size());
}

void matvec_in_major(const float* w, std::size_t rows, std::size_t cols,
                     const float* x, float* out) {
  std::fill(out, out + cols, 0.0f);
  for (std::size_t r = 0; r < rows; ++r) {
    const float xv = x[r];
    if (xv == 0.0f) continue;  // event-driven: skip silent inputs
    axpy(out, xv, w + r * cols, cols);
  }
}

void matvec_out_major(const float* w, std::size_t rows, std::size_t cols,
                      const float* x, float* out) {
  for (std::size_t r = 0; r < rows; ++r) out[r] = dot(w + r * cols, x, cols);
}

void im2col(const float* in, std::size_t in_c, std::size_t in_h,
            std::size_t in_w, std::size_t k, std::size_t pad,
            std::size_t out_h, std::size_t out_w, float* col) {
  // Patch-row-major: row j = (c, ky, kx) holds that tap's value for every
  // output pixel, so each GEMM axpy streams one contiguous row.  For a
  // fixed (c, ky) the input pixels form contiguous runs per output row;
  // out-of-image taps are zero-filled.
  const std::size_t npix = out_h * out_w;
  std::size_t j = 0;
  for (std::size_t c = 0; c < in_c; ++c) {
    const float* plane = in + c * in_h * in_w;
    for (std::size_t ky = 0; ky < k; ++ky) {
      for (std::size_t kx = 0; kx < k; ++kx, ++j) {
        float* row = col + j * npix;
        for (std::size_t oy = 0; oy < out_h; ++oy) {
          float* dst = row + oy * out_w;
          const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy + ky) -
                                    static_cast<std::ptrdiff_t>(pad);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(in_h)) {
            std::fill(dst, dst + out_w, 0.0f);
            continue;
          }
          // ix = ox + kx - pad must lie in [0, in_w): valid ox range is
          // [x0, x1).
          const std::ptrdiff_t shift = static_cast<std::ptrdiff_t>(kx) -
                                       static_cast<std::ptrdiff_t>(pad);
          const std::size_t x0 = static_cast<std::size_t>(std::max<std::ptrdiff_t>(0, -shift));
          const std::size_t x1 = static_cast<std::size_t>(std::clamp<std::ptrdiff_t>(
              static_cast<std::ptrdiff_t>(in_w) - shift, 0,
              static_cast<std::ptrdiff_t>(out_w)));
          std::fill(dst, dst + x0, 0.0f);
          if (x1 > x0) {
            const float* src = plane + static_cast<std::size_t>(iy) * in_w;
            std::memcpy(dst + x0, src + static_cast<std::size_t>(
                                            static_cast<std::ptrdiff_t>(x0) + shift),
                        (x1 - x0) * sizeof(float));
          }
          std::fill(dst + std::max(x0, x1), dst + out_w, 0.0f);
        }
      }
    }
  }
}

void conv2d_forward(const float* in, std::size_t in_c, std::size_t in_h,
                    std::size_t in_w, const float* w, std::size_t out_c,
                    std::size_t k, std::size_t pad, std::size_t out_h,
                    std::size_t out_w, float* out, Scratch& scratch) {
  const std::size_t npix = out_h * out_w;
  const std::size_t patch = in_c * k * k;
  scratch.ensure_col(patch * npix);
  float* col = scratch.col.data();
  im2col(in, in_c, in_h, in_w, k, pad, out_h, out_w, col);

  std::fill(out, out + out_c * npix, 0.0f);
  // Blocked GEMM: out (out_c x npix, CHW feature maps) += W^T * col.
  // Patch rows are processed in ascending blocks and ascending order
  // inside each block, so per output element the accumulation order is
  // plain ascending (c, ky, kx) — the naive loop nest's order.  The
  // block keeps ~jb rows of `col` hot in cache while every output
  // channel consumes them.
  constexpr std::size_t kPatchBlock = 48;
  for (std::size_t j0 = 0; j0 < patch; j0 += kPatchBlock) {
    const std::size_t j1 = std::min(patch, j0 + kPatchBlock);
    for (std::size_t oc = 0; oc < out_c; ++oc) {
      float* dst = out + oc * npix;
      for (std::size_t j = j0; j < j1; ++j)
        axpy(dst, w[j * out_c + oc], col + j * npix, npix);
    }
  }
}

}  // namespace resparc::kernels
