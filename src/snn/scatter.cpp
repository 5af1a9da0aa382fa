#include "snn/scatter.hpp"

#include <algorithm>
#include <bit>

namespace resparc::snn {

namespace {

/// Even [begin, end) split of `n` elements for partition `part`/`parts`.
struct Slice {
  std::size_t begin;
  std::size_t end;
};

Slice slice_of(std::size_t n, std::size_t part, std::size_t parts) {
  const std::size_t base = n / parts;
  const std::size_t extra = n % parts;
  const std::size_t begin = part * base + std::min(part, extra);
  return {begin, begin + base + (part < extra ? 1 : 0)};
}

/// Event driver over an explicit ascending index list.
struct IndexEvents {
  std::span<const std::uint32_t> active;
  template <typename Fn>
  void operator()(Fn&& fn) const {
    for (const std::uint32_t idx : active) fn(idx);
  }
};

/// Event driver over a SpikeVector's packed words: decodes set bits in
/// ascending order — exactly the order append_active() emits — so both
/// drivers visit events identically.
struct PackedEvents {
  const SpikeVector& in;
  template <typename Fn>
  void operator()(Fn&& fn) const {
    const std::span<const std::uint64_t> words = in.words();
    for (std::size_t w = 0; w < words.size(); ++w) {
      std::uint64_t word = words[w];
      while (word) {
        const unsigned bit = static_cast<unsigned>(std::countr_zero(word));
        fn(static_cast<std::uint32_t>((w << 6) + bit));
        word &= word - 1;  // clear the lowest set bit
      }
    }
  }
};

// The conv/pool scatter bodies are shared by both event drivers: ONE loop
// nest per layer kind regardless of how the events are delivered, so the
// index-list and packed paths cannot drift apart.

/// Scatter form of the convolution: input (c,y,x) feeds output
/// (oc, y-ky+pad, x-kx+pad) with kernel weight row (c*k+ky)*k+kx — one
/// weight per output channel.  The taps accumulate channel-last in
/// scratch.acc (pixel*C + oc), so each is one unit-stride row_add across
/// the partition's channels; one pass then moves the slice into the CHW
/// `current` and re-zeroes it.  Partition = output-channel slice.
template <typename Events>
void scatter_conv(const LayerInfo& li, const Matrix& w, const Events& each,
                  std::span<float> current, kernels::Scratch& scratch,
                  std::size_t part, std::size_t parts) {
  const Shape3 in_shape = li.in_shape;
  const Shape3 out = li.out_shape;
  const std::size_t k = li.spec.kernel;
  const std::size_t pad = li.spec.same_padding ? k / 2 : 0;
  const std::size_t plane = out.h * out.w;
  const auto [oc0, oc1] = slice_of(out.c, part, parts);
  if (oc1 == oc0) return;
  const std::size_t width = oc1 - oc0;
  scratch.ensure_acc(out.size());
  float* const acc = scratch.acc.data() + oc0;
  each([&](const std::uint32_t idx) {
    const std::size_t c = idx / (in_shape.h * in_shape.w);
    const std::size_t rem = idx % (in_shape.h * in_shape.w);
    const std::size_t y = rem / in_shape.w;
    const std::size_t x = rem % in_shape.w;
    for (std::size_t ky = 0; ky < k; ++ky) {
      const std::ptrdiff_t oy =
          static_cast<std::ptrdiff_t>(y + pad) - static_cast<std::ptrdiff_t>(ky);
      if (oy < 0 || oy >= static_cast<std::ptrdiff_t>(out.h)) continue;
      for (std::size_t kx = 0; kx < k; ++kx) {
        const std::ptrdiff_t ox =
            static_cast<std::ptrdiff_t>(x + pad) - static_cast<std::ptrdiff_t>(kx);
        if (ox < 0 || ox >= static_cast<std::ptrdiff_t>(out.w)) continue;
        const std::size_t wrow = (c * k + ky) * k + kx;
        const std::size_t pixel =
            static_cast<std::size_t>(oy) * out.w + static_cast<std::size_t>(ox);
        kernels::row_add(acc + pixel * out.c, w.row(wrow).data() + oc0, width);
      }
    }
  });
  float* const dst = current.data() + oc0 * plane;
  for (std::size_t pixel = 0; pixel < plane; ++pixel) {
    float* const src = acc + pixel * out.c;
    for (std::size_t j = 0; j < width; ++j) dst[j * plane + pixel] = src[j];
    std::fill(src, src + width, 0.0f);
  }
}

/// Each event touches exactly one output; partition = output-index slice,
/// membership-checked per event.
template <typename Events>
void scatter_pool(const LayerInfo& li, const Events& each,
                  std::span<float> current, std::size_t part,
                  std::size_t parts) {
  const Shape3 in_shape = li.in_shape;
  const Shape3 out = li.out_shape;
  const std::size_t p = li.spec.pool;
  const float share = 1.0f / static_cast<float>(p * p);
  const auto [b, e] = slice_of(out.size(), part, parts);
  each([&](const std::uint32_t idx) {
    const std::size_t c = idx / (in_shape.h * in_shape.w);
    const std::size_t rem = idx % (in_shape.h * in_shape.w);
    const std::size_t y = rem / in_shape.w;
    const std::size_t x = rem % in_shape.w;
    const std::size_t at = (c * out.h + y / p) * out.w + x / p;
    if (at >= b && at < e) current[at] += share;
  });
}

}  // namespace

void scatter_accumulate(const LayerInfo& li, const Matrix& w,
                        std::span<const std::uint32_t> in_active,
                        std::span<float> current, kernels::Scratch& scratch,
                        std::size_t part, std::size_t parts) {
  switch (li.spec.kind) {
    case LayerKind::kDense: {
      // Partition = column slice; every event drives every column, so the
      // slice just narrows the accumulate width.
      const auto [c0, c1] = slice_of(w.cols(), part, parts);
      kernels::accumulate_rows(w.flat().data() + c0, w.cols(), c1 - c0,
                               in_active, current.data() + c0);
      break;
    }
    case LayerKind::kConv:
      scatter_conv(li, w, IndexEvents{in_active}, current, scratch, part,
                   parts);
      break;
    case LayerKind::kAvgPool:
      scatter_pool(li, IndexEvents{in_active}, current, part, parts);
      break;
  }
}

void scatter_accumulate(const LayerInfo& li, const Matrix& w,
                        const SpikeVector& in, std::span<float> current,
                        kernels::Scratch& scratch, std::size_t part,
                        std::size_t parts) {
  switch (li.spec.kind) {
    case LayerKind::kDense: {
      // masked_row_accumulate replicates accumulate_rows' row_add4
      // grouping over the packed words, so the column slice sees the
      // exact additions the index-list overload performs.
      const auto [c0, c1] = slice_of(w.cols(), part, parts);
      kernels::masked_row_accumulate(w.flat().data() + c0, w.cols(), c1 - c0,
                                     in.words().data(), in.size(),
                                     current.data() + c0);
      break;
    }
    case LayerKind::kConv:
      scatter_conv(li, w, PackedEvents{in}, current, scratch, part, parts);
      break;
    case LayerKind::kAvgPool:
      scatter_pool(li, PackedEvents{in}, current, part, parts);
      break;
  }
}

}  // namespace resparc::snn
