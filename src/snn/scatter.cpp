#include "snn/scatter.hpp"

#include <algorithm>
#include <cassert>

#include "common/error.hpp"
#include "common/kernels.hpp"

namespace resparc::snn {

namespace {

/// The current one input spike adds to its avg-pool output.
float pool_share(const LayerInfo& li) {
  const std::size_t p = li.spec.pool;
  return 1.0f / static_cast<float>(p * p);
}

/// Each event touches exactly one output, read from the plan's table.
void scatter_pool(const ScatterPlan& plan,
                  std::span<const std::uint32_t> in_active,
                  std::span<float> current) {
  const float share = pool_share(plan.layer());
  for (const std::uint32_t idx : in_active)
    current[plan.pool_target(idx)] += share;
}

}  // namespace

ScatterPlan::ScatterPlan(const LayerInfo& li, const Matrix& w) : li_(li) {
  const Shape3 in = li.in_shape;
  const Shape3 out = li.out_shape;
  switch (li.spec.kind) {
    case LayerKind::kDense:
      dense_ = &w;
      break;
    case LayerKind::kAvgPool: {
      const std::size_t p = li.spec.pool;
      pool_target_.resize(in.size());
      for (std::size_t c = 0, idx = 0; c < in.c; ++c)
        for (std::size_t y = 0; y < in.h; ++y)
          for (std::size_t x = 0; x < in.w; ++x, ++idx)
            pool_target_[idx] =
                static_cast<std::uint32_t>((c * out.h + y / p) * out.w + x / p);
      break;
    }
    case LayerKind::kConv: {
      // Input (y, x) feeds output (y+pad-ky, x+pad-kx) through tap
      // (ky, kx); only in-image outputs get a table entry.
      const std::size_t k = li.spec.kernel;
      const std::ptrdiff_t pad =
          static_cast<std::ptrdiff_t>(li.spec.same_padding ? k / 2 : 0);
      taps_per_channel_ = k * k;
      tap_begin_.reserve(in.h * in.w + 1);
      tap_begin_.push_back(0);
      for (std::size_t y = 0; y < in.h; ++y) {
        for (std::size_t x = 0; x < in.w; ++x) {
          for (std::size_t ky = 0; ky < k; ++ky) {
            const std::ptrdiff_t oy = static_cast<std::ptrdiff_t>(y) + pad -
                                      static_cast<std::ptrdiff_t>(ky);
            if (oy < 0 || oy >= static_cast<std::ptrdiff_t>(out.h)) continue;
            for (std::size_t kx = 0; kx < k; ++kx) {
              const std::ptrdiff_t ox = static_cast<std::ptrdiff_t>(x) + pad -
                                        static_cast<std::ptrdiff_t>(kx);
              if (ox < 0 || ox >= static_cast<std::ptrdiff_t>(out.w)) continue;
              const std::size_t pixel = static_cast<std::size_t>(oy) * out.w +
                                        static_cast<std::size_t>(ox);
              taps_.push_back({static_cast<std::uint32_t>(pixel),
                               static_cast<std::uint32_t>(ky * k + kx)});
            }
          }
          tap_begin_.push_back(static_cast<std::uint32_t>(taps_.size()));
        }
      }
      rows_.resize(out.h * out.w * li.fan_in);
      counts_.assign(out.h * out.w, 0);
      require(w.rows() == li.fan_in && w.cols() == out.c,
              "scatter plan: conv weights do not match the layer");
      panel_ = kernels::RowPanel(w.flat().data(), w.rows(), w.cols());
      break;
    }
  }
}

/// Output-stationary form of the convolution: every event appends its
/// weight row c*k*k + tap to the list of each output pixel it feeds
/// (ascending events, so each list is in ascending (c, ky, kx) order);
/// then each touched pixel sums its list across all output channels, one
/// block of at most kRowBlock padded channels at a time, into a stack
/// accumulator that starts at +0.0f, and stores the block's real
/// channels into the CHW `current`.
void gather_conv(ScatterPlan& plan, std::span<const std::uint32_t> in_active,
                 std::span<float> current) {
  const Shape3 in = plan.li_.in_shape;
  const Shape3 out = plan.li_.out_shape;
  const std::size_t plane = out.h * out.w;
  const std::size_t cap = plan.li_.fan_in;
  std::uint32_t* const rows = plan.rows_.data();
  std::uint32_t* const counts = plan.counts_.data();
  const float* const panel = plan.panel_.data();
  const std::size_t stride = plan.panel_.stride();

  ChannelCursor cursor(in.h * in.w);
  for (const std::uint32_t idx : in_active) {
    plan.for_each_tap(idx, cursor, [&](std::size_t row, std::size_t pixel) {
      assert(counts[pixel] < cap);  // a repeated event would overflow
      rows[pixel * cap + counts[pixel]++] = static_cast<std::uint32_t>(row);
    });
  }

  // Channel blocks bound the stack accumulator; every output still sees
  // the whole list in order, so the blocking has no numeric effect.
  // Padding channels are summed (zeros) but never stored.
  constexpr std::size_t kBlock = kernels::kRowBlock;
  alignas(64) float acc[kBlock] = {};
  for (std::size_t pixel = 0; pixel < plane; ++pixel) {
    const std::size_t n = counts[pixel];
    if (n == 0) continue;
    counts[pixel] = 0;
    const std::span<const std::uint32_t> list(rows + pixel * cap, n);
    for (std::size_t oc0 = 0; oc0 < out.c; oc0 += kBlock) {
      kernels::sum_rows(panel + oc0, stride, std::min(kBlock, stride - oc0),
                        list, acc);
      const std::size_t width = std::min(kBlock, out.c - oc0);
      float* const dst = current.data() + oc0 * plane + pixel;
      for (std::size_t j = 0; j < width; ++j) dst[j * plane] = acc[j];
    }
  }
}

void scatter_accumulate(ScatterPlan& plan,
                        std::span<const std::uint32_t> in_active,
                        std::span<float> current) {
  switch (plan.layer().spec.kind) {
    case LayerKind::kDense: {
      const Matrix& w = plan.dense_weights();
      kernels::accumulate_rows(w.flat().data(), w.cols(), w.cols(), in_active,
                               current.data());
      break;
    }
    case LayerKind::kConv:
      gather_conv(plan, in_active, current);
      break;
    case LayerKind::kAvgPool:
      scatter_pool(plan, in_active, current);
      break;
  }
}

void scatter_touched(const ScatterPlan& plan,
                     std::span<const std::uint32_t> in_active,
                     std::span<float> current, std::span<std::uint32_t> stamp,
                     std::uint32_t epoch, std::vector<std::uint32_t>& touched) {
  const LayerInfo& li = plan.layer();
  const auto touch = [&](std::size_t at) {
    if (stamp[at] != epoch) {
      stamp[at] = epoch;
      touched.push_back(static_cast<std::uint32_t>(at));
    }
  };
  switch (li.spec.kind) {
    case LayerKind::kDense:
      assert(false && "dense layers have no touched form");
      break;
    case LayerKind::kConv: {
      // Each tap adds its kernel row across the output channels; over
      // ascending events every output sees its rows in the gather's
      // ascending (c, ky, kx) order.
      const std::size_t channels = li.out_shape.c;
      const std::size_t plane = li.out_shape.h * li.out_shape.w;
      ChannelCursor cursor(li.in_shape.h * li.in_shape.w);
      for (const std::uint32_t idx : in_active) {
        plan.for_each_tap(idx, cursor, [&](std::size_t row, std::size_t pixel) {
          const float* const kernels = plan.panel().row(row);
          for (std::size_t oc = 0; oc < channels; ++oc) {
            const std::size_t at = oc * plane + pixel;
            touch(at);
            current[at] += kernels[oc];
          }
        });
      }
      break;
    }
    case LayerKind::kAvgPool: {
      const float share = pool_share(li);
      for (const std::uint32_t idx : in_active) {
        const std::size_t at = plan.pool_target(idx);
        touch(at);
        current[at] += share;
      }
      break;
    }
  }
}

}  // namespace resparc::snn
