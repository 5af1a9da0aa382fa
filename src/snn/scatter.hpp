// Shared spike-event scatter: ONE implementation of "add the fan-out of
// these input events into the output current buffer" for every layer
// kind, built on the kernels layer (common/kernels.hpp).
//
// The simulator's two branches (snn/simulator.hpp) both come here: the
// stepped branch through scatter_accumulate, the touched branch through
// scatter_touched.  Both read the same per-layer tables and give every
// output its additions in ascending input-index order from +0.0f, so
// their floating-point results are bit-for-bit identical by construction
// (docs/performance.md).
//
// Every geometry decision (which output an input feeds, through which
// weight row) is read from a per-layer ScatterPlan that the engine builds
// once, so the per-event work is table loads and adds — no divisions, no
// border tests.  The plan also carries the layer's weights: a conv layer's
// as its own cache-line-aligned copy (kernels::RowPanel), a dense layer's
// by reference.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "common/kernels.hpp"
#include "common/matrix.hpp"
#include "snn/topology.hpp"
#include "snn/trace.hpp"

namespace resparc::snn {

/// Splits ascending input indices into (channel, in-plane pixel) without
/// a division: the events of one call arrive in ascending order, so the
/// channel only ever advances.
class ChannelCursor {
 public:
  /// `plane` = in_h * in_w, the index stride of one input channel.
  explicit ChannelCursor(std::size_t plane) : plane_(plane) {}

  /// In-plane pixel of input `idx`, which must not be below the previous
  /// index passed to this cursor.
  std::size_t pixel(std::size_t idx) {
    assert(idx >= base_);
    while (idx - base_ >= plane_) {
      base_ += plane_;
      ++channel_;
    }
    return idx - base_;
  }

  /// Channel of the index last passed to pixel().
  std::size_t channel() const { return channel_; }

 private:
  std::size_t plane_;
  std::size_t base_ = 0;
  std::size_t channel_ = 0;
};

/// Per-layer scatter geometry, weights and the conv gather's workspace.
/// Built once per layer by the Simulator, never per call; the steady
/// state reuses it without allocating.
///
///   * Avg-pool: the output index every input index feeds.
///   * Conv: for every input-plane pixel, its in-image kernel taps as
///     (output pixel, tap index ky*k + kx) in ascending tap order; a
///     list arena with one fixed-capacity weight-row list per output
///     pixel; and a copy of the weights taken at construction, each row
///     on its own 64-byte line and zero-padded to a multiple of 16
///     channels (kernels::RowPanel).  Later edits to the matrix are not
///     seen.
///   * Dense: a reference to the weight matrix, read in place.
class ScatterPlan {
 public:
  /// One in-image kernel tap of an input pixel.
  struct Tap {
    std::uint32_t pixel;  ///< output pixel oy*out_w + ox it feeds
    std::uint32_t tap;    ///< ky*k + kx
  };

  /// Builds the tables for layer `li` with weight matrix `w` (fan_in x
  /// neurons for dense, fan_in x out_c for conv, ignored for avg-pool) and
  /// sizes the conv gather arena (out_h*out_w lists of fan_in row ids).
  /// A dense layer's `w` must outlive the plan.
  ScatterPlan(const LayerInfo& li, const Matrix& w);

  /// The layer this plan was built for.
  const LayerInfo& layer() const { return li_; }

  /// Conv: the plan's copy of the weights, one padded row per (c, ky, kx).
  const kernels::RowPanel& panel() const { return panel_; }

  /// Dense: the weight matrix the plan reads.
  const Matrix& dense_weights() const { return *dense_; }

  /// Avg-pool: the output index input `idx` feeds.
  std::uint32_t pool_target(std::size_t idx) const { return pool_target_[idx]; }

  /// Conv: calls fn(weight_row, out_pixel) for each in-image tap of input
  /// `idx`, in ascending tap order — so over ascending events every output
  /// pixel sees its weight rows in ascending (c, ky, kx) order.  `cursor`
  /// (built on in_h*in_w) carries the channel between events.
  template <typename Fn>
  void for_each_tap(std::size_t idx, ChannelCursor& cursor, Fn&& fn) const {
    const std::size_t q = cursor.pixel(idx);
    const std::size_t row0 = cursor.channel() * taps_per_channel_;
    for (std::uint32_t i = tap_begin_[q]; i < tap_begin_[q + 1]; ++i)
      fn(row0 + taps_[i].tap, static_cast<std::size_t>(taps_[i].pixel));
  }

 private:
  friend void gather_conv(ScatterPlan&, const SpikeVector&,
                          std::span<float>);

  LayerInfo li_;
  const Matrix* dense_ = nullptr;           ///< dense: the weights
  kernels::RowPanel panel_;                 ///< conv: the weight copy
  std::vector<std::uint32_t> pool_target_;  ///< avg-pool: in idx -> out idx
  std::size_t taps_per_channel_ = 0;        ///< conv: k*k
  std::vector<std::uint32_t> tap_begin_;    ///< conv: taps_ range per in pixel
  std::vector<Tap> taps_;                   ///< conv: in-image taps
  /// Conv gather arena: output pixel p owns rows_[p*fan_in, (p+1)*fan_in);
  /// counts_[p] is its list length, 0 between calls.
  std::vector<std::uint32_t> rows_;
  std::vector<std::uint32_t> counts_;
};

/// Scatters the fan-out of the spikes `in` (the layer input, one bit per
/// input index) of the layer `plan` was built for into `current`.  The
/// set bits are decoded in place from the packed words, in ascending
/// index order (SpikeVector::for_each_active); no event list is built.
///
/// Precondition: every output is +0.0f.  Dense and pool layers add onto
/// it: dense through kernels::accumulate_rows, fed the decoded indices
/// 256 at a time (any row grouping gives the same bits).  Conv
/// layers gather: each event appends its weight row to the list of every
/// output pixel it feeds, then each touched pixel sums its list over the
/// plan's weight panel, one block of at most 64 padded channels at a
/// time, in registers (kernels::sum_rows), and writes the block's real
/// channels into `current` (CHW); untouched outputs and padding channels
/// are not written.  Either way each output gets its additions in
/// ascending input-index order starting from +0.0f.
void scatter_accumulate(ScatterPlan& plan, const SpikeVector& in,
                        std::span<float> current);

/// Touched form of scatter_accumulate for conv and avg-pool layers:
/// adds the fan-out of the spikes `in` straight into `current` (which
/// must be +0.0f at every output) and appends each output written for the
/// first time in `epoch` to `touched`, marking it with stamp[output] =
/// epoch.  Every output receives the additions scatter_accumulate gives
/// it, in the same order, so the touched values are bit-for-bit
/// identical; the cost is one stamp test per write instead of a pass over
/// the layer.  `epoch` must differ from every stamp left by earlier calls
/// (next_epoch keeps that true).
void scatter_touched(const ScatterPlan& plan, const SpikeVector& in,
                     std::span<float> current, std::span<std::uint32_t> stamp,
                     std::uint32_t epoch, std::vector<std::uint32_t>& touched);

/// Advances `epoch` to the next value scatter_touched may use with
/// `stamp` and returns it.  Stamps start at 0, so when the 32-bit epoch
/// would wrap to 0 every stamp is reset to 0 and the epoch restarts at 1:
/// the result then differs from every stamp, however many steps ran.
std::uint32_t next_epoch(std::uint32_t& epoch, std::span<std::uint32_t> stamp);

}  // namespace resparc::snn
