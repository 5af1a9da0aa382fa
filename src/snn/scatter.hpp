// Shared spike-event scatter: ONE implementation of "add the fan-out of
// these input events into the output current buffer" for every layer
// kind, built on the kernels layer (common/kernels.hpp).
//
// Both execution engines call these functions — the dense simulator with
// the active-bit list of the previous layer's SpikeVector, the sparse
// engine with its AER event list — so their floating-point results are
// bit-for-bit identical by construction, not by parallel maintenance of
// two loop nests (docs/performance.md).
//
// The `part/parts` pair partitions the OUTPUT space (dense columns, conv
// output channels, pool output indices) so the simulator can spread one
// big layer across pool workers: each output element is written by
// exactly one partition and sees its additions in the exact order the
// unpartitioned call would use, so results are partition-count
// invariant.
#pragma once

#include <cstdint>
#include <span>

#include "common/kernels.hpp"
#include "common/matrix.hpp"
#include "snn/topology.hpp"
#include "snn/trace.hpp"

namespace resparc::snn {

/// Scatters the fan-out of `in_active` (ascending input indices) of a
/// layer described by `li` with weight matrix `w` (empty for pool
/// layers) into `current`, writing only the output slice owned by
/// partition `part` of `parts`.
///
/// Precondition: every element of the slice of `current` is +0.0f.
/// Dense and pool layers add onto it.  Conv layers accumulate in
/// `scratch.acc` channel-last (pixel*C + oc), so each kernel tap is one
/// unit-stride kernels::row_add across output channels, then move their
/// slice into `current` (CHW), overwriting it.  Either way each output
/// gets its additions in ascending input-index order starting from
/// +0.0f, so the result does not depend on the layout.  `scratch.acc` is
/// all +0.0f between calls.  The partitions of one call may share one
/// arena (their channel slices are disjoint), but only if the caller
/// grows it first (Scratch::ensure_acc(li.neurons)) so that no partition
/// reallocates it.
void scatter_accumulate(const LayerInfo& li, const Matrix& w,
                        std::span<const std::uint32_t> in_active,
                        std::span<float> current, kernels::Scratch& scratch,
                        std::size_t part = 0, std::size_t parts = 1);

/// Packed-spike form of scatter_accumulate: input events arrive as the
/// SpikeVector's 64-bit words instead of an index list, so no AER list is
/// materialized.  Set bits are decoded in ascending order — the order
/// append_active() emits — and dense layers run
/// kernels::masked_row_accumulate straight off the words, so the result
/// is bit-for-bit identical to the index-list overload on the same spike
/// pattern (tests/test_differential.cpp).  This is the scatter of the
/// "+packed" execution mode (docs/execution.md).
void scatter_accumulate(const LayerInfo& li, const Matrix& w,
                        const SpikeVector& in, std::span<float> current,
                        kernels::Scratch& scratch, std::size_t part = 0,
                        std::size_t parts = 1);

}  // namespace resparc::snn
