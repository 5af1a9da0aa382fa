// Weight discretisation (paper section 5.4, Fig. 14).
//
// Memristive devices store a finite number of conductance levels; section
// 4.2 uses 16 levels (4 bits).  This is the one weight quantiser of the
// device mapping: each layer's weights are scaled by the layer's max |w|
// and the normalised magnitude is rounded to one of 2^bits - 1 uniform
// steps per polarity (level 0 = zero weight).  core::perturb_network
// programs its faulty copies through the same per-value rule.
#pragma once

#include "common/matrix.hpp"
#include "snn/network.hpp"

namespace resparc::snn {

/// Rounds one weight to the nearest of `steps` uniform magnitude steps of
/// `scale` (2^bits - 1 steps for `bits` of resolution), keeping its sign:
/// copysign(round(m * steps) / steps * scale, w) with m = |w| / scale
/// clamped to [0, 1].  Returns 0 when `scale` <= 0.  No range check on
/// `steps`, so callers with a wider bit range than quantize_matrix's
/// [1, 8] share the same arithmetic.
float quantize_value(float w, float scale, float steps);

/// Quantises one weight matrix in place to `bits` of magnitude resolution,
/// using `scale` as the full-range magnitude (weights are clamped to it).
void quantize_matrix(Matrix& weights, int bits, float scale);

/// Quantises every layer of the network in place, each with its own
/// max-|w| scale.  Pool layers (no stored weights) are untouched.
void quantize_network(Network& net, int bits);

/// Mean absolute quantisation error a matrix would suffer at `bits`
/// (without modifying it) — used by tests to check monotone improvement.
double quantization_mae(const Matrix& weights, int bits, float scale);

}  // namespace resparc::snn
