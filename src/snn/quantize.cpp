#include "snn/quantize.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace resparc::snn {

float quantize_value(float w, float scale, float steps) {
  if (scale <= 0.0f) return 0.0f;
  const float m = std::clamp(std::abs(w) / scale, 0.0f, 1.0f);
  const float mq = std::round(m * steps) / steps;
  return std::copysign(mq * scale, w);
}

namespace {

float layer_scale(const Matrix& w) {
  float s = 0.0f;
  for (float v : w.flat()) s = std::max(s, std::abs(v));
  return s;
}

}  // namespace

void quantize_matrix(Matrix& weights, int bits, float scale) {
  require(bits >= 1 && bits <= 8, "quantize: bits must be in [1,8]");
  const float steps = static_cast<float>((1 << bits) - 1);
  for (float& w : weights.flat()) w = quantize_value(w, scale, steps);
}

void quantize_network(Network& net, int bits) {
  for (std::size_t l = 0; l < net.layer_count(); ++l) {
    Matrix& w = net.layer(l).weights;
    if (w.empty()) continue;
    quantize_matrix(w, bits, layer_scale(w));
  }
}

double quantization_mae(const Matrix& weights, int bits, float scale) {
  require(bits >= 1 && bits <= 8, "quantize: bits must be in [1,8]");
  const float steps = static_cast<float>((1 << bits) - 1);
  double err = 0.0;
  for (float w : weights.flat())
    err += std::abs(static_cast<double>(w) -
                    static_cast<double>(quantize_value(w, scale, steps)));
  return weights.size() ? err / static_cast<double>(weights.size()) : 0.0;
}

}  // namespace resparc::snn
