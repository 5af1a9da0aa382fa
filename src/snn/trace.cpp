#include "snn/trace.hpp"

#include "common/kernels.hpp"

namespace resparc::snn {

SpikeVector SpikeVector::from_bytes(std::span<const std::uint8_t> bytes) {
  SpikeVector v(bytes.size());
  for (std::size_t i = 0; i < bytes.size(); ++i)
    if (bytes[i]) v.set(i);
  return v;
}

std::size_t SpikeVector::count() const {
  std::size_t n = 0;
  for (auto w : words_) n += kernels::popcount64(w);
  return n;
}

bool SpikeVector::none() const {
  for (auto w : words_)
    if (w) return false;
  return true;
}

std::size_t SpikeVector::count_range(std::size_t begin, std::size_t end) const {
  if (end > neurons_) end = neurons_;
  if (begin >= end) return 0;
  std::size_t n = 0;
  std::size_t first_word = begin >> 6;
  std::size_t last_word = (end - 1) >> 6;
  for (std::size_t w = first_word; w <= last_word; ++w) {
    std::uint64_t word = words_[w];
    if (w == first_word) {
      const std::size_t shift = begin & 63;
      word &= ~std::uint64_t{0} << shift;
    }
    if (w == last_word) {
      const std::size_t top = end - (w << 6);  // bits used in the last word
      if (top < 64) word &= (std::uint64_t{1} << top) - 1;
    }
    n += kernels::popcount64(word);
  }
  return n;
}

bool SpikeVector::none_in_range(std::size_t begin, std::size_t end) const {
  return count_range(begin, end) == 0;
}

std::size_t SpikeTrace::layer_spike_count(std::size_t l) const {
  std::size_t n = 0;
  for (const auto& v : layers[l]) n += v.count();
  return n;
}

double SpikeTrace::layer_activity(std::size_t l) const {
  const auto& steps = layers[l];
  if (steps.empty() || steps.front().size() == 0) return 0.0;
  const double total =
      static_cast<double>(steps.front().size()) * static_cast<double>(steps.size());
  return static_cast<double>(layer_spike_count(l)) / total;
}

}  // namespace resparc::snn
