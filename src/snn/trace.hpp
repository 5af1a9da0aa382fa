// Spike traces: the packed record of which neuron spiked when.
//
// A SpikeTrace is the contract between the functional simulator and the two
// architecture executors (RESPARC and the CMOS baseline): the executors
// replay the trace to count hardware events.  Spikes are bit-packed into
// 64-bit words — deliberately the same width as the architecture's flit —
// so zero-packet statistics (the event-driven lever of section 3.2) fall
// out of the representation for free.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

namespace resparc::snn {

/// One layer's spikes for one timestep, bit-packed little-endian
/// (bit i of word w = neuron w*64+i).
class SpikeVector {
 public:
  SpikeVector() = default;
  explicit SpikeVector(std::size_t neurons)
      : neurons_(neurons), words_((neurons + 63) / 64, 0) {}

  /// Builds from a 0/1 byte vector.
  static SpikeVector from_bytes(std::span<const std::uint8_t> bytes);

  /// Re-sizes to `neurons` and clears every bit, reusing the word buffer
  /// when it is already large enough — the allocation-free steady-state
  /// form of `*this = SpikeVector(neurons)`.
  void reset(std::size_t neurons) {
    neurons_ = neurons;
    words_.assign((neurons + 63) / 64, 0);
  }

  std::size_t size() const { return neurons_; }
  std::size_t word_count() const { return words_.size(); }

  bool get(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  void set(std::size_t i) { words_[i >> 6] |= (std::uint64_t{1} << (i & 63)); }
  void clear(std::size_t i) {
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }

  /// Raw packed words (the trailing word's unused bits are zero).
  std::span<const std::uint64_t> words() const { return words_; }

  /// Writable packed words, for a producer that overwrites every word in
  /// one pass (IfPopulation::step_packed via kernels::if_step_words).
  /// The producer must leave bits at and above size() zero.
  std::span<std::uint64_t> words_for_overwrite() { return words_; }

  /// Overwrites packed word `w` (bits [w*64, w*64+64) of the vector) in
  /// one store — the word-granular producer of the packed datapath
  /// (docs/performance.md).  Bits at and above size() are masked off
  /// before the store, so a sloppy tail word can never plant stale bits
  /// that would leak into count()/for_each_active()
  /// (tests/test_trace.cpp enforces the tail invariant).
  void set_word(std::size_t w, std::uint64_t bits) {
    const std::size_t valid = neurons_ - (w << 6);  // bits in use in word w
    if (valid < 64) bits &= (std::uint64_t{1} << valid) - 1;
    words_[w] = bits;
  }

  /// Number of set bits.
  std::size_t count() const;

  /// True when no neuron spiked.
  bool none() const;

  /// Number of set bits within [begin, end) — the "active rows" of an MCA
  /// slice.  end is clamped to size().
  std::size_t count_range(std::size_t begin, std::size_t end) const;

  /// True when no bit is set within [begin, end).
  bool none_in_range(std::size_t begin, std::size_t end) const;

  /// Calls fn(i) for the index i of every set bit, in ascending order,
  /// decoding the packed words in place: a zero word costs one test, a
  /// set bit one count-trailing-zeros.  The simulator's scatters read
  /// their input spikes through it (snn/scatter.hpp).
  template <typename Fn>
  void for_each_active(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1)
        fn(static_cast<std::uint32_t>((w << 6) + std::countr_zero(bits)));
    }
  }

  /// Appends the index of every set bit to `out` in ascending order.
  void append_active(std::vector<std::uint32_t>& out) const {
    for_each_active([&](std::uint32_t i) { out.push_back(i); });
  }

 private:
  std::size_t neurons_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Spikes of every layer (index 0 = input layer) over all timesteps of one
/// input presentation: trace[layer][t].
struct SpikeTrace {
  /// layers[l][t]: spikes of layer l (l = 0 is the encoded input) at step t.
  std::vector<std::vector<SpikeVector>> layers;

  std::size_t timesteps() const {
    return layers.empty() ? 0 : layers.front().size();
  }
  std::size_t layer_count() const { return layers.size(); }

  /// Total spikes emitted by layer `l` over the presentation.
  std::size_t layer_spike_count(std::size_t l) const;

  /// Mean fraction of neurons of layer `l` spiking per timestep.
  double layer_activity(std::size_t l) const;
};

}  // namespace resparc::snn
