#include "core/mpe.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace resparc::core {

Mpe::Mpe(std::size_t mca_size, std::size_t mcas_per_mpe, tech::Memristor device)
    : mca_size_(mca_size), capacity_(mcas_per_mpe), device_(std::move(device)),
      accumulator_(mca_size, 0.0f) {
  require(mca_size_ > 0 && capacity_ > 0, "mPE needs positive dimensions");
  mcas_.reserve(capacity_);
}

void Mpe::add_mca(const Matrix& weights, std::size_t input_offset,
                  float scale) {
  require(mcas_.size() < capacity_, "mPE is full (mcas_per_mpe reached)");
  Mca mca(mca_size_, device_);
  mca.program(weights, input_offset, scale);
  mcas_.push_back(std::move(mca));
}

void Mpe::host_neurons(std::size_t count, const snn::IfParams& params) {
  require(count > 0 && count <= mca_size_,
          "hosted neuron count must be in [1, mca_size]");
  neuron_params_ = params;
  population_ = std::make_unique<snn::IfPopulation>(count, params);
}

std::size_t Mpe::neuron_count() const {
  return population_ ? population_->size() : 0;
}

void Mpe::begin_step() {
  std::fill(accumulator_.begin(), accumulator_.end(), 0.0f);
}

void Mpe::integrate_local(const snn::SpikeVector& layer_input) {
  for (auto& mca : mcas_) {
    // Event-driven skip: consult the iBUFF slice first; a silent slice
    // never reaches the crossbar (section 3.2).
    const std::size_t active = mca.accumulate(layer_input, accumulator_);
    if (active == 0) {
      ++counters_.mca_skips;
    } else {
      ++counters_.mca_reads;
      counters_.ibuff_bits += mca.rows_used();
    }
  }
}

void Mpe::integrate_external(std::span<const float> currents) {
  require(currents.size() <= accumulator_.size(),
          "external current vector too wide");
  for (std::size_t i = 0; i < currents.size(); ++i)
    accumulator_[i] += currents[i];
}

void Mpe::send_currents() { ++counters_.ccu_out; }

snn::SpikeVector Mpe::fire() {
  require(population_ != nullptr, "fire() on a helper mPE");
  const std::size_t n = population_->size();
  snn::SpikeVector spikes(n);
  const std::size_t fires = population_->step_packed(
      std::span<const float>(accumulator_.data(), n), spikes);
  counters_.neuron_fires += fires;
  counters_.obuff_bits += spikes.word_count() * 64;
  return spikes;
}

void Mpe::reset() {
  if (population_) population_->reset();
  counters_ = MpeCounters{};
  begin_step();
}

double Mpe::crossbar_energy_pj() const {
  double e = 0.0;
  for (const auto& mca : mcas_) e += mca.total_read_energy_pj();
  return e;
}

}  // namespace resparc::core
