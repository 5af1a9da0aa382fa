#include "tech/nonideal.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace resparc::tech {
namespace {

// Salt separating the fault stream family from every other consumer of
// stream_seed (presentation seeds, fleet chip seeds, bench kernels).
constexpr std::uint64_t kFaultStreamSalt = 0xFA171D5EEDull;

}  // namespace

void FaultConfig::validate() const {
  require(stuck_off_rate >= 0.0 && stuck_off_rate < 1.0,
          "faults.stuck_off_rate must be in [0, 1)");
  require(stuck_on_rate >= 0.0 && stuck_on_rate < 1.0,
          "faults.stuck_on_rate must be in [0, 1)");
  require(stuck_off_rate + stuck_on_rate < 1.0,
          "faults.stuck_off_rate + stuck_on_rate must be < 1");
  require(programming_sigma >= 0.0, "faults.programming_sigma must be >= 0");
  require(read_noise_sigma >= 0.0, "faults.read_noise_sigma must be >= 0");
  require(weight_bits >= 0 && weight_bits <= 16,
          "faults.weight_bits must be in [0, 16]");
  require(failed_density > 0.0 && failed_density <= 1.0,
          "faults.failed_density must be in (0, 1]");
}

FaultModel::FaultModel(FaultConfig config, std::size_t mca_size)
    : config_(config), mca_size_(mca_size),
      chip_stream_(stream_seed(config.chip_seed, kFaultStreamSalt)) {
  require(mca_size_ > 0, "FaultModel: mca_size must be positive");
  config_.validate();
}

McaFaults FaultModel::sample_impl(std::size_t mca_id, bool materialize) const {
  // One decorrelated stream per (chip_seed, mca_id): slot queries are
  // order- and thread-independent.
  Rng rng(stream_seed(chip_stream_, mca_id));
  const std::size_t cells = mca_size_ * mca_size_;
  McaFaults out;
  out.mca_id = mca_id;
  if (materialize) {
    out.cells.assign(cells, CellFault::kNone);
    out.gain.assign(cells, 1.0);
  }
  // Per-cell draw discipline, row-major: stuck-off bernoulli, else
  // stuck-on bernoulli, else the programming then the read-noise normal
  // draw, each only when its sigma is positive.  The summary path
  // (materialize = false) consumes the exact same stream so densities
  // match sample() bit-for-bit.
  for (std::size_t cell = 0; cell < cells; ++cell) {
    if (rng.bernoulli(config_.stuck_off_rate)) {
      ++out.stuck_off;
      if (materialize) out.cells[cell] = CellFault::kStuckOff;
      continue;
    }
    if (rng.bernoulli(config_.stuck_on_rate)) {
      ++out.stuck_on;
      if (materialize) out.cells[cell] = CellFault::kStuckOn;
      continue;
    }
    double log_gain = 0.0;
    if (config_.programming_sigma > 0.0)
      log_gain += rng.normal(0.0, config_.programming_sigma);
    if (config_.read_noise_sigma > 0.0)
      log_gain += rng.normal(0.0, config_.read_noise_sigma);
    if (materialize && log_gain != 0.0) out.gain[cell] = std::exp(log_gain);
  }
  return out;
}

McaFaults FaultModel::sample(std::size_t mca_id) const {
  return sample_impl(mca_id, true);
}

McaFaults FaultModel::sample_counts(std::size_t mca_id) const {
  return sample_impl(mca_id, false);
}

double FaultModel::stuck_density(std::size_t mca_id) const {
  const McaFaults counts = sample_impl(mca_id, false);
  const double cells = static_cast<double>(mca_size_ * mca_size_);
  return static_cast<double>(counts.stuck_off + counts.stuck_on) / cells;
}

double FaultModel::energy_scale(std::size_t mca_id, double stuck_on_ratio,
                                double stuck_off_ratio) const {
  const McaFaults faults = sample(mca_id);
  double sum = 0.0;
  for (std::size_t cell = 0; cell < faults.cells.size(); ++cell) {
    switch (faults.cells[cell]) {
      case CellFault::kStuckOff: sum += stuck_off_ratio; break;
      case CellFault::kStuckOn: sum += stuck_on_ratio; break;
      case CellFault::kNone: sum += faults.gain[cell]; break;
    }
  }
  return faults.cells.empty() ? 1.0 : sum / static_cast<double>(faults.cells.size());
}

std::size_t ChipHealthMap::failed_count() const {
  std::size_t n = 0;
  for (const std::uint8_t f : mpe_failed) n += f != 0 ? 1 : 0;
  return n;
}

ChipHealthMap scan_chip_health(const FaultModel& model, std::size_t mpe_count,
                               std::size_t mcas_per_mpe) {
  require(mcas_per_mpe > 0, "scan_chip_health: mcas_per_mpe must be positive");
  ChipHealthMap health;
  health.mcas_per_mpe = mcas_per_mpe;
  health.mpe_failed.assign(mpe_count, 0);
  for (std::size_t mpe = 0; mpe < mpe_count; ++mpe)
    for (std::size_t slot = 0; slot < mcas_per_mpe; ++slot)
      if (model.mca_failed(mpe * mcas_per_mpe + slot)) {
        health.mpe_failed[mpe] = 1;
        break;
      }
  return health;
}

FaultManifest scan_manifest(const FaultModel& model, std::size_t mpe_count,
                            std::size_t mcas_per_mpe) {
  require(mcas_per_mpe > 0, "scan_manifest: mcas_per_mpe must be positive");
  FaultManifest manifest;
  manifest.chip_seed = model.config().chip_seed;
  manifest.mca_size = model.mca_size();
  for (std::size_t mpe = 0; mpe < mpe_count; ++mpe) {
    bool mpe_failed = false;
    for (std::size_t slot = 0; slot < mcas_per_mpe; ++slot) {
      const std::size_t mca_id = mpe * mcas_per_mpe + slot;
      const McaFaults faults = model.sample_counts(mca_id);
      ++manifest.mcas;
      manifest.cells += model.mca_size() * model.mca_size();
      manifest.stuck_off_cells += faults.stuck_off;
      manifest.stuck_on_cells += faults.stuck_on;
      const double density = static_cast<double>(faults.stuck_off + faults.stuck_on) /
                             static_cast<double>(model.mca_size() * model.mca_size());
      manifest.max_stuck_density = std::max(manifest.max_stuck_density, density);
      if (density > model.config().failed_density) {
        ++manifest.failed_mcas;
        mpe_failed = true;
      }
    }
    if (mpe_failed) manifest.failed_mpes.push_back(mpe);
  }
  return manifest;
}

}  // namespace resparc::tech
