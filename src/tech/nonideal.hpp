// Device fault injection for chip-instance robustness studies.
//
// RESPARC's energy/accuracy numbers assume ideal crossbars; real chips
// come off the line with quantised conductance levels, lognormal
// programming variation, stuck-at cells and read noise, all of which
// erode accuracy per device *instance*.  FaultModel is the seedable
// source of those imperfections: one `(chip_seed, mca_id)` pair expands
// deterministically — via the SplitMix64 stream discipline of
// common/rng.hpp — into the complete fault state of one MCA, so a chip
// instance is reproducible from a single 64-bit seed, every consumer
// (functional simulator, analytic executor, repair pass, verifier,
// fleet harness) sees the *same* silicon, and a fleet Monte-Carlo sweep
// is just a sweep over chip seeds (docs/reliability.md).
//
// The model is applied at program time: each cell draws, row-major,
// stuck-off, else stuck-on, else its programming then read-noise gain,
// and read noise is frozen per cell rather than redrawn per read, so
// multi-trace and per-trace replays stay bit-for-bit equivalent under
// faults (tests/test_differential.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace resparc::tech {

/// Per-chip fault-injection knobs (all off by default).  Lives on
/// core::ResparcConfig as `faults`; when `enabled` is false the whole
/// layer is inert and the configuration fingerprint, compiled programs
/// and executed reports are bit-for-bit identical to a build without
/// the layer (tests/test_faults.cpp enforces this).
struct FaultConfig {
  bool enabled = false;          ///< master switch; false = ideal devices
  std::uint64_t chip_seed = 1;   ///< chip-instance identity (fleet sweep axis)
  double stuck_off_rate = 0.0;   ///< per-cell probability of stuck-at-G_min
  double stuck_on_rate = 0.0;    ///< per-cell probability of stuck-at-G_max
  double programming_sigma = 0.0;  ///< lognormal sigma of write variation
  double read_noise_sigma = 0.0;   ///< lognormal sigma of (frozen) read noise
  int weight_bits = 0;           ///< conductance quantisation (0 = device default)
  /// Stuck-cell fraction above which an MCA counts as failed; a mPE with
  /// any failed MCA is avoided by the repair pass and flagged by the
  /// RV-FAULT verifier passes.
  double failed_density = 0.05;
  bool repair = true;            ///< re-place layers around failed mPEs
  /// Physical NeuroCell budget of the chip instance (0 = unbounded);
  /// repair may spill onto spare NeuroCells only up to this bound
  /// (RV-FAULT-CAPACITY).
  std::size_t chip_neurocells = 0;

  /// Throws ConfigError when rates/sigmas/bounds are out of range.
  void validate() const;
};

/// Fault state of one cell.
enum class CellFault : std::uint8_t {
  kNone = 0,      ///< programmable; conductance scaled by `gain`
  kStuckOff = 1,  ///< stuck at G_min (weight reads as 0)
  kStuckOn = 2,   ///< stuck at G_max (weight reads as full scale)
};

/// Realised fault state of one MCA: `mca_size x mca_size` cells in
/// row-major order, as drawn from the (chip_seed, mca_id) stream.
struct McaFaults {
  std::size_t mca_id = 0;            ///< the sampled MCA slot
  std::vector<CellFault> cells;      ///< per-cell fault class, row-major
  std::vector<double> gain;          ///< multiplicative conductance factor
                                     ///< (1.0 ideal; healthy cells only)
  std::size_t stuck_off = 0;         ///< count of kStuckOff cells
  std::size_t stuck_on = 0;          ///< count of kStuckOn cells

  /// Stuck cells as a fraction of all cells.
  double stuck_density() const {
    return cells.empty() ? 0.0
                         : static_cast<double>(stuck_off + stuck_on) /
                               static_cast<double>(cells.size());
  }
};

/// Deterministic per-MCA fault sampler for one chip instance.
///
/// Every query is a pure function of (config.chip_seed, mca_id): queries
/// may run in any order, from any thread, and repeat — the same slot
/// always yields the same silicon.
class FaultModel {
 public:
  /// Builds a sampler for `mca_size x mca_size` arrays; validates config.
  FaultModel(FaultConfig config, std::size_t mca_size);

  /// The validated configuration the sampler was built with.
  const FaultConfig& config() const { return config_; }
  /// Cells per crossbar row/column.
  std::size_t mca_size() const { return mca_size_; }

  /// Full fault state of one MCA slot (allocates the per-cell vectors).
  McaFaults sample(std::size_t mca_id) const;

  /// Counts-only sample (stuck_off/stuck_on populated, per-cell vectors
  /// left empty): same draw stream as sample(), without the allocation.
  McaFaults sample_counts(std::size_t mca_id) const;

  /// Stuck-cell fraction of one MCA slot, without materialising the
  /// per-cell state (same draw stream as sample()).
  double stuck_density(std::size_t mca_id) const;

  /// True when the slot's stuck density exceeds config.failed_density.
  bool mca_failed(std::size_t mca_id) const {
    return stuck_density(mca_id) > config_.failed_density;
  }

  /// Mean per-cell read-energy multiplier of one MCA relative to the
  /// ideal mean-conductance cost model: healthy cells contribute their
  /// gain, stuck-on cells `stuck_on_ratio` (= G_max/G_mean of the
  /// device), stuck-off cells `stuck_off_ratio` (= G_min/G_mean).
  double energy_scale(std::size_t mca_id, double stuck_on_ratio,
                      double stuck_off_ratio) const;

 private:
  McaFaults sample_impl(std::size_t mca_id, bool materialize) const;

  FaultConfig config_;
  std::size_t mca_size_ = 0;
  std::uint64_t chip_stream_ = 0;  ///< stream_seed(chip_seed, salt)
};

/// Summary of the realised faults across one chip's deployed MCA slots;
/// surfaced on core::RunReport / api::ExecutionReport so every executed
/// result names the silicon it ran on.
struct FaultManifest {
  std::uint64_t chip_seed = 0;        ///< chip instance identity
  std::size_t mca_size = 0;           ///< cells per row/column
  std::size_t mcas = 0;               ///< MCA slots scanned
  std::size_t cells = 0;              ///< total cells scanned
  std::size_t stuck_off_cells = 0;    ///< stuck-at-G_min cells
  std::size_t stuck_on_cells = 0;     ///< stuck-at-G_max cells
  std::size_t failed_mcas = 0;        ///< slots over the density threshold
  std::vector<std::size_t> failed_mpes;  ///< mPEs containing a failed MCA
  double max_stuck_density = 0.0;     ///< worst per-MCA stuck fraction
};

/// Pass/fail map of a chip's mPEs: an mPE fails when any of its MCA
/// slots exceeds the stuck-density threshold.  The compile-time repair
/// pass places around failed mPEs; the RV-FAULT verifier passes
/// re-derive the same map to check it did (docs/reliability.md).
struct ChipHealthMap {
  std::size_t mcas_per_mpe = 1;          ///< slots per mPE (config)
  std::vector<std::uint8_t> mpe_failed;  ///< 1 = failed, indexed by mPE id

  /// True when `mpe` is known-failed (ids past the scan are healthy).
  bool failed(std::size_t mpe) const {
    return mpe < mpe_failed.size() && mpe_failed[mpe] != 0;
  }

  /// Number of failed mPEs in the scanned range.
  std::size_t failed_count() const;
};

/// Scans the first `mpe_count` mPEs (`mcas_per_mpe` slots each).
ChipHealthMap scan_chip_health(const FaultModel& model, std::size_t mpe_count,
                               std::size_t mcas_per_mpe);

/// Scans the same range into a report-ready manifest.
FaultManifest scan_manifest(const FaultModel& model, std::size_t mpe_count,
                            std::size_t mcas_per_mpe);

}  // namespace resparc::tech
