// Electrical model of one memristive crossbar array (MCA).
//
// The crossbar is the analog inner-product unit of the paper (Fig. 2): rows
// are driven with spike voltages, every column wire sums I = sum_j V_j*G_ij
// by Kirchhoff's current law.  This class owns the programmed conductance
// state of one array and provides
//   * the functional result (column currents for a binary spike vector),
//   * the energy of a read (depends on which rows were active),
//   * optional non-idealities (wire IR drop attenuation, sneak leakage,
//     stuck devices) for the reliability study that motivates small MCAs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "tech/memristor.hpp"

namespace resparc::tech {

/// Non-ideality knobs for the reliability study (all off by default).
struct CrossbarNonIdealities {
  /// Per-segment wire resistance (ohm) between adjacent cross-points; models
  /// the parasitic IR drop that worsens with array size [Liang TED'10].
  double wire_resistance_ohm = 0.0;
  /// Probability a device is stuck at G_min (fabrication defect).
  double stuck_off_probability = 0.0;
  /// Probability a device is stuck at G_max.
  double stuck_on_probability = 0.0;
  /// Std-dev of multiplicative lognormal programming noise on conductance.
  double programming_sigma = 0.0;
};

/// One programmed crossbar array of `rows x cols` devices.
class CrossbarModel {
 public:
  /// Creates an array with all devices at G_min.
  CrossbarModel(std::size_t rows, std::size_t cols, Memristor device);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  const Memristor& device() const { return device_; }

  /// Programs the array from normalised weight magnitudes in [0,1]
  /// (rows x cols, input-major).  Magnitudes are quantised to device levels.
  /// Non-idealities (stuck cells, programming noise) are applied at program
  /// time, as in real deployment.
  void program(const Matrix& magnitudes, const CrossbarNonIdealities& ni = {},
               Rng* rng = nullptr);

  /// Column currents (amps) for a binary spike input: I_c = sum_r s_r V G_rc,
  /// attenuated by the IR-drop factor when wire resistance is modelled.
  void read_currents(std::span<const std::uint8_t> spikes,
                     std::span<double> currents_out) const;

  /// Energy (pJ) of one read with the given spike pattern: active rows
  /// dissipate V^2 G t in every device on the row; unselected rows leak the
  /// configured sneak fraction.
  double read_energy_pj(std::span<const std::uint8_t> spikes) const;

  /// Analytic mean read energy (pJ) for `active_rows` active rows over
  /// `used_cols` mapped columns at the mean programmed conductance; the
  /// architecture-level cost model uses this instead of per-cell state.
  double mean_read_energy_pj(double active_rows, double used_cols) const;

  /// Multiplicative signal attenuation at the far corner of the array due to
  /// wire IR drop; 1.0 when ideal.  Grows worse (smaller) with array size —
  /// the quantitative reason the paper restricts MCA sizes (section 1).
  double worst_case_ir_attenuation() const;

  /// Programmed conductance of one device (siemens).
  double conductance_at(std::size_t r, std::size_t c) const;

 private:
  std::size_t rows_;
  std::size_t cols_;
  Memristor device_;
  CrossbarNonIdealities ni_{};
  std::vector<double> g_;  // row-major conductances (siemens)
};

}  // namespace resparc::tech
