// Memristive synapse device model.
//
// Models the programmable two-terminal resistive device at each crossbar
// cross-point.  The paper (section 4.2) uses a resistance range of
// 20 kOhm - 200 kOhm with 16 levels (4 bits), representative of PCM and
// Ag-Si technologies; both presets are provided.
//
// Weight encoding: a signed synaptic weight w in [-w_max, +w_max] is stored
// differentially on a (G+, G-) device pair, the standard scheme for signed
// weights on crossbars.  Each device is programmed to one of 2^bits evenly
// spaced conductances in [G_min, G_max]; the weight-level rounding itself
// is snn::quantize_value (snn/quantize.hpp), the one quantiser shared by
// snn::quantize_network and core::perturb_network.
#pragma once

#include <cstddef>
#include <string>

namespace resparc::tech {

/// Static parameters of a memristive device technology.
struct MemristorParams {
  std::string name = "generic";  ///< technology label (reports only)
  double r_on_ohm = 20e3;        ///< lowest programmable resistance (R_on)
  double r_off_ohm = 200e3;      ///< highest programmable resistance (R_off)
  /// Device precision (2^bits levels).  No modelled term reads it; it
  /// feeds validate() and the config fingerprint (docs/architecture.md).
  int bits = 4;
  double read_voltage_v = 0.5;   ///< read voltage = Vdd/2 (CMOS neuron interface)
  double read_pulse_ns = 1.0;    ///< duration of one read (spike) pulse
  /// Fraction of a G_off cell read that each *unselected* cell leaks during
  /// a read through sneak paths; 0 disables the non-ideality (charged by
  /// the executor's replay and the compile-time cost model).
  double sneak_leak_fraction = 0.0;

  /// Validates the physical constraints; throws ConfigError on violation.
  void validate() const;
};

/// A memristive device technology: conductance mapping and per-read energy.
class Memristor {
 public:
  /// Constructs from validated parameters.
  explicit Memristor(MemristorParams params);

  /// The validated parameters the device was built from.
  const MemristorParams& params() const { return params_; }

  /// Maximum conductance G_on = 1/R_on (siemens).
  double g_max() const { return 1.0 / params_.r_on_ohm; }

  /// Minimum conductance G_off = 1/R_off (siemens).
  double g_min() const { return 1.0 / params_.r_off_ohm; }

  /// Energy in picojoules dissipated by ONE cell during one read pulse when
  /// its row is driven: E = V^2 * G * t_read.
  double cell_read_energy_pj(double conductance_s) const;

  /// Energy of a read on a cell at the mean conductance; used by analytic
  /// cost models that do not track individual cell states.
  double mean_cell_read_energy_pj() const;

 private:
  MemristorParams params_;
};

/// Worst-case signal attenuation of an `n x n` crossbar of `device` cells
/// under wire IR drop: the farthest cell sees n + n wire segments of
/// `wire_resistance_ohm` each in series with the device at its lowest
/// resistance, so the attenuation is R_dev / (R_dev + R_wire) with
/// R_dev = 1/G_max (first-order lumped model [Liang TED'10]).  Returns 1.0
/// for ideal (zero-resistance) wires and shrinks as `n` grows: the
/// quantitative reason the paper restricts MCA sizes (section 1).  Throws
/// ConfigError when `n` is 0 or `wire_resistance_ohm` is negative.
double worst_case_ir_attenuation(const Memristor& device, std::size_t n,
                                 double wire_resistance_ohm);

/// Phase-change-memory preset (Jackson et al., JETC'13 ballpark).
MemristorParams pcm_params();

/// Ag-Si memristor preset (Jo et al., Nano Letters 2010 ballpark).
MemristorParams agsi_params();

}  // namespace resparc::tech
