#include "tech/memristor.hpp"

#include "common/error.hpp"

namespace resparc::tech {

void MemristorParams::validate() const {
  require(r_on_ohm > 0.0, "memristor R_on must be positive");
  require(r_off_ohm > r_on_ohm, "memristor R_off must exceed R_on");
  require(bits >= 1 && bits <= 8, "memristor bits must be in [1,8]");
  require(read_voltage_v > 0.0, "memristor read voltage must be positive");
  require(read_pulse_ns > 0.0, "memristor read pulse must be positive");
  require(sneak_leak_fraction >= 0.0 && sneak_leak_fraction < 1.0,
          "sneak leak fraction must be in [0,1)");
}

Memristor::Memristor(MemristorParams params) : params_(std::move(params)) {
  params_.validate();
}

double Memristor::cell_read_energy_pj(double conductance_s) const {
  // E = V^2 * G * t; volts^2 * siemens * ns = nano-joule-ish scale:
  // V^2[V^2] * G[S] * t[s] = J; with t in ns the product is J*1e-9 = 1e3 pJ.
  const double v2 = params_.read_voltage_v * params_.read_voltage_v;
  return v2 * conductance_s * params_.read_pulse_ns * 1e3;
}

double Memristor::mean_cell_read_energy_pj() const {
  return cell_read_energy_pj(0.5 * (g_min() + g_max()));
}

double worst_case_ir_attenuation(const Memristor& device, std::size_t n,
                                 double wire_resistance_ohm) {
  require(n > 0, "IR attenuation: array size must be positive");
  require(wire_resistance_ohm >= 0.0,
          "IR attenuation: wire resistance must be >= 0 ohm");
  if (wire_resistance_ohm == 0.0) return 1.0;
  // 1/G_max rather than R_on: 1/(1/r) is not always r in floating point,
  // and the size filter's results are pinned to this expression.
  const double r_dev = 1.0 / device.g_max();
  const double r_wire = wire_resistance_ohm * static_cast<double>(n + n);
  return r_dev / (r_dev + r_wire);
}

MemristorParams pcm_params() {
  MemristorParams p;
  p.name = "PCM";
  p.r_on_ohm = 20e3;    // paper section 4.2: 20 kOhm - 200 kOhm range
  p.r_off_ohm = 200e3;
  p.bits = 4;           // 16 levels
  p.read_voltage_v = 0.5;
  p.read_pulse_ns = 1.0;
  // Selectorless-array sneak paths: each half-selected cell leaks a few
  // percent of a full read per access [Liang TED'10]; this is the paper's
  // stated reason large crossbars become energy-infeasible.
  p.sneak_leak_fraction = 0.05;
  return p;
}

MemristorParams agsi_params() {
  MemristorParams p;
  p.name = "Ag-Si";
  // Jo et al. report a wider, more resistive window; smaller currents per
  // cell hence lower read energy but tighter level margins.
  p.r_on_ohm = 100e3;
  p.r_off_ohm = 1e6;
  p.bits = 4;
  p.read_voltage_v = 0.5;
  p.read_pulse_ns = 1.0;
  return p;
}

}  // namespace resparc::tech
