// CACTI-lite: analytic SRAM energy/leakage/area model.
//
// The paper models its input memory and the CMOS baseline's weight memory
// with CACTI 6.0 [Muralimanohar MICRO'07].  CACTI itself is a large tool;
// what the architecture study consumes from it is three scalar curves:
// dynamic energy per access, leakage power, and area, as functions of
// capacity at 45 nm.  CACTI-lite reproduces those curves as fitted power
// laws anchored on published CACTI 6.0 outputs at 45 nm (constants and
// anchor points documented at the definitions in sram.cpp).
#pragma once

#include <cstddef>

namespace resparc::tech {

/// Configuration of one SRAM macro.
struct SramConfig {
  std::size_t capacity_bytes = 32 * 1024;  ///< total storage
  std::size_t word_bits = 64;              ///< read/write port width
  /// Relative leakage of the chosen cell flavour (1.0 = standard 6T;
  /// ~0.3 = high-Vt low-leakage arrays used for large weight memories).
  double leakage_derate = 1.0;
};

/// Analytic SRAM cost model at 45 nm.
class SramModel {
 public:
  /// Builds the model for one macro configuration.
  explicit SramModel(SramConfig config);

  /// The macro configuration the model was built with.
  const SramConfig& config() const { return config_; }

  /// Dynamic energy of one word read (pJ).  Grows ~sqrt(capacity) —
  /// longer bitlines/wordlines — and linearly with the port width.
  double read_energy_pj() const;

  /// Dynamic energy of one word write (pJ); ~1.2x the read energy.
  double write_energy_pj() const;

  /// Standby leakage power (W); linear in capacity.
  double leakage_w() const;

  /// Macro area (mm^2); linear in capacity plus periphery overhead.
  double area_mm2() const;

 private:
  SramConfig config_;
};

}  // namespace resparc::tech
