// Bundled technology description consumed by the architecture models.
//
// A Technology fixes everything below the micro-architecture: the memristive
// device, the digital 45 nm component costs, and the two clock domains the
// paper uses (RESPARC NeuroCells at 200 MHz, the CMOS baseline at 1 GHz).
#pragma once

#include <string>

#include "tech/memristor.hpp"
#include "tech/params45nm.hpp"

namespace resparc::tech {

/// Full technology operating point.
struct Technology {
  std::string name = "default-45nm";       ///< preset label (reports only)
  MemristorParams memristor = pcm_params(); ///< crossbar device technology
  DigitalCosts digital{};
  double resparc_clock_mhz = 200.0;   ///< Fig. 8: NeuroCell frequency
  double baseline_clock_mhz = 1000.0; ///< Fig. 9: CMOS baseline frequency
  int flit_bits = 64;                 ///< spike-packet flit width (64-bit arch)

  /// RESPARC clock period in ns.
  double resparc_period_ns() const { return 1e3 / resparc_clock_mhz; }
  /// Baseline clock period in ns.
  double baseline_period_ns() const { return 1e3 / baseline_clock_mhz; }

  /// Validates all nested parameter blocks.
  void validate() const;
};

/// The paper's evaluation technology and the PCM preset: the PCM device
/// (pcm_params(), 5% sneak leakage), 45 nm digital.
Technology default_technology();

/// Ag-Si preset (more resistive device: lower crossbar read energy).
Technology agsi_technology();

}  // namespace resparc::tech
