// RESPARC micro-architectural configuration (paper Fig. 8).
//
// The three-tier hierarchy is parameterised by the MCA size (the paper
// evaluates 32/64/128), the number of MCAs per mPE (4), and the NeuroCell
// dimension (4x4 mPEs with a 3x3 programmable-switch grid).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "tech/nonideal.hpp"
#include "tech/technology.hpp"

namespace resparc::core {

/// Static configuration of a RESPARC chip.
struct ResparcConfig {
  std::size_t mca_size = 64;        ///< crossbar rows = columns (N)
  std::size_t mcas_per_mpe = 4;     ///< Fig. 4: four MCAs per mPE
  std::size_t nc_dim = 4;           ///< NeuroCell is nc_dim x nc_dim mPEs
  std::size_t buffer_depth = 32;    ///< iBUFF/oBUFF depth in flits
  std::size_t input_sram_bytes = 64 * 1024;  ///< global input memory (SRAM)
  bool event_driven = true;         ///< zero-check logic enabled (section 3.2)
  /// Conv tiling policy.  false (paper baseline): an MCA's columns hold the
  /// output channels of ONE spatial position, so rows are shared only
  /// within that position's receptive field — utilisation collapses once
  /// the array outgrows the field (the Fig. 12(c) effect).  true: adjacent
  /// output positions are packed into shared-window tiles ("enhanced
  /// input-sharing", the improvement section 3.1.1 sketches); quantified
  /// by bench/ablation_input_sharing.
  bool enhanced_input_sharing = false;
  tech::Technology technology = tech::default_technology();
  /// Device fault injection for one chip instance (docs/reliability.md).
  /// Off by default; a disabled block is inert — it does not enter the
  /// fingerprint, so fault-free programs stay byte-compatible with
  /// builds that predate the robustness layer.
  tech::FaultConfig faults{};

  std::size_t mpes_per_neurocell() const { return nc_dim * nc_dim; }
  std::size_t switches_per_neurocell() const {
    return (nc_dim - 1) * (nc_dim - 1);  // Fig. 8: 16 mPEs, 9 switches
  }
  std::size_t mcas_per_neurocell() const {
    return mpes_per_neurocell() * mcas_per_mpe;
  }
  /// Columns (= max neurons) available in one NeuroCell.
  std::size_t columns_per_neurocell() const {
    return mcas_per_neurocell() * mca_size;
  }

  /// Validates field domains; throws ConfigError otherwise.
  void validate() const;

  /// "RESPARC-N" label used throughout the paper's figures.
  std::string label() const;

  /// Stable FNV-1a hash over every field that affects mapping or execution
  /// (architecture knobs, device parameters, digital cost tables).  A
  /// compile::CompiledProgram records this at compile time and refuses to
  /// load against a chip whose fingerprint differs.
  std::uint64_t fingerprint() const;
};

/// Implementation metrics of one NeuroCell (paper Fig. 8).
struct NeuroCellMetrics {
  double area_mm2 = 0.0;
  double power_mw = 0.0;      ///< peak dynamic power at full activity
  double gate_count = 0.0;
  double frequency_mhz = 0.0;
  std::size_t mpe_count = 0;
  std::size_t switch_count = 0;
  std::size_t mcas_per_mpe = 0;
};

/// Computes the Fig. 8 metric roll-up for a configuration.
NeuroCellMetrics neurocell_metrics(const ResparcConfig& config);

/// The paper's default operating point: RESPARC-64 as in Fig. 8.
ResparcConfig default_config();

/// Same chip with a different crossbar size (the Fig. 12/13 sweep).
ResparcConfig config_with_mca(std::size_t mca_size);

}  // namespace resparc::core
