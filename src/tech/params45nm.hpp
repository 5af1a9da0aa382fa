// Digital component energy/area constants at 45 nm.
//
// The paper obtained these numbers by synthesising the RTL of the buffers,
// switches and control logic with Synopsys Design Compiler on IBM 45 nm and
// reading power with Power Compiler (section 4.2).  Those tools and
// libraries are proprietary, so this reproduction uses analytic per-event
// energies whose values sit inside the envelope of published 45 nm design
// studies (DianNao [ASPLOS'14], ISAAC [ISCA'16], PRIME [ISCA'16], TrueNorth
// [TCAD'15]).  Every constant is documented with its provenance; the
// benches reproduce the paper's *normalised* results, which depend on the
// ratios rather than the absolute scale of these numbers.
#pragma once

namespace resparc::tech {

/// Per-event energies and static costs of 45 nm digital components.
struct DigitalCosts {
  // --- data movement ---------------------------------------------------

  /// Read-or-write of one bit of a small SRAM/register-file buffer
  /// (iBUFF/oBUFF/tBUFF, FIFO cells).  DianNao reports ~0.9 pJ for a 64-bit
  /// NBin access => ~15 fJ/bit; small buffers at 45 nm span 10-40 fJ/bit.
  double buffer_bit_pj = 0.020;

  /// One 64-bit spike-packet flit traversing a programmable switch
  /// (arbitration + crossbar mux + ~0.2 mm of local wire).  NoC routers at
  /// 45 nm cost 1-5 pJ/flit/hop (Orion-class estimates).
  double switch_flit_pj = 2.0;

  /// One 64-bit word broadcast over the global IO bus (millimetre-scale
  /// wire, ~0.15 pJ/bit/mm at 45 nm over ~1 mm, plus bus drivers).
  double bus_word_pj = 10.0;

  /// Gated analog current transfer between neighbouring mPEs (CCU event):
  /// a transmission-gate enable per partial current — gate capacitance
  /// switching only, far below a digital packet hop.
  double ccu_transfer_pj = 0.1;

  // --- control ----------------------------------------------------------

  /// Local-control-unit work per MCA activation (sequencing one read,
  /// bookkeeping of the time-multiplex step).
  double mca_control_pj = 1.0;

  /// Global-control-unit work per NeuroCell event (flag update, broadcast
  /// tag match).
  double gcu_event_pj = 1.5;

  // --- neuron circuit -----------------------------------------------------

  /// Integration of one MCA partial current onto a neuron membrane
  /// capacitor (analog accumulate; Joubert et al., IJCNN'12 report analog
  /// integrate & fire at the 0.1-2 pJ/event scale).
  double neuron_integrate_pj = 0.05;

  /// Threshold comparison + spike generation + reset when a neuron fires.
  double neuron_fire_pj = 0.9;

  // --- CMOS baseline datapath ----------------------------------------------

  /// 4-bit multiply-accumulate in a neuron unit (NU).  16-bit MACs at 45 nm
  /// cost ~1 pJ; a 4-bit accumulate datapath is an order less.
  double mac4_pj = 0.15;

  /// Per-synaptic-event FIFO/register traffic in an NU beyond the MAC
  /// itself (operand staging, pointer updates), per 4-bit operand.
  double nu_overhead_pj = 0.60;

  /// Leakage power of the baseline's logic core (16 NUs + control), watts.
  /// Fig. 9 reports 35.1 mW total power; leakage at 45 nm LP is a few mW.
  double core_leakage_w = 0.0005;

  /// Peripheral work per MCA column per read: column precharge + sense /
  /// neuron-interface mux.  Exists for every physical column, used or not
  /// — together with the N-bit iBUFF read this makes the peripheral cost
  /// of an activation proportional to the array size, the scaling at the
  /// centre of the Fig. 12 analysis.
  double column_interface_pj = 0.05;

  /// Standby leakage of the per-column periphery (sense path, neuron
  /// interface mux), watts per column.  The crossbar cells themselves are
  /// non-volatile and leak nothing; what remains idles per column of
  /// deployed array.  0.1 uW/column puts a 64-MCA NeuroCell-64 at
  /// ~0.16 mW, a small fraction of its 53.2 mW active power (Fig. 8).
  double mca_column_leak_w = 4e-8;

  // --- area (mm^2), for the Fig. 8/9 metric tables --------------------------

  double area_per_mpe_mm2 = 0.012;      ///< buffers+neurons+LCU of one mPE
  double area_per_switch_mm2 = 0.008;   ///< programmable switch
  double area_gcu_mm2 = 0.020;          ///< global control + registers
  double area_per_nu_mm2 = 0.010;       ///< one baseline neuron unit
  double area_baseline_ctrl_mm2 = 0.03; ///< baseline control + FIFO fabric

  // --- gate-count coefficients (for the Fig. 8/9 tables) -------------------

  double gates_per_mpe = 3200.0;        ///< buffers+neurons+LCU of one mPE
  double gates_per_switch = 1500.0;     ///< programmable switch
  double gates_gcu = 2800.0;            ///< global control + registers
  double gates_per_nu = 2300.0;         ///< one baseline neuron unit
  double gates_baseline_ctrl = 8000.0;  ///< baseline control + FIFO fabric
};

}  // namespace resparc::tech
