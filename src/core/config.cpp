#include "core/config.hpp"

#include <bit>
#include <cstdint>
#include <type_traits>

#include "common/error.hpp"
#include "tech/sram.hpp"

namespace resparc::core {

namespace {

/// Incremental FNV-1a over primitive values; doubles hash by bit pattern so
/// the fingerprint is exact, not tolerance-based.  Integral values widen to
/// 64 bits through one template so the overload set stays unambiguous on
/// every platform (size_t and uint64_t are distinct types on some ABIs).
struct Fnv1a {
  std::uint64_t state = 0xcbf29ce484222325ull;

  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      state ^= p[i];
      state *= 0x100000001b3ull;
    }
  }
  void add_u64(std::uint64_t v) { bytes(&v, sizeof v); }
  template <typename T, std::enable_if_t<std::is_integral_v<T>, int> = 0>
  void add(T v) {
    add_u64(static_cast<std::uint64_t>(v));
  }
  void add(double v) { add_u64(std::bit_cast<std::uint64_t>(v)); }
  void add(const std::string& s) {
    add_u64(s.size());
    bytes(s.data(), s.size());
  }
};

}  // namespace

void ResparcConfig::validate() const {
  require(mca_size >= 8 && mca_size <= 1024, "MCA size must be in [8,1024]");
  require(mcas_per_mpe >= 1 && mcas_per_mpe <= 16,
          "MCAs per mPE must be in [1,16]");
  require(nc_dim >= 2 && nc_dim <= 16, "NeuroCell dimension must be in [2,16]");
  require(buffer_depth >= 1, "buffer depth must be positive");
  require(input_sram_bytes >= 1024, "input SRAM must be at least 1 KiB");
  technology.validate();
  faults.validate();
}

std::string ResparcConfig::label() const {
  return "RESPARC-" + std::to_string(mca_size);
}

std::uint64_t ResparcConfig::fingerprint() const {
  Fnv1a h;
  h.add(mca_size);
  h.add(mcas_per_mpe);
  h.add(nc_dim);
  h.add(buffer_depth);
  h.add(input_sram_bytes);
  h.add(event_driven);
  h.add(enhanced_input_sharing);

  const tech::Technology& t = technology;
  h.add(t.name);
  h.add(t.resparc_clock_mhz);
  h.add(t.baseline_clock_mhz);
  h.add(t.flit_bits);

  const tech::MemristorParams& mem = t.memristor;
  h.add(mem.name);
  h.add(mem.r_on_ohm);
  h.add(mem.r_off_ohm);
  h.add(mem.bits);
  h.add(mem.read_voltage_v);
  h.add(mem.read_pulse_ns);
  h.add(mem.sneak_leak_fraction);

  const tech::DigitalCosts& d = t.digital;
  h.add(d.buffer_bit_pj);
  h.add(d.switch_flit_pj);
  h.add(d.bus_word_pj);
  h.add(d.ccu_transfer_pj);
  h.add(d.mca_control_pj);
  h.add(d.gcu_event_pj);
  h.add(d.neuron_integrate_pj);
  h.add(d.neuron_fire_pj);
  h.add(d.mac4_pj);
  h.add(d.nu_overhead_pj);
  h.add(d.core_leakage_w);
  h.add(d.column_interface_pj);
  h.add(d.mca_column_leak_w);

  // Fault injection enters the fingerprint only when enabled: a disabled
  // block (whatever its field values) leaves the hash — and therefore
  // every compiled-program blob — identical to pre-fault builds.
  if (faults.enabled) {
    h.add(true);
    h.add(faults.chip_seed);
    h.add(faults.stuck_off_rate);
    h.add(faults.stuck_on_rate);
    h.add(faults.programming_sigma);
    h.add(faults.read_noise_sigma);
    h.add(faults.weight_bits);
    h.add(faults.failed_density);
    h.add(faults.repair);
    h.add(faults.chip_neurocells);
  }
  return h.state;
}

NeuroCellMetrics neurocell_metrics(const ResparcConfig& config) {
  config.validate();
  const tech::DigitalCosts& d = config.technology.digital;
  NeuroCellMetrics m;
  m.mpe_count = config.mpes_per_neurocell();
  m.switch_count = config.switches_per_neurocell();
  m.mcas_per_mpe = config.mcas_per_mpe;
  m.frequency_mhz = config.technology.resparc_clock_mhz;

  const tech::SramModel sram{
      {.capacity_bytes = config.input_sram_bytes, .word_bits = 64}};

  m.area_mm2 = static_cast<double>(m.mpe_count) * d.area_per_mpe_mm2 +
               static_cast<double>(m.switch_count) * d.area_per_switch_mm2 +
               d.area_gcu_mm2 + sram.area_mm2();
  m.gate_count = static_cast<double>(m.mpe_count) * d.gates_per_mpe +
                 static_cast<double>(m.switch_count) * d.gates_per_switch +
                 d.gates_gcu;

  // Peak dynamic power: every MCA sequenced each cycle (control + iBUFF
  // read) and every switch forwarding one flit per cycle, at f_clk.
  const double mca_event_pj =
      d.mca_control_pj +
      static_cast<double>(config.mca_size) * d.buffer_bit_pj;
  const double per_cycle_pj =
      static_cast<double>(config.mcas_per_neurocell()) * mca_event_pj +
      static_cast<double>(m.switch_count) * d.switch_flit_pj +
      d.gcu_event_pj;
  // pJ * MHz = uW; convert to mW.
  m.power_mw = per_cycle_pj * m.frequency_mhz * 1e-3;
  return m;
}

ResparcConfig default_config() {
  ResparcConfig c;
  c.validate();
  return c;
}

ResparcConfig config_with_mca(std::size_t mca_size) {
  ResparcConfig c;
  c.mca_size = mca_size;
  c.validate();
  return c;
}

}  // namespace resparc::core
