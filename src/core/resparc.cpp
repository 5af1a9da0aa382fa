#include "core/resparc.hpp"

#include <utility>

#include "common/error.hpp"
#include "compile/compiler.hpp"
#include "tech/sram.hpp"

namespace resparc::core {

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

ResparcChip::ResparcChip(ResparcConfig config, noc::Fidelity fidelity)
    : config_(std::move(config)), fidelity_(fidelity) {
  config_.validate();
}

const Mapping& ResparcChip::load(const snn::Topology& topology) {
  return load(topology, compile::Compiler(config_).compile(topology, "paper"));
}

const Mapping& ResparcChip::load(const snn::Topology& topology,
                                 compile::CompiledProgram program) {
  if (program.config_fingerprint != config_.fingerprint())
    throw compile::CompileError(
        "ResparcChip: program was compiled for a different configuration");
  program.check_matches(topology);
  executor_.reset();  // drop the references into the old state first
  topology_ = topology;
  program_ = std::move(program);
  // Legacy artifacts (or hand-built programs) may carry no route table;
  // the routing pass is deterministic, so recomputing it here yields the
  // same routes the compiler would have emitted.
  noc::RouteTable routes = program_->routes.empty()
                               ? noc::compute_routes(program_->mapping)
                               : program_->routes;
  executor_ = std::make_unique<Executor>(*topology_, program_->mapping,
                                         std::move(routes), fidelity_);
  return program_->mapping;
}

const Mapping& ResparcChip::mapping() const {
  require(program_.has_value(), "ResparcChip: no network loaded");
  return program_->mapping;
}

const compile::CompiledProgram& ResparcChip::program() const {
  require(program_.has_value(), "ResparcChip: no network loaded");
  return *program_;
}

RunReport ResparcChip::execute(const snn::SpikeTrace& trace) const {
  require(executor_ != nullptr, "ResparcChip: no network loaded");
  return executor_->run(trace);
}

RunReport ResparcChip::execute(std::span<const snn::SpikeTrace> traces,
                               EventStream* stream) const {
  require(executor_ != nullptr, "ResparcChip: no network loaded");
  return executor_->run_all(traces, stream);
}

}  // namespace resparc::core
