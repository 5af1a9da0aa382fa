#include "api/backends.hpp"

#include <utility>

#include "common/error.hpp"
#include "compile/compiler.hpp"

namespace resparc::api {

ExecutionReport to_execution_report(const core::RunReport& report,
                                    std::string backend) {
  ExecutionReport out;
  out.backend = std::move(backend);
  out.classifications = report.classifications;
  out.energy_pj = report.energy.total_pj();
  out.latency_ns = report.perf.latency_pipelined_ns();
  out.throughput_hz = report.perf.throughput_hz();
  out.energy_breakdown_pj = {
      {"neuron", report.energy.neuron_pj},
      {"crossbar", report.energy.crossbar_pj},
      {"peripherals", report.energy.peripherals_pj()},
  };
  const double ns_per_cycle = report.perf.clock_mhz > 0.0
                                  ? 1e3 / report.perf.clock_mhz
                                  : 0.0;
  out.latency_breakdown_ns = {
      {"compute", report.perf.cycles_compute * ns_per_cycle},
      {"transport", report.perf.cycles_transport * ns_per_cycle},
      {"noc_stall", report.perf.cycles_stall * ns_per_cycle},
  };
  out.faults = report.faults;
  out.resparc = report;
  return out;
}

ExecutionReport to_execution_report(const cmos::CmosReport& report,
                                    std::string backend) {
  ExecutionReport out;
  out.backend = std::move(backend);
  out.classifications = report.classifications;
  out.energy_pj = report.energy.total_pj();
  out.latency_ns = report.latency_ns();
  out.throughput_hz = report.throughput_hz();
  out.energy_breakdown_pj = {
      {"core", report.energy.core_pj},
      {"memory_access", report.energy.memory_access_pj},
      {"memory_leakage", report.energy.memory_leakage_pj},
  };
  out.cmos = report;
  return out;
}

// ----------------------------------------------------------------- RESPARC --

ResparcBackend::ResparcBackend(core::ResparcConfig config, std::string strategy,
                               noc::Fidelity noc)
    : chip_(std::move(config), noc), strategy_(std::move(strategy)) {
  require(!strategy_.empty(), "ResparcBackend: empty strategy name");
}

std::string ResparcBackend::name() const {
  const std::string& s = strategy();  // the loaded program's, once loaded
  std::string name = s == "paper" ? chip_.config().label()
                                  : chip_.config().label() + "/" + s;
  if (chip_.fidelity() == noc::Fidelity::kEvent) name += "@event";
  return name;
}

void ResparcBackend::load(const snn::Topology& topology) {
  chip_.load(topology,
             compile::Compiler(chip_.config()).compile(topology, strategy_));
}

void ResparcBackend::load_program(const snn::Topology& topology,
                                  compile::CompiledProgram program) {
  chip_.load(topology, std::move(program));
}

ExecutionReport ResparcBackend::execute(
    std::span<const snn::SpikeTrace> traces) const {
  require(loaded(), "ResparcBackend: no network loaded");
  return to_execution_report(chip_.execute(traces), name());
}

AcceleratorMetrics ResparcBackend::metrics() const {
  const core::NeuroCellMetrics m = core::neurocell_metrics(chip_.config());
  return {.area_mm2 = m.area_mm2,
          .power_mw = m.power_mw,
          .gate_count = m.gate_count,
          .frequency_mhz = m.frequency_mhz};
}

// -------------------------------------------------------------------- CMOS --

CmosBackend::CmosBackend(cmos::FalconConfig config)
    : config_(std::move(config)) {
  config_.validate();
}

std::string CmosBackend::name() const { return "CMOS"; }

void CmosBackend::load(const snn::Topology& topology) {
  accelerator_.reset();  // drop the reference into topology_ first
  topology_ = topology;
  accelerator_.emplace(*topology_, config_);
}

ExecutionReport CmosBackend::execute(
    std::span<const snn::SpikeTrace> traces) const {
  require(loaded(), "CmosBackend: no network loaded");
  return to_execution_report(accelerator_->run_all(traces), name());
}

AcceleratorMetrics CmosBackend::metrics() const {
  const cmos::BaselineMetrics m = cmos::baseline_metrics(config_);
  return {.area_mm2 = m.area_mm2,
          .power_mw = m.power_mw,
          .gate_count = m.gate_count,
          .frequency_mhz = m.frequency_mhz};
}

}  // namespace resparc::api
