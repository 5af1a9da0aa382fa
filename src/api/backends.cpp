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
    : config_(std::move(config)), strategy_(std::move(strategy)),
      fidelity_(noc) {
  config_.validate();
  require(!strategy_.empty(), "ResparcBackend: empty strategy name");
}

std::string ResparcBackend::name() const {
  const std::string& s = strategy();  // the loaded program's, once loaded
  std::string name = s == "paper" ? config_.label() : config_.label() + "/" + s;
  if (fidelity_ == noc::Fidelity::kEvent) name += "@event";
  return name;
}

void ResparcBackend::load(const snn::Topology& topology) {
  load_program(topology,
               compile::Compiler(config_).compile(topology, strategy_));
}

void ResparcBackend::load_program(const snn::Topology& topology,
                                  compile::CompiledProgram program) {
  if (program.config_fingerprint != config_.fingerprint())
    throw compile::CompileError(
        "ResparcBackend: program was compiled for a different configuration");
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
  executor_ = std::make_unique<core::Executor>(
      *topology_, program_->mapping, std::move(routes), fidelity_);
}

const compile::CompiledProgram& ResparcBackend::program() const {
  require(program_.has_value(), "ResparcBackend: no network loaded");
  return *program_;
}

ExecutionReport ResparcBackend::execute(
    std::span<const snn::SpikeTrace> traces) const {
  require(loaded(), "ResparcBackend: no network loaded");
  return to_execution_report(executor_->run_all(traces), name());
}

AcceleratorMetrics ResparcBackend::metrics() const {
  const core::NeuroCellMetrics m = core::neurocell_metrics(config_);
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
