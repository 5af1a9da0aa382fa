#include "core/executor.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "common/kernels.hpp"
#include "core/fault_injection.hpp"
#include "tech/sram.hpp"

namespace resparc::core {

using snn::SpikeVector;

namespace {

/// Total bits spanned by a slice (denominator of the active fraction).
std::size_t slice_bits(const InputSlice& slice, const Shape3& in_shape) {
  if (slice.kind == SliceKind::kContiguous) return slice.end - slice.begin;
  return in_shape.c * (slice.y1 - slice.y0 + 1) * (slice.x1 - slice.x0 + 1);
}

}  // namespace

/// Technology constants every stage of every step reads: hoisted once per
/// replay call.
struct Executor::ReplayCosts {
  const ResparcConfig& cfg;
  const tech::Technology& t;
  const tech::DigitalCosts& d;
  tech::Memristor device;
  double cell_pj;
  double cell_off_pj;
  double sneak;
  tech::SramModel sram;
};

/// One replay: its report under construction, cycle tallies, and — under
/// event fidelity — its own NoC fabric (FIFO clocks are per-trace state).
struct Executor::ReplayState {
  RunReport report;
  double cycles_pipelined = 0.0;
  double cycles_serial = 0.0;
  double cycles_compute = 0.0;
  double cycles_transport = 0.0;
  double cycles_stall = 0.0;
  std::optional<noc::Fabric> fabric;
};

Executor::Executor(const snn::Topology& topology, const Mapping& mapping)
    : Executor(topology, mapping, noc::compute_routes(mapping),
               noc::Fidelity::kAnalytic) {}

Executor::Executor(const snn::Topology& topology, const Mapping& mapping,
                   noc::RouteTable routes, noc::Fidelity fidelity)
    : topology_(topology),
      mapping_(mapping),
      routes_(std::move(routes)),
      fidelity_(fidelity) {
  require(mapping.layers.size() == topology.layer_count(),
          "executor: mapping does not match topology");
  // Catches stale artifacts (e.g. a deserialized CompiledProgram for a
  // different network slipping past the backend): every mapped synapse must
  // belong to the layer it claims.
  for (std::size_t l = 0; l < mapping.layers.size(); ++l)
    require(mapping.layers[l].synapses == topology.layers()[l].synapses,
            "executor: layer " + std::to_string(l) +
                " synapse count does not match the topology");
  // One route per boundary: the input broadcast, every inter-layer edge
  // and the final-layer egress.
  require(routes_.size() == topology.layer_count() + 1,
          "executor: route table does not cover every layer boundary");

  // Device faults: freeze the chip instance's mean read-energy multiplier
  // and its manifest once; replays only pay one extra multiply (by an
  // exact 1.0 when disabled — the fault-free path stays bit-for-bit).
  if (mapping_.config.faults.enabled) {
    fault_cell_scale_ = chip_energy_scale(mapping_);
    fault_manifest_ = derive_manifest(mapping_);
  }

  // The replay tables hold counts and word indices in 32 bits; a chip
  // beyond that is not one this model describes.
  const auto narrow = [](std::size_t v) {
    require(v <= UINT32_MAX,
            "executor: mapping exceeds the 32-bit replay tables");
    return static_cast<std::uint32_t>(v);
  };
  // Appends the bit run [begin, end) of a layer input to `plan` as
  // (word, mask) entries; a run that starts in the word the group's
  // previous entry covers merges into that entry (runs never overlap).
  const auto append_run = [&narrow](LayerPlan& plan, std::size_t group_begin,
                                    std::size_t begin, std::size_t end) {
    for (std::size_t w = begin >> 6; begin < end; ++w) {
      const std::size_t lo = begin - (w << 6);
      const std::size_t hi = std::min<std::size_t>(end - (w << 6), 64);
      std::uint64_t mask = ~std::uint64_t{0} << lo;
      if (hi < 64) mask &= (std::uint64_t{1} << hi) - 1;
      if (plan.words.size() > group_begin && plan.words.back() == w) {
        plan.masks.back() |= mask;
      } else {
        plan.masks.push_back(mask);
        plan.words.push_back(narrow(w));
      }
      begin = (w + 1) << 6;
    }
  };

  const tech::DigitalCosts& d = mapping_.config.technology.digital;
  plans_.resize(mapping.layers.size());
  for (std::size_t l = 0; l < mapping.layers.size(); ++l) {
    const snn::LayerInfo& li = topology.layers()[l];
    LayerPlan& plan = plans_[l];
    // Heterogeneous chips (search strategies) size arrays per layer; all
    // pre-search mappings resolve to config.mca_size here.
    const std::size_t N = mapping.layer_mca_size(l);
    leak_columns_ += mapping.layers[l].mca_count * N;
    plan.groups.reserve(mapping.layers[l].groups.size());
    plan.bounds.reserve(mapping.layers[l].groups.size() + 1);
    plan.bounds.push_back(0);
    for (const McaGroup& g : mapping.layers[l].groups) {
      // The plan indexes input words directly, so a slice reaching past
      // the layer input would read past the spike vector.
      if (!g.slice.within(li.in_shape))
        throw ConfigError("executor: layer " + std::to_string(l) +
                              " has a group input slice outside its input "
                              "shape",
                          "RV-TOPO-SLICE-BOUNDS");
      GroupRecord gr;
      gr.mca_count = narrow(g.mca_count);
      gr.cols_used = narrow(g.cols_used);
      gr.buffer_bits = narrow(g.mca_count * N);
      gr.bits = static_cast<double>(slice_bits(g.slice, li.in_shape));
      gr.driven_scale = static_cast<double>(g.rows_used * g.mca_count);
      gr.synapses = static_cast<double>(g.synapses);
      gr.total_cells =
          static_cast<double>(g.mca_count) * static_cast<double>(N * N);
      gr.control_pj = static_cast<double>(g.mca_count) * d.mca_control_pj +
                      static_cast<double>(g.mca_count * N) *
                          d.column_interface_pj;
      gr.mca_size_d = static_cast<double>(N);
      const std::size_t plan_begin = plan.words.size();
      if (g.slice.kind == SliceKind::kContiguous) {
        append_run(plan, plan_begin, g.slice.begin, g.slice.end);
      } else {
        for (std::size_t c = 0; c < li.in_shape.c; ++c)
          for (std::size_t y = g.slice.y0; y <= g.slice.y1; ++y) {
            const std::size_t base = (c * li.in_shape.h + y) * li.in_shape.w;
            append_run(plan, plan_begin, base + g.slice.x0,
                       base + g.slice.x1 + 1);
          }
      }
      plan.bounds.push_back(narrow(plan.words.size()));
      plan.mcas += g.mca_count;
      plan.groups.push_back(gr);
    }
  }
}

std::size_t Executor::active_rows(std::size_t layer, std::size_t group,
                                  const SpikeVector& spikes) const {
  const LayerPlan& plan = plans_[layer];
  std::uint32_t active = 0;
  kernels::count_masked(spikes.words().data(), plan.masks.data(),
                        plan.words.data(), plan.bounds.data() + group, 1,
                        &active);
  return active;
}

Executor::ReplayCosts Executor::make_costs() const {
  const ResparcConfig& cfg = mapping_.config;
  const tech::Technology& t = cfg.technology;
  const tech::Memristor device{t.memristor};
  return ReplayCosts{
      cfg,
      t,
      t.digital,
      device,
      // Programmed cells charge at the chip instance's realised mean
      // conductance (x1.0 exactly when fault injection is off); unmapped
      // G_off cells are unaffected by programming faults.
      device.mean_cell_read_energy_pj() * fault_cell_scale_,
      device.cell_read_energy_pj(device.g_min()),
      device.params().sneak_leak_fraction,
      tech::SramModel{
          {.capacity_bytes = cfg.input_sram_bytes, .word_bits = 64}}};
}

void Executor::replay_step(const snn::SpikeTrace& trace, std::size_t step,
                         const ReplayCosts& costs, ReplayState& state) const {
  const ResparcConfig& cfg = costs.cfg;
  const tech::DigitalCosts& d = costs.d;
  const double cell_pj = costs.cell_pj;
  const double cell_off_pj = costs.cell_off_pj;
  const double sneak = costs.sneak;

  EnergyBreakdown& e = state.report.energy;
  EventCounts& ev = state.report.events;
  noc::NocStats& nstats = state.report.noc;
  std::optional<noc::Fabric>& fabric = state.fabric;

  double stage_max = 0.0;
  if (fabric) fabric->begin_step();

  // -- input broadcast from the SRAM (zero-check at the read port) -----
  {
    const noc::Route& route = routes_.boundaries[0];
    const SpikeVector& in0 = trace.layers[0][step];
    const std::size_t total = in0.word_count();
    const std::size_t nz = kernels::count_words(in0.words()).nonzero;
    const std::size_t sent = cfg.event_driven ? nz : total;
    const std::size_t zeros = cfg.event_driven ? total - nz : 0;
    ev.sram_writes += sent;  // host deposits the encoded input
    ev.sram_reads += sent;
    ev.bus_words += sent;
    ev.bus_skips += zeros;
    const noc::Transport tr =
        fabric ? fabric->transfer(route, sent, zeros, 0.0)
               : noc::analytic_transfer(route, sent, zeros, cfg, nstats);
    stage_max = std::max(stage_max, tr.cycles);
    state.cycles_serial += tr.cycles;
    state.cycles_transport += tr.cycles - tr.stall_cycles;
    state.cycles_stall += tr.stall_cycles;
  }

  for (std::size_t l = 0; l < topology_.layer_count(); ++l) {
    const snn::LayerInfo& li = topology_.layers()[l];
    const LayerMapping& lm = mapping_.layers[l];
    const SpikeVector& in_vec = trace.layers[l][step];
    const SpikeVector& out_vec = trace.layers[l + 1][step];

    // The group loop tallies into locals and writes them back once; the
    // doubles see the same additions in the same order as in place.  One
    // count_masked call counts up to kCountBlock groups into the stack:
    // executors replay concurrently, so the buffer is not a member, and a
    // replay allocates nothing.  A skipped group's record is not read:
    // the skipped arrays are the layer's arrays minus the activated ones.
    const LayerPlan& plan = plans_[l];
    const std::uint64_t* const in_words = in_vec.words().data();
    double crossbar_pj = e.crossbar_pj;
    double control_pj = e.control_pj;
    std::size_t mca_activations = 0, buffer_bits = 0, integrations = 0;
    bool layer_active = false;
    constexpr std::size_t kCountBlock = 2048;
    std::uint32_t counts[kCountBlock];
    for (std::size_t g0 = 0; g0 < plan.groups.size(); g0 += kCountBlock) {
      const std::size_t n = std::min(kCountBlock, plan.groups.size() - g0);
      kernels::count_masked(in_words, plan.masks.data(), plan.words.data(),
                            plan.bounds.data() + g0, n, counts);
      for (std::size_t j = 0; j < n; ++j) {
        const std::size_t active = counts[j];
        if (active == 0 && cfg.event_driven) continue;
        const GroupRecord& g = plan.groups[g0 + j];
        layer_active = layer_active || active > 0;
        const double fraction =
            g.bits != 0.0 ? static_cast<double>(active) / g.bits : 0.0;
        // Programmed cells on driven rows dissipate at the mean programmed
        // conductance; the *unmapped* crosspoints of a driven row still sit
        // at G_off and leak V^2*G_off*t each — the physical cost of poor
        // utilisation that makes oversized MCAs lose on sparse (CNN)
        // connectivity (paper section 5.2, Fig. 12(c)).
        const double driven_rows = fraction * g.driven_scale;
        const double driven_cells = driven_rows * g.mca_size_d;
        const double used_cells = fraction * g.synapses;
        crossbar_pj += used_cells * cell_pj +
                       std::max(0.0, driven_cells - used_cells) * cell_off_pj;
        // Sneak paths: in a selectorless array every *half-selected* cell
        // leaks a fraction of a full read during each access [Liang,
        // TED'10] — the total grows with the square of the array size,
        // which is the paper's reason large MCAs lose (sections 1, 5.2).
        if (sneak > 0.0) {
          crossbar_pj +=
              sneak * std::max(0.0, g.total_cells - driven_cells) * cell_off_pj;
        }
        mca_activations += g.mca_count;
        // The iBUFF feeds all N row drivers of each array regardless of how
        // many rows carry mapped synapses, and every physical column's
        // sense/interface path cycles on a read, used or not.
        buffer_bits += g.buffer_bits;
        control_pj += g.control_pj;
        integrations += g.cols_used;
      }
    }
    e.crossbar_pj = crossbar_pj;
    e.control_pj = control_pj;
    ev.mca_skips += plan.mcas - mca_activations;
    ev.mca_activations += mca_activations;
    ev.buffer_bits += buffer_bits;
    ev.neuron_integrations += integrations;

    // One pass over the output gives both the fires and the sent flits.
    const kernels::WordCounts fired = kernels::count_words(out_vec.words());
    ev.neuron_fires += fired.bits;

    if ((layer_active || !cfg.event_driven) && lm.ccu_transfers_per_neuron > 0)
      ev.ccu_transfers += li.neurons * lm.ccu_transfers_per_neuron;

    // -- output transfer toward the next layer (or off-chip) -----------
    const noc::Route& route = routes_.boundaries[l + 1];
    const std::size_t total = out_vec.word_count();
    const std::size_t nz = fired.nonzero;
    const std::size_t sent = cfg.event_driven ? nz : total;
    const std::size_t zeros = cfg.event_driven ? total - nz : 0;
    const bool via_bus = route.uses_bus;
    if (via_bus) {
      ev.bus_words += sent;
      ev.sram_writes += sent;
      ev.sram_reads += sent;
      ev.bus_skips += zeros;
      e.control_pj += d.gcu_event_pj;  // event flag + tagged broadcast
    } else {
      ev.switch_flits += sent;
      ev.switch_skips += zeros;
    }
    // oBUFF write+read of every sent flit plus a tBUFF address lookup.
    ev.buffer_bits +=
        sent * (2 * static_cast<std::size_t>(costs.t.flit_bits) + 16);

    const double compute_c = (layer_active || !cfg.event_driven)
                                 ? static_cast<double>(lm.mux_cycles) + 1.0
                                 : 0.0;
    // Event fidelity: the transfer is injected when the stage's compute
    // retires, so congestion on a shared resource shows up as stall.
    const noc::Transport tr =
        fabric ? fabric->transfer(route, sent, zeros, compute_c)
               : noc::analytic_transfer(route, sent, zeros, cfg, nstats);
    // Analytic keeps the historical overlap (max); the event fabric is
    // store-and-forward after compute.
    const double stage =
        fabric ? compute_c + tr.cycles : std::max(compute_c, tr.cycles);
    stage_max = std::max(stage_max, stage);
    state.cycles_serial += compute_c + tr.cycles;
    state.cycles_compute += compute_c;
    state.cycles_transport += tr.cycles - tr.stall_cycles;
    state.cycles_stall += tr.stall_cycles;
  }

  state.cycles_pipelined += stage_max;
}

void Executor::finish_replay(const ReplayCosts& costs, ReplayState& state) const {
  RunReport& report = state.report;
  EnergyBreakdown& e = report.energy;
  const EventCounts& ev = report.events;
  const tech::DigitalCosts& d = costs.d;

  if (state.fabric) report.noc = state.fabric->stats();
  const noc::NocStats& nstats = report.noc;

  // -- convert counters to energy ------------------------------------------
  e.neuron_pj +=
      static_cast<double>(ev.neuron_integrations) * d.neuron_integrate_pj +
      static_cast<double>(ev.neuron_fires) * d.neuron_fire_pj;
  e.buffer_pj += static_cast<double>(ev.buffer_bits) * d.buffer_bit_pj;
  e.comm_pj += static_cast<double>(ev.switch_flits) * d.switch_flit_pj +
               static_cast<double>(ev.bus_words) * d.bus_word_pj +
               static_cast<double>(ev.ccu_transfers) * d.ccu_transfer_pj +
               static_cast<double>(ev.sram_reads) * costs.sram.read_energy_pj() +
               static_cast<double>(ev.sram_writes) * costs.sram.write_energy_pj();
  if (fidelity_ == noc::Fidelity::kEvent) {
    // Hierarchical traversal energy the flat model folds into one hop:
    // every H-tree level crossed, and every mesh switch beyond the first,
    // costs one more flit traversal (docs/noc.md).
    const std::size_t extra_mesh =
        nstats.mesh.hops > nstats.mesh.words
            ? nstats.mesh.hops - nstats.mesh.words
            : 0;
    e.comm_pj +=
        static_cast<double>(nstats.tree.hops + extra_mesh) * d.switch_flit_pj;
  }

  report.perf.clock_mhz = costs.t.resparc_clock_mhz;
  report.perf.cycles_pipelined = state.cycles_pipelined;
  report.perf.cycles_serial = state.cycles_serial;
  report.perf.cycles_compute = state.cycles_compute;
  report.perf.cycles_transport = state.cycles_transport;
  report.perf.cycles_stall = state.cycles_stall;

  // Leakage integrates over the steady-state (pipelined) latency: in
  // throughput mode the chip retires one classification per pipelined
  // interval, so that is the idle-power window each classification pays.
  // The leaking silicon is the deployed column periphery (crossbars are
  // non-volatile), so idle power scales with mapped arrays x columns.
  const double leak_w =
      static_cast<double>(leak_columns_) * d.mca_column_leak_w +
      costs.sram.leakage_w();
  e.leakage_pj += leak_w * report.perf.latency_pipelined_ns() * 1e3;  // W*ns -> pJ

  report.faults = fault_manifest_;
}

RunReport Executor::run(const snn::SpikeTrace& trace) const {
  require(trace.layer_count() == topology_.layer_count() + 1,
          "executor: trace does not match topology");
  const std::size_t T = trace.timesteps();
  require(T > 0, "executor: empty trace");
  // The word-mask plan reads input words by index, so every layer input
  // must be as wide as the topology says.
  for (const auto& steps : trace.layers)
    require(steps.size() == T, "executor: trace layers differ in length");
  for (std::size_t l = 0; l < topology_.layer_count(); ++l)
    for (const SpikeVector& v : trace.layers[l])
      require(v.size() == topology_.layers()[l].in_shape.size(),
              "executor: trace layer width does not match the topology");

  const ReplayCosts costs = make_costs();

  ReplayState state;
  state.report.classifications = 1;
  // The event fabric keeps FIFO queues and per-resource clocks; the
  // analytic path is pure counter arithmetic (zero-allocation steady
  // state, tests/test_allocation.cpp) through noc::analytic_transfer.
  if (fidelity_ == noc::Fidelity::kEvent)
    state.fabric.emplace(costs.cfg, mapping_.total_neurocells);

  for (std::size_t step = 0; step < T; ++step)
    replay_step(trace, step, costs, state);

  finish_replay(costs, state);
  return state.report;
}

RunReport Executor::run_all(std::span<const snn::SpikeTrace> traces) const {
  require(!traces.empty(), "executor: no traces");
  RunReport total;
  for (const auto& trace : traces) total += run(trace);
  const double n = static_cast<double>(total.classifications);
  total.energy /= n;
  total.perf /= n;
  total.faults = fault_manifest_;
  return total;
}

}  // namespace resparc::core
