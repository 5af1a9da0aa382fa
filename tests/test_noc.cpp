// Unit tests for the hierarchical Ml-NoC fabric (src/noc/, docs/noc.md):
// routing pass, analytic/event fidelity, congestion accounting, and the
// bit-for-bit guarantee that analytic fidelity reproduces the
// pre-refactor flat executor totals.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/backends.hpp"
#include "api/pipeline.hpp"
#include "api/registry.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "compile/compiler.hpp"
#include "core/executor.hpp"
#include "core/fault_injection.hpp"
#include "noc/fabric.hpp"
#include "noc/route.hpp"
#include "snn/benchmarks.hpp"
#include "snn/simulator.hpp"
#include "tech/sram.hpp"
#include "tech/technology.hpp"

namespace resparc {
namespace {

using core::Mapping;
using core::RunReport;
using snn::LayerSpec;
using snn::Topology;

// ---------------------------------------------------------------- fixture --

/// Small random net + traces from the functional simulator.
struct Fixture {
  Fixture(std::size_t inputs, std::size_t hidden, double activity = 0.1)
      : topo("fx", Shape3{1, 1, inputs},
             {LayerSpec::dense(hidden), LayerSpec::dense(10)}),
        net(topo) {
    Rng rng(1);
    net.init_random(rng, 1.0f);
    std::vector<std::vector<float>> images;
    for (int i = 0; i < 3; ++i) {
      std::vector<float> img(inputs);
      for (auto& p : img) p = static_cast<float>(rng.uniform(0.0, 1.0));
      images.push_back(std::move(img));
    }
    snn::SimConfig cfg;
    cfg.timesteps = 16;
    snn::calibrate_thresholds(net, images, cfg, rng, activity);
    snn::Simulator sim(net, cfg);
    for (const auto& img : images) traces.push_back(sim.run(img, rng).trace);
  }
  Topology topo;
  snn::Network net;
  std::vector<snn::SpikeTrace> traces;
};

// ---------------------------------------------- pre-refactor flat replica --

std::size_t ref_nonzero_words(const snn::SpikeVector& v) {
  std::size_t n = 0;
  for (auto w : v.words())
    if (w) ++n;
  return n;
}

std::size_t ref_slice_bits(const core::InputSlice& slice,
                           const Shape3& in_shape) {
  if (slice.kind == core::SliceKind::kContiguous)
    return slice.end - slice.begin;
  return in_shape.c * (slice.y1 - slice.y0 + 1) * (slice.x1 - slice.x0 + 1);
}

std::size_t ref_active_in_slice(const core::InputSlice& slice,
                                const Shape3& in_shape,
                                const snn::SpikeVector& spikes) {
  if (slice.kind == core::SliceKind::kContiguous)
    return spikes.count_range(slice.begin, slice.end);
  std::size_t active = 0;
  for (std::size_t c = 0; c < in_shape.c; ++c) {
    for (std::size_t y = slice.y0; y <= slice.y1; ++y) {
      const std::size_t base = (c * in_shape.h + y) * in_shape.w;
      active += spikes.count_range(base + slice.x0, base + slice.x1 + 1);
    }
  }
  return active;
}

/// Byte-level transliteration of the pre-NoC Executor::run (the flat
/// kBusCyclesPerWord model the NoC layer replaced): the acceptance gate
/// that analytic NoC fidelity reproduces its energy/latency totals
/// bit-for-bit.  Programmed cells charge at the chip instance's mean
/// fault multiplier, exactly 1.0 when fault injection is off.
RunReport reference_flat_run(const Topology& topology, const Mapping& mapping,
                             const snn::SpikeTrace& trace) {
  const core::ResparcConfig& cfg = mapping.config;
  const tech::Technology& t = cfg.technology;
  const tech::DigitalCosts& d = t.digital;
  const tech::Memristor device{t.memristor};
  const double cell_pj =
      device.mean_cell_read_energy_pj() * core::chip_energy_scale(mapping);
  const double cell_off_pj = device.cell_read_energy_pj(device.g_min());
  const double sneak = device.params().sneak_leak_fraction;
  const tech::SramModel sram{
      {.capacity_bytes = cfg.input_sram_bytes, .word_bits = 64}};

  const std::size_t T = trace.timesteps();
  RunReport report;
  report.classifications = 1;
  core::EnergyBreakdown& e = report.energy;
  core::EventCounts& ev = report.events;

  double cycles_pipelined = 0.0;
  double cycles_serial = 0.0;

  for (std::size_t step = 0; step < T; ++step) {
    double stage_max = 0.0;
    {
      const snn::SpikeVector& in0 = trace.layers[0][step];
      const std::size_t total = in0.word_count();
      const std::size_t nz = ref_nonzero_words(in0);
      const std::size_t sent = cfg.event_driven ? nz : total;
      ev.sram_writes += sent;
      ev.sram_reads += sent;
      ev.bus_words += sent;
      if (cfg.event_driven) ev.bus_skips += total - nz;
      const double stage =
          core::kBusCyclesPerWord * static_cast<double>(sent);
      stage_max = std::max(stage_max, stage);
      cycles_serial += stage;
    }

    for (std::size_t l = 0; l < topology.layer_count(); ++l) {
      const snn::LayerInfo& li = topology.layers()[l];
      const core::LayerMapping& lm = mapping.layers[l];
      const snn::SpikeVector& in_vec = trace.layers[l][step];
      const snn::SpikeVector& out_vec = trace.layers[l + 1][step];

      bool layer_active = false;
      for (const core::McaGroup& g : lm.groups) {
        const std::size_t bits = ref_slice_bits(g.slice, li.in_shape);
        const std::size_t active =
            ref_active_in_slice(g.slice, li.in_shape, in_vec);
        if (active == 0 && cfg.event_driven) {
          ev.mca_skips += g.mca_count;
          continue;
        }
        layer_active = layer_active || active > 0;
        const double fraction =
            bits ? static_cast<double>(active) / static_cast<double>(bits)
                 : 0.0;
        const double driven_rows =
            fraction * static_cast<double>(g.rows_used * g.mca_count);
        const double driven_cells =
            driven_rows * static_cast<double>(cfg.mca_size);
        const double used_cells = fraction * static_cast<double>(g.synapses);
        e.crossbar_pj += used_cells * cell_pj +
                         std::max(0.0, driven_cells - used_cells) * cell_off_pj;
        if (sneak > 0.0) {
          const double total_cells =
              static_cast<double>(g.mca_count) *
              static_cast<double>(cfg.mca_size * cfg.mca_size);
          e.crossbar_pj +=
              sneak * std::max(0.0, total_cells - driven_cells) * cell_off_pj;
        }
        ev.mca_activations += g.mca_count;
        ev.buffer_bits += g.mca_count * cfg.mca_size;
        e.control_pj += static_cast<double>(g.mca_count) * d.mca_control_pj +
                        static_cast<double>(g.mca_count * cfg.mca_size) *
                            d.column_interface_pj;
        ev.neuron_integrations += g.cols_used;
      }

      ev.neuron_fires += out_vec.count();

      if ((layer_active || !cfg.event_driven) &&
          lm.ccu_transfers_per_neuron > 0)
        ev.ccu_transfers += li.neurons * lm.ccu_transfers_per_neuron;

      const std::size_t total = out_vec.word_count();
      const std::size_t nz = ref_nonzero_words(out_vec);
      const std::size_t sent = cfg.event_driven ? nz : total;
      const bool via_bus = l + 1 < topology.layer_count()
                               ? mapping.boundary_uses_bus(l + 1)
                               : true;
      if (via_bus) {
        ev.bus_words += sent;
        ev.sram_writes += sent;
        ev.sram_reads += sent;
        if (cfg.event_driven) ev.bus_skips += total - nz;
        e.control_pj += d.gcu_event_pj;
      } else {
        ev.switch_flits += sent;
        if (cfg.event_driven) ev.switch_skips += total - nz;
      }
      ev.buffer_bits += sent * (2 * static_cast<std::size_t>(t.flit_bits) + 16);

      const double compute_c =
          (layer_active || !cfg.event_driven)
              ? static_cast<double>(lm.mux_cycles) + 1.0
              : 0.0;
      const double transfer_c =
          via_bus ? core::kBusCyclesPerWord * static_cast<double>(sent)
                  : std::ceil(static_cast<double>(sent) /
                              static_cast<double>(cfg.nc_dim));
      const double stage = std::max(compute_c, transfer_c);
      stage_max = std::max(stage_max, stage);
      cycles_serial += compute_c + transfer_c;
    }

    cycles_pipelined += stage_max;
  }

  e.neuron_pj +=
      static_cast<double>(ev.neuron_integrations) * d.neuron_integrate_pj +
      static_cast<double>(ev.neuron_fires) * d.neuron_fire_pj;
  e.buffer_pj += static_cast<double>(ev.buffer_bits) * d.buffer_bit_pj;
  e.comm_pj += static_cast<double>(ev.switch_flits) * d.switch_flit_pj +
               static_cast<double>(ev.bus_words) * d.bus_word_pj +
               static_cast<double>(ev.ccu_transfers) * d.ccu_transfer_pj +
               static_cast<double>(ev.sram_reads) * sram.read_energy_pj() +
               static_cast<double>(ev.sram_writes) * sram.write_energy_pj();

  report.perf.clock_mhz = t.resparc_clock_mhz;
  report.perf.cycles_pipelined = cycles_pipelined;
  report.perf.cycles_serial = cycles_serial;

  const double leak_w =
      static_cast<double>(mapping.total_mcas * cfg.mca_size) *
          d.mca_column_leak_w +
      sram.leakage_w();
  e.leakage_pj += leak_w * report.perf.latency_pipelined_ns() * 1e3;

  return report;
}

/// Exact (bit-for-bit) equality of two reports' totals and counters.
void expect_reports_identical(const RunReport& a, const RunReport& b) {
  EXPECT_EQ(a.energy.neuron_pj, b.energy.neuron_pj);
  EXPECT_EQ(a.energy.crossbar_pj, b.energy.crossbar_pj);
  EXPECT_EQ(a.energy.buffer_pj, b.energy.buffer_pj);
  EXPECT_EQ(a.energy.control_pj, b.energy.control_pj);
  EXPECT_EQ(a.energy.comm_pj, b.energy.comm_pj);
  EXPECT_EQ(a.energy.leakage_pj, b.energy.leakage_pj);
  EXPECT_EQ(a.energy.total_pj(), b.energy.total_pj());
  EXPECT_EQ(a.perf.cycles_pipelined, b.perf.cycles_pipelined);
  EXPECT_EQ(a.perf.cycles_serial, b.perf.cycles_serial);
  EXPECT_EQ(a.events.mca_activations, b.events.mca_activations);
  EXPECT_EQ(a.events.mca_skips, b.events.mca_skips);
  EXPECT_EQ(a.events.bus_words, b.events.bus_words);
  EXPECT_EQ(a.events.bus_skips, b.events.bus_skips);
  EXPECT_EQ(a.events.switch_flits, b.events.switch_flits);
  EXPECT_EQ(a.events.switch_skips, b.events.switch_skips);
  EXPECT_EQ(a.events.sram_reads, b.events.sram_reads);
  EXPECT_EQ(a.events.sram_writes, b.events.sram_writes);
  EXPECT_EQ(a.events.ccu_transfers, b.events.ccu_transfers);
  EXPECT_EQ(a.events.neuron_fires, b.events.neuron_fires);
  EXPECT_EQ(a.events.neuron_integrations, b.events.neuron_integrations);
  EXPECT_EQ(a.events.buffer_bits, b.events.buffer_bits);
}

// ----------------------------------------------------------------- routes --

TEST(NocRoute, FidelityNamesRoundTrip) {
  EXPECT_EQ(noc::to_string(noc::Fidelity::kAnalytic), "analytic");
  EXPECT_EQ(noc::to_string(noc::Fidelity::kEvent), "event");
  noc::Fidelity f = noc::Fidelity::kAnalytic;
  EXPECT_TRUE(noc::parse_fidelity("event", f));
  EXPECT_EQ(f, noc::Fidelity::kEvent);
  EXPECT_TRUE(noc::parse_fidelity("analytic", f));
  EXPECT_EQ(f, noc::Fidelity::kAnalytic);
  EXPECT_FALSE(noc::parse_fidelity("cycle-accurate", f));
}

TEST(NocRoute, TreeDepthIsCeilLog2) {
  EXPECT_EQ(noc::tree_depth(1), 0u);
  EXPECT_EQ(noc::tree_depth(2), 1u);
  EXPECT_EQ(noc::tree_depth(3), 2u);
  EXPECT_EQ(noc::tree_depth(4), 2u);
  EXPECT_EQ(noc::tree_depth(5), 3u);
  EXPECT_EQ(noc::tree_depth(64), 6u);
  EXPECT_EQ(noc::tree_depth(65), 7u);
}

TEST(NocRoute, CoversEveryBoundaryWithBusTerminals) {
  Fixture fx(512, 256);
  const Mapping m = core::map_network(fx.topo, core::default_config());
  const noc::RouteTable routes = noc::compute_routes(m);
  ASSERT_EQ(routes.size(), fx.topo.layer_count() + 1);
  // Input broadcast and final egress always cross the root bus.
  EXPECT_TRUE(routes.at(0).uses_bus);
  EXPECT_TRUE(routes.at(routes.size() - 1).uses_bus);
  const std::size_t depth = noc::tree_depth(m.total_neurocells);
  for (const noc::Route& r : routes.boundaries) {
    EXPECT_GE(r.fanout(), 1u);
    EXPECT_GE(r.src_span, 1u);
    if (r.uses_bus) {
      // Depth-0 fabrics (one NeuroCell) turn at the root with height 0.
      if (depth > 0) {
        EXPECT_GE(r.lca_height, 1u);
      }
      EXPECT_EQ(r.mesh_hops, 0u);
    } else {
      EXPECT_EQ(r.mesh_hops, m.config.nc_dim - 1);
      EXPECT_EQ(r.tree_hops, 0u);
    }
  }
}

TEST(NocRoute, UsesBusAgreesWithMappingForEveryPaperBenchmark) {
  // The routing pass must preserve the mapper's serial-bus decision for
  // every in-range boundary — that is what keeps analytic costs intact.
  for (const auto& b : snn::paper_benchmarks()) {
    for (const std::size_t mca : {64u, 128u}) {
      const Mapping m =
          core::map_network(b.topology, core::config_with_mca(mca));
      const noc::RouteTable routes = noc::compute_routes(m);
      ASSERT_EQ(routes.size(), b.topology.layer_count() + 1);
      for (std::size_t l = 0; l < b.topology.layer_count(); ++l)
        EXPECT_EQ(routes.at(l).uses_bus, m.boundary_uses_bus(l))
            << b.topology.name() << " MCA-" << mca << " boundary " << l;
    }
  }
}

TEST(NocRoute, AtThrowsOutOfRange) {
  Fixture fx(64, 32);
  const Mapping m = core::map_network(fx.topo, core::default_config());
  const noc::RouteTable routes = noc::compute_routes(m);
  EXPECT_THROW(routes.at(routes.size()), ConfigError);
}

// ----------------------------------------------------------------- fabric --

TEST(NocFabric, AnalyticTransferMatchesFlatCharges) {
  const core::ResparcConfig cfg = core::default_config();
  noc::NocStats stats;
  noc::Route bus;
  bus.uses_bus = true;
  bus.tree_hops = 4;
  bus.lca_height = 2;
  const noc::Transport tb = noc::analytic_transfer(bus, 10, 3, cfg, stats);
  EXPECT_EQ(tb.cycles, core::kBusCyclesPerWord * 10.0);
  EXPECT_EQ(tb.stall_cycles, 0.0);
  EXPECT_EQ(stats.bus.words, 10u);
  EXPECT_EQ(stats.bus.drops, 3u);

  noc::Route mesh;
  mesh.mesh_hops = 3;
  const noc::Transport tm = noc::analytic_transfer(mesh, 10, 0, cfg, stats);
  EXPECT_EQ(tm.cycles, std::ceil(10.0 / static_cast<double>(cfg.nc_dim)));
  EXPECT_EQ(stats.mesh.hops, 30u);
}

TEST(NocFabric, ContendingRootTransfersStallInFifoOrder) {
  core::ResparcConfig cfg = core::default_config();
  noc::Fabric fabric(cfg, 8);
  noc::Route r;
  r.uses_bus = true;
  r.lca_height = noc::tree_depth(8);  // turns at the root: shared bus
  r.tree_hops = 2 * r.lca_height;
  r.src_span = 1;
  fabric.begin_step();
  const noc::Transport first = fabric.transfer(r, 10, 0, 0.0);
  EXPECT_EQ(first.stall_cycles, 0.0);
  // Same step, same arrival: the second transfer queues behind the first
  // for the full bus occupancy (ascent 10 + service 20).
  const noc::Transport second = fabric.transfer(r, 10, 0, 0.0);
  EXPECT_GT(second.stall_cycles, 0.0);
  EXPECT_GT(second.cycles, first.cycles);
  // A new step rewinds the resource clocks.
  fabric.begin_step();
  const noc::Transport fresh = fabric.transfer(r, 10, 0, 0.0);
  EXPECT_EQ(fresh.stall_cycles, 0.0);
  EXPECT_EQ(fresh.cycles, first.cycles);
}

TEST(NocFabric, SubtreeTransfersDoNotContendAcrossSubtrees) {
  core::ResparcConfig cfg = core::default_config();
  noc::Fabric fabric(cfg, 8);
  noc::Route left;
  left.uses_bus = true;
  left.src_nc = 0;
  left.dst_nc_first = left.dst_nc_last = 1;
  left.lca_height = 1;
  left.tree_hops = 2;
  noc::Route right = left;
  right.src_nc = 4;
  right.dst_nc_first = right.dst_nc_last = 5;
  fabric.begin_step();
  (void)fabric.transfer(left, 10, 0, 0.0);
  const noc::Transport other = fabric.transfer(right, 10, 0, 0.0);
  EXPECT_EQ(other.stall_cycles, 0.0);  // different subtree link
  const noc::Transport same = fabric.transfer(left, 10, 0, 0.0);
  EXPECT_GT(same.stall_cycles, 0.0);  // same subtree link: FIFO queueing
}

TEST(NocFabric, ZeroCheckDropsAreCountedOnTheSwitches) {
  core::ResparcConfig cfg = core::default_config();
  ASSERT_TRUE(cfg.event_driven);
  noc::Fabric fabric(cfg, 4);
  noc::Route r;
  r.uses_bus = true;
  r.lca_height = 2;
  r.tree_hops = 4;
  fabric.begin_step();
  (void)fabric.transfer(r, 5, 7, 0.0);
  const core::SwitchCounters totals = fabric.switch_totals();
  EXPECT_EQ(totals.forwarded, 5u);
  EXPECT_EQ(totals.dropped_zero, 7u);  // one flag: config.event_driven
  EXPECT_EQ(fabric.stats().total_drops(), 7u);

  // With the event-driven lever off the same words are forwarded: the
  // switch zero-check and the executor's accounting share the flag.
  cfg.event_driven = false;
  noc::Fabric off(cfg, 4);
  off.begin_step();
  (void)off.transfer(r, 5, 0, 0.0);
  EXPECT_EQ(off.switch_totals().dropped_zero, 0u);
  EXPECT_EQ(off.switch_totals().forwarded, 5u);
}

TEST(NocFabric, ResetClearsCountersAndClocks) {
  noc::Fabric fabric(core::default_config(), 8);
  noc::Route root;
  root.uses_bus = true;
  root.lca_height = noc::tree_depth(8);
  noc::Route subtree;  // turns below the root: exercises node_free_
  subtree.uses_bus = true;
  subtree.src_nc = 0;
  subtree.dst_nc_first = subtree.dst_nc_last = 1;
  subtree.lca_height = 1;
  subtree.tree_hops = 2;
  fabric.begin_step();
  (void)fabric.transfer(root, 5, 2, 0.0);
  (void)fabric.transfer(subtree, 5, 0, 0.0);
  fabric.reset();
  EXPECT_EQ(fabric.switch_totals().forwarded, 0u);
  EXPECT_EQ(fabric.stats().bus.words, 0u);
  EXPECT_EQ(fabric.stats().total_stall_cycles(), 0.0);
  // Every resource clock — bus AND subtree links — rewound: a transfer
  // straight after reset() sees an idle fabric.
  EXPECT_EQ(fabric.transfer(root, 5, 0, 0.0).stall_cycles, 0.0);
  EXPECT_EQ(fabric.transfer(subtree, 5, 0, 0.0).stall_cycles, 0.0);
}

TEST(NocFabric, TrafficCountersAreFidelityIndependent) {
  // Words/hops/drops describe the route, not the timing: the event
  // fabric must attribute them per level exactly like analytic_transfer,
  // including sub-root routes that only contend on a subtree link.
  const core::ResparcConfig cfg = core::default_config();
  noc::Route subtree;
  subtree.uses_bus = true;
  subtree.src_nc = 0;
  subtree.dst_nc_first = subtree.dst_nc_last = 1;
  subtree.lca_height = 1;
  subtree.tree_hops = 2;
  noc::NocStats analytic;
  (void)noc::analytic_transfer(subtree, 9, 4, cfg, analytic);
  noc::Fabric fabric(cfg, 8);
  fabric.begin_step();
  (void)fabric.transfer(subtree, 9, 4, 0.0);
  const noc::NocStats& event = fabric.stats();
  EXPECT_EQ(analytic.bus.words, event.bus.words);
  EXPECT_EQ(analytic.bus.hops, event.bus.hops);
  EXPECT_EQ(analytic.bus.drops, event.bus.drops);
  EXPECT_EQ(analytic.tree.words, event.tree.words);
  EXPECT_EQ(analytic.tree.hops, event.tree.hops);
}

TEST(NocRoute, LcaSpansTheWholeSourceLayerRange) {
  // The LCA subtree must cover the source layer's FULL cell range, not
  // just its last cell — a destination placed below the source's tail
  // (possible with custom placement strategies) still has to climb high
  // enough for the subtree to contain src.last_nc.
  Fixture fx(512, 256);
  Mapping m = core::map_network(fx.topo, core::default_config());
  ASSERT_GE(m.layers.size(), 2u);
  // Force a wide source span with a low destination: src cells 0..5,
  // dst cell 1 — the covering subtree of {0..5} needs height >= 3.
  m.total_neurocells = 8;
  m.layers[0].first_nc = 0;
  m.layers[0].last_nc = 5;
  m.layers[1].first_nc = 1;
  m.layers[1].last_nc = 1;
  const noc::RouteTable routes = noc::compute_routes(m);
  const noc::Route& r = routes.at(1);
  ASSERT_TRUE(r.uses_bus);
  EXPECT_GE(r.lca_height, 3u);
}

// --------------------------------------------- executor fidelity contract --

TEST(NocExecutor, AnalyticFidelityIsBitForBitFlatOnSmallNets) {
  Fixture fx(512, 256);
  // The default PCM device leaks: this pins the sneak term's on branch.
  EXPECT_EQ(core::default_config().technology.memristor.sneak_leak_fraction,
            0.05);
  const Mapping m = core::map_network(fx.topo, core::default_config());
  const core::Executor ex(fx.topo, m);
  for (const auto& trace : fx.traces)
    expect_reports_identical(ex.run(trace),
                             reference_flat_run(fx.topo, m, trace));
}

TEST(NocExecutor, AnalyticFidelityIsBitForBitFlatOnALayerOfManyGroups) {
  // 72 channels x 32 output rows give the pool layer 2,304 MCA groups,
  // more than one replay count call covers (2,048), so the replay counts
  // the layer in two blocks.
  const Topology topo("many-groups", Shape3{72, 64, 64},
                      {LayerSpec::avg_pool(2), LayerSpec::dense(10)});
  snn::Network net(topo);
  Rng rng(11);
  net.init_random(rng, 0.5f);
  snn::SimConfig cfg;
  cfg.timesteps = 4;
  snn::Simulator sim(net, cfg);
  std::vector<float> img(topo.input_neurons());
  for (auto& p : img) p = static_cast<float>(rng.uniform(0.0, 0.3));
  const snn::SpikeTrace trace = sim.run(img, rng).trace;

  const Mapping m = core::map_network(topo, core::default_config());
  ASSERT_GT(m.layers[0].groups.size(), 2048u);
  expect_reports_identical(core::Executor(topo, m).run(trace),
                           reference_flat_run(topo, m, trace));
}

/// Chip configurations off the default technology, each with the replay
/// term it pins: Ag-Si has no sneak leakage (the sneak term's off
/// branch; the default PCM device leaks 5% per half-selected cell), and
/// the fault chip charges programmed cells at a mean multiplier other
/// than 1.
std::vector<std::pair<std::string, core::ResparcConfig>> off_default_configs() {
  std::vector<std::pair<std::string, core::ResparcConfig>> configs;
  core::ResparcConfig agsi = core::default_config();
  agsi.technology = tech::agsi_technology();
  configs.emplace_back("agsi", agsi);
  core::ResparcConfig faulty = core::default_config();
  faulty.faults.enabled = true;
  faulty.faults.chip_seed = 42;
  faulty.faults.stuck_off_rate = 0.01;
  faulty.faults.stuck_on_rate = 0.005;
  faulty.faults.programming_sigma = 0.2;
  configs.emplace_back("faults", faulty);
  return configs;
}

/// Checks that each off-default configuration drives the term it is meant
/// to pin, then replays `traces` against the flat reference.
void expect_flat_off_default(const Topology& topo,
                             std::span<const snn::SpikeTrace> traces) {
  for (const auto& [name, config] : off_default_configs()) {
    SCOPED_TRACE(name);
    const double sneak = config.technology.memristor.sneak_leak_fraction;
    const Mapping m = core::map_network(topo, config);
    if (name == "agsi") {
      EXPECT_EQ(sneak, 0.0);
    } else {
      EXPECT_NE(core::chip_energy_scale(m), 1.0);
    }
    const core::Executor ex(topo, m);
    for (const auto& trace : traces)
      expect_reports_identical(ex.run(trace),
                               reference_flat_run(topo, m, trace));
  }
}

TEST(NocExecutor, AnalyticFidelityIsBitForBitFlatOffDefaultTechnology) {
  Fixture fx(512, 256);
  expect_flat_off_default(fx.topo, fx.traces);
}

TEST(NocExecutor, ProgramRoutesAndSelfRoutesAgreeBitForBit) {
  Fixture fx(256, 128);
  compile::Compiler compiler(core::default_config());
  const compile::CompiledProgram p = compiler.compile(fx.topo);
  ASSERT_FALSE(p.routes.empty());
  const core::Executor self(fx.topo, p.mapping);
  const core::Executor routed(fx.topo, p.mapping, p.routes,
                              noc::Fidelity::kAnalytic);
  for (const auto& trace : fx.traces)
    expect_reports_identical(self.run(trace), routed.run(trace));
}

TEST(NocExecutor, EventFidelityOnlyAddsLatency) {
  Fixture fx(512, 256);
  compile::Compiler compiler(core::default_config());
  const compile::CompiledProgram p = compiler.compile(fx.topo);
  const core::Executor analytic(fx.topo, p.mapping, p.routes,
                                noc::Fidelity::kAnalytic);
  const core::Executor event(fx.topo, p.mapping, p.routes,
                             noc::Fidelity::kEvent);
  const RunReport a = analytic.run_all(fx.traces);
  const RunReport e = event.run_all(fx.traces);
  EXPECT_GE(e.perf.cycles_pipelined, a.perf.cycles_pipelined);
  EXPECT_GE(e.perf.cycles_serial, a.perf.cycles_serial);
  EXPECT_GE(e.perf.cycles_stall, 0.0);
  EXPECT_EQ(a.perf.cycles_stall, 0.0);
  // Event counters (the paper's section 3.2 levers) are fidelity-free.
  EXPECT_EQ(a.events.bus_words, e.events.bus_words);
  EXPECT_EQ(a.events.switch_flits, e.events.switch_flits);
  EXPECT_EQ(a.events.mca_activations, e.events.mca_activations);
  // ... and so are the per-level NoC traffic counters.
  EXPECT_EQ(a.noc.bus.words, e.noc.bus.words);
  EXPECT_EQ(a.noc.bus.drops, e.noc.bus.drops);
  EXPECT_EQ(a.noc.tree.hops, e.noc.tree.hops);
  EXPECT_EQ(a.noc.mesh.words, e.noc.mesh.words);
  EXPECT_EQ(a.noc.mesh.hops, e.noc.mesh.hops);
  // Event fidelity charges the hierarchical hop energy on top.
  EXPECT_GE(e.energy.comm_pj, a.energy.comm_pj);
}

TEST(NocExecutor, SerialCyclesDecomposeExactly) {
  Fixture fx(256, 128);
  const Mapping m = core::map_network(fx.topo, core::default_config());
  for (const noc::Fidelity f :
       {noc::Fidelity::kAnalytic, noc::Fidelity::kEvent}) {
    const core::Executor ex(fx.topo, m, noc::compute_routes(m), f);
    const RunReport r = ex.run(fx.traces[0]);
    EXPECT_NEAR(r.perf.cycles_serial,
                r.perf.cycles_compute + r.perf.cycles_transport +
                    r.perf.cycles_stall,
                1e-9)
        << noc::to_string(f);
  }
}

TEST(NocExecutor, DropAccountingMatchesSkipCountersInBothFidelities) {
  Fixture fx(512, 256, 0.05);
  const Mapping m = core::map_network(fx.topo, core::default_config());
  for (const noc::Fidelity f :
       {noc::Fidelity::kAnalytic, noc::Fidelity::kEvent}) {
    const core::Executor ex(fx.topo, m, noc::compute_routes(m), f);
    const RunReport r = ex.run_all(fx.traces);
    EXPECT_EQ(r.noc.total_drops(), r.events.bus_skips + r.events.switch_skips)
        << noc::to_string(f);
    EXPECT_GT(r.noc.total_hops(), 0u);
  }
}

TEST(NocExecutor, RejectsRouteTableOfWrongSize) {
  Fixture fx(64, 32);
  const Mapping m = core::map_network(fx.topo, core::default_config());
  noc::RouteTable routes = noc::compute_routes(m);
  routes.boundaries.pop_back();
  EXPECT_THROW(
      core::Executor(fx.topo, m, routes, noc::Fidelity::kAnalytic),
      ConfigError);
}

// --------------------------------------------------- word-mask slice plan --

// The Executor counts a group's active rows from its (word, mask) plan; the
// count must equal the per-row count_range walk on every group of every
// layer, for every shipped mapping shape: contiguous MLP slices, same- and
// valid-padding conv windows, pool windows, at any input density.
TEST(NocExecutor, PlanCountsMatchPerRowSliceCounts) {
  const snn::BenchmarkSpec specs[] = {snn::mnist_cnn(), snn::svhn_cnn(),
                                      snn::mnist_mlp()};
  bool odd_width = false;
  bool window_crosses_word = false;
  Rng rng(15);
  for (const snn::BenchmarkSpec& spec : specs) {
    const Topology& topo = spec.topology;
    for (const char* strategy : {"paper", "greedy-pack", "anneal"}) {
      const compile::CompiledProgram p =
          compile::Compiler(core::default_config()).compile(topo, strategy);
      const core::Executor ex(topo, p.mapping);
      for (std::size_t l = 0; l < topo.layer_count(); ++l) {
        const Shape3 in = topo.layers()[l].in_shape;
        odd_width = odd_width || in.size() % 64 != 0;
        const auto& groups = p.mapping.layers[l].groups;
        for (const core::McaGroup& g : groups)
          if (g.slice.kind == core::SliceKind::kWindow)
            for (std::size_t c = 0; c < in.c; ++c)
              for (std::size_t y = g.slice.y0; y <= g.slice.y1; ++y) {
                const std::size_t base = (c * in.h + y) * in.w;
                window_crosses_word =
                    window_crosses_word ||
                    (base + g.slice.x0) / 64 != (base + g.slice.x1) / 64;
              }
        for (const double density : {0.0, 0.02, 0.5, 1.0}) {
          snn::SpikeVector spikes(in.size());
          for (std::size_t i = 0; i < in.size(); ++i)
            if (rng.uniform() < density) spikes.set(i);
          for (std::size_t gi = 0; gi < groups.size(); ++gi)
            ASSERT_EQ(ex.active_rows(l, gi, spikes),
                      ref_active_in_slice(groups[gi].slice, in, spikes))
                << topo.name() << "/" << strategy << " layer " << l
                << " group " << gi << " density " << density;
        }
      }
    }
  }
  EXPECT_TRUE(odd_width);
  EXPECT_TRUE(window_crosses_word);
}

TEST(NocApi, BackendSurfacesFidelityAndLatencyBreakdown) {
  Fixture fx(512, 256);
  api::BackendOptions options;
  options.noc = noc::Fidelity::kEvent;
  auto accel = api::make_accelerator("resparc", options);
  EXPECT_NE(accel->name().find("@event"), std::string::npos);
  accel->load(fx.topo);
  const api::ExecutionReport r = accel->execute(fx.traces);
  ASSERT_FALSE(r.latency_breakdown_ns.empty());
  const double ns_per_cycle = 1e3 / r.resparc->perf.clock_mhz;
  EXPECT_NEAR(r.bucket_ns("compute") + r.bucket_ns("transport") +
                  r.bucket_ns("noc_stall"),
              r.resparc->perf.cycles_serial * ns_per_cycle,
              1e-6 * r.resparc->perf.cycles_serial * ns_per_cycle + 1e-9);
}

TEST(NocApi, BatchedExecuteSumsNocCountersLikeSequential) {
  Fixture fx(512, 256);
  api::BackendOptions options;
  options.noc = noc::Fidelity::kEvent;
  auto accel = api::make_accelerator("resparc", options);
  accel->load(fx.topo);
  const api::ExecutionReport seq = accel->execute(fx.traces);
  const api::ExecutionReport batched =
      api::Pipeline::execute(*accel, fx.traces, 4);
  ASSERT_TRUE(batched.resparc.has_value());
  EXPECT_EQ(seq.resparc->noc.total_hops(), batched.resparc->noc.total_hops());
  EXPECT_EQ(seq.resparc->noc.total_drops(),
            batched.resparc->noc.total_drops());
  EXPECT_EQ(seq.resparc->perf.cycles_stall,
            batched.resparc->perf.cycles_stall);
  EXPECT_EQ(seq.latency_ns, batched.latency_ns);
  EXPECT_EQ(seq.bucket_ns("noc_stall"), batched.bucket_ns("noc_stall"));
}

// -------------------------------------------------- chip / program plumbing --

TEST(NocChip, EventFidelityChipReportsStallsAndNocCounters) {
  Fixture fx(512, 256);
  api::ResparcBackend chip(core::default_config(), "paper",
                           noc::Fidelity::kEvent);
  chip.load(fx.topo);
  const RunReport r = *chip.execute(fx.traces).resparc;
  EXPECT_EQ(chip.noc_fidelity(), noc::Fidelity::kEvent);
  EXPECT_GT(r.noc.total_hops(), 0u);
  EXPECT_GE(r.perf.cycles_stall, 0.0);
}

TEST(NocProgram, RoutesSurviveSerializationBitExact) {
  Fixture fx(512, 256);
  compile::Compiler compiler(core::default_config());
  const compile::CompiledProgram p = compiler.compile(fx.topo);
  std::stringstream ss;
  p.save(ss);
  const compile::CompiledProgram q =
      compile::CompiledProgram::load(ss, core::default_config());
  ASSERT_EQ(q.routes.size(), p.routes.size());
  for (std::size_t b = 0; b < p.routes.size(); ++b) {
    const noc::Route& x = p.routes.at(b);
    const noc::Route& y = q.routes.at(b);
    EXPECT_EQ(x.boundary, y.boundary);
    EXPECT_EQ(x.src_nc, y.src_nc);
    EXPECT_EQ(x.dst_nc_first, y.dst_nc_first);
    EXPECT_EQ(x.dst_nc_last, y.dst_nc_last);
    EXPECT_EQ(x.uses_bus, y.uses_bus);
    EXPECT_EQ(x.mesh_hops, y.mesh_hops);
    EXPECT_EQ(x.tree_hops, y.tree_hops);
    EXPECT_EQ(x.lca_height, y.lca_height);
    EXPECT_EQ(x.fanout(), y.fanout());
    EXPECT_EQ(x.src_span, y.src_span);
  }
}

// --------------------------------------- paper-scale bit-for-bit acceptance --

class NocPaperScale : public ::testing::TestWithParam<int> {
 protected:
  static const snn::BenchmarkSpec& spec(int index) {
    static const auto all = snn::paper_benchmarks();
    return all[static_cast<std::size_t>(index)];
  }
};

TEST_P(NocPaperScale, AnalyticReproducesFlatTotalsBitForBit) {
  const snn::BenchmarkSpec& b = spec(GetParam());
  snn::Network net(b.topology);
  Rng rng(7);
  net.init_random(rng, 0.5f);
  snn::SimConfig cfg;
  cfg.timesteps = 8;
  snn::Simulator sim(net, cfg);
  std::vector<float> img(b.topology.input_neurons());
  for (auto& p : img) p = static_cast<float>(rng.uniform(0.0, 1.0));
  const snn::SpikeTrace trace = sim.run(img, rng).trace;

  const Mapping m = core::map_network(b.topology, core::default_config());
  const core::Executor ex(b.topology, m);
  expect_reports_identical(ex.run(trace),
                           reference_flat_run(b.topology, m, trace));
}

TEST_P(NocPaperScale, AnalyticReproducesFlatTotalsOffDefaultTechnology) {
  const snn::BenchmarkSpec& b = spec(GetParam());
  snn::Network net(b.topology);
  Rng rng(8);
  net.init_random(rng, 0.5f);
  snn::SimConfig cfg;
  cfg.timesteps = 8;
  snn::Simulator sim(net, cfg);
  std::vector<float> img(b.topology.input_neurons());
  for (auto& p : img) p = static_cast<float>(rng.uniform(0.0, 1.0));
  const snn::SpikeTrace trace = sim.run(img, rng).trace;
  expect_flat_off_default(b.topology, {&trace, 1});
}

// Paper-scale MLP (0) and CNN (3): the acceptance pair of docs/noc.md.
INSTANTIATE_TEST_SUITE_P(MlpAndCnn, NocPaperScale, ::testing::Values(0, 3));

}  // namespace
}  // namespace resparc
