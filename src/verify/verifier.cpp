#include "verify/verifier.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <sstream>

#include "common/math.hpp"
#include "compile/cost_model.hpp"
#include "noc/route.hpp"
#include "tech/nonideal.hpp"

namespace resparc::verify {

namespace {

using compile::CompiledProgram;
using core::LayerMapping;
using core::Mapping;
using core::McaGroup;
using core::ResparcConfig;

std::string layer_loc(std::size_t l) { return "layer " + std::to_string(l); }

std::string group_loc(std::size_t l, std::size_t g) {
  return "layer " + std::to_string(l) + " group " + std::to_string(g);
}

std::string boundary_loc(std::size_t b) {
  return "boundary " + std::to_string(b);
}

/// Relative comparison for re-derived doubles (see VerifyOptions::tolerance).
bool close(double actual, double expected, double tolerance) {
  const double scale = std::max(std::abs(expected), 1.0);
  return std::abs(actual - expected) <= tolerance * scale;
}

std::size_t word_count(std::size_t bits) { return (bits + 63) / 64; }

/// Whitespace folded to '-', mirroring the serializer's token() (the
/// stored topology summary is compared in folded form).
std::string fold_token(const std::string& s) {
  std::string out = s.empty() ? std::string("-") : s;
  for (char& c : out)
    if (std::isspace(static_cast<unsigned char>(c))) c = '-';
  return out;
}

// --------------------------------------------------------------- structure --

/// Every layer tiled and placed, the route table covers every boundary,
/// and route endpoints sit inside the placed cells.
void structure_pass(const CompiledProgram& p, const VerifyOptions&,
                    VerifyReport& report) {
  const Mapping& m = p.mapping;
  const ResparcConfig& cfg = m.config;
  const std::size_t per_nc = cfg.mpes_per_neurocell();

  if (m.layers.empty()) {
    report.error("RV-STRUCT-EMPTY-PROGRAM", "program", "mapping has no layers");
    return;
  }

  for (std::size_t l = 0; l < m.layers.size(); ++l) {
    const LayerMapping& lm = m.layers[l];
    if (lm.layer != l)
      report.error("RV-STRUCT-LAYER-INDEX", layer_loc(l),
                   "stored layer index " + std::to_string(lm.layer) +
                       " does not match position " + std::to_string(l));
    if (lm.groups.empty() || lm.mca_count == 0 || lm.mpe_count == 0 ||
        lm.synapses == 0)
      report.error("RV-STRUCT-UNTILED-LAYER", layer_loc(l),
                   "layer is not tiled (no groups, MCAs, mPEs or synapses)");
    if (lm.mux_degree == 0 || lm.mux_cycles == 0)
      report.error("RV-STRUCT-UNTILED-LAYER", layer_loc(l),
                   "time-multiplex degree/cycles must be at least 1");

    for (std::size_t g = 0; g < lm.groups.size(); ++g) {
      const McaGroup& mg = lm.groups[g];
      if (mg.mca_count == 0 || mg.synapses == 0)
        report.error("RV-STRUCT-EMPTY-GROUP", group_loc(l, g),
                     "group deploys no MCAs or programs no synapses");
      if (mg.slice.kind == core::SliceKind::kContiguous) {
        if (mg.slice.begin >= mg.slice.end)
          report.error("RV-STRUCT-SLICE", group_loc(l, g),
                       "contiguous slice [" + std::to_string(mg.slice.begin) +
                           ", " + std::to_string(mg.slice.end) + ") is empty");
      } else {
        if (mg.slice.y0 > mg.slice.y1 || mg.slice.x0 > mg.slice.x1)
          report.error("RV-STRUCT-SLICE", group_loc(l, g),
                       "window slice rows/cols are inverted");
      }
    }

    // Placement: the stored NeuroCell range must be the one the mPE range
    // implies (all shipped placements are mPE-contiguous by representation:
    // first_mpe + mpe_count describe the span).
    if (lm.mpe_count > 0) {
      const std::size_t want_first_nc = lm.first_mpe / per_nc;
      const std::size_t want_last_nc =
          (lm.first_mpe + lm.mpe_count - 1) / per_nc;
      if (lm.first_nc != want_first_nc || lm.last_nc != want_last_nc ||
          lm.last_nc < lm.first_nc)
        report.error(
            "RV-STRUCT-PLACEMENT", layer_loc(l),
            "placed NeuroCell range [" + std::to_string(lm.first_nc) + ", " +
                std::to_string(lm.last_nc) + "] does not match mPE span [" +
                std::to_string(lm.first_mpe) + ", " +
                std::to_string(lm.first_mpe + lm.mpe_count - 1) + "]");
    }
  }

  // Route table coverage: one route per boundary (layer_count + 1).
  const std::size_t boundaries = m.layers.size() + 1;
  if (p.routes.size() != boundaries) {
    report.error("RV-STRUCT-ROUTE-COUNT", "route table",
                 "program carries " + std::to_string(p.routes.size()) +
                     " routes but the mapping has " +
                     std::to_string(boundaries) + " boundaries");
    return;  // per-route checks below assume a covering table
  }

  for (std::size_t b = 0; b < boundaries; ++b) {
    const noc::Route& r = p.routes.boundaries[b];
    if (r.boundary != b)
      report.error("RV-STRUCT-ROUTE-INDEX", boundary_loc(b),
                   "stored boundary index " + std::to_string(r.boundary) +
                       " does not match position " + std::to_string(b));
    if (r.dst_nc_first > r.dst_nc_last ||
        r.dst_nc_last >= std::max<std::size_t>(1, m.total_neurocells) ||
        r.src_nc >= std::max<std::size_t>(1, m.total_neurocells)) {
      report.error("RV-STRUCT-ROUTE-ENDPOINT", boundary_loc(b),
                   "route endpoints (src " + std::to_string(r.src_nc) +
                       ", dst [" + std::to_string(r.dst_nc_first) + ", " +
                       std::to_string(r.dst_nc_last) +
                       "]) fall outside the placed NeuroCells");
      continue;
    }
    // Endpoints must agree with the placement of the adjacent layers.
    const LayerMapping* src =
        b == 0 ? nullptr : &m.layers[b - 1];
    const LayerMapping* dst =
        b == m.layers.size() ? nullptr : &m.layers[b];
    const std::size_t want_src = src ? src->last_nc : m.layers[0].first_nc;
    const std::size_t want_first = dst ? dst->first_nc : want_src;
    const std::size_t want_last = dst ? dst->last_nc : want_src;
    if (r.src_nc != want_src || r.dst_nc_first != want_first ||
        r.dst_nc_last != want_last)
      report.error("RV-STRUCT-ROUTE-ENDPOINT", boundary_loc(b),
                   "route endpoints do not match the adjacent layers' "
                   "placement (expected src " +
                       std::to_string(want_src) + ", dst [" +
                       std::to_string(want_first) + ", " +
                       std::to_string(want_last) + "])");
  }
}

// ----------------------------------------------------------------- routing --

/// H-tree internals re-derived from the placement: bus flags, LCA
/// heights, hop counts and source spans must be the ones the routing
/// pass' definitions produce for these endpoints.
void routing_pass(const CompiledProgram& p, const VerifyOptions&,
                  VerifyReport& report) {
  const Mapping& m = p.mapping;
  if (m.layers.empty() || p.routes.size() != m.layers.size() + 1)
    return;  // structure_pass reported the shape problem
  const std::size_t depth = noc::tree_depth(m.total_neurocells);
  const std::size_t mesh = m.config.nc_dim - 1;
  const std::size_t layers = m.layers.size();

  for (std::size_t b = 0; b <= layers; ++b) {
    const noc::Route& r = p.routes.boundaries[b];
    const std::string loc = boundary_loc(b);

    if (r.src_span == 0 || r.src_span > std::max<std::size_t>(
                               1, m.total_neurocells)) {
      report.error("RV-ROUTE-SRC-SPAN", loc,
                   "source span " + std::to_string(r.src_span) +
                       " outside [1, " +
                       std::to_string(m.total_neurocells) + "]");
    }
    if (r.fanout() > std::max<std::size_t>(1, m.total_neurocells))
      report.error("RV-ROUTE-FANOUT", loc,
                   "destination fanout " + std::to_string(r.fanout()) +
                       " exceeds the " + std::to_string(m.total_neurocells) +
                       " placed NeuroCells");

    if (b == 0 || b == layers) {
      // Input broadcast and final egress always turn at the root.
      if (!r.uses_bus)
        report.error("RV-ROUTE-BUS-FLAG", loc,
                     b == 0 ? "input broadcast must use the global bus"
                            : "final egress must use the global bus");
      if (r.lca_height != depth)
        report.error("RV-ROUTE-LCA-HEIGHT", loc,
                     "root boundary stores LCA height " +
                         std::to_string(r.lca_height) + ", tree depth is " +
                         std::to_string(depth));
      if (r.tree_hops != depth)
        report.error("RV-ROUTE-TREE-HOPS", loc,
                     "root boundary stores " + std::to_string(r.tree_hops) +
                         " tree hops, tree depth is " + std::to_string(depth));
      if (r.mesh_hops != 0)
        report.error("RV-ROUTE-MESH-HOPS", loc,
                     "bus route must not cross the in-cell mesh");
      const std::size_t want_span =
          b == 0 ? 1
                 : m.layers[layers - 1].last_nc - m.layers[layers - 1].first_nc +
                       1;
      if (r.src_span != want_span)
        report.error("RV-ROUTE-SRC-SPAN", loc,
                     "source span " + std::to_string(r.src_span) +
                         " does not match the source layer's " +
                         std::to_string(want_span) + " cells");
      continue;
    }

    const LayerMapping& src = m.layers[b - 1];
    const LayerMapping& dst = m.layers[b];
    const bool want_bus = m.boundary_uses_bus(b);
    if (r.uses_bus != want_bus) {
      report.error("RV-ROUTE-BUS-FLAG", loc,
                   std::string("route ") +
                       (r.uses_bus ? "uses" : "does not use") +
                       " the bus but the placement says it must" +
                       (want_bus ? "" : " not"));
      continue;  // hop expectations depend on the correct flag
    }
    if (want_bus) {
      const std::size_t span_min = std::min(src.first_nc, dst.first_nc);
      const std::size_t span_max = std::max(src.last_nc, dst.last_nc);
      const std::size_t want_lca = std::max<std::size_t>(
          1, noc::lca_height_of(span_min, span_max));
      if (r.lca_height != want_lca || r.lca_height > depth)
        report.error("RV-ROUTE-LCA-HEIGHT", loc,
                     "stored LCA height " + std::to_string(r.lca_height) +
                         ", endpoints imply " + std::to_string(want_lca) +
                         " (tree depth " + std::to_string(depth) + ")");
      if (r.tree_hops != 2 * r.lca_height)
        report.error("RV-ROUTE-TREE-HOPS", loc,
                     "tree hops " + std::to_string(r.tree_hops) +
                         " must be ascent + descent = " +
                         std::to_string(2 * r.lca_height));
      if (r.mesh_hops != 0)
        report.error("RV-ROUTE-MESH-HOPS", loc,
                     "bus route must not cross the in-cell mesh");
    } else {
      if (r.mesh_hops != mesh)
        report.error("RV-ROUTE-MESH-HOPS", loc,
                     "intra-cell route stores " + std::to_string(r.mesh_hops) +
                         " mesh hops, the " + std::to_string(m.config.nc_dim) +
                         "x" + std::to_string(m.config.nc_dim) +
                         " cell implies " + std::to_string(mesh));
      if (r.tree_hops != 0 || r.lca_height != 0)
        report.error("RV-ROUTE-TREE-HOPS", loc,
                     "intra-cell route must not climb the H-tree");
    }
    const std::size_t want_span = src.last_nc - src.first_nc + 1;
    if (r.src_span != want_span)
      report.error("RV-ROUTE-SRC-SPAN", loc,
                   "source span " + std::to_string(r.src_span) +
                       " does not match the source layer's " +
                       std::to_string(want_span) + " cells");
  }
}

// ---------------------------------------------------------------- capacity --

/// Physical capacities: crosspoints per MCA, MCAs per mPE, mPEs per
/// NeuroCell; switch FIFO burst depth as a warning (topology needed).
void capacity_pass(const CompiledProgram& p, const VerifyOptions& options,
                   VerifyReport& report) {
  const Mapping& m = p.mapping;
  const ResparcConfig& cfg = m.config;

  // Heterogeneous chips (search strategies) carry a per-layer MCA size;
  // every capacity bound below is re-derived against the layer's resolved
  // N.  Two extra invariants guard the mix itself: the override must be a
  // legal array size, and one NeuroCell never holds arrays of two sizes
  // (the peripheral pitch of a cell is fixed at fabrication).
  std::vector<std::size_t> nc_size;  // resolved size per occupied NC, 0 = free
  nc_size.resize(m.total_neurocells, 0);

  for (std::size_t l = 0; l < m.layers.size(); ++l) {
    const LayerMapping& lm = m.layers[l];
    const std::size_t N = m.layer_mca_size(l);
    if (lm.mca_size != 0 && (lm.mca_size < 8 || lm.mca_size > 1024))
      report.error("RV-CAP-MCA-SIZE", layer_loc(l),
                   "per-layer MCA size " + std::to_string(lm.mca_size) +
                       " outside [8, 1024]");
    for (std::size_t nc = lm.first_nc;
         nc <= lm.last_nc && nc < nc_size.size(); ++nc) {
      if (nc_size[nc] == 0) {
        nc_size[nc] = N;
      } else if (nc_size[nc] != N) {
        report.error("RV-CAP-NC-MIXED-SIZE", layer_loc(l),
                     "NeuroCell " + std::to_string(nc) + " holds " +
                         std::to_string(nc_size[nc]) + "-size arrays but the "
                         "layer places " + std::to_string(N) + "-size arrays "
                         "into it");
      }
    }
    for (std::size_t g = 0; g < lm.groups.size(); ++g) {
      const McaGroup& mg = lm.groups[g];
      if (mg.synapses > mg.mca_count * N * N)
        report.error("RV-CAP-MCA-SYNAPSES", group_loc(l, g),
                     std::to_string(mg.synapses) + " synapses exceed the " +
                         std::to_string(mg.mca_count * N * N) +
                         " crosspoints of " + std::to_string(mg.mca_count) +
                         " MCA(s) of size " + std::to_string(N));
      if (mg.rows_used > N)
        report.error("RV-CAP-MCA-ROWS", group_loc(l, g),
                     std::to_string(mg.rows_used) + " rows used in a " +
                         std::to_string(N) + "-row crossbar");
      if (mg.cols_used > mg.mca_count * N)
        report.error("RV-CAP-MCA-COLS", group_loc(l, g),
                     std::to_string(mg.cols_used) +
                         " columns summed over a group with only " +
                         std::to_string(mg.mca_count * N) + " columns");
    }
    if (lm.mca_count > lm.mpe_count * cfg.mcas_per_mpe)
      report.error("RV-CAP-MPE-OCCUPANCY", layer_loc(l),
                   std::to_string(lm.mca_count) + " MCAs cannot fit the " +
                       std::to_string(lm.mpe_count) + " mPE(s) x " +
                       std::to_string(cfg.mcas_per_mpe) +
                       " MCAs the layer occupies");
    if (lm.mpe_count >
        (lm.last_nc - lm.first_nc + 1) * cfg.mpes_per_neurocell())
      report.error("RV-CAP-NC-OCCUPANCY", layer_loc(l),
                   std::to_string(lm.mpe_count) + " mPEs cannot fit the " +
                       std::to_string(lm.last_nc - lm.first_nc + 1) +
                       " NeuroCell(s) x " +
                       std::to_string(cfg.mpes_per_neurocell()) +
                       " mPEs the layer spans");
  }

  // Switch FIFO burst depth: a boundary whose per-source-cell word burst
  // exceeds the iBUFF/oBUFF depth will queue in the event fabric —
  // legal (the model backpressures) but worth flagging.
  if (options.topology != nullptr &&
      p.routes.size() == m.layers.size() + 1) {
    const snn::Topology& topo = *options.topology;
    if (topo.layer_count() == m.layers.size()) {
      for (std::size_t b = 0; b < p.routes.size(); ++b) {
        const noc::Route& r = p.routes.boundaries[b];
        if (r.src_span == 0) continue;  // routing_pass reported it
        const std::size_t neurons = b == 0
                                        ? topo.input_neurons()
                                        : topo.layers()[b - 1].neurons;
        const std::size_t burst =
            ceil_div(word_count(neurons), r.src_span);
        if (burst > cfg.buffer_depth)
          report.warning("RV-CAP-FIFO-DEPTH", boundary_loc(b),
                         "per-cell burst of " + std::to_string(burst) +
                             " words exceeds the " +
                             std::to_string(cfg.buffer_depth) +
                             "-flit switch FIFOs (transfer will stall-fill)");
      }
    }
  }
}

// ------------------------------------------------------------- consistency --

/// Derived quantities must re-derive: synapse/MCA sums, utilisation
/// ratios, whole-chip totals, the cost model's totals against the route
/// table, and the recorded fingerprint against the bound configuration.
void consistency_pass(const CompiledProgram& p, const VerifyOptions& options,
                      VerifyReport& report) {
  const Mapping& m = p.mapping;
  const ResparcConfig& cfg = m.config;

  if (p.config_fingerprint != cfg.fingerprint())
    report.error("RV-CONS-FINGERPRINT", "program",
                 "recorded configuration fingerprint " +
                     std::to_string(p.config_fingerprint) +
                     " does not match the bound configuration's " +
                     std::to_string(cfg.fingerprint()));

  std::size_t sum_mcas = 0;
  std::size_t sum_synapses = 0;
  std::size_t sum_cells = 0;
  std::size_t max_mpe_end = 0;
  std::size_t max_nc = 0;
  for (std::size_t l = 0; l < m.layers.size(); ++l) {
    const LayerMapping& lm = m.layers[l];
    const std::size_t N = m.layer_mca_size(l);
    sum_cells += lm.mca_count * N * N;
    std::size_t group_mcas = 0;
    std::size_t group_synapses = 0;
    for (const McaGroup& mg : lm.groups) {
      group_mcas += mg.mca_count;
      group_synapses += mg.synapses;
    }
    if (group_mcas != lm.mca_count)
      report.error("RV-CONS-MCA-SUM", layer_loc(l),
                   "groups deploy " + std::to_string(group_mcas) +
                       " MCAs but the layer records " +
                       std::to_string(lm.mca_count));
    if (group_synapses != lm.synapses)
      report.error("RV-CONS-SYNAPSE-SUM", layer_loc(l),
                   "groups program " + std::to_string(group_synapses) +
                       " synapses but the layer records " +
                       std::to_string(lm.synapses));
    if (lm.mux_degree > 0) {
      const std::size_t want_cycles =
          ceil_div(lm.mux_degree, cfg.mcas_per_mpe);
      if (lm.mux_cycles != want_cycles ||
          lm.ccu_transfers_per_neuron != want_cycles - 1)
        report.error("RV-CONS-MUX", layer_loc(l),
                     "mux_cycles/ccu_transfers (" +
                         std::to_string(lm.mux_cycles) + "/" +
                         std::to_string(lm.ccu_transfers_per_neuron) +
                         ") do not derive from mux degree " +
                         std::to_string(lm.mux_degree));
    }
    if (lm.mca_count > 0) {
      const double want_util =
          static_cast<double>(lm.synapses) /
          (static_cast<double>(lm.mca_count) * static_cast<double>(N * N));
      if (!close(lm.utilization, want_util, options.tolerance))
        report.error("RV-CONS-UTILIZATION", layer_loc(l),
                     "stored utilisation does not equal synapses / (MCAs * "
                     "N^2)");
    }
    sum_mcas += lm.mca_count;
    sum_synapses += lm.synapses;
    max_mpe_end = std::max(max_mpe_end, lm.first_mpe + lm.mpe_count);
    max_nc = std::max(max_nc, lm.last_nc);
  }

  if (!m.layers.empty()) {
    if (m.total_mcas != sum_mcas)
      report.error("RV-CONS-TOTALS", "program",
                   "total_mcas " + std::to_string(m.total_mcas) +
                       " != per-layer sum " + std::to_string(sum_mcas));
    if (m.total_mpes < max_mpe_end)
      report.error("RV-CONS-TOTALS", "program",
                   "total_mpes " + std::to_string(m.total_mpes) +
                       " < the last placed mPE " + std::to_string(max_mpe_end));
    if (m.total_neurocells != max_nc + 1)
      report.error("RV-CONS-TOTALS", "program",
                   "total_neurocells " + std::to_string(m.total_neurocells) +
                       " != last placed NeuroCell + 1 = " +
                       std::to_string(max_nc + 1));
    if (m.total_mcas > 0) {
      const double want_util = static_cast<double>(sum_synapses) /
                               static_cast<double>(sum_cells);
      if (!close(m.utilization, want_util, options.tolerance))
        report.error("RV-CONS-UTILIZATION", "program",
                     "whole-chip utilisation does not equal total synapses / "
                     "total crosspoints (per-layer N^2)");
    }
  }

  // Cost totals must re-derive from the mapping and the route table.
  if (p.cost.total_mcas != m.total_mcas ||
      p.cost.total_neurocells != m.total_neurocells)
    report.error("RV-CONS-COST", "cost",
                 "cost totals (MCAs " + std::to_string(p.cost.total_mcas) +
                     ", NeuroCells " + std::to_string(p.cost.total_neurocells) +
                     ") do not match the mapping");
  if (!close(p.cost.utilization, m.utilization, options.tolerance))
    report.error("RV-CONS-COST", "cost",
                 "cost utilisation does not match the mapping's");
  if (!p.routes.empty()) {
    std::size_t bus_routes = 0;
    for (const noc::Route& r : p.routes.boundaries)
      if (r.uses_bus) ++bus_routes;
    if (p.cost.bus_boundaries != bus_routes)
      report.error("RV-CONS-COST", "cost",
                   "cost records " + std::to_string(p.cost.bus_boundaries) +
                       " bus boundaries but the route table carries " +
                       std::to_string(bus_routes) + " bus routes");
  }

  // Full cost-model re-derivation needs the topology (activity and layer
  // shapes): the stored energy/cycles must be what the analytic model
  // computes from the stored mapping + route table today.
  if (options.topology != nullptr &&
      options.topology->layer_count() == m.layers.size() &&
      p.routes.size() == m.layers.size() + 1) {
    if (p.cost.activity <= 0.0 || p.cost.activity > 1.0) {
      report.error("RV-CONS-COST-MODEL", "cost",
                   "recorded activity " + std::to_string(p.cost.activity) +
                       " outside (0, 1]");
    } else {
      try {
        const compile::CostEstimate want = compile::estimate_cost(
            *options.topology, m, p.routes, p.cost.activity);
        if (!close(p.cost.energy_pj_per_step, want.energy_pj_per_step,
                   options.tolerance) ||
            !close(p.cost.cycles_per_step, want.cycles_per_step,
                   options.tolerance))
          report.error("RV-CONS-COST-MODEL", "cost",
                       "stored energy/cycles do not re-derive from the "
                       "mapping + route table (stale cost model?)");
      } catch (const Error& e) {
        report.error("RV-CONS-COST-MODEL", "cost",
                     std::string("cost re-derivation failed: ") + e.what());
      }
    }
  }

  // Utilisation report rows mirror the mapping.
  if (p.report.size() != m.layers.size()) {
    report.error("RV-CONS-REPORT", "report",
                 "utilisation report has " + std::to_string(p.report.size()) +
                     " rows for " + std::to_string(m.layers.size()) +
                     " layers");
  } else {
    for (std::size_t l = 0; l < p.report.size(); ++l) {
      const compile::LayerUtilization& u = p.report[l];
      const LayerMapping& lm = m.layers[l];
      if (u.layer != l || u.mcas != lm.mca_count || u.mpes != lm.mpe_count ||
          u.synapses != lm.synapses ||
          !close(u.utilization, lm.utilization, options.tolerance))
        report.error("RV-CONS-REPORT", layer_loc(l),
                     "utilisation report row does not match the mapping");
    }
  }
}

// ---------------------------------------------------------------- topology --

/// Synapse conservation against the network the program claims to
/// implement (only with a supplied Topology).
void topology_pass(const CompiledProgram& p, const VerifyOptions& options,
                   VerifyReport& report) {
  if (options.topology == nullptr) return;
  const snn::Topology& topo = *options.topology;
  if (p.mapping.layers.size() != topo.layer_count()) {
    report.error("RV-TOPO-LAYERS", "program",
                 "program maps " + std::to_string(p.mapping.layers.size()) +
                     " layers but topology \"" + topo.name() + "\" has " +
                     std::to_string(topo.layer_count()));
    return;
  }
  if (!p.topology_summary.empty() &&
      p.topology_summary != fold_token(topo.summary()))
    report.error("RV-TOPO-SUMMARY", "program",
                 "program was compiled for topology " + p.topology_summary +
                     ", not " + topo.summary());
  for (std::size_t l = 0; l < topo.layer_count(); ++l) {
    if (p.mapping.layers[l].synapses != topo.layers()[l].synapses)
      report.error("RV-TOPO-SYNAPSES", layer_loc(l),
                   "program places " +
                       std::to_string(p.mapping.layers[l].synapses) +
                       " synapses, the topology has " +
                       std::to_string(topo.layers()[l].synapses));
    // Replay counts a group's active rows from its slice's input words,
    // so a slice must select neurons that exist.
    const auto& groups = p.mapping.layers[l].groups;
    for (std::size_t g = 0; g < groups.size(); ++g)
      if (!groups[g].slice.within(topo.layers()[l].in_shape))
        report.error("RV-TOPO-SLICE-BOUNDS", group_loc(l, g),
                     "group input slice lies outside the layer's " +
                         std::to_string(topo.layers()[l].in_shape.size()) +
                         "-neuron input");
  }
}

// ------------------------------------------------------------------ faults --

/// Device-fault invariants (only with faults enabled on the bound
/// configuration): the placement must avoid every failed mPE when the
/// repair pass claims to have run (RV-FAULT-FAILED-MPE is a warning
/// without repair — the program knowingly deploys onto bad silicon),
/// and the repaired placement must fit the chip's NeuroCell budget
/// (RV-FAULT-CAPACITY).  The health map is re-derived here from the
/// config's (chip_seed, mca_id) streams — independently of the repair
/// pass — so a buggy repair cannot vouch for itself.
void faults_pass(const CompiledProgram& p, const VerifyOptions&,
                 VerifyReport& report) {
  const Mapping& m = p.mapping;
  const tech::FaultConfig& fc = m.config.faults;
  if (!fc.enabled) return;
  try {
    fc.validate();
  } catch (const Error& e) {
    report.error("RV-FAULT-CONFIG", "config", e.what());
    return;
  }
  const tech::FaultModel model(fc, m.config.mca_size);
  const std::size_t per_mpe = m.config.mcas_per_mpe;
  for (std::size_t l = 0; l < m.layers.size(); ++l) {
    const LayerMapping& lm = m.layers[l];
    for (std::size_t mpe = lm.first_mpe; mpe < lm.first_mpe + lm.mpe_count;
         ++mpe) {
      bool failed = false;
      for (std::size_t slot = 0; slot < per_mpe; ++slot)
        if (model.mca_failed(mpe * per_mpe + slot)) {
          failed = true;
          break;
        }
      if (!failed) continue;
      const std::string msg =
          "layer occupies failed mPE " + std::to_string(mpe) +
          " (stuck density over " + std::to_string(fc.failed_density) +
          " on chip_seed " + std::to_string(fc.chip_seed) + ")";
      if (fc.repair)
        report.error("RV-FAULT-FAILED-MPE", layer_loc(l), msg);
      else
        report.warning("RV-FAULT-FAILED-MPE", layer_loc(l), msg);
    }
  }
  if (fc.chip_neurocells > 0 && m.total_neurocells > fc.chip_neurocells)
    report.error("RV-FAULT-CAPACITY", "program",
                 "placement spans " + std::to_string(m.total_neurocells) +
                     " NeuroCells but the chip instance has only " +
                     std::to_string(fc.chip_neurocells));
}

}  // namespace

const std::vector<VerifyPass>& verify_passes() {
  static const std::vector<VerifyPass> passes = {
      {"structure", structure_pass},
      {"routing", routing_pass},
      {"capacity", capacity_pass},
      {"consistency", consistency_pass},
      {"topology", topology_pass},
      {"faults", faults_pass},
  };
  return passes;
}

VerifyReport verify_program(const compile::CompiledProgram& program,
                            const VerifyOptions& options) {
  VerifyReport report;
  for (const VerifyPass& pass : verify_passes())
    pass.run(program, options, report);
  return report;
}

VerifyReport verify_blob(const std::string& bytes,
                         const core::ResparcConfig& config) {
  VerifyReport report;
  compile::CompiledProgram program;
  try {
    std::istringstream is(bytes);
    program = compile::CompiledProgram::parse(is, config);
  } catch (const Error& e) {
    report.error(e.code().empty() ? "RV-BLOB-MALFORMED" : e.code(), "blob",
                 e.what());
    return report;
  }

  report = verify_program(program);

  // Round-trip: serialize → parse → serialize must be bit-identical (and
  // the intermediate must parse with no trailing bytes).
  try {
    std::ostringstream first;
    program.save(first);
    std::istringstream again(first.str());
    const compile::CompiledProgram reparsed =
        compile::CompiledProgram::parse(again, config);
    std::ostringstream second;
    reparsed.save(second);
    if (first.str() != second.str())
      report.error("RV-BLOB-ROUNDTRIP", "blob",
                   "re-serialized program is not bit-identical after a "
                   "parse round trip");
  } catch (const Error& e) {
    report.error("RV-BLOB-ROUNDTRIP", "blob",
                 std::string("round-trip parse failed: ") + e.what());
  }
  return report;
}

namespace {

/// Scans the blob's header tokens for the recorded fingerprint without
/// binding to a configuration.
std::optional<std::uint64_t> recorded_fingerprint(const std::string& bytes) {
  std::istringstream is(bytes);
  std::string tok;
  while (is >> tok) {
    if (tok != "fingerprint") continue;
    std::uint64_t fp = 0;
    if (is >> fp) return fp;
    return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace

VerifyReport verify_blob_auto(const std::string& bytes, std::size_t mca_hint) {
  std::vector<core::ResparcConfig> candidates;
  if (mca_hint != 0) {
    candidates.push_back(core::config_with_mca(mca_hint));
  } else {
    candidates.push_back(core::default_config());
    for (std::size_t n : {32u, 64u, 128u, 256u})
      candidates.push_back(core::config_with_mca(n));
  }

  const std::optional<std::uint64_t> fp = recorded_fingerprint(bytes);
  if (fp.has_value()) {
    for (const core::ResparcConfig& config : candidates)
      if (config.fingerprint() == *fp) return verify_blob(bytes, config);
  }
  // No candidate matches (or no fingerprint found): bind to the first
  // candidate anyway so parse errors still surface with real context.
  VerifyReport report = verify_blob(bytes, candidates.front());
  if (fp.has_value() && !report.has("RV-CONS-FINGERPRINT"))
    report.error("RV-CONS-FINGERPRINT", "blob",
                 "program was compiled for a configuration outside the "
                 "standard sweep (recorded fingerprint " +
                     std::to_string(*fp) + "); pass --mca to pin one");
  return report;
}

}  // namespace resparc::verify
