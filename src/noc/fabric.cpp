#include "noc/fabric.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace resparc::noc {

namespace {

/// Service time of one transfer on its bottleneck resource — identical in
/// both fidelities so the event model's latency is the analytic service
/// plus explicitly accounted fill and stall, never a different base.
double service_cycles(const Route& route, std::size_t sent,
                      const core::ResparcConfig& config) {
  if (route.uses_bus) return kBusCyclesPerWord * static_cast<double>(sent);
  return std::ceil(static_cast<double>(sent) /
                   static_cast<double>(config.nc_dim));
}

}  // namespace

Transport analytic_transfer(const Route& route, std::size_t sent,
                            std::size_t zeros,
                            const core::ResparcConfig& config,
                            NocStats& stats) {
  Transport t;
  t.cycles = service_cycles(route, sent, config);
  if (route.uses_bus) {
    stats.bus.words += sent;
    stats.bus.hops += sent;  // one serial bus crossing per word
    stats.bus.drops += zeros;
    stats.bus.busy_cycles += t.cycles;
    stats.tree.words += sent;
    stats.tree.hops += sent * route.tree_hops;
  } else {
    stats.mesh.words += sent;
    stats.mesh.hops += sent * route.mesh_hops;
    stats.mesh.drops += zeros;
    stats.mesh.busy_cycles += t.cycles;
  }
  return t;
}

Fabric::Fabric(const core::ResparcConfig& config, std::size_t neurocells)
    : config_(config),
      mesh_(neurocells, core::ProgrammableSwitch(config.event_driven)),
      tree_(tree_depth(neurocells),
            core::ProgrammableSwitch(config.event_driven)),
      root_(config.event_driven) {
  require(neurocells > 0, "fabric: need at least one NeuroCell");
  const std::size_t depth = tree_.size();
  mesh_free_.assign(neurocells, 0.0);
  node_free_.resize(depth);
  for (std::size_t h = 1; h <= depth; ++h)
    node_free_[h - 1].assign((neurocells >> h) + 1, 0.0);
}

void Fabric::begin_step() {
  std::fill(mesh_free_.begin(), mesh_free_.end(), 0.0);
  for (auto& level : node_free_) std::fill(level.begin(), level.end(), 0.0);
  bus_free_ = 0.0;
}

Transport Fabric::transfer(const Route& route, std::size_t sent,
                           std::size_t zeros, double arrival) {
  Transport t;
  // A fully zero-checked transfer costs nothing beyond the drop
  // accounting — the zero-activity floor of docs/execution.md holds in
  // event fidelity too.
  if (sent == 0) {
    if (zeros > 0) {
      if (route.uses_bus) {
        const std::size_t depth = tree_.size();
        core::ProgrammableSwitch& entry =
            tree_.empty()
                ? root_
                : tree_[std::min(route.lca_height > 0 ? route.lca_height : 1,
                                 depth) - 1];
        (void)entry.pass(0, zeros);
        stats_.bus.drops += zeros;  // same attribution as analytic_transfer
      } else if (route.dst_nc_first < mesh_.size()) {
        (void)mesh_[route.dst_nc_first].pass(0, zeros);
        stats_.mesh.drops += zeros;
      }
    }
    return t;
  }
  const double service = service_cycles(route, sent, config_);

  if (route.uses_bus) {
    // Zero words are checked (and dropped) at injection; surviving words
    // climb the tree — each source cell streams its share up its own
    // uplink in parallel (the gather), so a layer spread across more
    // cells injects faster.  The transfer then serializes (FIFO) on the
    // link above its LCA subtree: only routes turning at the root
    // contend for the serial global bus; neighbouring cells share a
    // local subtree link instead (the Ml-NoC's locality lever), and
    // finally broadcast-descend to every destination cell.
    const std::size_t depth = tree_.size();
    const std::size_t h =
        std::min(route.lca_height > 0 ? route.lca_height : 1,
                 depth > 0 ? depth : 1);
    const bool at_root = depth == 0 || route.lca_height >= depth;
    core::ProgrammableSwitch& entry = tree_.empty() ? root_ : tree_[h - 1];
    const std::size_t offered = entry.pass(sent, zeros);
    const std::size_t span = route.src_span > 0 ? route.src_span : 1;
    const double ascent =
        std::ceil(static_cast<double>(sent) / static_cast<double>(span));
    double& link =
        at_root ? bus_free_
                : node_free_[h - 1][std::min(route.src_nc,
                                             route.dst_nc_first) >> h];
    const double at_link = arrival + ascent;
    const double start = std::max(at_link, link);
    t.stall_cycles = start - at_link;
    link = start + service;
    t.cycles = t.stall_cycles + ascent + service +
               static_cast<double>(route.tree_hops);

    // Traffic counters (words/hops/drops) attribute exactly like the
    // analytic model — they describe the route, not the timing — so
    // per-level traffic is fidelity-independent.  Only busy/stall/queue
    // land on the level whose resource actually arbitrated the transfer.
    stats_.bus.words += offered;
    stats_.bus.hops += offered;
    stats_.bus.drops += zeros;
    stats_.tree.words += offered;
    stats_.tree.hops += offered * route.tree_hops;
    LevelStats& level = at_root ? stats_.bus : stats_.tree;
    level.busy_cycles += service;
    level.stall_cycles += t.stall_cycles;
    level.queue_peak =
        std::max(level.queue_peak, entry.counters().buffered_max);
    if (at_root) stats_.tree.busy_cycles += ascent;
  } else {
    require(route.dst_nc_first < mesh_.size(),
            "fabric: route destination outside the fabric");
    core::ProgrammableSwitch& entry = mesh_[route.dst_nc_first];
    const std::size_t offered = entry.pass(sent, zeros);
    double& lane = mesh_free_[route.dst_nc_first];
    const double start = std::max(arrival, lane);
    t.stall_cycles = start - arrival;
    lane = start + service;
    t.cycles =
        t.stall_cycles + service + static_cast<double>(route.mesh_hops);

    stats_.mesh.words += offered;
    stats_.mesh.hops += offered * route.mesh_hops;
    stats_.mesh.drops += zeros;
    stats_.mesh.busy_cycles += service;
    stats_.mesh.stall_cycles += t.stall_cycles;
    stats_.mesh.queue_peak =
        std::max(stats_.mesh.queue_peak, entry.counters().buffered_max);
  }
  return t;
}

core::SwitchCounters Fabric::switch_totals() const {
  core::SwitchCounters total;
  auto fold = [&total](const core::ProgrammableSwitch& sw) {
    total.forwarded += sw.counters().forwarded;
    total.dropped_zero += sw.counters().dropped_zero;
    total.buffered_max = std::max(total.buffered_max,
                                  sw.counters().buffered_max);
  };
  for (const auto& sw : mesh_) fold(sw);
  for (const auto& sw : tree_) fold(sw);
  fold(root_);
  return total;
}

void Fabric::reset() {
  for (auto& sw : mesh_) sw.reset_counters();
  for (auto& sw : tree_) sw.reset_counters();
  root_.reset_counters();
  mesh_free_.assign(mesh_free_.size(), 0.0);
  for (auto& level : node_free_) std::fill(level.begin(), level.end(), 0.0);
  bus_free_ = 0.0;
  stats_ = NocStats{};
}

}  // namespace resparc::noc
