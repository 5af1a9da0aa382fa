// MappingStrategy: the pluggable tile/place seam of the compiler.
//
// A strategy decides (a) how each layer's connectivity matrix is cut into
// MCA groups (the tile pass) and (b) where the resulting MCAs sit in the
// mPE/NeuroCell hierarchy (the place pass).  Strategies are looked up by
// string key from a registry that mirrors api::make_accelerator, so new
// mappers plug in without touching the compiler or any caller:
//
//   "paper"        the hierarchical mapper of paper section 3.1, verbatim
//                  (core::map_network refactored behind this interface) —
//                  bit-for-bit identical RunReports to the legacy path
//   "greedy-pack"  utilisation-first: shared-window conv tiling regardless
//                  of the config flag, pool windows packed across
//                  row/channel boundaries, MCAs packed into mPEs ignoring
//                  layer-order boundaries
//   "anneal"       simulated annealing over per-layer tile policy, MCA size
//                  (heterogeneous mixes) and NeuroCell alignment (a layer
//                  that would straddle a NeuroCell moves to a fresh one,
//                  keeping its boundary traffic off the serial bus), scored by
//                  the analytic cost model and promoted by event-fidelity
//                  replay (src/compile/search, docs/compile.md)
//   "beam"         deterministic beam search over the same move space
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/mapper.hpp"
#include "snn/topology.hpp"

namespace resparc::compile {

/// One mapping policy: how layers tile into MCA groups and how MCAs place
/// onto the mPE/NeuroCell hierarchy.  Implementations must be stateless
/// (const methods, no fields mutated by tile/place) so one instance can
/// compile many topologies.
class MappingStrategy {
 public:
  virtual ~MappingStrategy() = default;

  /// Registry key of this strategy.
  virtual std::string name() const = 0;

  /// Tile pass for one layer: fill `groups` + `mux_degree` and the derived
  /// per-layer counts (use core::finalize_layer_tiling).  Placement fields
  /// are assigned later by place().
  virtual core::LayerMapping tile(const snn::LayerInfo& li,
                                  std::size_t layer_index,
                                  const core::ResparcConfig& config) const = 0;

  /// Place pass: assign first_mpe/first_nc/last_nc per layer and the
  /// whole-chip totals over the already-tiled `m.layers`.
  virtual void place(core::Mapping& m,
                     const core::ResparcConfig& config) const = 0;

  /// Optional whole-program optimization pass, run by the compiler after
  /// place() and before the routing/cost passes.  One-shot heuristics keep
  /// the default no-op; the search strategies (src/compile/search) replace
  /// `m` wholesale with the best mapping found — including per-layer MCA
  /// size overrides — and must leave it re-placeable (tiled + placed, all
  /// totals consistent).  `topology` is the network `m` was tiled from.
  virtual void optimize(const snn::Topology& topology, core::Mapping& m,
                        const core::ResparcConfig& config) const {
    (void)topology;
    (void)m;
    (void)config;
  }
};

/// Factory signature strategies register under (mirrors BackendFactory).
using StrategyFactory = std::function<std::unique_ptr<MappingStrategy>()>;

/// Creates the strategy registered under `name`; throws CompileError for
/// unknown names (the message lists the registered ones).
std::unique_ptr<MappingStrategy> make_strategy(const std::string& name);

/// Registers (or replaces) a strategy under `name`.  Thread-safe.
void register_strategy(const std::string& name, StrategyFactory factory);

/// Sorted names of every registered strategy.
std::vector<std::string> registered_strategies();

/// True when `name` is a registered strategy key.
bool strategy_exists(const std::string& name);

/// Pool tiling that packs windows across output-row and channel boundaries
/// (greedy-pack's pool policy, exposed for the search strategies' tile
/// moves).  Falls back to core::tile_layer_paper when one band already
/// fills an array.
core::LayerMapping tile_pool_packed(const snn::LayerInfo& li,
                                    std::size_t layer_index,
                                    const core::ResparcConfig& config);

}  // namespace resparc::compile
