#include "compile/strategy.hpp"

#include <algorithm>
#include <mutex>

#include "common/math.hpp"
#include "common/registry.hpp"
#include "compile/program.hpp"
#include "compile/search/search.hpp"

namespace resparc::compile {

using core::LayerMapping;
using core::Mapping;
using core::McaGroup;
using core::ResparcConfig;
using core::SliceKind;
using snn::LayerInfo;
using snn::LayerKind;

namespace {

// -------------------------------------------------------------- placements --

/// Greedy packing: MCAs fill mPEs continuously across layer boundaries, so
/// a partially filled mPE hosts the tail of one layer and the head of the
/// next.  Per-layer mpe_count is the number of mPEs the layer *touches*
/// (shared mPEs are counted by both neighbours).
void place_packed(Mapping& m, const ResparcConfig& cfg) {
  const std::size_t per_nc = cfg.mpes_per_neurocell();
  std::size_t mca_offset = 0;
  std::size_t synapses = 0;
  std::size_t cells = 0;
  for (LayerMapping& lm : m.layers) {
    const std::size_t first_mpe = mca_offset / cfg.mcas_per_mpe;
    const std::size_t last_mpe =
        (mca_offset + lm.mca_count - 1) / cfg.mcas_per_mpe;
    lm.first_mpe = first_mpe;
    // Overrides the tiled (fresh-mPE) mpe_count: under cross-layer packing
    // a layer's count is the mPEs it *touches*, shared ones included.
    lm.mpe_count = last_mpe - first_mpe + 1;
    lm.first_nc = first_mpe / per_nc;
    lm.last_nc = last_mpe / per_nc;
    mca_offset += lm.mca_count;
    synapses += lm.synapses;
    const std::size_t n = lm.mca_size != 0 ? lm.mca_size : cfg.mca_size;
    cells += lm.mca_count * n * n;
  }
  m.total_mcas = mca_offset;
  m.total_mpes = ceil_div(mca_offset, cfg.mcas_per_mpe);
  m.total_neurocells = ceil_div(m.total_mpes, per_nc);
  m.utilization = static_cast<double>(synapses) / static_cast<double>(cells);
}

}  // namespace

// ------------------------------------------------------------- greedy tile --

LayerMapping tile_pool_packed(const LayerInfo& li, std::size_t layer_index,
                              const ResparcConfig& cfg) {
  // Only pooling layers have windows to pack; everything else gets the
  // paper tiling (li.spec.pool is 0 for dense/conv, so falling through
  // would divide by zero below).
  if (li.spec.kind != snn::LayerKind::kAvgPool)
    return core::tile_layer_paper(li, layer_index, cfg);
  const std::size_t N = cfg.mca_size;
  const std::size_t p = li.spec.pool;
  const std::size_t window = p * p;
  const Shape3 out = li.out_shape;
  const Shape3 in = li.in_shape;

  LayerMapping lm;
  lm.layer = layer_index;

  const std::size_t per_mca = std::max<std::size_t>(1, N / window);
  const std::size_t bands_per_group =
      window > N ? 1 : std::max<std::size_t>(1, per_mca / out.w);
  if (bands_per_group <= 1) {
    // One band already fills (or overflows) an array: the paper tiling is
    // as dense as it gets.
    return core::tile_layer_paper(li, layer_index, cfg);
  }

  const std::size_t bands = out.c * out.h;  // (channel, output-row) pairs
  for (std::size_t b = 0; b < bands; b += bands_per_group) {
    const std::size_t take = std::min(bands_per_group, bands - b);
    McaGroup g;
    g.slice.kind = SliceKind::kContiguous;
    g.slice.begin = b * p * in.w;
    g.slice.end = (b + take) * p * in.w;
    const std::size_t outputs = take * out.w;
    g.mca_count = 1;  // take * out.w <= per_mca windows by construction
    g.rows_used = outputs * window;
    g.cols_used = outputs;
    g.synapses = outputs * window;
    lm.groups.push_back(g);
  }
  lm.mux_degree = 1;
  core::finalize_layer_tiling(li, cfg, lm);
  return lm;
}

namespace {

// -------------------------------------------------------------- strategies --

/// The paper's section 3.1 mapper, verbatim: tile_layer_paper per layer and
/// sequential layer-order placement.  core::map_network composes exactly
/// these two calls, so this strategy is bit-for-bit the legacy path.
class PaperStrategy final : public MappingStrategy {
 public:
  std::string name() const override { return "paper"; }

  LayerMapping tile(const LayerInfo& li, std::size_t layer_index,
                    const ResparcConfig& cfg) const override {
    return core::tile_layer_paper(li, layer_index, cfg);
  }

  void place(Mapping& m, const ResparcConfig& cfg) const override {
    core::place_layers_sequential(m, cfg);
  }
};

/// Utilisation-first packing: shared-window conv tiling is always on,
/// pool windows pack across band boundaries, and placement ignores
/// layer-order boundaries when filling mPEs.
class GreedyPackStrategy final : public MappingStrategy {
 public:
  std::string name() const override { return "greedy-pack"; }

  LayerMapping tile(const LayerInfo& li, std::size_t layer_index,
                    const ResparcConfig& cfg) const override {
    if (li.spec.kind == LayerKind::kAvgPool)
      return tile_pool_packed(li, layer_index, cfg);
    if (li.spec.kind == LayerKind::kConv && li.fan_in <= cfg.mca_size) {
      ResparcConfig shared = cfg;
      shared.enhanced_input_sharing = true;
      return core::tile_layer_paper(li, layer_index, shared);
    }
    return core::tile_layer_paper(li, layer_index, cfg);
  }

  void place(Mapping& m, const ResparcConfig& cfg) const override {
    place_packed(m, cfg);
  }
};

// ---------------------------------------------------------------- registry --

NamedRegistry<StrategyFactory>& registry() {
  static NamedRegistry<StrategyFactory> instance;
  static std::once_flag once;
  std::call_once(once, [] {
    instance.set("paper", [] { return std::make_unique<PaperStrategy>(); });
    instance.set("greedy-pack",
                 [] { return std::make_unique<GreedyPackStrategy>(); });
    // The optimizing strategies (src/compile/search): annealing / beam
    // search over tile policy, placement and per-layer MCA size.
    // Registered with the default options: a program cache key names
    // the strategy, not its knobs.
    instance.set("anneal", [] {
      return search::make_anneal_strategy(search::SearchOptions{});
    });
    instance.set("beam", [] {
      return search::make_beam_strategy(search::SearchOptions{});
    });
  });
  return instance;
}

}  // namespace

std::unique_ptr<MappingStrategy> make_strategy(const std::string& name) {
  NamedRegistry<StrategyFactory>& r = registry();
  const std::optional<StrategyFactory> factory = r.find(name);
  if (!factory)
    throw CompileError("unknown mapping strategy \"" + name +
                       "\" (registered: " + join_names(r.names()) + ")");
  return (*factory)();
}

void register_strategy(const std::string& name, StrategyFactory factory) {
  require(!name.empty(), "register_strategy: empty name");
  require(name != "auto",
          "register_strategy: \"auto\" is reserved for best-of-all selection");
  require(static_cast<bool>(factory), "register_strategy: null factory");
  registry().set(name, std::move(factory));
}

std::vector<std::string> registered_strategies() { return registry().names(); }

bool strategy_exists(const std::string& name) {
  return registry().contains(name);
}

}  // namespace resparc::compile
