// Tests of the compile layer (src/compile): strategy registry, pass
// pipeline, cost model, CompiledProgram serialization, and bit-for-bit
// parity of the "paper" strategy with the legacy mapper.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "api/backends.hpp"
#include "api/pipeline.hpp"
#include "api/registry.hpp"
#include "compile/compiler.hpp"
#include "compile/cost_model.hpp"
#include "compile/program.hpp"
#include "compile/strategy.hpp"
#include "snn/benchmarks.hpp"

namespace resparc::compile {
namespace {

using core::Mapping;
using snn::LayerSpec;
using snn::Topology;

void expect_mappings_equal(const Mapping& a, const Mapping& b) {
  ASSERT_EQ(a.layers.size(), b.layers.size());
  EXPECT_EQ(a.total_mcas, b.total_mcas);
  EXPECT_EQ(a.total_mpes, b.total_mpes);
  EXPECT_EQ(a.total_neurocells, b.total_neurocells);
  EXPECT_DOUBLE_EQ(a.utilization, b.utilization);
  for (std::size_t l = 0; l < a.layers.size(); ++l) {
    const core::LayerMapping& x = a.layers[l];
    const core::LayerMapping& y = b.layers[l];
    EXPECT_EQ(x.mca_count, y.mca_count) << "layer " << l;
    EXPECT_EQ(x.mpe_count, y.mpe_count) << "layer " << l;
    EXPECT_EQ(x.mux_degree, y.mux_degree) << "layer " << l;
    EXPECT_EQ(x.mux_cycles, y.mux_cycles) << "layer " << l;
    EXPECT_EQ(x.ccu_transfers_per_neuron, y.ccu_transfers_per_neuron);
    EXPECT_EQ(x.synapses, y.synapses) << "layer " << l;
    EXPECT_EQ(x.first_mpe, y.first_mpe) << "layer " << l;
    EXPECT_EQ(x.first_nc, y.first_nc) << "layer " << l;
    EXPECT_EQ(x.last_nc, y.last_nc) << "layer " << l;
    ASSERT_EQ(x.groups.size(), y.groups.size()) << "layer " << l;
    for (std::size_t g = 0; g < x.groups.size(); ++g) {
      EXPECT_EQ(x.groups[g].slice.kind, y.groups[g].slice.kind);
      EXPECT_EQ(x.groups[g].slice.begin, y.groups[g].slice.begin);
      EXPECT_EQ(x.groups[g].slice.end, y.groups[g].slice.end);
      EXPECT_EQ(x.groups[g].slice.y0, y.groups[g].slice.y0);
      EXPECT_EQ(x.groups[g].slice.y1, y.groups[g].slice.y1);
      EXPECT_EQ(x.groups[g].slice.x0, y.groups[g].slice.x0);
      EXPECT_EQ(x.groups[g].slice.x1, y.groups[g].slice.x1);
      EXPECT_EQ(x.groups[g].mca_count, y.groups[g].mca_count);
      EXPECT_EQ(x.groups[g].rows_used, y.groups[g].rows_used);
      EXPECT_EQ(x.groups[g].cols_used, y.groups[g].cols_used);
      EXPECT_EQ(x.groups[g].synapses, y.groups[g].synapses);
    }
  }
}

// ---------------------------------------------------------------- registry --

TEST(StrategyRegistry, BuiltinsAreRegistered) {
  const auto names = registered_strategies();
  for (const char* expected :
       {"paper", "greedy-pack", "anneal", "beam"})
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  EXPECT_TRUE(strategy_exists("paper"));
  EXPECT_FALSE(strategy_exists("no-such-strategy"));
}

TEST(StrategyRegistry, UnknownNameThrowsListingAlternatives) {
  try {
    make_strategy("no-such-strategy");
    FAIL() << "expected CompileError";
  } catch (const CompileError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-strategy"), std::string::npos);
    EXPECT_NE(what.find("paper"), std::string::npos);
    EXPECT_NE(what.find("greedy-pack"), std::string::npos);
    // The search strategies must be discoverable from the message too.
    EXPECT_NE(what.find("anneal"), std::string::npos);
    EXPECT_NE(what.find("beam"), std::string::npos);
  }
}

TEST(StrategyRegistry, CustomStrategyIsCreatable) {
  register_strategy("test-paper-copy",
                    [] { return make_strategy("paper"); });
  const auto strategy = make_strategy("test-paper-copy");
  EXPECT_EQ(strategy->name(), "paper");
}

TEST(StrategyRegistry, AutoIsReserved) {
  // "auto" is intercepted by Compiler::compile before the registry, so a
  // strategy registered under it could never be dispatched.
  EXPECT_THROW(register_strategy("auto", [] { return make_strategy("paper"); }),
               ConfigError);
}

// ------------------------------------------------------------ paper parity --

TEST(CompilerPaper, ReproducesLegacyMapperExactly) {
  for (const auto& spec : snn::paper_benchmarks()) {
    for (const std::size_t mca : {32u, 64u, 128u}) {
      const core::ResparcConfig cfg = core::config_with_mca(mca);
      const Mapping legacy = core::map_network(spec.topology, cfg);
      const CompiledProgram program =
          Compiler(cfg).compile(spec.topology, "paper");
      expect_mappings_equal(program.mapping, legacy);
    }
  }
}

TEST(CompilerPaper, ProgramCarriesProvenance) {
  const auto spec = snn::mnist_mlp();
  const core::ResparcConfig cfg = core::default_config();
  const CompiledProgram p = Compiler(cfg).compile(spec.topology, "paper");
  EXPECT_EQ(p.strategy, "paper");
  EXPECT_EQ(p.topology_name, spec.topology.name());
  EXPECT_EQ(p.config_fingerprint, cfg.fingerprint());
  ASSERT_EQ(p.report.size(), spec.topology.layer_count());
  EXPECT_EQ(p.report[0].kind, "dense");
  EXPECT_GT(p.report[0].utilization, 0.0);
  EXPECT_GT(p.cost.energy_pj_per_step, 0.0);
  EXPECT_GT(p.cost.cycles_per_step, 0.0);
}

// -------------------------------------------------------------- legalize ----

TEST(CompilerPasses, LegalizeRejectsUnmappableTopology) {
  // Topology construction itself rejects zero-size layers, so legalize is
  // exercised through the compiler's config validation path.
  const auto spec = snn::mnist_mlp();
  core::ResparcConfig bad = core::default_config();
  bad.mca_size = 4;  // below the documented [8,1024] domain
  EXPECT_THROW(Compiler{bad}, ConfigError);
}

TEST(Compiler, UnknownStrategyThrows) {
  const auto spec = snn::mnist_mlp();
  EXPECT_THROW(Compiler(core::default_config())
                   .compile(spec.topology, "no-such-strategy"),
               CompileError);
}

// ---------------------------------------------------------- new strategies --

TEST(GreedyPack, BeatsPaperOnCnnUtilizationAtMca128) {
  // The acceptance bar of this PR: greedy-pack must beat the paper mapping
  // on CNN crossbar utilisation at MCA-128.
  const auto spec = snn::mnist_cnn();
  const core::ResparcConfig cfg = core::config_with_mca(128);
  const Compiler compiler(cfg);
  const CompiledProgram paper = compiler.compile(spec.topology, "paper");
  const CompiledProgram greedy = compiler.compile(spec.topology, "greedy-pack");
  EXPECT_GT(greedy.mapping.utilization, paper.mapping.utilization);
  EXPECT_LT(greedy.mapping.total_mcas, paper.mapping.total_mcas);
}

TEST(GreedyPack, PreservesSynapsesOnEveryBenchmark) {
  for (const auto& spec : snn::paper_benchmarks()) {
    for (const std::size_t mca : {32u, 64u, 128u}) {
      const CompiledProgram p = Compiler(core::config_with_mca(mca))
                                    .compile(spec.topology, "greedy-pack");
      std::size_t synapses = 0;
      for (const auto& lm : p.mapping.layers) synapses += lm.synapses;
      EXPECT_EQ(synapses, spec.topology.synapse_count())
          << spec.topology.name() << " N=" << mca;
      EXPECT_LE(p.mapping.utilization, 1.0 + 1e-9);
      p.check_matches(spec.topology);  // must not throw
    }
  }
}

TEST(GreedyPack, PacksMcasAcrossLayerBoundaries) {
  // Two 2-MCA layers on 4-MCA mPEs: paper placement starts each layer on a
  // fresh mPE (2 mPEs); greedy-pack shares one.
  Topology t("pack", Shape3{1, 1, 64},
             {LayerSpec::dense(65), LayerSpec::dense(64)});
  const core::ResparcConfig cfg = core::config_with_mca(64);
  const Compiler compiler(cfg);
  const CompiledProgram paper = compiler.compile(t, "paper");
  const CompiledProgram greedy = compiler.compile(t, "greedy-pack");
  EXPECT_EQ(paper.mapping.layers[0].mca_count, 2u);
  EXPECT_EQ(paper.mapping.layers[1].mca_count, 2u);
  EXPECT_EQ(paper.mapping.total_mpes, 2u);
  EXPECT_EQ(greedy.mapping.total_mpes, 1u);
}

// --------------------------------------------------------------- cost model --

TEST(CostModel, ScoresTrackMcaSizeTradeoffOnCnn) {
  // Fig. 12(c) mechanism, seen analytically: CNN utilisation falls as the
  // array grows, so the estimated per-step energy per synapse rises.
  const auto spec = snn::mnist_cnn();
  const CostEstimate c32 =
      Compiler(core::config_with_mca(32)).compile(spec.topology, "paper").cost;
  const CostEstimate c128 =
      Compiler(core::config_with_mca(128)).compile(spec.topology, "paper").cost;
  EXPECT_GT(c32.utilization, c128.utilization);
}

TEST(CostModel, RejectsBadActivity) {
  const auto spec = snn::mnist_mlp();
  const core::ResparcConfig cfg = core::default_config();
  const Mapping m = core::map_network(spec.topology, cfg);
  EXPECT_THROW(estimate_cost(spec.topology, m, 0.0), ConfigError);
  EXPECT_THROW(estimate_cost(spec.topology, m, 1.5), ConfigError);
}

// The search passes each layer's layer_cost back into estimate_cost from
// its tile cache; the supplied terms must give exactly the totals of a
// fresh costing, on every paper benchmark, array size and activity, with
// anneal bringing mixed-size layers.  A span of the wrong length is an
// error, not a silent fresh costing.
TEST(CostModel, SuppliedLayerCostsMatchFreshOnesBitForBit) {
  for (const snn::BenchmarkSpec& spec : snn::paper_benchmarks()) {
    const std::vector<snn::LayerInfo>& layers = spec.topology.layers();
    for (const std::size_t mca : {32u, 64u, 128u}) {
      const Compiler compiler(core::config_with_mca(mca));
      for (const char* strategy : {"paper", "greedy-pack", "anneal"}) {
        const CompiledProgram program =
            compiler.compile(spec.topology, strategy);
        const Mapping& m = program.mapping;
        for (const double activity : {0.02, 0.1, 0.5}) {
          std::vector<LayerCost> costs;
          for (std::size_t l = 0; l < layers.size(); ++l)
            costs.push_back(layer_cost(layers[l], m.layers[l],
                                       m.layer_mca_size(l), m.config,
                                       activity));
          const CostEstimate fresh =
              estimate_cost(spec.topology, m, program.routes, activity);
          const CostEstimate supplied = estimate_cost(
              spec.topology, m, program.routes, activity, costs);
          EXPECT_EQ(supplied.energy_pj_per_step, fresh.energy_pj_per_step)
              << spec.topology.name() << " mca=" << mca << " " << strategy
              << " activity=" << activity;
          EXPECT_EQ(supplied.cycles_per_step, fresh.cycles_per_step)
              << spec.topology.name() << " mca=" << mca << " " << strategy
              << " activity=" << activity;
          costs.pop_back();
          EXPECT_THROW(estimate_cost(spec.topology, m, program.routes,
                                     activity, costs),
                       ConfigError);
        }
      }
    }
  }
}

TEST(CompilerAuto, PicksTheBestScoringStrategy) {
  const auto spec = snn::mnist_cnn();
  const Compiler compiler(core::config_with_mca(64));
  const CompiledProgram best = compiler.compile(spec.topology, "auto");
  for (const std::string& name : registered_strategies()) {
    const CompiledProgram p = compiler.compile(spec.topology, name);
    EXPECT_LE(best.cost.score(), p.cost.score()) << name;
  }
}

// ------------------------------------------------------------ serialization --

TEST(ProgramSerialization, RoundTripsThroughAStream) {
  const auto spec = snn::mnist_cnn();
  const core::ResparcConfig cfg = core::config_with_mca(64);
  const CompiledProgram p =
      Compiler(cfg).compile(spec.topology, "greedy-pack");

  std::stringstream ss;
  p.save(ss);
  const CompiledProgram q = CompiledProgram::load(ss, cfg);

  EXPECT_EQ(q.strategy, p.strategy);
  EXPECT_EQ(q.topology_name, p.topology_name);
  EXPECT_EQ(q.config_fingerprint, p.config_fingerprint);
  EXPECT_EQ(q.cost.bus_boundaries, p.cost.bus_boundaries);
  EXPECT_DOUBLE_EQ(q.cost.energy_pj_per_step, p.cost.energy_pj_per_step);
  ASSERT_EQ(q.report.size(), p.report.size());
  for (std::size_t i = 0; i < q.report.size(); ++i) {
    EXPECT_EQ(q.report[i].kind, p.report[i].kind);
    EXPECT_EQ(q.report[i].mcas, p.report[i].mcas);
    EXPECT_DOUBLE_EQ(q.report[i].utilization, p.report[i].utilization);
  }
  expect_mappings_equal(q.mapping, p.mapping);
}

TEST(ProgramSerialization, RoundTripsThroughAFile) {
  const auto spec = snn::mnist_mlp();
  const core::ResparcConfig cfg = core::default_config();
  const CompiledProgram p =
      Compiler(cfg).compile(spec.topology, "greedy-pack");

  const std::string path = ::testing::TempDir() + "/mnist_mlp.rcp";
  ASSERT_TRUE(p.save_file(path));
  const CompiledProgram q = CompiledProgram::load_file(path, cfg);
  expect_mappings_equal(q.mapping, p.mapping);
  EXPECT_EQ(q.strategy, "greedy-pack");
}

TEST(ProgramSerialization, RejectsConfigFingerprintMismatch) {
  const auto spec = snn::mnist_mlp();
  const core::ResparcConfig cfg = core::default_config();
  const CompiledProgram p = Compiler(cfg).compile(spec.topology, "paper");

  std::stringstream ss;
  p.save(ss);
  core::ResparcConfig other = cfg;
  other.mca_size = 128;
  EXPECT_THROW(CompiledProgram::load(ss, other), CompileError);

  // Subtler drift must also be caught: a different device technology.
  std::stringstream ss2;
  p.save(ss2);
  core::ResparcConfig tech_drift = cfg;
  tech_drift.technology.memristor.r_on_ohm *= 2.0;
  EXPECT_THROW(CompiledProgram::load(ss2, tech_drift), CompileError);
}

TEST(ProgramSerialization, RejectsGarbage) {
  std::stringstream ss("not a program at all");
  EXPECT_THROW(CompiledProgram::load(ss, core::default_config()),
               CompileError);
}

TEST(ProgramSerialization, RejectsImplausibleCounts) {
  // A corrupt count must fail as CompileError before anything tries to
  // reserve memory for it.
  const core::ResparcConfig cfg = core::default_config();
  const CompiledProgram p = Compiler(cfg).compile(snn::mnist_mlp().topology,
                                                  "paper");
  std::stringstream out;
  p.save(out);
  std::string text = out.str();
  const std::string needle = "layers 3";
  const auto at = text.find(needle);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, needle.size(), "layers 99999999999999");
  std::stringstream in(text);
  EXPECT_THROW(CompiledProgram::load(in, cfg), CompileError);
}

TEST(ProgramSerialization, LoadedProgramRejectsWrongTopology) {
  const core::ResparcConfig cfg = core::default_config();
  const CompiledProgram p =
      Compiler(cfg).compile(snn::mnist_mlp().topology, "paper");
  api::ResparcBackend backend(cfg);
  EXPECT_THROW(backend.load_program(snn::svhn_mlp().topology, p), CompileError);
}

// ------------------------------------------------- chip / backend execution --

class CompiledWorkload : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    api::PipelineOptions opt;
    opt.images = 2;
    opt.timesteps = 6;
    opt.seed = 17;
    opt.threads = 1;
    workload_ = new api::Workload(api::Pipeline(opt)
                                      .dataset(snn::DatasetKind::kMnistLike)
                                      .topology(snn::small_mlp_topology(
                                          snn::DatasetKind::kMnistLike))
                                      .run());
  }
  static void TearDownTestSuite() {
    delete workload_;
    workload_ = nullptr;
  }
  static api::Workload* workload_;
};

api::Workload* CompiledWorkload::workload_ = nullptr;

TEST_F(CompiledWorkload, DeserializedProgramExecutesIdentically) {
  const api::Workload& w = *workload_;
  const core::ResparcConfig cfg = core::default_config();

  const CompiledProgram fresh =
      Compiler(cfg).compile(w.topology(), "greedy-pack");
  std::stringstream ss;
  fresh.save(ss);
  const CompiledProgram restored = CompiledProgram::load(ss, cfg);

  api::ResparcBackend a(cfg);
  a.load_program(w.topology(), fresh);
  api::ResparcBackend b(cfg);
  b.load_program(w.topology(), restored);

  const core::RunReport ra = *a.execute(w.traces).resparc;
  const core::RunReport rb = *b.execute(w.traces).resparc;
  EXPECT_EQ(ra.energy.total_pj(), rb.energy.total_pj());
  EXPECT_EQ(ra.energy.crossbar_pj, rb.energy.crossbar_pj);
  EXPECT_EQ(ra.perf.cycles_pipelined, rb.perf.cycles_pipelined);
  EXPECT_EQ(ra.events.mca_activations, rb.events.mca_activations);
  EXPECT_EQ(ra.events.bus_words, rb.events.bus_words);
}

TEST_F(CompiledWorkload, ChipLoadIsThePaperStrategy) {
  const api::Workload& w = *workload_;
  const core::ResparcConfig cfg = core::default_config();

  api::ResparcBackend loaded(cfg);  // default strategy
  loaded.load(w.topology());
  EXPECT_EQ(loaded.program().strategy, "paper");

  api::ResparcBackend compiled(cfg);
  compiled.load_program(w.topology(),
                        Compiler(cfg).compile(w.topology(), "paper"));

  const core::RunReport a = *loaded.execute(w.traces).resparc;
  const core::RunReport b = *compiled.execute(w.traces).resparc;
  EXPECT_EQ(a.energy.total_pj(), b.energy.total_pj());
  EXPECT_EQ(a.perf.cycles_pipelined, b.perf.cycles_pipelined);
  EXPECT_EQ(a.events.bus_words, b.events.bus_words);
}

TEST_F(CompiledWorkload, StrategySuffixSelectsTheStrategy) {
  const api::Workload& w = *workload_;

  const auto accel = api::make_accelerator("resparc-64/greedy-pack");
  EXPECT_EQ(accel->name(), "RESPARC-64/greedy-pack");
  accel->load(w.topology());
  const auto* backend = dynamic_cast<const api::ResparcBackend*>(accel.get());
  ASSERT_NE(backend, nullptr);
  EXPECT_EQ(backend->strategy(), "greedy-pack");
  EXPECT_EQ(backend->program().strategy, "greedy-pack");

  api::BackendOptions options;
  options.strategy = "beam";
  const auto via_options = api::make_accelerator("resparc", options);
  EXPECT_EQ(via_options->name(), "RESPARC-64/beam");
}

TEST_F(CompiledWorkload, LoadProgramUpdatesStrategyAndName) {
  const api::Workload& w = *workload_;
  const core::ResparcConfig cfg = core::default_config();
  api::ResparcBackend backend(cfg);  // constructed as "paper"
  backend.load_program(w.topology(),
                       Compiler(cfg).compile(w.topology(), "greedy-pack"));
  EXPECT_EQ(backend.strategy(), "greedy-pack");
  EXPECT_EQ(backend.name(), "RESPARC-64/greedy-pack");
}

TEST_F(CompiledWorkload, AutoStrategyReportsTheWinnerOnceLoaded) {
  const api::Workload& w = *workload_;
  api::ResparcBackend backend(core::default_config(), "auto");
  EXPECT_EQ(backend.strategy(), "auto");  // not yet resolved
  backend.load(w.topology());
  EXPECT_NE(backend.strategy(), "auto");  // the winning strategy, not the policy
  EXPECT_EQ(backend.strategy(), backend.program().strategy);
}

TEST_F(CompiledWorkload, StrategiesAgreeOnSpikeSemantics) {
  // Different mappings re-shuffle hardware events, never spikes: the traced
  // neuron counts each strategy integrates must match.
  const api::Workload& w = *workload_;
  std::vector<std::size_t> fires;
  for (const std::string& strategy : registered_strategies()) {
    api::ResparcBackend backend(core::default_config(), strategy);
    backend.load(w.topology());
    const api::ExecutionReport r = backend.execute(w.traces);
    ASSERT_TRUE(r.resparc.has_value());
    fires.push_back(r.resparc->events.neuron_fires);
  }
  for (const std::size_t f : fires) EXPECT_EQ(f, fires.front());
}

}  // namespace
}  // namespace resparc::compile
