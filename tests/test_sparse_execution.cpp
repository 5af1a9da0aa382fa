// Tests of the simulator's event-driven execution (snn/simulator.hpp,
// docs/execution.md):
//   * engine-vs-reference bit-for-bit parity (api::reference_run) across
//     the bundled topologies, the paper-scale shapes at busy and sparse
//     input, leaky networks, and a busy -> silent -> busy presentation
//     that switches branches with hot neurons carried over;
//   * the all-zero-input regression: under the event-driven executor an
//     empty trace must be (almost) free — every array skipped, nothing
//     transferred, zero cycles;
//   * registry keys with a "+<suffix>" being rejected.
#include <gtest/gtest.h>

#include "api/backends.hpp"
#include "api/differential.hpp"
#include "api/pipeline.hpp"
#include "api/registry.hpp"
#include "snn/benchmarks.hpp"
#include "snn/simulator.hpp"

namespace resparc {
namespace {

using api::Pipeline;
using api::PipelineOptions;
using api::Workload;

void expect_traces_equal(const snn::SpikeTrace& a, const snn::SpikeTrace& b) {
  ASSERT_EQ(a.layer_count(), b.layer_count());
  ASSERT_EQ(a.timesteps(), b.timesteps());
  for (std::size_t l = 0; l < a.layer_count(); ++l) {
    for (std::size_t t = 0; t < a.timesteps(); ++t) {
      const auto wa = a.layers[l][t].words();
      const auto wb = b.layers[l][t].words();
      ASSERT_EQ(wa.size(), wb.size());
      for (std::size_t i = 0; i < wa.size(); ++i)
        ASSERT_EQ(wa[i], wb[i]) << "layer " << l << " step " << t;
    }
  }
}

/// Runs `image` through the simulator and the naive reference on the same
/// random stream, expects identical results, and returns the trace.
snn::SpikeTrace expect_matches_reference(const snn::Network& net,
                                         const snn::SimConfig& config,
                                         std::span<const float> image,
                                         std::uint64_t seed) {
  Rng engine_rng(seed);
  const snn::SimResult engine = snn::Simulator(net, config).run(image, engine_rng);
  Rng reference_rng(seed);
  const snn::SimResult reference =
      api::reference_run(net, config, image, reference_rng);
  expect_traces_equal(engine.trace, reference.trace);
  EXPECT_EQ(engine.output_spike_counts, reference.output_spike_counts);
  EXPECT_EQ(engine.total_spikes, reference.total_spikes);
  EXPECT_EQ(engine.predicted_class, reference.predicted_class);
  return engine.trace;
}

Workload run_workload(const snn::Topology& topology, snn::DatasetKind kind,
                      std::size_t images = 2, std::size_t timesteps = 8) {
  PipelineOptions opt;
  opt.images = images;
  opt.timesteps = timesteps;
  opt.seed = 11;
  opt.threads = 1;
  return Pipeline(opt).dataset(kind).topology(topology).run();
}

// ------------------------------------------- engine/reference parity ----

struct NamedTopology {
  const char* name;
  snn::Topology topology;
};

// Prints the parameter by name only, so the listed test names do not carry
// a string address or the topology's raw bytes, both of which change from
// one run to the next.
void PrintTo(const NamedTopology& p, std::ostream* os) {
  *os << '(' << p.name << ')';
}

class SparseParity : public ::testing::TestWithParam<NamedTopology> {};

// Busy (rate 1.0) and sparse (rate 0.05) input on the calibrated network,
// so both branches run on every layer kind that has them.
TEST_P(SparseParity, TracesAreBitForBitIdentical) {
  const Workload w =
      run_workload(GetParam().topology, snn::DatasetKind::kMnistLike);
  for (const double rate : {1.0, 0.05}) {
    snn::SimConfig cfg;
    cfg.timesteps = 8;
    cfg.encoder.max_rate = rate;
    for (std::size_t i = 0; i < w.test.images.size(); ++i)
      expect_matches_reference(w.network, cfg, w.test.images[i], 100 + i);
  }
}

INSTANTIATE_TEST_SUITE_P(
    BundledTopologies, SparseParity,
    ::testing::Values(
        NamedTopology{"small_mlp",
                      snn::small_mlp_topology(snn::DatasetKind::kMnistLike)},
        NamedTopology{"small_cnn",
                      snn::small_cnn_topology(snn::DatasetKind::kMnistLike)}),
    [](const auto& info) { return std::string(info.param.name); });

// Paper-scale shapes at full input rate (mostly stepped) and at rate 0.02
// (mostly touched), so the parity claim covers the exact benchmark
// topologies too (conv sliced + windowed + pool paths).
TEST(SparseParityPaperScale, MnistMlpAndCnn) {
  for (const snn::BenchmarkSpec& spec : {snn::mnist_mlp(), snn::mnist_cnn()}) {
    const Workload w = run_workload(spec.topology, spec.dataset, 1, 6);
    for (const double rate : {1.0, 0.02}) {
      snn::SimConfig cfg;
      cfg.timesteps = 6;
      cfg.encoder.max_rate = rate;
      const snn::SpikeTrace trace =
          expect_matches_reference(w.network, cfg, w.test.images[0], 5);
      EXPECT_GT(trace.layer_spike_count(0), 0u) << spec.topology.name();
    }
  }
}

// Leaky populations always take the stepped branch; the result must still
// match the reference.
TEST(SparseParity, LeakyNetworkFallsBackBitForBit) {
  snn::Network net(snn::small_cnn_topology(snn::DatasetKind::kMnistLike));
  Rng init(3);
  net.init_random(init, 1.0f);
  net.set_uniform_threshold(0.8);
  for (std::size_t l = 0; l < net.layer_count(); ++l)
    net.layer(l).neuron.leak_per_step = 0.01;
  const Workload w = run_workload(net.topology(), snn::DatasetKind::kMnistLike);

  snn::SimConfig cfg;
  cfg.timesteps = 8;
  for (const double rate : {1.0, 0.05}) {
    cfg.encoder.max_rate = rate;
    for (std::size_t i = 0; i < w.test.images.size(); ++i)
      expect_matches_reference(net, cfg, w.test.images[i], 7 + i);
  }
}

// A subtractive-reset CNN whose input alternates busy and silent steps
// (deterministic encoder at rate 1/3 on a white image: silent, busy,
// silent, silent, busy, ...).  Busy steps cover the conv layer and take
// the stepped branch, silent steps take the touched branch, and strong
// positive weights leave membranes above threshold after each reset, so
// the conv and pool layers keep firing on silent steps only through the
// hot set rebuilt when the branch switches.
TEST(SparseParity, BranchSwitchCarriesHotNeuronsBitForBit) {
  const snn::Topology topo(
      "switch-cnn", Shape3{1, 6, 6},
      {snn::LayerSpec::conv(4, 3), snn::LayerSpec::avg_pool(2),
       snn::LayerSpec::dense(10)});
  snn::Network net(topo);
  Rng init(19);
  net.init_random(init, 1.0f);
  for (float& v : net.layer(0).weights.flat())
    v = 0.45f + 0.1f * static_cast<float>(init.uniform(0.0, 1.0));
  net.layer(0).neuron.v_threshold = 1.0;
  net.layer(1).neuron.v_threshold = 0.5;

  snn::SimConfig cfg;
  cfg.timesteps = 12;
  cfg.encoder.poisson = false;
  cfg.encoder.max_rate = 1.0 / 3.0;
  const std::vector<float> image(topo.input_shape().size(), 1.0f);
  const snn::SpikeTrace trace = expect_matches_reference(net, cfg, image, 1);

  // The rule the simulator applies: every busy step of the conv layer is
  // stepped, every silent one touched.
  const snn::LayerInfo& conv = topo.layers()[0];
  const double busy_cover = static_cast<double>(
      topo.input_shape().size() * conv.spec.kernel * conv.spec.kernel *
      conv.out_shape.c);
  ASSERT_GE(busy_cover, snn::Simulator::kConvTouchedCrossover *
                            static_cast<double>(conv.neurons));

  std::string pattern;  // 'B' busy, 'S' silent input
  std::size_t silent_fires = 0;
  for (std::size_t t = 0; t < cfg.timesteps; ++t) {
    const bool busy = !trace.layers[0][t].none();
    if (busy) {
      ASSERT_EQ(trace.layers[0][t].count(), topo.input_shape().size());
    }
    pattern += busy ? 'B' : 'S';
    if (!busy && t > 0) silent_fires += trace.layers[1][t].count();
  }
  EXPECT_NE(pattern.find("BSSB"), std::string::npos) << pattern;
  EXPECT_GT(silent_fires, 0u) << "no hot neuron fired on a silent step";
}

// ------------------------------------------- all-zero-input regression ----

// With the event-driven levers on, a presentation that never spikes must
// cost (almost) nothing: every MCA skipped, nothing staged, transferred
// or integrated, zero cycles.  This pins the executor's zero-activity
// floor so event accounting can never silently regress into charging
// idle hardware.
TEST(ZeroInputRegression, EmptyTraceIsAlmostFree) {
  const snn::Topology topo =
      snn::small_cnn_topology(snn::DatasetKind::kMnistLike);
  const std::size_t T = 6;
  snn::SpikeTrace empty;
  empty.layers.resize(topo.layer_count() + 1);
  empty.layers[0].assign(T, snn::SpikeVector(topo.input_shape().size()));
  for (std::size_t l = 0; l < topo.layer_count(); ++l)
    empty.layers[l + 1].assign(T, snn::SpikeVector(topo.layers()[l].neurons));

  api::ResparcBackend chip(core::config_with_mca(64));
  chip.load(topo);
  const core::RunReport r = *chip.execute(empty).resparc;
  const core::EventCounts& ev = r.events;

  EXPECT_EQ(ev.mca_activations, 0u);
  EXPECT_EQ(ev.bus_words, 0u);
  EXPECT_EQ(ev.switch_flits, 0u);
  EXPECT_EQ(ev.sram_reads, 0u);
  EXPECT_EQ(ev.sram_writes, 0u);
  EXPECT_EQ(ev.neuron_fires, 0u);
  EXPECT_EQ(ev.neuron_integrations, 0u);
  EXPECT_EQ(ev.ccu_transfers, 0u);
  EXPECT_EQ(ev.buffer_bits, 0u);

  // Every array of every layer is skipped on every step.
  EXPECT_EQ(ev.mca_skips, chip.mapping().total_mcas * T);

  // No stage ever advances: zero cycles, zero latency, zero leakage
  // window.  Zero counters above already mean that no (timestep, stage)
  // read, sent or fired anything.
  EXPECT_DOUBLE_EQ(r.perf.cycles_pipelined, 0.0);
  EXPECT_DOUBLE_EQ(r.perf.latency_pipelined_ns(), 0.0);
  EXPECT_DOUBLE_EQ(r.energy.crossbar_pj, 0.0);
  EXPECT_DOUBLE_EQ(r.energy.neuron_pj, 0.0);
  EXPECT_DOUBLE_EQ(r.energy.buffer_pj, 0.0);
  EXPECT_DOUBLE_EQ(r.energy.comm_pj, 0.0);
  EXPECT_DOUBLE_EQ(r.energy.leakage_pj, 0.0);
}

// ------------------------------------------------------ registry suffix ----

// The registry has no "+<suffix>" syntax: such a key names no backend,
// and the error names the key.
TEST(RegistryModes, BackendsWithoutModeSupportRejectTheSuffix) {
  for (const char* key : {"resparc-64+sparse", "resparc-64+packed", "cmos+sparse"}) {
    try {
      api::make_accelerator(key);
      FAIL() << "expected BackendError for " << key;
    } catch (const api::BackendError& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
    }
  }
  EXPECT_THROW(api::make_accelerator("resparc-64/greedy-pack+sparse"),
               api::BackendError);
}

}  // namespace
}  // namespace resparc
