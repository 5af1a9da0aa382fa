// Tests of the sparse, spike-event-driven execution engine
// (snn/sparse_engine.hpp, docs/execution.md):
//   * dense-vs-sparse bit-for-bit parity across every bundled topology
//     shape (MLP and CNN, with and without executor event_driven);
//   * ActivityTrace accumulation and round-trip serialization;
//   * the all-zero-input regression: under the event-driven executor an
//     empty trace must be (almost) free — every array skipped, nothing
//     transferred, zero cycles;
//   * the "+<mode>" registry suffix and its error handling.
#include <gtest/gtest.h>

#include <sstream>

#include "api/backends.hpp"
#include "api/pipeline.hpp"
#include "api/registry.hpp"
#include "snn/activity.hpp"
#include "snn/benchmarks.hpp"
#include "snn/simulator.hpp"

namespace resparc {
namespace {

using api::BackendOptions;
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

Workload run_workload(const snn::Topology& topology, snn::DatasetKind kind,
                      snn::ExecutionMode mode, std::size_t images = 2,
                      std::size_t timesteps = 8) {
  PipelineOptions opt;
  opt.images = images;
  opt.timesteps = timesteps;
  opt.seed = 11;
  opt.threads = 1;
  opt.execution = mode;
  return Pipeline(opt).dataset(kind).topology(topology).run();
}

// ------------------------------------------------- dense/sparse parity ----

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

TEST_P(SparseParity, TracesAreBitForBitIdentical) {
  const snn::Topology& topo = GetParam().topology;
  const Workload dense =
      run_workload(topo, snn::DatasetKind::kMnistLike, snn::ExecutionMode::kDense);
  const Workload sparse =
      run_workload(topo, snn::DatasetKind::kMnistLike, snn::ExecutionMode::kSparse);

  ASSERT_EQ(dense.traces.size(), sparse.traces.size());
  for (std::size_t i = 0; i < dense.traces.size(); ++i)
    expect_traces_equal(dense.traces[i], sparse.traces[i]);
  EXPECT_EQ(dense.predicted, sparse.predicted);
  EXPECT_DOUBLE_EQ(dense.accuracy, sparse.accuracy);
  EXPECT_DOUBLE_EQ(dense.mean_activity, sparse.mean_activity);
}

TEST_P(SparseParity, ExecutorReportsMatchInBothEventDrivenModes) {
  const snn::Topology& topo = GetParam().topology;
  const Workload w =
      run_workload(topo, snn::DatasetKind::kMnistLike, snn::ExecutionMode::kSparse);

  for (const bool event_driven : {true, false}) {
    BackendOptions opt;
    opt.resparc.event_driven = event_driven;
    const auto dense = api::make_accelerator("resparc-64", opt);
    const auto sparse = api::make_accelerator("resparc-64+sparse", opt);
    dense->load(topo);
    sparse->load(topo);
    const api::ExecutionReport rd = dense->execute(w.traces);
    const api::ExecutionReport rs = sparse->execute(w.traces);

    // Sparse execution adds timestep resolution, never different totals.
    EXPECT_DOUBLE_EQ(rd.energy_pj, rs.energy_pj) << "event_driven=" << event_driven;
    EXPECT_DOUBLE_EQ(rd.latency_ns, rs.latency_ns);
    ASSERT_TRUE(rd.resparc.has_value());
    ASSERT_TRUE(rs.resparc.has_value());
    EXPECT_EQ(rd.resparc->events.mca_activations,
              rs.resparc->events.mca_activations);
    EXPECT_EQ(rd.resparc->events.mca_skips, rs.resparc->events.mca_skips);
    EXPECT_EQ(rd.resparc->events.bus_words, rs.resparc->events.bus_words);
    EXPECT_EQ(rd.resparc->events.neuron_fires, rs.resparc->events.neuron_fires);

    EXPECT_FALSE(rd.events.has_value());
    ASSERT_TRUE(rs.events.has_value());

    // The stream is the same record at timestep resolution: its totals
    // must reproduce the aggregated counters exactly.
    const core::StepEvents total = rs.events->total();
    EXPECT_EQ(total.mca_reads, rs.resparc->events.mca_activations);
    EXPECT_EQ(total.mca_skips, rs.resparc->events.mca_skips);
    EXPECT_EQ(total.words_sent, rs.resparc->events.bus_words +
                                    rs.resparc->events.switch_flits);
    std::size_t layer_fires = 0;
    for (std::size_t s = 1; s < rs.events->stages(); ++s)
      layer_fires += rs.events->stage_total(s).neuron_fires;
    EXPECT_EQ(layer_fires, rs.resparc->events.neuron_fires);
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

// Paper-scale shapes, one image each, so the parity claim covers the
// exact benchmark topologies too (conv sliced + windowed + pool paths).
TEST(SparseParityPaperScale, MnistMlpAndCnn) {
  for (const snn::BenchmarkSpec& spec : {snn::mnist_mlp(), snn::mnist_cnn()}) {
    const Workload dense = run_workload(spec.topology, spec.dataset,
                                        snn::ExecutionMode::kDense, 1, 6);
    const Workload sparse = run_workload(spec.topology, spec.dataset,
                                         snn::ExecutionMode::kSparse, 1, 6);
    ASSERT_EQ(dense.traces.size(), sparse.traces.size());
    for (std::size_t i = 0; i < dense.traces.size(); ++i)
      expect_traces_equal(dense.traces[i], sparse.traces[i]);
  }
}

// Leaky populations fall back to the dense neuron update inside the
// sparse engine; the result must still be identical.
TEST(SparseParity, LeakyNetworkFallsBackBitForBit) {
  snn::Network net(snn::small_mlp_topology(snn::DatasetKind::kMnistLike));
  Rng init(3);
  net.init_random(init, 1.0f);
  net.set_uniform_threshold(0.8);
  for (std::size_t l = 0; l < net.layer_count(); ++l)
    net.layer(l).neuron.leak_per_step = 0.01;

  PipelineOptions opt;
  opt.images = 2;
  opt.timesteps = 8;
  opt.threads = 1;
  Workload dense = Pipeline(opt)
                       .dataset(snn::DatasetKind::kMnistLike)
                       .network(net)
                       .run();
  opt.execution = snn::ExecutionMode::kSparse;
  Workload sparse = Pipeline(opt)
                        .dataset(snn::DatasetKind::kMnistLike)
                        .network(net)
                        .run();
  ASSERT_EQ(dense.traces.size(), sparse.traces.size());
  for (std::size_t i = 0; i < dense.traces.size(); ++i)
    expect_traces_equal(dense.traces[i], sparse.traces[i]);
}

// ------------------------------------------------------- activity trace ----

TEST(ActivityTrace, AccumulatesAndMatchesMeanActivity) {
  const Workload w =
      run_workload(snn::small_mlp_topology(snn::DatasetKind::kMnistLike),
                   snn::DatasetKind::kMnistLike, snn::ExecutionMode::kSparse, 3);
  ASSERT_EQ(w.activity.presentations, w.traces.size());
  ASSERT_EQ(w.activity.layer_count(), w.traces.front().layer_count());
  EXPECT_NEAR(w.activity.mean_activity(), w.mean_activity, 1e-12);
  EXPECT_GT(w.activity.layers[0].total_spikes(), 0u);
  EXPECT_GE(w.activity.input_sparsity(), 0.0);
  EXPECT_LE(w.activity.input_sparsity(), 1.0);
}

TEST(ActivityTrace, RoundTripsThroughSerialization) {
  const Workload w =
      run_workload(snn::small_cnn_topology(snn::DatasetKind::kMnistLike),
                   snn::DatasetKind::kMnistLike, snn::ExecutionMode::kSparse, 2);
  std::stringstream ss;
  w.activity.save(ss);
  const snn::ActivityTrace loaded = snn::ActivityTrace::load(ss);

  ASSERT_EQ(loaded.presentations, w.activity.presentations);
  ASSERT_EQ(loaded.layer_count(), w.activity.layer_count());
  for (std::size_t l = 0; l < loaded.layer_count(); ++l) {
    EXPECT_EQ(loaded.layers[l].neurons, w.activity.layers[l].neurons);
    ASSERT_EQ(loaded.layers[l].spikes_per_step,
              w.activity.layers[l].spikes_per_step);
  }
  EXPECT_DOUBLE_EQ(loaded.mean_activity(), w.activity.mean_activity());
}

TEST(ActivityTrace, RejectsMalformedStreams) {
  std::stringstream bad_magic("not-an-activity-trace v1\n");
  EXPECT_THROW(snn::ActivityTrace::load(bad_magic), snn::ActivityError);

  std::stringstream bad_version("resparc-activity-trace v999\n");
  EXPECT_THROW(snn::ActivityTrace::load(bad_version), snn::ActivityError);

  std::stringstream truncated(
      "resparc-activity-trace v1\npresentations 1\nlayers 2\nlayer 4 2 1");
  EXPECT_THROW(snn::ActivityTrace::load(truncated), snn::ActivityError);
}

TEST(ActivityTrace, RejectsMismatchedAccumulation) {
  const Workload mlp =
      run_workload(snn::small_mlp_topology(snn::DatasetKind::kMnistLike),
                   snn::DatasetKind::kMnistLike, snn::ExecutionMode::kDense, 1);
  const Workload cnn =
      run_workload(snn::small_cnn_topology(snn::DatasetKind::kMnistLike),
                   snn::DatasetKind::kMnistLike, snn::ExecutionMode::kDense, 1);
  snn::ActivityTrace acc = snn::ActivityTrace::from_trace(mlp.traces.front());
  EXPECT_THROW(acc.add(cnn.traces.front()), snn::ActivityError);
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

  const auto accel = api::make_accelerator("resparc-64+sparse");
  accel->load(topo);
  const api::ExecutionReport r = accel->execute(empty);
  ASSERT_TRUE(r.resparc.has_value());
  const core::EventCounts& ev = r.resparc->events;

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
  const auto* backend = dynamic_cast<const api::ResparcBackend*>(accel.get());
  ASSERT_NE(backend, nullptr);
  EXPECT_EQ(ev.mca_skips, backend->mapping().total_mcas * T);

  // No stage ever advances: zero cycles, zero latency, zero leakage
  // window — and the recorded event stream is idle in every cell.
  EXPECT_DOUBLE_EQ(r.resparc->perf.cycles_pipelined, 0.0);
  EXPECT_DOUBLE_EQ(r.latency_ns, 0.0);
  EXPECT_DOUBLE_EQ(r.resparc->energy.crossbar_pj, 0.0);
  EXPECT_DOUBLE_EQ(r.resparc->energy.neuron_pj, 0.0);
  EXPECT_DOUBLE_EQ(r.resparc->energy.buffer_pj, 0.0);
  EXPECT_DOUBLE_EQ(r.resparc->energy.comm_pj, 0.0);
  EXPECT_DOUBLE_EQ(r.resparc->energy.leakage_pj, 0.0);
  ASSERT_TRUE(r.events.has_value());
  for (std::size_t t = 0; t < r.events->timesteps(); ++t)
    for (std::size_t s = 0; s < r.events->stages(); ++s)
      EXPECT_TRUE(r.events->at(t, s).idle()) << "t=" << t << " stage=" << s;
}

// ------------------------------------------------------ registry suffix ----

TEST(RegistryModes, SparseSuffixSelectsSparseExecution) {
  const auto accel = api::make_accelerator("resparc-64+sparse");
  const auto* backend = dynamic_cast<const api::ResparcBackend*>(accel.get());
  ASSERT_NE(backend, nullptr);
  EXPECT_EQ(backend->execution(), snn::ExecutionMode::kSparse);
  EXPECT_EQ(accel->name(), "RESPARC-64+sparse");
}

TEST(RegistryModes, StrategyAndModeSuffixesCompose) {
  const auto accel = api::make_accelerator("resparc-128/greedy-pack+sparse");
  const auto* backend = dynamic_cast<const api::ResparcBackend*>(accel.get());
  ASSERT_NE(backend, nullptr);
  EXPECT_EQ(backend->execution(), snn::ExecutionMode::kSparse);
  EXPECT_EQ(backend->strategy(), "greedy-pack");
  EXPECT_EQ(backend->config().mca_size, 128u);
  EXPECT_EQ(accel->name(), "RESPARC-128/greedy-pack+sparse");
}

TEST(RegistryModes, DenseSuffixIsTheDefaultMode) {
  const auto accel = api::make_accelerator("resparc-64+dense");
  const auto* backend = dynamic_cast<const api::ResparcBackend*>(accel.get());
  ASSERT_NE(backend, nullptr);
  EXPECT_EQ(backend->execution(), snn::ExecutionMode::kDense);
  EXPECT_EQ(accel->name(), "RESPARC-64");
}

TEST(RegistryModes, OptionsSelectTheModeWithoutASuffix) {
  BackendOptions opt;
  opt.execution = snn::ExecutionMode::kSparse;
  const auto accel = api::make_accelerator("resparc-64", opt);
  const auto* backend = dynamic_cast<const api::ResparcBackend*>(accel.get());
  ASSERT_NE(backend, nullptr);
  EXPECT_EQ(backend->execution(), snn::ExecutionMode::kSparse);
}

TEST(RegistryModes, UnknownModeIsRejectedWithTheModeList) {
  try {
    api::make_accelerator("resparc-64+bogus");
    FAIL() << "expected BackendError";
  } catch (const api::BackendError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bogus"), std::string::npos);
    EXPECT_NE(what.find("dense"), std::string::npos);
    EXPECT_NE(what.find("sparse"), std::string::npos);
  }
  EXPECT_THROW(api::make_accelerator("resparc-64+"), api::BackendError);
}

TEST(RegistryModes, BackendsWithoutModeSupportRejectTheSuffix) {
  EXPECT_THROW(api::make_accelerator("cmos+sparse"), api::BackendError);
}

}  // namespace
}  // namespace resparc
