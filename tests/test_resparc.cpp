// Unit tests for hosting a network on api::ResparcBackend (compile +
// replay) and for the Fig. 8 metric roll-up (core/config.hpp).
#include <gtest/gtest.h>

#include "api/backends.hpp"
#include "api/registry.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "compile/compiler.hpp"
#include "snn/simulator.hpp"

namespace resparc::core {
namespace {

using snn::LayerSpec;
using snn::Topology;

Topology small_topo() {
  return Topology("chip", Shape3{1, 1, 64},
                  {LayerSpec::dense(64), LayerSpec::dense(10)});
}

snn::SpikeTrace make_trace(const Topology& topo) {
  snn::Network net(topo);
  Rng rng(1);
  net.init_random(rng, 1.0f);
  std::vector<std::vector<float>> images{
      std::vector<float>(topo.input_shape().size(), 0.5f)};
  snn::SimConfig cfg;
  cfg.timesteps = 8;
  snn::calibrate_thresholds(net, images, cfg, rng, 0.1);
  snn::Simulator sim(net, cfg);
  return sim.run(images[0], rng).trace;
}

TEST(ResparcBackend, LoadThenExecute) {
  api::ResparcBackend backend(default_config());
  EXPECT_FALSE(backend.loaded());
  const Topology topo = small_topo();
  backend.load(topo);
  EXPECT_TRUE(backend.loaded());
  EXPECT_GT(backend.mapping().total_mcas, 0u);
  const snn::SpikeTrace trace = make_trace(topo);
  EXPECT_GT(backend.execute(trace).energy_pj, 0.0);
}

TEST(ResparcBackend, ExecuteWithoutLoadThrows) {
  api::ResparcBackend backend(default_config());
  snn::SpikeTrace t;
  EXPECT_THROW(backend.execute(t), ConfigError);
  EXPECT_THROW(backend.mapping(), ConfigError);
  EXPECT_THROW(backend.program(), ConfigError);
}

TEST(ResparcBackend, ReloadReplacesNetwork) {
  api::ResparcBackend backend(default_config());
  backend.load(small_topo());
  const std::size_t mcas1 = backend.mapping().total_mcas;
  const Topology bigger("b", Shape3{1, 1, 256},
                        {LayerSpec::dense(256), LayerSpec::dense(10)});
  backend.load(bigger);
  EXPECT_GT(backend.mapping().total_mcas, mcas1);
  // The replay runs against the new network, not the first one.
  const snn::SpikeTrace trace = make_trace(bigger);
  EXPECT_GT(backend.execute(trace).energy_pj, 0.0);
}

// A program carries the fingerprint of the configuration it was compiled
// for; a backend of another configuration refuses it and keeps its state.
TEST(ResparcBackend, LoadProgramRejectsForeignConfig) {
  const Topology topo = small_topo();
  const compile::CompiledProgram mca64 =
      compile::Compiler(config_with_mca(64)).compile(topo, "paper");
  const auto accel = api::make_accelerator("resparc-128");
  auto& backend = dynamic_cast<api::ResparcBackend&>(*accel);
  EXPECT_THROW(backend.load_program(topo, mca64), compile::CompileError);
  EXPECT_FALSE(backend.loaded());
}

TEST(Fig8Metrics, MatchesPaperStructure) {
  const NeuroCellMetrics m = neurocell_metrics(default_config());
  EXPECT_EQ(m.mpe_count, 16u);      // Fig. 8: 16 mPEs
  EXPECT_EQ(m.switch_count, 9u);    // Fig. 8: 9 switches
  EXPECT_EQ(m.mcas_per_mpe, 4u);    // Fig. 8: 4 MCAs per mPE
  EXPECT_DOUBLE_EQ(m.frequency_mhz, 200.0);  // Fig. 8: 200 MHz
}

TEST(Fig8Metrics, AreaPowerGatesInPaperBallpark) {
  // Paper Fig. 8: 0.29 mm^2, 53.2 mW, 67643 gates.  Our roll-up must land
  // in the same decade (constants are analytic, not synthesis output).
  const NeuroCellMetrics m = neurocell_metrics(default_config());
  EXPECT_GT(m.area_mm2, 0.05);
  EXPECT_LT(m.area_mm2, 1.0);
  EXPECT_GT(m.power_mw, 10.0);
  EXPECT_LT(m.power_mw, 200.0);
  EXPECT_GT(m.gate_count, 20000.0);
  EXPECT_LT(m.gate_count, 200000.0);
}

TEST(Fig8Metrics, PowerScalesWithMcaCount) {
  ResparcConfig more = default_config();
  more.mcas_per_mpe = 8;
  EXPECT_GT(neurocell_metrics(more).power_mw,
            neurocell_metrics(default_config()).power_mw);
}

}  // namespace
}  // namespace resparc::core
