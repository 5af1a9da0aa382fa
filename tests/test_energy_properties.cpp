// Property tests of the architecture cost models, parameterised over the
// MCA-size sweep the paper evaluates.  These pin the *relations* every
// figure depends on, independent of the constants' absolute values.
#include <gtest/gtest.h>

#include <vector>

#include "api/backends.hpp"
#include "cmos/falcon.hpp"
#include "common/rng.hpp"
#include "snn/simulator.hpp"

namespace resparc::core {
namespace {

using snn::LayerSpec;
using snn::Topology;

/// Traces at a controllable activity level for a mid-size MLP.
std::vector<snn::SpikeTrace> traces_at(double activity, std::uint64_t seed,
                                       const Topology& topo) {
  snn::Network net(topo);
  Rng rng(seed);
  net.init_random(rng, 1.0f);
  std::vector<std::vector<float>> images;
  for (int i = 0; i < 2; ++i) {
    std::vector<float> img(topo.input_shape().size());
    for (auto& p : img) p = static_cast<float>(rng.uniform(0.0, 0.9));
    images.push_back(std::move(img));
  }
  snn::SimConfig cfg;
  cfg.timesteps = 12;
  snn::calibrate_thresholds(net, images, cfg, rng, activity);
  snn::Simulator sim(net, cfg);
  std::vector<snn::SpikeTrace> traces;
  for (const auto& img : images) traces.push_back(sim.run(img, rng).trace);
  return traces;
}

/// Compiles `topo` for `config` with the paper strategy and replays
/// `traces` on it.
RunReport replay(const ResparcConfig& config, const Topology& topo,
                 std::span<const snn::SpikeTrace> traces) {
  api::ResparcBackend backend(config);
  backend.load(topo);
  return *backend.execute(traces).resparc;
}

Topology mlp_topo() {
  return Topology("p-mlp", Shape3{1, 1, 256},
                  {LayerSpec::dense(256), LayerSpec::dense(10)});
}

class McaSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(McaSweep, PipelinedNeverSlowerThanSerial) {
  const auto traces = traces_at(0.1, 1, mlp_topo());
  const RunReport r = replay(config_with_mca(GetParam()), mlp_topo(), traces);
  EXPECT_LE(r.perf.cycles_pipelined, r.perf.cycles_serial);
  EXPECT_GT(r.perf.throughput_hz(), 0.0);
}

TEST_P(McaSweep, EnergyRisesWithActivity) {
  const Topology topo = mlp_topo();
  api::ResparcBackend chip(config_with_mca(GetParam()));
  chip.load(topo);
  const double low = chip.execute(traces_at(0.05, 2, topo)).energy_pj;
  const double high = chip.execute(traces_at(0.25, 2, topo)).energy_pj;
  EXPECT_GT(high, low);
}

TEST_P(McaSweep, EventDrivenOnlySubtracts) {
  const auto traces = traces_at(0.08, 3, mlp_topo());
  ResparcConfig on = config_with_mca(GetParam());
  ResparcConfig off = on;
  off.event_driven = false;
  const RunReport r_on = replay(on, mlp_topo(), traces);
  const RunReport r_off = replay(off, mlp_topo(), traces);
  EXPECT_LE(r_on.energy.total_pj(), r_off.energy.total_pj());
  // Functional events (fires, integrations of active groups) are counts
  // of real work; the zero-check must never *create* events.
  EXPECT_EQ(r_on.events.neuron_fires, r_off.events.neuron_fires);
  EXPECT_LE(r_on.events.mca_activations, r_off.events.mca_activations);
}

TEST_P(McaSweep, CrossbarEnergyIndependentOfDeviceBits) {
  const auto traces = traces_at(0.1, 4, mlp_topo());
  double first = -1.0;
  for (int bits : {1, 4, 8}) {
    ResparcConfig cfg = config_with_mca(GetParam());
    cfg.technology.memristor.bits = bits;
    const double e = replay(cfg, mlp_topo(), traces).energy.crossbar_pj;
    if (first < 0.0)
      first = e;
    else
      EXPECT_NEAR(e, first, first * 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, McaSweep,
                         ::testing::Values(32u, 64u, 128u, 256u));

TEST(EnergyProperties, LeakageScalesWithDeployedColumns) {
  // Same traces, two chips: one hosting a 2x bigger network leaks more
  // per unit time (leakage follows deployed silicon, not workload).
  const Topology small_t("s", Shape3{1, 1, 128},
                         {LayerSpec::dense(64), LayerSpec::dense(10)});
  const Topology big_t("b", Shape3{1, 1, 128},
                       {LayerSpec::dense(512), LayerSpec::dense(10)});
  const auto traces_small = traces_at(0.1, 5, small_t);
  const auto traces_big = traces_at(0.1, 5, big_t);
  const RunReport rs = replay(default_config(), small_t, traces_small);
  const RunReport rb = replay(default_config(), big_t, traces_big);
  const double leak_rate_small =
      rs.energy.leakage_pj / rs.perf.latency_pipelined_ns();
  const double leak_rate_big =
      rb.energy.leakage_pj / rb.perf.latency_pipelined_ns();
  EXPECT_GT(leak_rate_big, leak_rate_small);
}

TEST(EnergyProperties, CmosCyclesScaleInverselyWithNuWidth) {
  // A 4-bit NU needs 4 cycles per 16-bit accumulate; an 8-bit NU needs 2.
  const Topology topo = mlp_topo();
  const auto traces = traces_at(0.1, 6, topo);
  cmos::FalconConfig narrow{}, wide{};
  narrow.nu_width_bits = 4;
  wide.nu_width_bits = 8;
  const double c_narrow =
      cmos::FalconAccelerator(topo, narrow).run_all(traces).cycles;
  const double c_wide =
      cmos::FalconAccelerator(topo, wide).run_all(traces).cycles;
  EXPECT_GT(c_narrow, c_wide);
}

TEST(EnergyProperties, SameTracesSameReportDeterminism) {
  const Topology topo = mlp_topo();
  const auto traces = traces_at(0.1, 7, topo);
  api::ResparcBackend chip(default_config());
  chip.load(topo);
  const RunReport a = *chip.execute(traces).resparc;
  const RunReport b = *chip.execute(traces).resparc;
  EXPECT_DOUBLE_EQ(a.energy.total_pj(), b.energy.total_pj());
  EXPECT_DOUBLE_EQ(a.perf.cycles_pipelined, b.perf.cycles_pipelined);
  EXPECT_EQ(a.events.mca_activations, b.events.mca_activations);
}

TEST(EnergyProperties, MappingInvariantUnderEventDrivenFlag) {
  // The zero-check is a runtime lever; it must not change placement.
  ResparcConfig on = default_config();
  ResparcConfig off = default_config();
  off.event_driven = false;
  const Topology topo = mlp_topo();
  const Mapping m_on = map_network(topo, on);
  const Mapping m_off = map_network(topo, off);
  EXPECT_EQ(m_on.total_mcas, m_off.total_mcas);
  EXPECT_EQ(m_on.total_mpes, m_off.total_mpes);
  EXPECT_EQ(m_on.total_neurocells, m_off.total_neurocells);
}

}  // namespace
}  // namespace resparc::core
