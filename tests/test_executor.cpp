// Unit tests for the trace-driven RESPARC executor (core/executor.hpp).
#include "core/executor.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "snn/simulator.hpp"

namespace resparc::core {
namespace {

using snn::LayerSpec;
using snn::Topology;

/// Builds a small random net and returns traces from the functional sim.
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

TEST(Executor, ProducesPositiveEnergyAndCycles) {
  Fixture fx(64, 64);
  const Mapping m = map_network(fx.topo, default_config());
  Executor ex(fx.topo, m);
  const RunReport r = ex.run(fx.traces[0]);
  EXPECT_GT(r.energy.total_pj(), 0.0);
  EXPECT_GT(r.energy.crossbar_pj, 0.0);
  EXPECT_GT(r.energy.peripherals_pj(), 0.0);
  EXPECT_GT(r.perf.cycles_pipelined, 0.0);
  EXPECT_GE(r.perf.cycles_serial, r.perf.cycles_pipelined);
  EXPECT_EQ(r.classifications, 1u);
}

TEST(Executor, EventDrivenNeverIncreasesEnergy) {
  Fixture fx(128, 64, 0.05);
  ResparcConfig on = default_config();
  ResparcConfig off = default_config();
  off.event_driven = false;
  const Mapping m_on = map_network(fx.topo, on);
  const Mapping m_off = map_network(fx.topo, off);
  const RunReport r_on = Executor(fx.topo, m_on).run_all(fx.traces);
  const RunReport r_off = Executor(fx.topo, m_off).run_all(fx.traces);
  EXPECT_LE(r_on.energy.total_pj(), r_off.energy.total_pj());
  EXPECT_GT(r_on.events.mca_skips + r_on.events.bus_skips, 0u);
  EXPECT_EQ(r_off.events.mca_skips, 0u);
  EXPECT_EQ(r_off.events.bus_skips, 0u);
}

TEST(Executor, SilentInputProducesNoCrossbarEnergy) {
  Fixture fx(64, 32);
  // All-zero trace: build one by hand.
  snn::SpikeTrace silent;
  silent.layers.resize(3);
  for (std::size_t l = 0; l < 3; ++l) {
    const std::size_t n = l == 0 ? 64 : (l == 1 ? 32 : 10);
    for (int t = 0; t < 4; ++t) silent.layers[l].emplace_back(n);
  }
  const Mapping m = map_network(fx.topo, default_config());
  const RunReport r = Executor(fx.topo, m).run(silent);
  EXPECT_DOUBLE_EQ(r.energy.crossbar_pj, 0.0);
  EXPECT_EQ(r.events.mca_activations, 0u);
  EXPECT_GT(r.events.mca_skips, 0u);
}

TEST(Executor, EnergyScalesWithTimesteps) {
  Fixture fx(64, 64);
  // Double the trace by concatenation.
  snn::SpikeTrace doubled = fx.traces[0];
  for (std::size_t l = 0; l < doubled.layers.size(); ++l)
    for (const auto& v : fx.traces[0].layers[l]) doubled.layers[l].push_back(v);
  const Mapping m = map_network(fx.topo, default_config());
  Executor ex(fx.topo, m);
  const double e1 = ex.run(fx.traces[0]).energy.total_pj();
  const double e2 = ex.run(doubled).energy.total_pj();
  EXPECT_NEAR(e2 / e1, 2.0, 0.25);  // leakage makes it slightly superlinear
}

TEST(Executor, RunAllAveragesPerClassification) {
  Fixture fx(64, 64);
  const Mapping m = map_network(fx.topo, default_config());
  Executor ex(fx.topo, m);
  const RunReport all = ex.run_all(fx.traces);
  EXPECT_EQ(all.classifications, fx.traces.size());
  double sum = 0.0;
  for (const auto& t : fx.traces) sum += ex.run(t).energy.total_pj();
  EXPECT_NEAR(all.energy.total_pj(), sum / 3.0, sum * 1e-9);
}

TEST(Executor, CcuTransfersOnlyWhenFanInSpansMpes) {
  // fan-in 64 on MCA-64: one slice, no CCU; fan-in 512: 8 slices -> CCU.
  Fixture small(64, 32);
  Fixture large(512, 32);
  const RunReport rs =
      Executor(small.topo, map_network(small.topo, default_config()))
          .run(small.traces[0]);
  const RunReport rl =
      Executor(large.topo, map_network(large.topo, default_config()))
          .run(large.traces[0]);
  EXPECT_EQ(rs.events.ccu_transfers, 0u);
  EXPECT_GT(rl.events.ccu_transfers, 0u);
}

TEST(Executor, RejectsMismatchedTrace) {
  Fixture fx(64, 64);
  const Mapping m = map_network(fx.topo, default_config());
  Executor ex(fx.topo, m);
  snn::SpikeTrace bad;
  bad.layers.resize(2);  // too few layers
  bad.layers[0].emplace_back(64);
  bad.layers[1].emplace_back(64);
  EXPECT_THROW(ex.run(bad), ConfigError);
  // Replay reads each layer input's words by index: a narrower layer
  // vector, or a layer with fewer steps, must be refused, not read past.
  snn::SpikeTrace narrow = fx.traces[0];
  narrow.layers[1].back() = snn::SpikeVector(32);
  EXPECT_THROW(ex.run(narrow), ConfigError);
  snn::SpikeTrace ragged = fx.traces[0];
  ragged.layers[2].pop_back();
  EXPECT_THROW(ex.run(ragged), ConfigError);
}

TEST(Executor, EnergyBreakdownSumsToTotal) {
  Fixture fx(100, 50);
  const Mapping m = map_network(fx.topo, default_config());
  const RunReport r = Executor(fx.topo, m).run(fx.traces[0]);
  const auto& e = r.energy;
  EXPECT_NEAR(e.total_pj(),
              e.neuron_pj + e.crossbar_pj + e.buffer_pj + e.control_pj +
                  e.comm_pj + e.leakage_pj,
              1e-9);
}

TEST(Executor, SneakLeakageRaisesReplayEnergy) {
  // Half-selected cells of a selectorless array leak during every read
  // (paper section 1): a positive sneak fraction must cost crossbar
  // energy in the trace replay.  The analytic estimate's share is
  // Reliability.SneakFractionRaisesAnalyticEnergy.
  Fixture fx(128, 64);
  ResparcConfig ideal = default_config();
  ideal.technology.memristor.sneak_leak_fraction = 0.0;
  ResparcConfig leaky = ideal;
  leaky.technology.memristor.sneak_leak_fraction = 0.1;
  const Mapping m_ideal = map_network(fx.topo, ideal);
  const Mapping m_leaky = map_network(fx.topo, leaky);
  const RunReport r_ideal = Executor(fx.topo, m_ideal).run(fx.traces[0]);
  const RunReport r_leaky = Executor(fx.topo, m_leaky).run(fx.traces[0]);
  EXPECT_GT(r_leaky.energy.crossbar_pj, r_ideal.energy.crossbar_pj);
  EXPECT_GT(r_leaky.energy.total_pj(), r_ideal.energy.total_pj());
}

TEST(Executor, SmallerMcaMorePeripheralShare) {
  // Fig. 12(a) mechanism: peripheral share of total energy grows as the
  // crossbar shrinks.
  Fixture fx(512, 256);
  auto share = [&](std::size_t n) {
    const Mapping m = map_network(fx.topo, config_with_mca(n));
    const RunReport r = Executor(fx.topo, m).run_all(fx.traces);
    return r.energy.peripherals_pj() / r.energy.total_pj();
  };
  EXPECT_GT(share(32), share(128));
}

}  // namespace
}  // namespace resparc::core
