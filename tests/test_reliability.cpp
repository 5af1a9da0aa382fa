// Reliability study tests: the device non-idealities that motivate the
// paper's "small crossbars are the reliable ones" premise (section 1),
// read through the closed-form IR attenuation and the analytic cost model.
#include <gtest/gtest.h>

#include "compile/cost_model.hpp"
#include "core/config.hpp"
#include "core/mapper.hpp"
#include "snn/topology.hpp"
#include "tech/memristor.hpp"

namespace resparc {
namespace {

TEST(Reliability, IrDropErrorGrowsWithArraySize) {
  // The *relative* signal loss from wire resistance grows with the array
  // — the quantitative form of "large crossbars are infeasible".
  const tech::Memristor device{tech::pcm_params()};
  double prev_att = 1.0;
  for (std::size_t n : {16u, 64u, 256u}) {
    const double att = tech::worst_case_ir_attenuation(device, n, 10.0);
    EXPECT_LT(att, prev_att);
    prev_att = att;
  }
  EXPECT_LT(prev_att, 0.8);  // 256x256 at 10 ohm/segment is badly degraded
}

TEST(Reliability, SneakFractionRaisesAnalyticEnergy) {
  // Sneak leakage through half-selected cells must show in the analytic
  // per-step energy the mapping search ranks candidates by.
  const snn::Topology topo("mlp", Shape3{1, 1, 128},
                           {snn::LayerSpec::dense(64),
                            snn::LayerSpec::dense(10)});
  core::ResparcConfig ideal = core::default_config();
  ideal.technology.memristor.sneak_leak_fraction = 0.0;
  core::ResparcConfig leaky = ideal;
  leaky.technology.memristor.sneak_leak_fraction = 0.05;
  const core::Mapping m_ideal = core::map_network(topo, ideal);
  const core::Mapping m_leaky = core::map_network(topo, leaky);
  EXPECT_GT(compile::estimate_cost(topo, m_leaky).energy_pj_per_step,
            compile::estimate_cost(topo, m_ideal).energy_pj_per_step);
}

}  // namespace
}  // namespace resparc
