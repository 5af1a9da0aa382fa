// Unit tests for technology-aware MCA size selection: the IR-drop size
// filter (core/techaware.hpp) and the energy search (compile/techaware.hpp).
#include "core/techaware.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "compile/techaware.hpp"
#include "common/rng.hpp"
#include "snn/benchmarks.hpp"
#include "snn/simulator.hpp"
#include "tech/memristor.hpp"

namespace resparc::core {
namespace {

using compile::explore_mca_sizes;
using compile::TechAwareResult;
using snn::LayerSpec;
using snn::Topology;

std::vector<snn::SpikeTrace> traces_for(const Topology& topo, int n_images,
                                        double activity = 0.1) {
  snn::Network net(topo);
  Rng rng(1);
  net.init_random(rng, 1.0f);
  std::vector<std::vector<float>> images;
  for (int i = 0; i < n_images; ++i) {
    std::vector<float> img(topo.input_shape().size());
    for (auto& p : img) p = static_cast<float>(rng.uniform(0.0, 1.0));
    images.push_back(std::move(img));
  }
  snn::SimConfig cfg;
  cfg.timesteps = 10;
  snn::calibrate_thresholds(net, images, cfg, rng, activity);
  snn::Simulator sim(net, cfg);
  std::vector<snn::SpikeTrace> traces;
  for (const auto& img : images) traces.push_back(sim.run(img, rng).trace);
  return traces;
}

TEST(TechAware, PermissibleSizesShrinkWithWireResistance) {
  const std::vector<std::size_t> sizes{32, 64, 128, 256, 512};
  const tech::Technology t = tech::default_technology();
  // Generous floor: everything passes with ideal wires.
  const auto ideal = permissible_sizes(sizes, t, 0.0, 0.9);
  EXPECT_EQ(ideal.size(), sizes.size());
  // Resistive wires: large arrays drop out first.
  const auto constrained = permissible_sizes(sizes, t, 20.0, 0.9);
  EXPECT_LT(constrained.size(), sizes.size());
  for (std::size_t i = 1; i < constrained.size(); ++i)
    EXPECT_GT(constrained[i], constrained[i - 1]);
  // The surviving set is a prefix (small sizes survive).
  for (std::size_t n : constrained) EXPECT_LE(n, 256u);
}

TEST(TechAware, PermissibleSizesMatchRecordedGrid) {
  // Pinned results of the IR-drop size filter over a technology x floor x
  // wire grid: a change in the closed form's floating-point order shows
  // up here.  Each entry is how many of `sizes` (a prefix) survive at the
  // wire resistances {0, 5, 10, 15, 20, 40} ohm.
  const std::vector<std::size_t> sizes{16, 32, 64, 128, 256, 512};
  const std::vector<double> wires{0.0, 5.0, 10.0, 15.0, 20.0, 40.0};
  struct Row {
    tech::Technology technology;
    double floor;
    std::vector<std::size_t> kept;  // one count per wire resistance
  };
  const std::vector<Row> rows{
      {tech::agsi_technology(), 0.75, {6, 6, 6, 6, 6, 5}},
      {tech::agsi_technology(), 0.80, {6, 6, 6, 6, 6, 5}},
      {tech::agsi_technology(), 0.90, {6, 6, 6, 5, 5, 4}},
      {tech::default_technology(), 0.75, {6, 6, 5, 4, 4, 3}},
      {tech::default_technology(), 0.80, {6, 5, 4, 4, 3, 2}},
      {tech::default_technology(), 0.90, {6, 4, 3, 3, 2, 1}},
  };
  for (const Row& row : rows)
    for (std::size_t i = 0; i < wires.size(); ++i) {
      const std::vector<std::size_t> expected(
          sizes.begin(),
          sizes.begin() + static_cast<std::ptrdiff_t>(row.kept[i]));
      EXPECT_EQ(permissible_sizes(sizes, row.technology, wires[i], row.floor),
                expected)
          << row.technology.name << " floor " << row.floor << " wire "
          << wires[i];
    }
}

TEST(TechAware, PermissibleSizesPrefixProperty) {
  // If size N is rejected, every larger size must also be rejected.
  const std::vector<std::size_t> sizes{16, 32, 64, 128, 256, 512};
  for (double wire : {5.0, 15.0, 40.0}) {
    const auto ok =
        permissible_sizes(sizes, tech::default_technology(), wire, 0.8);
    // `ok` must be a prefix of `sizes`.
    ASSERT_LE(ok.size(), sizes.size());
    for (std::size_t i = 0; i < ok.size(); ++i) EXPECT_EQ(ok[i], sizes[i]);
  }
}

TEST(TechAware, AgSiToleratesMoreWireThanPcm) {
  // Higher device resistance makes the wire drop relatively smaller, so
  // Ag-Si sustains larger arrays under the same wiring (the behaviour the
  // technology_explorer example demonstrates).
  const std::vector<std::size_t> sizes{32, 64, 128, 256, 512};
  const auto pcm =
      permissible_sizes(sizes, tech::default_technology(), 15.0, 0.75);
  const auto agsi =
      permissible_sizes(sizes, tech::agsi_technology(), 15.0, 0.75);
  EXPECT_GE(agsi.size(), pcm.size());
  EXPECT_LT(pcm.size(), sizes.size());  // the constraint actually binds
}

TEST(TechAware, IrAttenuationWorsensWithArraySize) {
  // The paper's reliability argument (section 1): larger arrays put more
  // wire segments in series with the farthest cell, so its signal drops.
  const tech::Memristor device{tech::pcm_params()};
  double prev = 1.0;
  for (std::size_t n : {32u, 64u, 128u, 256u}) {
    const double att = tech::worst_case_ir_attenuation(device, n, 5.0);
    EXPECT_GT(att, 0.0);
    EXPECT_LT(att, prev) << "n " << n;
    prev = att;
  }
}

TEST(TechAware, IdealWiresHaveNoAttenuation) {
  const tech::Memristor device{tech::pcm_params()};
  for (std::size_t n : {1u, 64u, 4096u})
    EXPECT_EQ(tech::worst_case_ir_attenuation(device, n, 0.0), 1.0);
}

TEST(TechAware, RejectsNegativeWireResistanceAndEmptyArrays) {
  // A negative wire resistance is a configuration error, not an ideal
  // wire.
  const tech::Memristor device{tech::pcm_params()};
  EXPECT_THROW(tech::worst_case_ir_attenuation(device, 64, -1.0), ConfigError);
  EXPECT_THROW(tech::worst_case_ir_attenuation(device, 0, 5.0), ConfigError);
  const std::vector<std::size_t> sizes{32, 64};
  EXPECT_THROW(
      permissible_sizes(sizes, tech::default_technology(), -5.0, 0.8),
      ConfigError);
  EXPECT_THROW(permissible_sizes(std::vector<std::size_t>{0},
                                 tech::default_technology(), 5.0, 0.8),
               ConfigError);
}

TEST(TechAware, ExploreReturnsAllCandidates) {
  const Topology topo("e", Shape3{1, 1, 128},
                      {LayerSpec::dense(128), LayerSpec::dense(10)});
  const auto traces = traces_for(topo, 2);
  const std::vector<std::size_t> sizes{32, 64, 128};
  const TechAwareResult r =
      explore_mca_sizes(topo, traces, default_config(), sizes);
  ASSERT_EQ(r.candidates.size(), 3u);
  for (const auto& c : r.candidates) {
    EXPECT_GT(c.energy_pj, 0.0);
    EXPECT_GT(c.latency_ns, 0.0);
    EXPECT_GT(c.mca_count, 0u);
  }
  EXPECT_LT(r.best_index, 3u);
  EXPECT_LE(r.best().energy_pj, r.candidates[0].energy_pj);
  EXPECT_LE(r.best().energy_pj, r.candidates[2].energy_pj);
}

TEST(TechAware, MlpPrefersLargerArrays) {
  // Fig. 12(a): for dense MLPs, bigger crossbars amortise peripherals.
  const Topology topo("mlp", Shape3{1, 1, 512},
                      {LayerSpec::dense(512), LayerSpec::dense(10)});
  const auto traces = traces_for(topo, 2);
  const std::vector<std::size_t> sizes{32, 128};
  const TechAwareResult r =
      explore_mca_sizes(topo, traces, default_config(), sizes);
  EXPECT_EQ(r.best().mca_size, 128u);
}

TEST(TechAware, RejectsEmptyInputs) {
  const Topology topo("x", Shape3{1, 1, 8}, {LayerSpec::dense(4)});
  const auto traces = traces_for(topo, 1);
  EXPECT_THROW(
      explore_mca_sizes(topo, traces, default_config(), std::vector<std::size_t>{}),
      ConfigError);
  EXPECT_THROW(explore_mca_sizes(topo, {}, default_config(),
                                 std::vector<std::size_t>{64}),
               ConfigError);
}

}  // namespace
}  // namespace resparc::core
