// Integration tests: the paper's headline shapes on reduced-scale runs.
// These are the cheap, always-on versions of the claims the benches
// reproduce at paper scale (see bench/ and docs/architecture.md).
#include <gtest/gtest.h>

#include "api/backends.hpp"
#include "cmos/falcon.hpp"
#include "common/rng.hpp"
#include "data/synthetic.hpp"
#include "snn/benchmarks.hpp"
#include "snn/quantize.hpp"
#include "snn/simulator.hpp"
#include "snn/stats.hpp"
#include "train/convert.hpp"
#include "train/trainer.hpp"

namespace resparc {
namespace {

using core::RunReport;
using snn::DatasetKind;

/// Shared medium fixture: small MLP and CNN with realistic traces from the
/// synthetic datasets.
class PaperShapes : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    mlp_traces_ = build(DatasetKind::kMnistLike, /*cnn=*/false, &mlp_topo_);
    cnn_traces_ = build(DatasetKind::kMnistLike, /*cnn=*/true, &cnn_topo_);
  }

  static std::vector<snn::SpikeTrace> build(DatasetKind kind, bool cnn,
                                            std::optional<snn::Topology>* out) {
    const snn::Topology topo =
        cnn ? snn::small_cnn_topology(kind) : snn::small_mlp_topology(kind);
    out->emplace(topo);
    snn::Network net(topo);
    Rng rng(11);
    net.init_random(rng, 1.0f);
    const data::Dataset ds = data::make_synthetic(
        kind, {.count = 4, .seed = 3, .noise = 0.03, .jitter_pixels = 1.0});
    snn::SimConfig cfg;
    cfg.timesteps = 16;
    snn::calibrate_thresholds(net, ds.images, cfg, rng, 0.10);
    snn::Simulator sim(net, cfg);
    std::vector<snn::SpikeTrace> traces;
    for (const auto& img : ds.images) traces.push_back(sim.run(img, rng).trace);
    return traces;
  }

  static RunReport run_resparc(const snn::Topology& topo,
                               std::span<const snn::SpikeTrace> traces,
                               const core::ResparcConfig& config) {
    api::ResparcBackend backend(config);
    backend.load(topo);
    return *backend.execute(traces).resparc;
  }

  static RunReport run_resparc(const snn::Topology& topo,
                               std::span<const snn::SpikeTrace> traces,
                               std::size_t mca) {
    return run_resparc(topo, traces, core::config_with_mca(mca));
  }

  static cmos::CmosReport run_cmos(const snn::Topology& topo,
                                   std::span<const snn::SpikeTrace> traces) {
    cmos::FalconAccelerator acc(topo, {});
    return acc.run_all(traces);
  }

  static std::optional<snn::Topology> mlp_topo_;
  static std::optional<snn::Topology> cnn_topo_;
  static std::vector<snn::SpikeTrace> mlp_traces_;
  static std::vector<snn::SpikeTrace> cnn_traces_;
};

std::optional<snn::Topology> PaperShapes::mlp_topo_;
std::optional<snn::Topology> PaperShapes::cnn_topo_;
std::vector<snn::SpikeTrace> PaperShapes::mlp_traces_;
std::vector<snn::SpikeTrace> PaperShapes::cnn_traces_;

TEST_F(PaperShapes, ResparcBeatsCmosOnEnergy) {
  // Fig. 11 headline: RESPARC wins on energy for both topologies.
  const RunReport r_mlp = run_resparc(*mlp_topo_, mlp_traces_, 64);
  const auto c_mlp = run_cmos(*mlp_topo_, mlp_traces_);
  EXPECT_LT(r_mlp.energy.total_pj(), c_mlp.energy.total_pj());

  const RunReport r_cnn = run_resparc(*cnn_topo_, cnn_traces_, 64);
  const auto c_cnn = run_cmos(*cnn_topo_, cnn_traces_);
  EXPECT_LT(r_cnn.energy.total_pj(), c_cnn.energy.total_pj());
}

TEST_F(PaperShapes, MlpGainExceedsCnnGain) {
  // Fig. 11: MLP energy gains (hundreds-x) dwarf CNN gains (tens-x).
  const double mlp_gain =
      run_cmos(*mlp_topo_, mlp_traces_).energy.total_pj() /
      run_resparc(*mlp_topo_, mlp_traces_, 64).energy.total_pj();
  const double cnn_gain =
      run_cmos(*cnn_topo_, cnn_traces_).energy.total_pj() /
      run_resparc(*cnn_topo_, cnn_traces_, 64).energy.total_pj();
  EXPECT_GT(mlp_gain, cnn_gain);
}

TEST_F(PaperShapes, ResparcFasterPerClassification) {
  const RunReport r = run_resparc(*mlp_topo_, mlp_traces_, 64);
  const auto c = run_cmos(*mlp_topo_, mlp_traces_);
  EXPECT_LT(r.perf.latency_pipelined_ns(), c.latency_ns());
}

TEST_F(PaperShapes, EventDrivenSavingsLargerForSmallMca) {
  // Fig. 13: zero-check savings are biggest at MCA-32 — smaller input
  // slices are far more likely to be all-zero, so more reads are elided
  // (the figure plots both configurations on one normalised energy axis;
  // the bar gap, i.e. the absolute saving, grows as the MCA shrinks).
  auto savings = [&](std::size_t mca) {
    core::ResparcConfig on = core::config_with_mca(mca);
    core::ResparcConfig off = on;
    off.event_driven = false;
    const double e_on =
        run_resparc(*mlp_topo_, mlp_traces_, on).energy.total_pj();
    const double e_off =
        run_resparc(*mlp_topo_, mlp_traces_, off).energy.total_pj();
    return e_off - e_on;
  };
  EXPECT_GT(savings(32), savings(128));
}

TEST_F(PaperShapes, QuantisedAccuracySaturatesAtFourBits) {
  // Fig. 14(a) on a trained small MLP: 4-bit accuracy within a few points
  // of 8-bit; 1-bit clearly worse.
  const data::Dataset ds = data::make_synthetic(
      DatasetKind::kMnistLike,
      {.count = 140, .seed = 5, .noise = 0.03, .jitter_pixels = 1.0});
  const data::Dataset train_set = ds.take(110);
  const data::Dataset test_set = ds.drop(110);
  train::Ann ann(snn::small_mlp_topology(DatasetKind::kMnistLike));
  Rng rng(6);
  ann.init_he(rng);
  train::train(ann, train_set,
               {.epochs = 30, .batch_size = 10, .learning_rate = 0.02}, rng);
  const snn::Network base = train::convert_to_snn(ann, train_set.images);

  snn::SimConfig cfg;
  cfg.timesteps = 48;
  cfg.record_trace = false;
  auto acc_at = [&](int bits) {
    snn::Network q = base;
    snn::quantize_network(q, bits);
    return snn::evaluate_accuracy(q, cfg, test_set.images, test_set.labels,
                                  rng);
  };
  const double a1 = acc_at(1);
  const double a4 = acc_at(4);
  const double a8 = acc_at(8);
  EXPECT_GE(a4, a8 - 0.12);  // 4-bit comparable to 8-bit (paper 5.4)
  EXPECT_LT(a1, a8 + 1e-9);  // 1-bit no better than 8-bit
  EXPECT_GT(a8, 0.5);        // the pipeline actually learned
}

TEST_F(PaperShapes, ResparcEnergyFlatCmosEnergyRisingWithBits) {
  // Fig. 14(b): crossbar reads are analog (bit-independent); the digital
  // baseline pays for precision in memory and datapath.
  std::vector<double> resparc_e, cmos_e;
  for (int bits : {1, 2, 4, 8}) {
    core::ResparcConfig rc = core::config_with_mca(64);
    rc.technology.memristor.bits = bits;
    resparc_e.push_back(
        run_resparc(*mlp_topo_, mlp_traces_, rc).energy.total_pj());
    cmos::FalconConfig cc;
    cc.weight_bits = bits;
    cmos_e.push_back(
        cmos::FalconAccelerator(*mlp_topo_, cc).run_all(mlp_traces_).energy.total_pj());
  }
  // RESPARC: within 5% across the sweep.
  for (double e : resparc_e) EXPECT_NEAR(e / resparc_e[0], 1.0, 0.05);
  // CMOS: strictly increasing.
  for (std::size_t i = 1; i < cmos_e.size(); ++i)
    EXPECT_GT(cmos_e[i], cmos_e[i - 1]);
}

TEST_F(PaperShapes, MnistInputZeroFractionHigh) {
  // Fig. 13's driver: MNIST-like inputs produce many all-zero packets.
  const snn::PacketStats s =
      snn::layer_packet_stats(mlp_traces_[0], 0, 32);
  EXPECT_GT(s.zero_fraction(), 0.15);
}

}  // namespace
}  // namespace resparc
