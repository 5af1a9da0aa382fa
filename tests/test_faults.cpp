// The device fault-injection layer end to end (docs/reliability.md):
// FaultModel's seeded determinism, the fault-free no-op guarantee (exact
// pre-layer goldens + fingerprint stability), cross-engine agreement of
// faulted replays, the compile-time repair pass with its RV-FAULT-*
// verifier passes, manifest surfacing, and the fleet Monte-Carlo
// harness's reproducibility.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "api/fleet.hpp"
#include "api/pipeline.hpp"
#include "api/registry.hpp"
#include "common/error.hpp"
#include "compile/compiler.hpp"
#include "core/config.hpp"
#include "core/fault_injection.hpp"
#include "snn/benchmarks.hpp"
#include "snn/quantize.hpp"
#include "tech/nonideal.hpp"
#include "verify/verifier.hpp"

namespace resparc {
namespace {

using tech::CellFault;
using tech::FaultConfig;
using tech::FaultModel;
using tech::McaFaults;

/// Exact weight equality of one layer across two networks.
bool same_weights(const snn::Network& a, const snn::Network& b,
                  std::size_t layer) {
  const auto fa = a.layer(layer).weights.flat();
  const auto fb = b.layer(layer).weights.flat();
  return fa.size() == fb.size() && std::equal(fa.begin(), fa.end(), fb.begin());
}

FaultConfig noisy_config() {
  FaultConfig f;
  f.enabled = true;
  f.chip_seed = 42;
  f.stuck_off_rate = 0.01;
  f.stuck_on_rate = 0.005;
  f.programming_sigma = 0.1;
  f.read_noise_sigma = 0.05;
  return f;
}

// ------------------------------------------------------------ FaultModel --

TEST(FaultModel, SamplingIsDeterministicPerChipAndSlot) {
  const FaultModel model(noisy_config(), 32);
  const McaFaults a = model.sample(7);
  const McaFaults b = model.sample(7);
  EXPECT_EQ(a.cells, b.cells);
  EXPECT_EQ(a.gain, b.gain);
  EXPECT_EQ(a.stuck_off, b.stuck_off);
  EXPECT_EQ(a.stuck_on, b.stuck_on);

  // A different slot of the same chip draws different silicon ...
  EXPECT_NE(model.sample(8).cells, a.cells);
  // ... and so does the same slot of a different chip.
  FaultConfig other = noisy_config();
  other.chip_seed = 43;
  EXPECT_NE(FaultModel(other, 32).sample(7).cells, a.cells);
}

TEST(FaultModel, SampleCountsMatchesMaterializedSample) {
  const FaultModel model(noisy_config(), 32);
  for (std::size_t mca = 0; mca < 16; ++mca) {
    const McaFaults full = model.sample(mca);
    const McaFaults counts = model.sample_counts(mca);
    EXPECT_EQ(counts.stuck_off, full.stuck_off) << mca;
    EXPECT_EQ(counts.stuck_on, full.stuck_on) << mca;
    EXPECT_TRUE(counts.cells.empty());
    EXPECT_DOUBLE_EQ(model.stuck_density(mca), full.stuck_density());

    // The per-cell classes must be consistent with the counts.
    std::size_t off = 0, on = 0;
    for (const CellFault c : full.cells) {
      off += c == CellFault::kStuckOff;
      on += c == CellFault::kStuckOn;
    }
    EXPECT_EQ(off, full.stuck_off);
    EXPECT_EQ(on, full.stuck_on);
  }
}

TEST(FaultModel, StuckRatesScaleTheDrawnPopulation) {
  // Over many slots the realised stuck fraction must track the configured
  // rate (law of large numbers, generous 2x band).
  FaultConfig f;
  f.enabled = true;
  f.stuck_off_rate = 0.02;
  const FaultModel model(f, 64);
  std::size_t stuck = 0, cells = 0;
  for (std::size_t mca = 0; mca < 64; ++mca) {
    const McaFaults s = model.sample_counts(mca);
    stuck += s.stuck_off + s.stuck_on;
    cells += 64 * 64;
  }
  const double realised = static_cast<double>(stuck) / cells;
  EXPECT_GT(realised, 0.01);
  EXPECT_LT(realised, 0.04);
}

/// Standard deviation of log(gain) over the healthy cells of `slots`
/// MCAs; stuck cells must keep the ideal gain of exactly 1.0.
double healthy_log_gain_spread(const FaultConfig& f, std::size_t slots) {
  const FaultModel model(f, 32);
  double sum = 0.0, sum_sq = 0.0;
  std::size_t healthy = 0;
  for (std::size_t mca = 0; mca < slots; ++mca) {
    const McaFaults s = model.sample(mca);
    for (std::size_t cell = 0; cell < s.cells.size(); ++cell) {
      if (s.cells[cell] != CellFault::kNone) {
        EXPECT_EQ(s.gain[cell], 1.0);
        continue;
      }
      const double lg = std::log(s.gain[cell]);
      sum += lg;
      sum_sq += lg * lg;
      ++healthy;
    }
  }
  const double mean = sum / static_cast<double>(healthy);
  return std::sqrt(std::max(0.0, sum_sq / static_cast<double>(healthy) -
                                     mean * mean));
}

TEST(FaultModel, HealthyGainSpreadGrowsWithSigma) {
  // Programming variation and frozen read noise are independent lognormal
  // factors: the spread of log(gain) over healthy cells tracks each sigma
  // and their root sum of squares (4096 cells per point, 10% band).
  FaultConfig f;
  f.enabled = true;
  f.stuck_off_rate = 0.02;
  f.stuck_on_rate = 0.01;
  EXPECT_EQ(healthy_log_gain_spread(f, 4), 0.0);
  for (const bool read_noise : {false, true}) {
    double prev = 0.0;
    for (double sigma : {0.01, 0.05, 0.2}) {
      FaultConfig g = f;
      (read_noise ? g.read_noise_sigma : g.programming_sigma) = sigma;
      const double spread = healthy_log_gain_spread(g, 4);
      EXPECT_GT(spread, prev) << "sigma " << sigma;
      EXPECT_NEAR(spread, sigma, 0.1 * sigma) << "sigma " << sigma;
      prev = spread;
    }
  }
  f.programming_sigma = 0.2;
  f.read_noise_sigma = 0.1;
  EXPECT_NEAR(healthy_log_gain_spread(f, 4), std::hypot(0.2, 0.1),
              0.1 * std::hypot(0.2, 0.1));
}

TEST(FaultModel, ValidateRejectsBadRates) {
  FaultConfig f;
  f.enabled = true;
  f.stuck_off_rate = -0.1;
  EXPECT_THROW(f.validate(), ConfigError);
  f = FaultConfig{};
  f.stuck_off_rate = 0.7;
  f.stuck_on_rate = 0.7;  // sum > 1: not a probability split
  EXPECT_THROW(f.validate(), ConfigError);
  f = FaultConfig{};
  f.programming_sigma = -1.0;
  EXPECT_THROW(f.validate(), ConfigError);
}

// ------------------------------------------------- fault-free no-op path --

TEST(FaultFree, DisabledConfigKeepsTheFingerprint) {
  const core::ResparcConfig base = core::default_config();
  core::ResparcConfig with_rates = base;
  with_rates.faults.stuck_off_rate = 0.1;
  with_rates.faults.programming_sigma = 0.3;
  with_rates.faults.chip_seed = 99;
  // A disabled fault block is inert: programs compiled before the
  // robustness layer existed must keep loading (same fingerprint).
  EXPECT_EQ(with_rates.fingerprint(), base.fingerprint());

  core::ResparcConfig enabled = with_rates;
  enabled.faults.enabled = true;
  EXPECT_NE(enabled.fingerprint(), base.fingerprint());
  // The chip seed is part of the silicon identity once enabled.
  core::ResparcConfig other_chip = enabled;
  other_chip.faults.chip_seed = 100;
  EXPECT_NE(other_chip.fingerprint(), enabled.fingerprint());
}

/// Shared golden workload: the exact replay numbers of the pre-layer
/// build (captured before fault injection existed); every engine must
/// still reproduce them bit for bit with faults disabled.  Re-baselined
/// once since, when threshold calibration became one layer-major pass
/// over a single encoding per image: the workload's calibrated
/// thresholds, and so its spikes, moved (6714.1407249999993 before).
struct Golden {
  static constexpr double kEnergyPj = 6719.6197249999987;
  static constexpr double kLatencyNs = 790.0;
  static constexpr std::size_t kClassifications = 2;
};

api::Workload golden_workload() {
  api::PipelineOptions opt;
  opt.images = 2;
  opt.timesteps = 8;
  opt.seed = 7;
  opt.threads = 1;
  return api::Pipeline(opt)
      .dataset(snn::DatasetKind::kMnistLike)
      .topology(snn::small_mlp_topology(snn::DatasetKind::kMnistLike))
      .run();
}

TEST(FaultFree, ReplayMatchesPreLayerGoldensBitForBit) {
  const api::Workload w = golden_workload();
  for (const char* name : {"resparc-64", "resparc-64/greedy-pack"}) {
    const auto accel = api::make_accelerator(name);
    accel->load(w.topology());
    const api::ExecutionReport r = accel->execute(w.traces);
    EXPECT_EQ(r.energy_pj, Golden::kEnergyPj) << name;
    EXPECT_EQ(r.latency_ns, Golden::kLatencyNs) << name;
    EXPECT_EQ(r.classifications, Golden::kClassifications) << name;
    // No fault manifest on the pristine path.
    EXPECT_FALSE(r.faults.has_value()) << name;
  }
}

TEST(FaultFree, ZeroRatePerturbationIsIdentity) {
  // enabled=true with all rates zero must leave every weight untouched
  // (gain defaults to exactly 1.0, so double(v) * 1.0 == v).
  const api::Workload w = golden_workload();
  core::ResparcConfig config = core::config_with_mca(64);
  config.faults.enabled = true;
  config.faults.chip_seed = 42;
  compile::Compiler compiler(config);
  const compile::CompiledProgram program =
      compiler.compile(w.topology(), "paper");
  snn::Network net = w.network;
  core::perturb_network(net, program.mapping);
  for (std::size_t l = 0; l < net.layer_count(); ++l)
    EXPECT_TRUE(same_weights(net, w.network, l)) << "layer " << l;
}

// ------------------------------------------------ perturbation semantics --

TEST(FaultInjection, WeightBitsRequantiseLikeQuantizeNetwork) {
  // With no faults drawn, faults.weight_bits re-quantises every weight
  // through the one shared quantiser, so it matches snn::quantize_network
  // at the same bit count bit for bit.
  const api::Workload w = golden_workload();
  core::ResparcConfig config = core::config_with_mca(64);
  config.faults.enabled = true;
  config.faults.chip_seed = 42;
  config.faults.weight_bits = 4;
  const compile::CompiledProgram program =
      compile::Compiler(config).compile(w.topology(), "paper");
  snn::Network perturbed = w.network;
  core::perturb_network(perturbed, program.mapping);
  snn::Network quantized = w.network;
  snn::quantize_network(quantized, 4);
  bool changed = false;
  for (std::size_t l = 0; l < perturbed.layer_count(); ++l) {
    EXPECT_TRUE(same_weights(perturbed, quantized, l)) << "layer " << l;
    changed = changed || !same_weights(perturbed, w.network, l);
  }
  EXPECT_TRUE(changed) << "4-bit re-quantisation left every weight untouched";
}

TEST(FaultInjection, PerturbNetworkIsDeterministicAndSeedSensitive) {
  const api::Workload w = golden_workload();
  core::ResparcConfig config = core::config_with_mca(64);
  config.faults = noisy_config();
  compile::Compiler compiler(config);
  const compile::CompiledProgram program =
      compiler.compile(w.topology(), "paper");

  snn::Network a = w.network;
  snn::Network b = w.network;
  core::perturb_network(a, program.mapping);
  core::perturb_network(b, program.mapping);
  bool changed = false;
  for (std::size_t l = 0; l < a.layer_count(); ++l) {
    EXPECT_TRUE(same_weights(a, b, l)) << "layer " << l;
    changed = changed || !same_weights(a, w.network, l);
  }
  EXPECT_TRUE(changed) << "noisy perturbation left every weight untouched";

  // A different chip instance draws a different perturbation.
  core::ResparcConfig other = config;
  other.faults.chip_seed = 43;
  const compile::CompiledProgram program2 =
      compile::Compiler(other).compile(w.topology(), "paper");
  snn::Network c = w.network;
  core::perturb_network(c, program2.mapping);
  bool differs = false;
  for (std::size_t l = 0; l < a.layer_count(); ++l)
    differs = differs || !same_weights(a, c, l);
  EXPECT_TRUE(differs);
}

TEST(FaultInjection, EnginesAgreeOnFaultedReplays) {
  // The frozen per-cell fault state must make multi-trace replay and the
  // reduced per-trace reports (Pipeline::execute on two threads)
  // bit-for-bit identical under faults, exactly as they are without them
  // (tests/test_differential.cpp).
  const api::Workload w = golden_workload();
  api::BackendOptions options;
  options.resparc.faults = noisy_config();

  const auto accel = api::make_accelerator("resparc-64", options);
  accel->load(w.topology());
  const api::ExecutionReport ref = accel->execute(w.traces);
  ASSERT_TRUE(ref.faults.has_value());
  EXPECT_EQ(ref.faults->chip_seed, 42u);

  const api::ExecutionReport r = api::Pipeline::execute(*accel, w.traces, 2);
  EXPECT_EQ(r.energy_pj, ref.energy_pj);
  EXPECT_EQ(r.latency_ns, ref.latency_ns);
  EXPECT_EQ(r.classifications, ref.classifications);
  ASSERT_TRUE(r.faults.has_value());
  EXPECT_EQ(r.faults->stuck_off_cells, ref.faults->stuck_off_cells);
  EXPECT_EQ(r.faults->stuck_on_cells, ref.faults->stuck_on_cells);
  EXPECT_EQ(r.faults->failed_mpes, ref.faults->failed_mpes);
}

TEST(FaultInjection, StuckOnCellsRaiseReadEnergy) {
  // Stuck-at-G_max cells draw more read current than the mean-conductance
  // cost model's ideal cell: the analytic energy must go up.
  const api::Workload w = golden_workload();
  api::BackendOptions options;
  options.resparc.faults.enabled = true;
  options.resparc.faults.chip_seed = 5;
  options.resparc.faults.stuck_on_rate = 0.05;
  options.resparc.faults.failed_density = 1.0;  // keep every mPE placeable
  const auto faulty = api::make_accelerator("resparc-64", options);
  faulty->load(w.topology());
  const api::ExecutionReport r = faulty->execute(w.traces);
  ASSERT_TRUE(r.faults.has_value());
  EXPECT_GT(r.faults->stuck_on_cells, 0u);
  EXPECT_GT(r.energy_pj, Golden::kEnergyPj);
}

// ------------------------------------------------------- repair + verify --

TEST(FaultRepair, RepairPlacesAroundFailedMpesAndVerifies) {
  const api::Workload w = golden_workload();
  core::ResparcConfig config = core::config_with_mca(64);
  config.faults.enabled = true;
  config.faults.chip_seed = 1234;
  config.faults.stuck_off_rate = 0.01;
  // ~1.3 sigma above the binomial mean: roughly a tenth of the MCA slots
  // fail, enough to exercise repair while healthy spans stay plentiful.
  config.faults.failed_density = 0.012;

  const tech::ChipHealthMap health = [&] {
    compile::Compiler compiler(config);
    const compile::CompiledProgram program =
        compiler.compile(w.topology(), "paper");
    // With repair on, no layer may start on (or span) a failed mPE.
    const tech::ChipHealthMap h = core::derive_health(program.mapping);
    for (const core::LayerMapping& lm : program.mapping.layers)
      for (std::size_t m = lm.first_mpe; m < lm.first_mpe + lm.mpe_count; ++m)
        EXPECT_FALSE(h.failed(m)) << "layer " << lm.layer << " on mPE " << m;

    verify::VerifyOptions vo;
    vo.topology = &w.topology();
    const verify::VerifyReport report = verify::verify_program(program, vo);
    EXPECT_FALSE(report.has("RV-FAULT-FAILED-MPE"));
    EXPECT_NO_THROW(report.raise_if_errors("faulted program"));
    return h;
  }();
  ASSERT_GT(health.failed_count(), 0u)
      << "fault rates too low to exercise the repair pass";

  // Same chip without repair: the naive placement lands on failed mPEs
  // and the verifier flags every affected layer (warning severity — the
  // user explicitly opted out of repair).
  core::ResparcConfig no_repair = config;
  no_repair.faults.repair = false;
  compile::Compiler compiler(no_repair);
  const compile::CompiledProgram program =
      compiler.compile(w.topology(), "paper");
  const verify::VerifyReport report = verify::verify_program(program);
  EXPECT_TRUE(report.has("RV-FAULT-FAILED-MPE"));
  EXPECT_NO_THROW(report.raise_if_errors("repair disabled"));
}

TEST(FaultRepair, ImpossibleChipFailsCompileWithMappingError) {
  // At a 30% stuck rate with a near-zero density threshold effectively
  // every mPE on the chip is failed; the repair search must give up with
  // a diagnosable MappingError rather than ship a placement.
  const api::Workload w = golden_workload();
  core::ResparcConfig config = core::config_with_mca(64);
  config.faults.enabled = true;
  config.faults.chip_seed = 9;
  config.faults.stuck_off_rate = 0.3;
  config.faults.failed_density = 0.0005;
  compile::Compiler compiler(config);
  EXPECT_THROW(compiler.compile(w.topology(), "paper"), MappingError);
}

// ------------------------------------------------------------- fleet MC --

TEST(Fleet, RunIsDeterministicAcrossInvocationsAndThreadCounts) {
  api::FleetOptions opt;
  opt.chips = 6;
  opt.images = 3;
  opt.timesteps = 6;
  opt.faults.stuck_off_rate = 0.005;
  opt.faults.programming_sigma = 0.1;

  const api::FleetReport a = api::run_fleet(opt);
  opt.threads = 1;
  const api::FleetReport b = api::run_fleet(opt);
  ASSERT_EQ(a.chips.size(), b.chips.size());
  EXPECT_EQ(a.baseline_accuracy, b.baseline_accuracy);
  EXPECT_EQ(a.yield, b.yield);
  for (std::size_t c = 0; c < a.chips.size(); ++c) {
    EXPECT_EQ(a.chips[c].chip_seed, b.chips[c].chip_seed) << c;
    EXPECT_EQ(a.chips[c].accuracy, b.chips[c].accuracy) << c;
    EXPECT_EQ(a.chips[c].energy_uj, b.chips[c].energy_uj) << c;
  }
  // Distinct chips drew distinct silicon.
  EXPECT_NE(a.chips[0].chip_seed, a.chips[1].chip_seed);
}

TEST(Fleet, ZeroFaultFleetReproducesTheBaselineExactly) {
  api::FleetOptions opt;
  opt.chips = 4;
  opt.images = 3;
  opt.timesteps = 6;
  const api::FleetReport fleet = api::run_fleet(opt);
  EXPECT_EQ(fleet.yield, 1.0);
  for (const api::FleetChip& chip : fleet.chips) {
    EXPECT_TRUE(chip.ok);
    EXPECT_EQ(chip.accuracy, fleet.baseline_accuracy);
    EXPECT_EQ(chip.energy_uj, fleet.baseline_energy_uj);
    EXPECT_EQ(chip.failed_mpes, 0u);
    EXPECT_EQ(chip.stuck_cells, 0u);
  }
  EXPECT_EQ(fleet.acc_p50, fleet.baseline_accuracy);
}

TEST(Fleet, QuantilesUseNearestRank) {
  const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
  EXPECT_EQ(api::nearest_rank(v, 0.0), 1.0);
  EXPECT_EQ(api::nearest_rank(v, 0.25), 1.0);
  EXPECT_EQ(api::nearest_rank(v, 0.5), 2.0);
  EXPECT_EQ(api::nearest_rank(v, 0.75), 3.0);
  EXPECT_EQ(api::nearest_rank(v, 1.0), 4.0);
  EXPECT_EQ(api::nearest_rank({}, 0.5), 0.0);
}

TEST(Fleet, RejectsDegenerateOptions) {
  api::FleetOptions opt;
  opt.chips = 0;
  EXPECT_THROW(api::run_fleet(opt), ConfigError);
  opt = {};
  opt.images = 0;
  EXPECT_THROW(api::run_fleet(opt), ConfigError);
}

}  // namespace
}  // namespace resparc
