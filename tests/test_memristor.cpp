// Unit tests for the memristive device model (tech/memristor.hpp).
#include "tech/memristor.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace resparc::tech {
namespace {

TEST(Memristor, PaperParameterRange) {
  // Section 4.2: 20 kOhm - 200 kOhm, 16 levels (4 bits), Vdd/2 read.
  const Memristor m{pcm_params()};
  EXPECT_DOUBLE_EQ(m.g_max(), 1.0 / 20e3);
  EXPECT_DOUBLE_EQ(m.g_min(), 1.0 / 200e3);
  EXPECT_EQ(m.params().bits, 4);
  EXPECT_DOUBLE_EQ(m.params().read_voltage_v, 0.5);
}

TEST(Memristor, ValidationRejectsBadRanges) {
  MemristorParams p = pcm_params();
  p.r_on_ohm = -1.0;
  EXPECT_THROW(Memristor{p}, ConfigError);
  p = pcm_params();
  p.r_off_ohm = p.r_on_ohm;  // must exceed R_on
  EXPECT_THROW(Memristor{p}, ConfigError);
  p = pcm_params();
  p.bits = 0;
  EXPECT_THROW(Memristor{p}, ConfigError);
  p = pcm_params();
  p.bits = 9;
  EXPECT_THROW(Memristor{p}, ConfigError);
}

TEST(Memristor, CellReadEnergyMatchesFormula) {
  const Memristor m{pcm_params()};
  // E = V^2 G t = 0.25 * 50e-6 S * 1 ns = 12.5 fJ = 0.0125 pJ at G_on.
  EXPECT_NEAR(m.cell_read_energy_pj(m.g_max()), 0.0125, 1e-9);
}

TEST(Memristor, MeanCellEnergyBetweenExtremes) {
  const Memristor m{pcm_params()};
  const double mean = m.mean_cell_read_energy_pj();
  EXPECT_GT(mean, m.cell_read_energy_pj(m.g_min()));
  EXPECT_LT(mean, m.cell_read_energy_pj(m.g_max()));
}

TEST(Memristor, AgSiLowerReadEnergy) {
  // Ag-Si devices are more resistive -> lower read energy than PCM.
  const Memristor pcm{pcm_params()};
  const Memristor agsi{agsi_params()};
  EXPECT_LT(agsi.mean_cell_read_energy_pj(), pcm.mean_cell_read_energy_pj());
}

}  // namespace
}  // namespace resparc::tech
