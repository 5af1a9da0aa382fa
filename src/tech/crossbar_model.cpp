#include "tech/crossbar_model.hpp"

#include <cmath>
#include <cstdint>

#include "common/error.hpp"
#include "common/kernels.hpp"

namespace resparc::tech {

CrossbarModel::CrossbarModel(std::size_t rows, std::size_t cols, Memristor device)
    : rows_(rows), cols_(cols), device_(std::move(device)),
      g_(rows * cols, device_.g_min()) {
  require(rows_ > 0 && cols_ > 0, "crossbar dimensions must be positive");
}

void CrossbarModel::program(const Matrix& magnitudes,
                            const CrossbarNonIdealities& ni, Rng* rng) {
  if (magnitudes.rows() != rows_ || magnitudes.cols() != cols_)
    throw ShapeError("CrossbarModel::program: magnitude matrix shape mismatch");
  ni_ = ni;
  const bool stochastic =
      ni.stuck_off_probability > 0.0 || ni.stuck_on_probability > 0.0 ||
      ni.programming_sigma > 0.0;
  require(!stochastic || rng != nullptr,
          "stochastic non-idealities require an Rng");
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      double g = device_.conductance(magnitudes(r, c));
      if (stochastic) {
        if (rng->bernoulli(ni.stuck_off_probability)) {
          g = device_.g_min();
        } else if (rng->bernoulli(ni.stuck_on_probability)) {
          g = device_.g_max();
        } else if (ni.programming_sigma > 0.0) {
          g *= std::exp(rng->normal(0.0, ni.programming_sigma));
          g = std::min(std::max(g, device_.g_min()), device_.g_max());
        }
      }
      g_[r * cols_ + c] = g;
    }
  }
}

double CrossbarModel::worst_case_ir_attenuation() const {
  if (ni_.wire_resistance_ohm <= 0.0) return 1.0;
  // First-order lumped model: the farthest cell sees (rows+cols) wire
  // segments in series with the device.  Attenuation = R_dev/(R_dev+R_wire).
  const double r_dev = 1.0 / device_.g_max();  // worst case: lowest R device
  const double r_wire =
      ni_.wire_resistance_ohm * static_cast<double>(rows_ + cols_);
  return r_dev / (r_dev + r_wire);
}

void CrossbarModel::read_currents(std::span<const std::uint8_t> spikes,
                                  std::span<double> currents_out) const {
  if (spikes.size() != rows_ || currents_out.size() != cols_)
    throw ShapeError("CrossbarModel::read_currents: span size mismatch");
  for (auto& i : currents_out) i = 0.0;
  const double v = device_.params().read_voltage_v;
  for (std::size_t r = 0; r < rows_; ++r) {
    if (!spikes[r]) continue;
    kernels::scaled_row_add(currents_out.data(), v, g_.data() + r * cols_,
                            cols_);
  }
  const double atten = worst_case_ir_attenuation();
  if (atten < 1.0)
    for (auto& i : currents_out) i *= atten;
}

double CrossbarModel::read_energy_pj(std::span<const std::uint8_t> spikes) const {
  if (spikes.size() != rows_)
    throw ShapeError("CrossbarModel::read_energy_pj: span size mismatch");
  double energy = 0.0;
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* row = g_.data() + r * cols_;
    double row_g = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) row_g += row[c];
    if (spikes[r]) {
      energy += device_.cell_read_energy_pj(row_g);
    } else if (device_.params().sneak_leak_fraction > 0.0) {
      energy += device_.params().sneak_leak_fraction * device_.cell_read_energy_pj(row_g);
    }
  }
  return energy;
}

double CrossbarModel::mean_read_energy_pj(double active_rows,
                                          double used_cols) const {
  const double per_cell = device_.mean_cell_read_energy_pj();
  double energy = active_rows * used_cols * per_cell;
  if (device_.params().sneak_leak_fraction > 0.0) {
    const double idle_rows = static_cast<double>(rows_) - active_rows;
    energy += device_.params().sneak_leak_fraction * idle_rows * used_cols * per_cell;
  }
  return energy;
}

double CrossbarModel::conductance_at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_)
    throw ShapeError("CrossbarModel::conductance_at out of range");
  return g_[r * cols_ + c];
}

}  // namespace resparc::tech
