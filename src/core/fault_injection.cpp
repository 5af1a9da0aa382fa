#include "core/fault_injection.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "snn/quantize.hpp"
#include "tech/memristor.hpp"

namespace resparc::core {
namespace {

tech::FaultModel make_model(const Mapping& mapping) {
  require(mapping.config.faults.enabled,
          "fault_injection: faults are not enabled on this mapping");
  return tech::FaultModel(mapping.config.faults, mapping.config.mca_size);
}

}  // namespace

tech::FaultManifest derive_manifest(const Mapping& mapping) {
  const tech::FaultModel model = make_model(mapping);
  return tech::scan_manifest(model, mapping.total_mpes,
                             mapping.config.mcas_per_mpe);
}

tech::ChipHealthMap derive_health(const Mapping& mapping) {
  const tech::FaultModel model = make_model(mapping);
  return tech::scan_chip_health(model, mapping.total_mpes,
                                mapping.config.mcas_per_mpe);
}

double chip_energy_scale(const Mapping& mapping) {
  if (!mapping.config.faults.enabled) return 1.0;
  const tech::FaultModel model = make_model(mapping);
  const tech::Memristor device(mapping.config.technology.memristor);
  // The analytic cost model charges every used cell at the mean
  // conductance (Memristor::mean_cell_read_energy_pj); per-cell
  // multipliers are therefore ratios against that mean level.
  const double g_mean = 0.5 * (device.g_min() + device.g_max());
  const double on_ratio = device.g_max() / g_mean;
  const double off_ratio = device.g_min() / g_mean;
  const std::size_t slots = mapping.total_mpes * mapping.config.mcas_per_mpe;
  if (slots == 0) return 1.0;
  double sum = 0.0;
  for (std::size_t slot = 0; slot < slots; ++slot)
    sum += model.energy_scale(slot, on_ratio, off_ratio);
  return sum / static_cast<double>(slots);
}

void perturb_network(snn::Network& network, const Mapping& mapping) {
  const tech::FaultConfig& fc = mapping.config.faults;
  if (!fc.enabled) return;
  const tech::FaultModel model = make_model(mapping);
  const std::size_t n = mapping.config.mca_size;
  const std::size_t per_mpe = mapping.config.mcas_per_mpe;
  const float steps = static_cast<float>(
      fc.weight_bits > 0 ? (1 << fc.weight_bits) - 1 : 0);
  for (const LayerMapping& lm : mapping.layers) {
    Matrix& w = network.layer(lm.layer).weights;
    if (w.empty()) continue;  // pool layers store no weights
    float scale = 0.0f;
    for (std::size_t r = 0; r < w.rows(); ++r)
      for (std::size_t c = 0; c < w.cols(); ++c)
        scale = std::max(scale, std::abs(w(r, c)));
    if (scale == 0.0f) continue;  // all-zero layer: nothing to perturb
    const std::size_t tile_rows = (w.rows() + n - 1) / n;
    const std::size_t tile_cols = (w.cols() + n - 1) / n;
    for (std::size_t tr = 0; tr < tile_rows; ++tr) {
      for (std::size_t tc = 0; tc < tile_cols; ++tc) {
        const std::size_t mca_id =
            lm.first_mpe * per_mpe + tr * tile_cols + tc;
        const tech::McaFaults faults = model.sample(mca_id);
        const std::size_t r_end = std::min(w.rows(), (tr + 1) * n);
        const std::size_t c_end = std::min(w.cols(), (tc + 1) * n);
        for (std::size_t r = tr * n; r < r_end; ++r) {
          for (std::size_t c = tc * n; c < c_end; ++c) {
            const std::size_t cell = (r % n) * n + (c % n);
            float v = w(r, c);
            // Quantise the magnitude to the configured level count (the
            // device discretisation of snn::quantize_network).
            if (steps > 0.0f) v = snn::quantize_value(v, scale, steps);
            switch (faults.cells[cell]) {
              case tech::CellFault::kStuckOff:
                v = 0.0f;
                break;
              case tech::CellFault::kStuckOn:
                v = std::copysign(scale, v);
                break;
              case tech::CellFault::kNone:
                v = static_cast<float>(static_cast<double>(v) *
                                       faults.gain[cell]);
                break;
            }
            w(r, c) = v;
          }
        }
      }
    }
  }
}

}  // namespace resparc::core
