#include "core/techaware.hpp"

#include "common/error.hpp"
#include "tech/memristor.hpp"

namespace resparc::core {

std::vector<std::size_t> permissible_sizes(std::span<const std::size_t> sizes,
                                           const tech::Technology& technology,
                                           double wire_resistance_ohm,
                                           double min_attenuation) {
  require(min_attenuation > 0.0 && min_attenuation <= 1.0,
          "min_attenuation must be in (0,1]");
  const tech::Memristor device{technology.memristor};
  std::vector<std::size_t> ok;
  for (std::size_t n : sizes)
    if (tech::worst_case_ir_attenuation(device, n, wire_resistance_ohm) >=
        min_attenuation)
      ok.push_back(n);
  return ok;
}

}  // namespace resparc::core
