// Technology limit on the MCA size (paper section 1).
//
// Device reliability bounds the usable crossbar sizes: large arrays suffer
// sneak paths and IR drop.  permissible_sizes is that filter; the energy
// search over the permitted sizes (paper contribution #3) is a mapping
// decision and lives in compile/techaware.hpp.
#pragma once

#include <span>
#include <vector>

#include "core/config.hpp"

namespace resparc::core {

/// Every MCA size in `sizes` (in their order) whose worst-case IR-drop
/// signal attenuation (tech::worst_case_ir_attenuation) meets
/// `min_attenuation` for the given device technology: the "permissible by
/// the technology constraints" filter of section 1.  Throws ConfigError
/// when `min_attenuation` is outside (0, 1], a size is 0 or
/// `wire_resistance_ohm` is negative.
std::vector<std::size_t> permissible_sizes(std::span<const std::size_t> sizes,
                                           const tech::Technology& technology,
                                           double wire_resistance_ohm,
                                           double min_attenuation);

}  // namespace resparc::core
