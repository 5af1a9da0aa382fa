#include "tech/technology.hpp"

#include "common/error.hpp"

namespace resparc::tech {

void Technology::validate() const {
  memristor.validate();
  require(resparc_clock_mhz > 0.0, "RESPARC clock must be positive");
  require(baseline_clock_mhz > 0.0, "baseline clock must be positive");
  require(flit_bits > 0 && flit_bits <= 512, "flit width must be in (0,512]");
}

Technology default_technology() {
  Technology t;
  t.name = "default-45nm";
  return t;
}

Technology agsi_technology() {
  Technology t;
  t.name = "agsi-45nm";
  t.memristor = agsi_params();
  return t;
}

}  // namespace resparc::tech
