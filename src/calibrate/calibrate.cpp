#include "calibrate/calibrate.hpp"

#include "modular/simd/simd.hpp"

namespace pr::calibrate {

std::string active_profile_id() {
  return std::string("defaults-") +
         modular::simd::isa_name(modular::simd::active_isa());
}

void startup() {}

}  // namespace pr::calibrate
