// The calibration stamp: with nothing left to calibrate, the profile id
// names the compiled defaults of the active kernel table, and startup()
// changes nothing.
#include "calibrate/calibrate.hpp"

#include <gtest/gtest.h>

#include <string>

#include "modular/simd/simd.hpp"

namespace pr {
namespace {

TEST(CalibrateStamp, ProfileIdNamesTheDefaultsOfTheActiveIsa) {
  const std::string expected =
      std::string("defaults-") +
      modular::simd::isa_name(modular::simd::active_isa());
  EXPECT_EQ(calibrate::active_profile_id(), expected);
  calibrate::startup();
  calibrate::startup();
  EXPECT_EQ(calibrate::active_profile_id(), expected);
}

}  // namespace
}  // namespace pr
