// The profile stamp.
//
// Nothing is calibrated per host: every scheduling constant is compiled
// in (docs/TUNING.md).  These two entry points stay because the
// end-to-end benchmark calls them and refuses to compare records whose
// profile ids differ: active_profile_id() names the compiled defaults for
// the active mod-p kernel table, and startup() does nothing.
#pragma once

#include <string>

namespace pr::calibrate {

/// "defaults-<isa>", the isa being the mod-p kernel table selected at
/// startup ("scalar", "avx2", "avx512").  Bench output stamps this id into
/// every BENCH_*.json row set.
std::string active_profile_id();

/// Does nothing.
void startup();

}  // namespace pr::calibrate
