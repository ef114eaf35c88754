#include "calibrate/calibrate.hpp"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>

#include "modular/tuning.hpp"
#include "support/error.hpp"

namespace pr::calibrate {

namespace {

std::mutex& id_mutex() {
  static std::mutex m;
  return m;
}

std::string& active_id_storage() {
  static std::string id;
  return id;
}

}  // namespace

void apply(const CalibrationProfile& p) {
  modular::ModularTuning t;
  t.crt_digit_units_linear = p.crt_digit_units_linear;
  t.crt_digit_units_quadratic = p.crt_digit_units_quadratic;
  modular::set_modular_tuning(t);
  const std::string id = profile_id(p);
  const std::lock_guard<std::mutex> lock(id_mutex());
  active_id_storage() = id;
}

void reset() { apply(CalibrationProfile{}); }

std::string active_profile_id() {
  {
    const std::lock_guard<std::mutex> lock(id_mutex());
    if (!active_id_storage().empty()) return active_id_storage();
  }
  return profile_id(CalibrationProfile{});
}

LoadResult load_and_apply(const std::string& path) {
  LoadResult r;
  CalibrationProfile p;
  try {
    p = load_profile(path);
  } catch (const Error& e) {
    r.diagnostic = e.what();
    return r;
  }
  const ProfileKey host = host_profile_key();
  if (p.key != host) {
    r.diagnostic = "calibration profile " + path +
                   ": key mismatch (profile: cpu=\"" + p.key.cpu +
                   "\" isa=\"" + p.key.isa + "\" build=\"" + p.key.build +
                   "\"; host: cpu=\"" + host.cpu + "\" isa=\"" + host.isa +
                   "\" build=\"" + host.build +
                   "\"); recalibrate with --calibrate";
    return r;
  }
  apply(p);
  r.applied = true;
  return r;
}

void startup() {
  static std::once_flag once;
  std::call_once(once, [] {
    const char* path = std::getenv("POLYROOTS_CALIBRATION");
    if (path == nullptr || *path == '\0') return;
    const LoadResult r = load_and_apply(path);
    if (!r.applied) {
      std::fprintf(stderr, "polyroots: using default tuning: %s\n",
                   r.diagnostic.c_str());
    }
  });
}

}  // namespace pr::calibrate
