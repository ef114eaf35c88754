#include "modular/tuning.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

namespace pr::modular {

namespace {

/// One atomic per coefficient: tuning is published once at startup, so no
/// cross-field coherence is required (a torn read can only pair one
/// tuning's linear term with another's quadratic term -- both valid speed
/// choices).
struct Store {
  std::atomic<double> lin{ModularTuning{}.crt_digit_units_linear};
  std::atomic<double> quad{ModularTuning{}.crt_digit_units_quadratic};
};

Store& store() {
  static Store s;
  return s;
}

double clamp_units(double v) {
  if (!std::isfinite(v) || v < 0.0) return 0.0;
  return std::min(v, 1024.0);
}

}  // namespace

ModularTuning modular_tuning() {
  const Store& s = store();
  ModularTuning t;
  t.crt_digit_units_linear = s.lin.load(std::memory_order_relaxed);
  t.crt_digit_units_quadratic = s.quad.load(std::memory_order_relaxed);
  return t;
}

void set_modular_tuning(const ModularTuning& t) {
  Store& s = store();
  s.lin.store(clamp_units(t.crt_digit_units_linear),
              std::memory_order_relaxed);
  s.quad.store(clamp_units(t.crt_digit_units_quadratic),
               std::memory_order_relaxed);
}

void reset_modular_tuning() { set_modular_tuning(ModularTuning{}); }

std::size_t crt_wave_fanout_cap(int threads) {
  const auto t = static_cast<std::size_t>(std::max(1, threads));
  return std::min(kCrtMaxFanout, kCrtFanoutPerThread * t);
}

std::size_t crt_level_waves(const ModularTuning& t, std::size_t cnt,
                            std::size_t k, std::size_t cap) {
  if (cap <= 1 || cnt == 0) return 1;
  const auto dk = static_cast<double>(k);
  const double units = static_cast<double>(cnt) *
                       (t.crt_digit_units_linear * dk +
                        t.crt_digit_units_quadratic * dk * dk);
  const double waves = units / kCrtUnitsPerWave;
  if (waves <= 1.0) return 1;
  if (waves >= static_cast<double>(cap)) return cap;
  return static_cast<std::size_t>(waves);
}

}  // namespace pr::modular
