// Kernel table selection: compile-time availability (which per-ISA TUs
// the build produced, signalled by POLYROOTS_SIMD_AVX2/_AVX512 compile
// definitions on this TU) intersected with runtime cpuid, capped by the
// POLYROOTS_SIMD environment variable, overridable through the
// force_isa() test seam.
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "modular/simd/simd.hpp"

namespace pr::modular::simd {

#if defined(POLYROOTS_SIMD_AVX2)
const Kernels& avx2_kernels();  // defined in kernels_avx2.cpp
#endif
#if defined(POLYROOTS_SIMD_AVX512)
const Kernels& avx512_kernels();  // defined in kernels_avx512.cpp
#endif

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
    case Isa::kScalar:
      break;
  }
  return "scalar";
}

namespace {

#if defined(POLYROOTS_SIMD_AVX2) || defined(POLYROOTS_SIMD_AVX512)
// Only a build with a vector TU asks the CPU.
bool cpu_has(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case Isa::kAvx512:
      // The zmm TU is compiled with F/DQ/VL/BW (vpmullq is DQ), so the
      // compiler may use any of the four there.
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512dq") != 0 &&
             __builtin_cpu_supports("avx512vl") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0;
  }
  return false;
}
#endif

/// POLYROOTS_SIMD caps the startup pick (it cannot enable what cpuid
/// denies).  Unknown values are ignored.
Isa env_cap() {
  const char* v = std::getenv("POLYROOTS_SIMD");
  if (v == nullptr) return Isa::kAvx512;
  if (std::strcmp(v, "scalar") == 0) return Isa::kScalar;
  if (std::strcmp(v, "avx2") == 0) return Isa::kAvx2;
  return Isa::kAvx512;
}

const Kernels* resolve(Isa isa) {
  switch (isa) {
    case Isa::kAvx512:
#if defined(POLYROOTS_SIMD_AVX512)
      if (cpu_has(Isa::kAvx512)) return &avx512_kernels();
#endif
      break;
    case Isa::kAvx2:
#if defined(POLYROOTS_SIMD_AVX2)
      if (cpu_has(Isa::kAvx2)) return &avx2_kernels();
#endif
      break;
    case Isa::kScalar:
      break;
  }
  return isa == Isa::kScalar ? &scalar_kernels() : nullptr;
}

const Kernels* startup_pick() {
  const Isa cap = env_cap();
  if (cap >= Isa::kAvx512) {
    if (const Kernels* k = resolve(Isa::kAvx512)) return k;
  }
  if (cap >= Isa::kAvx2) {
    if (const Kernels* k = resolve(Isa::kAvx2)) return k;
  }
  return &scalar_kernels();
}

std::atomic<const Kernels*>& active_slot() {
  static std::atomic<const Kernels*> slot{startup_pick()};
  return slot;
}

}  // namespace

const Kernels* kernels_for(Isa isa) { return resolve(isa); }

const Kernels& active() {
  return *active_slot().load(std::memory_order_relaxed);
}

Isa active_isa() { return active().isa; }

std::vector<Isa> available_isas() {
  std::vector<Isa> out{Isa::kScalar};
  if (resolve(Isa::kAvx2) != nullptr) out.push_back(Isa::kAvx2);
  if (resolve(Isa::kAvx512) != nullptr) out.push_back(Isa::kAvx512);
  return out;
}

bool force_isa(Isa isa) {
  const Kernels* k = resolve(isa);
  if (k == nullptr) return false;
  active_slot().store(k, std::memory_order_relaxed);
  return true;
}

void reset_forced_isa() {
  active_slot().store(startup_pick(), std::memory_order_relaxed);
}

}  // namespace pr::modular::simd
