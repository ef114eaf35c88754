// Per-kernel SIMD microbenchmark: cycles (and ns) per element for the
// two kernels of the modular subsystem -- the LimbReducer Acc192 dot and
// the batched Garner digit stage -- on every kernel table this host can
// run (scalar, avx2, avx512).  bench_modular measures the stages end to
// end; this isolates the kernels so a regression can be attributed to
// one loop.
//
// Usage: simd_microbench [--n ELEMS] [--reps R]
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

#include "modular/simd/simd.hpp"
#include "modular/zp.hpp"
#include "support/prng.hpp"

namespace {

using pr::modular::Acc192;
using pr::modular::MontCtx;
using pr::modular::PrimeField;
using pr::modular::Zp;
namespace simd = pr::modular::simd;

using Clock = std::chrono::steady_clock;

std::uint64_t arg_u64(int argc, char** argv, const char* flag,
                      std::uint64_t def) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      return std::strtoull(argv[i + 1], nullptr, 10);
    }
  }
  return def;
}

/// Estimated TSC ticks per nanosecond (0 when no TSC is available); the
/// cycles column is approximate on hosts where the TSC is not the core
/// clock, the ns column is always honest.
double tsc_per_ns() {
#if defined(__x86_64__) || defined(_M_X64)
  const auto t0 = Clock::now();
  const std::uint64_t c0 = __rdtsc();
  // ~20ms busy spin: long enough to average out scheduling noise.
  while (std::chrono::duration<double>(Clock::now() - t0).count() < 0.02) {
  }
  const std::uint64_t c1 = __rdtsc();
  const double ns =
      std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  return static_cast<double>(c1 - c0) / ns;
#else
  return 0.0;
#endif
}

struct Cell {
  double ns_per_elem;
  double cycles_per_elem;  // 0 when no TSC
};

template <typename Body>
Cell run(std::size_t reps, std::size_t elems, double ticks_per_ns,
         const Body& body) {
  double best = 1e100;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    body();
    const auto t1 = Clock::now();
    best = std::min(best,
                    std::chrono::duration<double, std::nano>(t1 - t0).count());
  }
  const double per = best / static_cast<double>(elems);
  return {per, per * ticks_per_ns};
}

void print_cell(const char* kernel, const char* isa, const Cell& c) {
  std::cout << "  " << kernel << "  " << isa;
  for (std::size_t pad = std::strlen(isa); pad < 8; ++pad) std::cout << ' ';
  char buf[64];
  std::snprintf(buf, sizeof buf, "%8.2f ns/elem", c.ns_per_elem);
  std::cout << buf;
  if (c.cycles_per_elem > 0) {
    std::snprintf(buf, sizeof buf, "  %7.2f cycles/elem", c.cycles_per_elem);
    std::cout << buf;
  }
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n = arg_u64(argc, argv, "--n", 1u << 14);
  const std::size_t reps = arg_u64(argc, argv, "--reps", 25);
  const double ticks = tsc_per_ns();

  const PrimeField f = PrimeField::trusted(pr::modular::nth_modulus(0));
  const MontCtx ctx = f.ctx();
  pr::Prng rng(0x51d7);

  std::vector<Zp> w(n), b(n);
  for (auto& x : w) x = f.from_u64(rng.next());
  for (auto& x : b) x = f.from_u64(rng.next());
  std::vector<std::uint64_t> words(n);
  for (auto& x : words) x = rng.next();

  std::cout << "SIMD kernel microbenchmark: p = " << f.prime()
            << ", n = " << n << " elements, best of " << reps << " reps\n";
  if (ticks > 0) {
    std::cout << "TSC ~" << ticks << " ticks/ns (cycles are approximate "
              << "when the TSC is not the core clock)\n";
  }
  std::cout << "\n";

  for (const simd::Isa isa : simd::available_isas()) {
    const simd::Kernels* k = simd::kernels_for(isa);
    if (k == nullptr) continue;
    const char* name = simd::isa_name(isa);

    // The LimbReducer fold core: Acc192 dot of raw limbs against the
    // Montgomery power-of-2^64 ladder.
    {
      Acc192 acc;
      const Cell c = run(reps, n, ticks, [&] {
        k->acc192_dot(words.data(), b.data(), n, acc);
      });
      if (acc.lo == 0xdeadbeef) std::cout << "";  // keep acc live
      print_cell("acc192 dot  ", name, c);
    }

    // One Garner stage over n lanes with 3 prior digits (the j = 3 row of
    // a batched reconstruction).
    {
      const std::size_t j = 3;
      std::vector<std::uint64_t> digits(4 * n);
      for (auto& d : digits) d = rng.next() % f.prime();
      std::vector<std::uint64_t> residues(n);
      for (auto& r : residues) r = rng.next() % f.prime();
      const Zp inv = f.from_u64(rng.next());
      const Cell c = run(reps, n, ticks, [&] {
        k->garner_stage(digits.data(), n, j, w.data(), inv, residues.data(),
                        digits.data() + j * n, n, ctx);
      });
      print_cell("garner j=3  ", name, c);
    }
  }

  std::cout << "\nactive table at startup: "
            << simd::isa_name(simd::active_isa()) << "\n";
  return 0;
}
