// Portable kernel table: the reference implementation of every SIMD
// kernel.  This is the table the differential suite compares every vector
// ISA against, the one the vector kernels hand their loop tails to, and
// the fallback `active()` resolves to on non-x86 hosts, under
// POLYROOTS_DISABLE_SIMD, or when cpuid denies the vector TUs.
#include <cstddef>
#include <cstdint>

#include "modular/simd/simd.hpp"

namespace pr::modular::simd {

namespace {

// PrimeField's private redc/mont_mul formulas (zp.hpp documents the
// derivation), restated over the plain-word MontCtx.

/// Montgomery reduction of a 128-bit value t (t < p * 2^64 for a
/// canonical result; larger t still matches PrimeField::redc exactly,
/// which is all the fold path needs).
std::uint64_t s_redc(unsigned __int128 t, const MontCtx& f) {
  const std::uint64_t m = static_cast<std::uint64_t>(t) * f.ninv;
  const std::uint64_t u = static_cast<std::uint64_t>(
      (t + static_cast<unsigned __int128>(m) * f.p) >> 64);
  return u >= f.p ? u - f.p : u;
}

std::uint64_t s_montmul(std::uint64_t a, std::uint64_t b, const MontCtx& f) {
  return s_redc(static_cast<unsigned __int128>(a) * b, f);
}

/// PrimeField::fold192_shr64 restated: canonical residue of
/// (carry * 2^128 + hi * 2^64 + lo) / 2^64  (mod p).
std::uint64_t s_fold192_shr64(std::uint64_t lo, std::uint64_t hi,
                              std::uint64_t carry, const MontCtx& f) {
  const unsigned __int128 u =
      (static_cast<unsigned __int128>(carry) << 64) + hi + s_redc(lo, f);
  return s_montmul(s_redc(u, f), f.r2, f);
}

void garner_stage_scalar(const std::uint64_t* digits, std::size_t stride,
                         std::size_t j, const Zp* w, Zp inv,
                         const std::uint64_t* residues_j, std::uint64_t* out,
                         std::size_t count, const MontCtx& f) {
  for (std::size_t c = 0; c < count; ++c) {
    Acc192 acc;
    for (std::size_t i = 0; i < j; ++i) {
      acc.add(digits[i * stride + c], w[i].v);
    }
    const std::uint64_t s = s_fold192_shr64(acc.lo, acc.hi, acc.carry, f);
    std::uint64_t t = residues_j[c] + f.p - s;
    if (t >= f.p) t -= f.p;
    out[c] = s_montmul(t, inv.v, f);
  }
}

void acc192_dot_scalar(const std::uint64_t* a, const Zp* b, std::size_t n,
                       Acc192& acc) {
  for (std::size_t i = 0; i < n; ++i) acc.add(a[i], b[i].v);
}

}  // namespace

const Kernels& scalar_kernels() {
  static const Kernels k = {Isa::kScalar, garner_stage_scalar,
                            acc192_dot_scalar};
  return k;
}

}  // namespace pr::modular::simd
