// AVX2 kernel table: 4 x 64-bit lanes.  Compiled with -mavx2 by the
// build (only on x86-64 with POLYROOTS_DISABLE_SIMD off); selected at
// runtime only when cpuid reports AVX2.  Every loop runs the vector body
// over whole 4-lane groups and delegates the remainder to the scalar
// reference -- identical per-lane formulas, so the seam cannot change a
// value.
//
// AVX2 has no 64x64->128 lane multiply, so wide products are assembled
// from vpmuludq 32x32->64 partials -- the classic 4-partial decomposition.
// Every Montgomery routine below mirrors the scalar formulas exactly:
// same reduction, same single conditional subtract, so lane k of any
// vector result equals the scalar result on lane k's inputs bit for bit.
// Comparisons exploit the field invariants: residues are < p < 2^63 and
// every pre-subtract sum is < 2p < 2^63, so SIGNED vpcmpgtq is a valid
// unsigned comparison there.  The genuinely unsigned compares (carry
// detection on full 64-bit words) go through a sign-bias XOR.
#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "modular/simd/simd.hpp"

namespace pr::modular::simd {

namespace {

struct YmmField {
  __m256i p;
  __m256i ninv;

  explicit YmmField(const MontCtx& f)
      : p(_mm256_set1_epi64x(static_cast<long long>(f.p))),
        ninv(_mm256_set1_epi64x(static_cast<long long>(f.ninv))) {}
};

inline __m256i y_load(const Zp* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
inline __m256i y_load_u64(const std::uint64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
inline void y_store_u64(std::uint64_t* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

/// All-ones lanes where a < b as unsigned 64-bit (sign-bias trick; the
/// bias constant is hoisted out of every loop by the compiler).
inline __m256i y_ucmp_lt(__m256i a, __m256i b) {
  const __m256i sign =
      _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ull));
  return _mm256_cmpgt_epi64(_mm256_xor_si256(b, sign),
                            _mm256_xor_si256(a, sign));
}

/// Low 64 bits of a * b per lane.
inline __m256i y_mullo64(__m256i a, __m256i b) {
  const __m256i cross = _mm256_add_epi64(
      _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)),
      _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b));
  return _mm256_add_epi64(_mm256_mul_epu32(a, b),
                          _mm256_slli_epi64(cross, 32));
}

/// Full 128-bit product per lane: returns the low halves, writes the high
/// halves to *hi.
inline __m256i y_mul64_lohi(__m256i a, __m256i b, __m256i* hi) {
  const __m256i lomask = _mm256_set1_epi64x(0xffffffffll);
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i ll = _mm256_mul_epu32(a, b);
  const __m256i lh = _mm256_mul_epu32(a, b_hi);
  const __m256i hl = _mm256_mul_epu32(a_hi, b);
  const __m256i hh = _mm256_mul_epu32(a_hi, b_hi);
  // cross: (ll >> 32) + lo32(lh) + lo32(hl), at most 34 bits -- no carry
  // out of the 64-bit lane.
  const __m256i cross = _mm256_add_epi64(
      _mm256_srli_epi64(ll, 32),
      _mm256_add_epi64(_mm256_and_si256(lh, lomask),
                       _mm256_and_si256(hl, lomask)));
  *hi = _mm256_add_epi64(
      hh, _mm256_add_epi64(_mm256_srli_epi64(lh, 32),
                           _mm256_add_epi64(_mm256_srli_epi64(hl, 32),
                                            _mm256_srli_epi64(cross, 32))));
  return _mm256_or_si256(_mm256_slli_epi64(cross, 32),
                         _mm256_and_si256(ll, lomask));
}

/// High 64 bits only (skips assembling the low word).
inline __m256i y_mulhi64(__m256i a, __m256i b) {
  const __m256i lomask = _mm256_set1_epi64x(0xffffffffll);
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i ll = _mm256_mul_epu32(a, b);
  const __m256i lh = _mm256_mul_epu32(a, b_hi);
  const __m256i hl = _mm256_mul_epu32(a_hi, b);
  const __m256i hh = _mm256_mul_epu32(a_hi, b_hi);
  const __m256i cross = _mm256_add_epi64(
      _mm256_srli_epi64(ll, 32),
      _mm256_add_epi64(_mm256_and_si256(lh, lomask),
                       _mm256_and_si256(hl, lomask)));
  return _mm256_add_epi64(
      hh, _mm256_add_epi64(_mm256_srli_epi64(lh, 32),
                           _mm256_add_epi64(_mm256_srli_epi64(hl, 32),
                                            _mm256_srli_epi64(cross, 32))));
}

/// u - p where u >= p, else u (u < 2p < 2^63: signed compare is exact).
inline __m256i y_condsub(__m256i u, const YmmField& f) {
  const __m256i keep = _mm256_cmpgt_epi64(f.p, u);  // u < p
  return _mm256_sub_epi64(u, _mm256_andnot_si256(keep, f.p));
}

/// Montgomery product redc(a * b): canonical when a * b < p * 2^64 (one
/// canonical operand suffices), matching s_montmul lane for lane.
inline __m256i y_montmul(__m256i a, __m256i b, const YmmField& f) {
  __m256i hi;
  const __m256i lo = y_mul64_lohi(a, b, &hi);
  const __m256i m = y_mullo64(lo, f.ninv);
  const __m256i h2 = y_mulhi64(m, f.p);
  // (lo + low64(m * p)) is 0 mod 2^64 by construction, so its carry-out
  // is exactly (lo != 0).
  const __m256i lz = _mm256_cmpeq_epi64(lo, _mm256_setzero_si256());
  const __m256i carry = _mm256_andnot_si256(lz, _mm256_set1_epi64x(1));
  const __m256i u = _mm256_add_epi64(_mm256_add_epi64(hi, h2), carry);
  return y_condsub(u, f);
}

/// redc of a 64-bit value t (montmul with an implicit second operand 1).
inline __m256i y_redc64(__m256i t, const YmmField& f) {
  const __m256i m = y_mullo64(t, f.ninv);
  const __m256i h2 = y_mulhi64(m, f.p);
  const __m256i tz = _mm256_cmpeq_epi64(t, _mm256_setzero_si256());
  const __m256i carry = _mm256_andnot_si256(tz, _mm256_set1_epi64x(1));
  return y_condsub(_mm256_add_epi64(h2, carry), f);
}

void garner_stage_avx2(const std::uint64_t* digits, std::size_t stride,
                       std::size_t j, const Zp* w, Zp inv,
                       const std::uint64_t* residues_j, std::uint64_t* out,
                       std::size_t count, const MontCtx& f) {
  const YmmField yf(f);
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i r2 = _mm256_set1_epi64x(static_cast<long long>(f.r2));
  const __m256i invv = _mm256_set1_epi64x(static_cast<long long>(inv.v));
  std::size_t c = 0;
  for (; c + 4 <= count; c += 4) {
    // Lane-parallel Acc192: the exact per-lane carry chain of Acc192::add.
    __m256i acc_lo = _mm256_setzero_si256();
    __m256i acc_hi = _mm256_setzero_si256();
    __m256i acc_cr = _mm256_setzero_si256();
    for (std::size_t i = 0; i < j; ++i) {
      const __m256i wi =
          _mm256_set1_epi64x(static_cast<long long>(w[i].v));
      __m256i th;
      const __m256i tl = y_mul64_lohi(y_load_u64(digits + i * stride + c),
                                      wi, &th);
      acc_lo = _mm256_add_epi64(acc_lo, tl);
      // th += (lo < tl); masks are all-ones, so subtracting adds 1.
      th = _mm256_sub_epi64(th, y_ucmp_lt(acc_lo, tl));
      const __m256i nh = _mm256_add_epi64(acc_hi, th);
      acc_cr = _mm256_sub_epi64(acc_cr, y_ucmp_lt(nh, th));
      acc_hi = nh;
    }
    // fold192_shr64: u = (carry << 64) + hi + redc(lo); montmul(redc(u), r2).
    const __m256i r0 = y_redc64(acc_lo, yf);
    const __m256i ul = _mm256_add_epi64(acc_hi, r0);
    const __m256i uh =
        _mm256_sub_epi64(acc_cr, y_ucmp_lt(ul, r0));
    // redc of the 128-bit value uh:ul.
    const __m256i m = y_mullo64(ul, yf.ninv);
    const __m256i h2 = y_mulhi64(m, yf.p);
    const __m256i ulz = _mm256_cmpeq_epi64(ul, _mm256_setzero_si256());
    const __m256i cr = _mm256_andnot_si256(ulz, one);
    const __m256i u =
        _mm256_add_epi64(uh, _mm256_add_epi64(h2, cr));
    const __m256i s = y_montmul(y_condsub(u, yf), r2, yf);
    // t = residue + p - s, one conditional subtract, then * inv.
    const __m256i t = y_condsub(
        _mm256_sub_epi64(_mm256_add_epi64(y_load_u64(residues_j + c), yf.p),
                         s),
        yf);
    y_store_u64(out + c, y_montmul(t, invv, yf));
  }
  if (c < count) {
    scalar_kernels().garner_stage(digits + c, stride, j, w, inv,
                                  residues_j + c, out + c, count - c, f);
  }
}

void acc192_dot_avx2(const std::uint64_t* a, const Zp* b, std::size_t n,
                     Acc192& acc) {
  __m256i acc_lo = _mm256_setzero_si256();
  __m256i acc_hi = _mm256_setzero_si256();
  __m256i acc_cr = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i th;
    const __m256i tl =
        y_mul64_lohi(y_load_u64(a + i), y_load(b + i), &th);
    acc_lo = _mm256_add_epi64(acc_lo, tl);
    th = _mm256_sub_epi64(th, y_ucmp_lt(acc_lo, tl));
    const __m256i nh = _mm256_add_epi64(acc_hi, th);
    acc_cr = _mm256_sub_epi64(acc_cr, y_ucmp_lt(nh, th));
    acc_hi = nh;
  }
  // Combine the four 192-bit lane partials into the scalar accumulator;
  // exact integer addition, so the final triple is the canonical
  // little-endian split of the same total the sequential loop produces.
  alignas(32) std::uint64_t lo4[4], hi4[4], cr4[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lo4), acc_lo);
  _mm256_store_si256(reinterpret_cast<__m256i*>(hi4), acc_hi);
  _mm256_store_si256(reinterpret_cast<__m256i*>(cr4), acc_cr);
  for (int k = 0; k < 4; ++k) {
    const std::uint64_t nl = acc.lo + lo4[k];
    const std::uint64_t ch = (nl < lo4[k]) ? 1u : 0u;
    acc.lo = nl;
    // hi digits are full mod-2^64 words; add in 128-bit so a wrap of
    // hi + carry-in still reaches the top word.
    const unsigned __int128 th128 =
        static_cast<unsigned __int128>(acc.hi) + hi4[k] + ch;
    acc.hi = static_cast<std::uint64_t>(th128);
    acc.carry += cr4[k] + static_cast<std::uint64_t>(th128 >> 64);
  }
  for (; i < n; ++i) acc.add(a[i], b[i].v);
}

}  // namespace

const Kernels& avx2_kernels() {
  static const Kernels k = {Isa::kAvx2, garner_stage_avx2, acc192_dot_avx2};
  return k;
}

}  // namespace pr::modular::simd
