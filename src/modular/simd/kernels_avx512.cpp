// AVX-512 kernel table: 8 x 64-bit lanes (F/DQ/VL/BW).  Same structure as
// the AVX2 table with three upgrades: native 64-bit low products
// (vpmullq), mask-register conditional arithmetic instead of blend
// masks, and unsigned compares without the sign-bias trick.  Loop tails
// go to the scalar reference.
#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "modular/simd/simd.hpp"

namespace pr::modular::simd {

namespace {

struct ZmmField {
  __m512i p;
  __m512i ninv;

  explicit ZmmField(const MontCtx& f)
      : p(_mm512_set1_epi64(static_cast<long long>(f.p))),
        ninv(_mm512_set1_epi64(static_cast<long long>(f.ninv))) {}
};

inline __m512i z_load(const Zp* p) {
  return _mm512_loadu_si512(reinterpret_cast<const void*>(p));
}
inline __m512i z_load_u64(const std::uint64_t* p) {
  return _mm512_loadu_si512(reinterpret_cast<const void*>(p));
}
inline void z_store_u64(std::uint64_t* p, __m512i v) {
  _mm512_storeu_si512(reinterpret_cast<void*>(p), v);
}

/// High 64 bits of a * b per lane (vpmuludq decomposition; the low word
/// comes from vpmullq when needed).
inline __m512i z_mulhi64(__m512i a, __m512i b) {
  const __m512i lomask = _mm512_set1_epi64(0xffffffffll);
  const __m512i a_hi = _mm512_srli_epi64(a, 32);
  const __m512i b_hi = _mm512_srli_epi64(b, 32);
  const __m512i ll = _mm512_mul_epu32(a, b);
  const __m512i lh = _mm512_mul_epu32(a, b_hi);
  const __m512i hl = _mm512_mul_epu32(a_hi, b);
  const __m512i hh = _mm512_mul_epu32(a_hi, b_hi);
  const __m512i cross = _mm512_add_epi64(
      _mm512_srli_epi64(ll, 32),
      _mm512_add_epi64(_mm512_and_si512(lh, lomask),
                       _mm512_and_si512(hl, lomask)));
  return _mm512_add_epi64(
      hh, _mm512_add_epi64(_mm512_srli_epi64(lh, 32),
                           _mm512_add_epi64(_mm512_srli_epi64(hl, 32),
                                            _mm512_srli_epi64(cross, 32))));
}

/// u - p where u >= p, else u.
inline __m512i z_condsub(__m512i u, const ZmmField& f) {
  const __mmask8 ge = _mm512_cmpge_epu64_mask(u, f.p);
  return _mm512_mask_sub_epi64(u, ge, u, f.p);
}

/// Montgomery product redc(a * b), matching s_montmul lane for lane.
inline __m512i z_montmul(__m512i a, __m512i b, const ZmmField& f) {
  const __m512i lo = _mm512_mullo_epi64(a, b);
  const __m512i hi = z_mulhi64(a, b);
  const __m512i m = _mm512_mullo_epi64(lo, f.ninv);
  const __m512i h2 = z_mulhi64(m, f.p);
  const __mmask8 nz = _mm512_test_epi64_mask(lo, lo);
  const __m512i s = _mm512_add_epi64(hi, h2);
  const __m512i u =
      _mm512_mask_add_epi64(s, nz, s, _mm512_set1_epi64(1));
  return z_condsub(u, f);
}

/// redc of a 64-bit value t.
inline __m512i z_redc64(__m512i t, const ZmmField& f) {
  const __m512i m = _mm512_mullo_epi64(t, f.ninv);
  const __m512i h2 = z_mulhi64(m, f.p);
  const __mmask8 nz = _mm512_test_epi64_mask(t, t);
  const __m512i u =
      _mm512_mask_add_epi64(h2, nz, h2, _mm512_set1_epi64(1));
  return z_condsub(u, f);
}

void garner_stage_avx512(const std::uint64_t* digits, std::size_t stride,
                         std::size_t j, const Zp* w, Zp inv,
                         const std::uint64_t* residues_j, std::uint64_t* out,
                         std::size_t count, const MontCtx& f) {
  const ZmmField zf(f);
  const __m512i one = _mm512_set1_epi64(1);
  const __m512i r2 = _mm512_set1_epi64(static_cast<long long>(f.r2));
  const __m512i invv = _mm512_set1_epi64(static_cast<long long>(inv.v));
  std::size_t c = 0;
  for (; c + 8 <= count; c += 8) {
    __m512i acc_lo = _mm512_setzero_si512();
    __m512i acc_hi = _mm512_setzero_si512();
    __m512i acc_cr = _mm512_setzero_si512();
    for (std::size_t i = 0; i < j; ++i) {
      const __m512i wi = _mm512_set1_epi64(static_cast<long long>(w[i].v));
      const __m512i d = z_load_u64(digits + i * stride + c);
      const __m512i tl = _mm512_mullo_epi64(d, wi);
      __m512i th = z_mulhi64(d, wi);
      acc_lo = _mm512_add_epi64(acc_lo, tl);
      const __mmask8 c1 = _mm512_cmplt_epu64_mask(acc_lo, tl);
      th = _mm512_mask_add_epi64(th, c1, th, one);
      const __m512i nh = _mm512_add_epi64(acc_hi, th);
      const __mmask8 c2 = _mm512_cmplt_epu64_mask(nh, th);
      acc_cr = _mm512_mask_add_epi64(acc_cr, c2, acc_cr, one);
      acc_hi = nh;
    }
    const __m512i r0 = z_redc64(acc_lo, zf);
    const __m512i ul = _mm512_add_epi64(acc_hi, r0);
    const __mmask8 cu = _mm512_cmplt_epu64_mask(ul, r0);
    const __m512i uh = _mm512_mask_add_epi64(acc_cr, cu, acc_cr, one);
    const __m512i m = _mm512_mullo_epi64(ul, zf.ninv);
    const __m512i h2 = z_mulhi64(m, zf.p);
    const __mmask8 nz = _mm512_test_epi64_mask(ul, ul);
    const __m512i s0 = _mm512_add_epi64(uh, h2);
    const __m512i u = _mm512_mask_add_epi64(s0, nz, s0, one);
    const __m512i s = z_montmul(z_condsub(u, zf), r2, zf);
    const __m512i t = z_condsub(
        _mm512_sub_epi64(
            _mm512_add_epi64(z_load_u64(residues_j + c), zf.p), s),
        zf);
    z_store_u64(out + c, z_montmul(t, invv, zf));
  }
  if (c < count) {
    scalar_kernels().garner_stage(digits + c, stride, j, w, inv,
                                  residues_j + c, out + c, count - c, f);
  }
}

void acc192_dot_avx512(const std::uint64_t* a, const Zp* b, std::size_t n,
                       Acc192& acc) {
  const __m512i one = _mm512_set1_epi64(1);
  __m512i acc_lo = _mm512_setzero_si512();
  __m512i acc_hi = _mm512_setzero_si512();
  __m512i acc_cr = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i x = z_load_u64(a + i);
    const __m512i y = z_load(b + i);
    const __m512i tl = _mm512_mullo_epi64(x, y);
    __m512i th = z_mulhi64(x, y);
    acc_lo = _mm512_add_epi64(acc_lo, tl);
    const __mmask8 c1 = _mm512_cmplt_epu64_mask(acc_lo, tl);
    th = _mm512_mask_add_epi64(th, c1, th, one);
    const __m512i nh = _mm512_add_epi64(acc_hi, th);
    const __mmask8 c2 = _mm512_cmplt_epu64_mask(nh, th);
    acc_cr = _mm512_mask_add_epi64(acc_cr, c2, acc_cr, one);
    acc_hi = nh;
  }
  alignas(64) std::uint64_t lo8[8], hi8[8], cr8[8];
  _mm512_store_si512(reinterpret_cast<void*>(lo8), acc_lo);
  _mm512_store_si512(reinterpret_cast<void*>(hi8), acc_hi);
  _mm512_store_si512(reinterpret_cast<void*>(cr8), acc_cr);
  for (int k = 0; k < 8; ++k) {
    const std::uint64_t nl = acc.lo + lo8[k];
    const std::uint64_t ch = (nl < lo8[k]) ? 1u : 0u;
    acc.lo = nl;
    const unsigned __int128 th128 =
        static_cast<unsigned __int128>(acc.hi) + hi8[k] + ch;
    acc.hi = static_cast<std::uint64_t>(th128);
    acc.carry += cr8[k] + static_cast<std::uint64_t>(th128 >> 64);
  }
  for (; i < n; ++i) acc.add(a[i], b[i].v);
}

}  // namespace

const Kernels& avx512_kernels() {
  static const Kernels k = {Isa::kAvx512, garner_stage_avx512,
                            acc192_dot_avx512};
  return k;
}

}  // namespace pr::modular::simd
