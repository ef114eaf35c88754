#include "modular/ntt.hpp"

#include <algorithm>
#include <bit>
#include <unordered_map>

#include "instr/counters.hpp"
#include "modular/simd/simd.hpp"
#include "modular/tuning.hpp"
#include "support/error.hpp"

namespace pr::modular {

namespace {

/// Plans above this length are never built: 2^22 points covers degree
/// ~2M convolutions, far past anything the library's products need, and
/// bounds the registry's memory (each plan is ~3n words).
constexpr unsigned kMaxPlanLog2 = 22;

/// Shared butterfly passes for both directions (the twiddle table decides
/// which).  Input is in bit-reversed order; output is natural.  The first
/// two levels run as one fused radix-4 pass: their twiddles are 1 and
/// {1, i} (i = tw[3], the primitive 4th root), so fusing them removes a
/// full pass over the data and all multiplies except the one by i.  All
/// arithmetic goes through the runtime-dispatched kernel table
/// (modular/simd/): identical canonical values on every ISA.
void butterfly_passes(std::vector<Zp>& a, const std::vector<Zp>& tw,
                      const PrimeField& f) {
  const std::size_t n = a.size();
  const simd::Kernels& k = simd::active();
  const MontCtx ctx = f.ctx();
  std::size_t h = 1;
  if (n >= 4) {
    k.radix4_first(a.data(), n, tw[3], ctx);
    h = 4;
  }
  for (; h < n; h <<= 1) {
    k.ntt_level(a.data(), n, h, tw.data(), ctx);
  }
}

void bit_reverse_permute(std::vector<Zp>& a, const NttPlan& plan) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::uint32_t r = plan.bitrev[i];
    if (i < r) std::swap(a[i], a[r]);
  }
}

}  // namespace

NttTables& NttTables::for_prime(std::uint64_t p) {
  // Keyed by the prime VALUE: a table regeneration that changes which
  // prime occupies slot i (as the 2^20-congruent rebuild did) must never
  // be able to pair one prime's twiddles with another's field.
  static std::mutex mu;
  static std::unordered_map<std::uint64_t, std::unique_ptr<NttTables>> reg;
  std::lock_guard<std::mutex> lock(mu);
  auto& slot = reg[p];
  if (slot == nullptr) slot.reset(new NttTables(p));
  return *slot;
}

NttTables::NttTables(std::uint64_t p) : f_(PrimeField::trusted(p)) {
  check_arg(p > 2 && p < (1ull << 62),
            "NttTables: odd prime below 2^62 required");
  s_ = static_cast<unsigned>(std::countr_zero(p - 1));
  // The witness is a quadratic non-residue, so w^((p-1)/2^s) has order
  // exactly 2^s: its 2^(s-1)-th power is w^((p-1)/2) == -1 != 1.
  const std::uint64_t w = find_two_adic_witness(p);
  gen_ = f_.pow(f_.from_u64(w), (p - 1) >> s_);
}

std::size_t NttTables::max_size() const {
  return std::size_t{1} << std::min(s_, kMaxPlanLog2);
}

Zp NttTables::root_of_unity(unsigned k) const {
  check_arg(k <= s_, "NttTables::root_of_unity: 2-adic order exceeded");
  return f_.pow(gen_, std::uint64_t{1} << (s_ - k));
}

const NttPlan& NttTables::plan(std::size_t n) {
  check_arg(n >= 2 && std::has_single_bit(n) && n <= max_size(),
            "NttTables::plan: n must be a supported power of two");
  const auto k = static_cast<unsigned>(std::countr_zero(n));
  std::lock_guard<std::mutex> lock(mu_);
  if (plans_.size() <= k) plans_.resize(k + 1);
  if (plans_[k] == nullptr) {
    auto p = std::make_unique<NttPlan>();
    p->n = n;
    p->log2n = k;
    p->bitrev.resize(n);
    for (std::size_t i = 1; i < n; ++i) {
      p->bitrev[i] = (p->bitrev[i >> 1] >> 1) |
                     static_cast<std::uint32_t>((i & 1) << (k - 1));
    }
    // Per-level roots w_{2h} = w^(n/2h); the level's twiddles w_{2h}^j sit
    // at tw[h + j], so offset == level and the whole table is n slots.
    p->fwd.resize(n);
    p->inv.resize(n);
    const Zp w = root_of_unity(k);
    const Zp wi = f_.inv(w);
    for (std::size_t h = 1; h < n; h <<= 1) {
      const Zp wh = f_.pow(w, n / (2 * h));
      const Zp whi = f_.pow(wi, n / (2 * h));
      Zp cur = f_.one();
      Zp curi = f_.one();
      for (std::size_t j = 0; j < h; ++j) {
        p->fwd[h + j] = cur;
        p->inv[h + j] = curi;
        cur = f_.mul(cur, wh);
        curi = f_.mul(curi, whi);
      }
    }
    p->inv_n = f_.inv(f_.from_u64(n));
    plans_[k] = std::move(p);
  }
  return *plans_[k];
}

void ntt_forward(std::vector<Zp>& a, const NttPlan& plan,
                 const PrimeField& f) {
  check_arg(a.size() == plan.n, "ntt_forward: size mismatch with plan");
  bit_reverse_permute(a, plan);
  butterfly_passes(a, plan.fwd, f);
  instr::on_modular_ntt(1, plan.n);
}

void ntt_inverse(std::vector<Zp>& a, const NttPlan& plan,
                 const PrimeField& f) {
  check_arg(a.size() == plan.n, "ntt_inverse: size mismatch with plan");
  bit_reverse_permute(a, plan);
  butterfly_passes(a, plan.inv, f);
  simd::active().scale(a.data(), a.size(), plan.inv_n, f.ctx());
  instr::on_modular_ntt(1, plan.n);
}

double ntt_butterfly_units() {
  // Calibration override first (modular/tuning.hpp): a measured host
  // profile replaces the compiled per-ISA constant.  0 = no override.
  const double tuned = modular_tuning().ntt.butterfly_units;
  if (tuned > 0.0) return tuned;
  // Compiled defaults: the per-butterfly charge (one Montgomery multiply
  // + two adds, including its share of the pass bookkeeping) is
  // ISA-dependent -- the vector kernels retire several lane-parallel
  // butterflies per iteration, so a butterfly costs fewer schoolbook MAC
  // units.  Calibrated against bench_ntt per ISA so the model's crossover
  // matches the measured one.  The choice only moves the speed cutoff --
  // both sides of it compute identical coefficients -- and the active ISA
  // is fixed at startup, so every thread still takes the same path.
  switch (simd::active_isa()) {
    case simd::Isa::kAvx512:
    case simd::Isa::kAvx2:
      // Schoolbook MACs stay scalar while butterflies vectorize.  Small
      // transforms are dominated by the permutation + sub-lane levels,
      // so the effective per-butterfly charge shrinks less than the lane
      // count suggests; 3.0 puts the model's crossover at the measured
      // one (between length-24 and length-32 operands, bench_ntt).
      return 3.0;
    case simd::Isa::kScalar:
      break;
  }
  return 4.0;
}

double ntt_transform_cost(std::size_t n) {
  if (n <= 1) return 0.0;
  const double dn = static_cast<double>(n);
  const double lg = static_cast<double>(std::bit_width(n) - 1);
  // (n/2) log2 n butterflies plus one permutation pass.
  return 0.5 * dn * lg * ntt_butterfly_units() + dn;
}

std::size_t ntt_conv_size(std::size_t la, std::size_t lb) {
  return std::bit_ceil(la + lb - 1);
}

bool ntt_profitable(std::size_t la, std::size_t lb) {
  // Operands shorter than the floor never profit (and the profitability
  // test itself should cost nothing for the tiny products that dominate
  // low levels of the remainder recurrence).
  const std::size_t min_operand = modular_tuning().ntt.min_operand;
  if (la < min_operand || lb < min_operand) return false;
  const std::size_t n = ntt_conv_size(la, lb);
  const double school = 3.0 * static_cast<double>(la) *
                        static_cast<double>(lb);
  const double ntt =
      3.0 * ntt_transform_cost(n) + 3.0 * static_cast<double>(n);
  return ntt < school;
}

PolyZp ntt_mul(const PolyZp& a, const PolyZp& b, const PrimeField& f) {
  if (a.is_zero() || b.is_zero()) return PolyZp();
  const std::size_t la = a.coeffs().size();
  const std::size_t lb = b.coeffs().size();
  if (!ntt_profitable(la, lb)) return a.mul_schoolbook(b, f);
  NttTables& tables = NttTables::for_prime(f.prime());
  const std::size_t n = ntt_conv_size(la, lb);
  if (n > tables.max_size()) {
    // Forced test primes may carry tiny 2-adic order; correctness never
    // depends on the fast path being available.
    return a.mul_schoolbook(b, f);
  }
  const NttPlan& plan = tables.plan(n);
  std::vector<Zp> fa(n, Zp{0});
  std::copy(a.coeffs().begin(), a.coeffs().end(), fa.begin());
  ntt_forward(fa, plan, f);
  if (&a == &b) {
    simd::active().pointwise_sqr(fa.data(), n, f.ctx());
  } else {
    std::vector<Zp> fb(n, Zp{0});
    std::copy(b.coeffs().begin(), b.coeffs().end(), fb.begin());
    ntt_forward(fb, plan, f);
    simd::active().pointwise_mul(fa.data(), fb.data(), n, f.ctx());
  }
  ntt_inverse(fa, plan, f);
  fa.resize(la + lb - 1);
  // lc(a) lc(b) != 0 in a field, so no trim actually fires; the PolyZp
  // constructor still guards the invariant.
  return PolyZp(std::move(fa));
}

PolyZp ntt_sqr(const PolyZp& a, const PrimeField& f) {
  return ntt_mul(a, a, f);
}

}  // namespace pr::modular
