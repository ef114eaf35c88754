#include "modular/modular_prs.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <utility>

#include "instr/counters.hpp"
#include "instr/phase.hpp"
#include "support/error.hpp"

namespace pr::modular {

namespace {

/// Held-out candidates tried before the check is declared unable to run.
constexpr int kHoldoutCandidates = 3;

/// Every level t in [0, n].
std::vector<int> every_level(int n) {
  std::vector<int> levels(static_cast<std::size_t>(std::max(n + 1, 0)));
  std::iota(levels.begin(), levels.end(), 0);
  return levels;
}

}  // namespace

MultimodularPrs::MultimodularPrs(const Poly& f0, const ModularConfig& cfg)
    : MultimodularPrs(f0, cfg, every_level(f0.degree())) {}

MultimodularPrs::MultimodularPrs(const Poly& f0, const ModularConfig& cfg,
                                 const std::vector<int>& full_levels)
    : cfg_(cfg),
      f0_(f0),
      f1_(f0.derivative()),
      n_(f0.degree()),
      bound_(f0_, f1_) {
  check_arg(n_ >= 1, "MultimodularPrs: degree >= 1");
  for (std::uint64_t p : cfg_.forced_primes) {
    check_arg((p & 1) != 0 && p < (1ull << 62) && is_prime_u64(p),
              "ModularConfig::forced_primes: odd primes below 2^62 only");
  }
  const auto un = static_cast<std::size_t>(n_);
  full_.assign(un + 1, false);
  full_[0] = full_[1] = true;
  for (int t : full_levels) {
    check_arg(t >= 0 && t <= n_, "MultimodularPrs: full levels in [0, n]");
    full_[static_cast<std::size_t>(t)] = true;
  }
  // F_{i+1} has n - i coefficients; a level kept by its leading pair
  // stores at most two of them.
  row_start_.assign(un, 0);
  for (std::size_t i = 1; i < un; ++i) {
    const std::size_t coeffs = un - i;
    row_start_[i] = row_start_[i - 1] +
                    (full_[i + 1] ? coeffs : std::min<std::size_t>(coeffs, 2));
  }
  if (n_ < std::max(2, cfg_.min_degree)) return;

  lc_product_ = f0_.leading() * f1_.leading();
  const std::size_t target_bits = bound_.bits_for(n_) + 2;
  std::size_t have_bits = 0;
  while (have_bits < target_bits) {
    Slot s;
    s.prime = take_prime();
    have_bits += static_cast<std::size_t>(std::bit_width(s.prime)) - 1;
    slots_.push_back(std::move(s));
  }
  replacement_cap_ = 16 + static_cast<int>(slots_.size() / 4);
  // Drawn here, after the slots, so the held-out primes do not depend on
  // how concurrent image tasks happen to draw replacements.
  for (int c = 0; c < kHoldoutCandidates; ++c) {
    holdout_primes_.push_back(take_prime());
  }

  // Eager-image prefix (see num_slots()): enough primes for ~60% of the
  // Hadamard target plus a margin.  The chain bound decides how many
  // images are actually consumed; slots past the prefix are imaged inline
  // only if it climbs that far.
  const std::size_t eager_bits = (target_bits * 3) / 5 + 128;
  std::size_t acc = 0;
  while (eager_ < slots_.size() && acc < eager_bits) {
    acc += static_cast<std::size_t>(std::bit_width(slots_[eager_].prime)) - 1;
    ++eager_;
  }
  eager_ = std::max(eager_, std::min<std::size_t>(slots_.size(), 3));

  worthwhile_ = slots_.size() >= 3;
}

std::uint64_t MultimodularPrs::take_prime() {
  std::lock_guard<std::mutex> lock(prime_mutex_);
  for (;;) {
    std::uint64_t p;
    if (next_forced_ < cfg_.forced_primes.size()) {
      p = cfg_.forced_primes[next_forced_++];
    } else {
      p = nth_modulus(next_table_++);
      // The table must stay disjoint from the forced set.
      if (std::find(cfg_.forced_primes.begin(), cfg_.forced_primes.end(),
                    p) != cfg_.forced_primes.end()) {
        continue;
      }
    }
    // Selection-time bad-prime screen: the recurrence requires the images
    // of lc(F_0) and lc(F_1) to be nonzero.
    if (lc_product_.mod_u64(p) == 0) continue;
    return p;
  }
}

MultimodularPrs::ImageStatus MultimodularPrs::compute_image(
    Slot& slot) const {
  // take_prime() only hands out table primes or validated forced primes.
  const PrimeField f = PrimeField::trusted(slot.prime);
  const auto un = static_cast<std::size_t>(n_);
  slot.words.resize(row_start_.back());

  // Rolling F_{i-1} / F_i images in Montgomery form.
  LimbReducer red(f);
  std::vector<Zp> fprev(un + 1), fcur(un), fnext;
  for (std::size_t j = 0; j <= un; ++j) fprev[j] = red.reduce(f0_.coeff(j));
  for (std::size_t j = 0; j < un; ++j) fcur[j] = red.reduce(f1_.coeff(j));
  check_internal(fprev[un].v != 0 && fcur[un - 1].v != 0,
                 "modular image: selection let a bad prime through");

  for (int i = 1; i <= n_ - 1; ++i) {
    const auto d = static_cast<std::size_t>(n_ - i);  // deg F_i
    const Zp q1 = f.mul(fprev[d + 1], fcur[d]);
    const Zp q0 = f.sub(f.mul(fcur[d], fprev[d]),
                        f.mul(fcur[d - 1], fprev[d + 1]));
    const Zp ci_sq = f.mul(fcur[d], fcur[d]);
    // Appendix-A convention: c_0 = sign(lc F_0), so c_0^2 == 1 -- the i=1
    // step must NOT square the reduced lc(F_0).
    const Zp cprev_sq =
        i == 1 ? f.one() : f.mul(fprev[d + 1], fprev[d + 1]);
    const Zp inv_cp = f.inv(cprev_sq);

    fnext.assign(d, Zp{});
    for (std::size_t j = 0; j < d; ++j) {
      Zp t = f.mul(fcur[j], q0);
      if (j > 0) t = f.add(t, f.mul(fcur[j - 1], q1));
      t = f.sub(t, f.mul(ci_sq, fprev[j]));
      fnext[j] = f.mul(t, inv_cp);
    }

    if (fnext[d - 1].v == 0) {
      // Leading coefficient vanished mod p: either p is bad or the true
      // F_{i+1} itself degenerates.  An all-zero image row almost surely
      // means repeated roots (the extended sequence) -- a prime unlucky
      // enough to kill *every* coefficient has probability ~2^{-61 d}.
      const bool all_zero =
          std::all_of(fnext.begin(), fnext.end(),
                      [](Zp z) { return z.v == 0; });
      return all_zero ? ImageStatus::kZeroRemainder : ImageStatus::kBadPrime;
    }

    // The row keeps the top row_length coefficients: all of a full
    // level, the leading pair of any other.
    const auto ui = static_cast<std::size_t>(i);
    std::uint64_t* row = slot.words.data() + row_start_[ui - 1];
    const std::size_t skip = d - row_length(ui);
    for (std::size_t j = skip; j < d; ++j) row[j - skip] = f.to_u64(fnext[j]);

    fprev.swap(fcur);
    fcur.swap(fnext);
  }
  return ImageStatus::kOk;
}

void MultimodularPrs::latch_fallback() {
  if (!fallback_.exchange(true, std::memory_order_acq_rel)) {
    instr::on_modular_fallback();
  }
}

void MultimodularPrs::run_image(std::size_t slot) {
  check_arg(slot < slots_.size(), "MultimodularPrs::run_image: bad slot");
  Slot& s = slots_[slot];
  while (!fallback_.load(std::memory_order_acquire)) {
    switch (compute_image(s)) {
      case ImageStatus::kOk:
        s.ok = true;
        instr::on_modular_image();
        return;
      case ImageStatus::kZeroRemainder:
        latch_fallback();
        return;
      case ImageStatus::kBadPrime:
        instr::on_modular_bad_prime();
        if (replacements_.fetch_add(1, std::memory_order_relaxed) + 1 >
            replacement_cap_) {
          // A non-normal input makes every prime look bad; stop burning
          // primes and let the exact path diagnose it.
          latch_fallback();
          return;
        }
        s.prime = take_prime();
        break;
    }
  }
}

void MultimodularPrs::run_holdout() {
  for (std::uint64_t p : holdout_primes_) {
    if (fallback_.load(std::memory_order_acquire)) return;
    holdout_.prime = p;
    switch (compute_image(holdout_)) {
      case ImageStatus::kOk:
        holdout_.ok = true;
        return;
      case ImageStatus::kZeroRemainder:
        latch_fallback();
        return;
      case ImageStatus::kBadPrime:
        break;
    }
  }
  // Every candidate was bad: a check that cannot run must not pass.
  latch_fallback();
}

std::shared_ptr<const CrtBasis> MultimodularPrs::basis_over(
    std::size_t count) const {
  std::vector<std::uint64_t> primes;
  primes.reserve(count);
  for (std::size_t s = 0; s < count; ++s) primes.push_back(slots_[s].prime);
  return std::make_shared<const CrtBasis>(std::move(primes));
}

void MultimodularPrs::prepare_crt() {
  if (fallback_.load(std::memory_order_acquire)) return;
  for (std::size_t s = 0; s < eager_; ++s) {
    check_internal(slots_[s].ok,
                   "prepare_crt: not all eager images completed");
  }
  check_internal(holdout_.ok, "prepare_crt: the held-out image did not run");
  basis_ = basis_over(eager_);
  images_done_ = eager_;
  const auto un = static_cast<std::size_t>(n_);
  fs_.assign(un + 1, Poly{});
  qs_.assign(un, Poly{});
  fs_[0] = f0_;
  fs_[1] = f1_;
  leads_.assign(un + 1, LeadingPair{});
  leads_[0] = {f0_.leading(), f0_.coeff(un - 1)};
  leads_[1] = {f1_.leading(), f1_.coeff(un - 2)};
  bits_.assign(un + 1, 0);
  bits_[0] = f0_.max_coeff_bits();
  bits_[1] = f1_.max_coeff_bits();
  levels_.assign(un, Level{});
  instr::on_modular_primes(slots_.size());
}

std::size_t MultimodularPrs::primes_for(std::size_t bits) {
  for (;;) {
    if (!basis_->covers_bits(bits)) {
      // The bound climbed past the imaged prefix: span every selected
      // slot, imaged or not, so later levels need no further growth.
      check_internal(basis_->size() < slots_.size(),
                     "MultimodularPrs: Hadamard slot set too small");
      basis_ = basis_over(slots_.size());
    }
    const std::size_t k = basis_->primes_for_bits(bits);
    if (k <= images_done_) return k;
    bool replaced = false;
    while (images_done_ < k) {
      const std::uint64_t before = slots_[images_done_].prime;
      run_image(images_done_);
      if (fallback_.load(std::memory_order_acquire)) return 0;
      replaced = replaced || slots_[images_done_].prime != before;
      ++images_done_;
    }
    // A replaced prime invalidates the basis spanning it; levels sized
    // earlier keep theirs, whose primes all precede the replacement.
    if (replaced) basis_ = basis_over(slots_.size());
  }
}

void MultimodularPrs::size_level(int i) {
  if (fallback_.load(std::memory_order_acquire) || basis_ == nullptr) return;
  instr::PhaseScope phase(instr::Phase::kRemainder);
  const auto ui = static_cast<std::size_t>(i);
  const LeadingPair& prev = leads_[ui - 1];
  const LeadingPair& cur = leads_[ui];

  // Chain bound on the coefficients of F_{i+1}: each is a three-term sum
  // (q0 F_i[j] + q1 F_i[j-1] - c_i^2 F_{i-1}[j]) divided exactly by
  // c_{i-1}^2, so its magnitude is below
  //   2^{max(b(Q_i) + B_i + 1, 2 b(c_i) + B_{i-1}) + 1} / 2^{2 b(c_{i-1}) - 2}.
  // b(Q_i) comes from the leading pairs (Eqs. 15-17): q1 = lc(F_{i-1}) c_i
  // and q0 = c_i f_{i-1,d} - f_{i,d-1} lc(F_{i-1}).  At i == 1 that is
  // lc(F_0) itself, while the divisor is c_0^2 == 1.
  const std::size_t b_lp = prev.lc.bit_length();
  const std::size_t b_ci = cur.lc.bit_length();
  const std::size_t b_q1 = b_lp + b_ci;
  const std::size_t b_q0 =
      std::max(b_ci + prev.next.bit_length(), cur.next.bit_length() + b_lp) +
      1;
  const std::size_t b_cp = i == 1 ? 1 : b_lp;
  const std::size_t num =
      std::max(std::max(b_q1, b_q0) + bits_[ui] + 1,
               2 * b_ci + bits_[ui - 1]) +
      3;
  const std::size_t bound =
      std::min(num > 2 * b_cp ? num - 2 * b_cp : 1, bound_.bits_for(i + 1));
  bits_[ui + 1] = bound;
  const std::size_t k = primes_for(bound);
  if (k == 0) return;  // latched the fallback
  levels_[ui] = {basis_, k};

  // The leading pair of F_{i+1}, prime-major (one row per prime), from
  // the end of each row.
  const std::size_t d = static_cast<std::size_t>(n_) - ui - 1;  // its degree
  const std::size_t cnt = d > 0 ? 2 : 1;
  const std::size_t last = row_length(ui) - 1;
  std::vector<std::uint64_t> residues(k * cnt);
  for (std::size_t s = 0; s < k; ++s) {
    const std::uint64_t* r = row(slots_[s], ui);
    for (std::size_t c = 0; c < cnt; ++c) residues[s * cnt + c] = r[last - c];
  }
  BigInt out[2];
  basis_->reconstruct_batch(residues.data(), cnt, k, out, cnt);
  if (out[0].is_zero()) {
    // The reconstruction contradicts normality; the exact path will
    // either produce the extended sequence or throw NonNormalSequence.
    latch_fallback();
    return;
  }
  leads_[ui + 1] = {std::move(out[0]), std::move(out[1])};
}

void MultimodularPrs::reconstruct_level(int i) {
  const auto ui = static_cast<std::size_t>(i);
  if (fallback_.load(std::memory_order_acquire) || ui >= levels_.size() ||
      levels_[ui].basis == nullptr) {
    return;
  }
  instr::PhaseScope phase(instr::Phase::kRemainder);
  const Level& level = levels_[ui];
  const std::size_t k = level.primes;
  const std::size_t d = static_cast<std::size_t>(n_) - ui - 1;  // deg F_{i+1}
  const LeadingPair& lead = leads_[ui + 1];

  // What F_{i+1} keeps, lowest coefficient first: all of a full level, the
  // leading pair of any other.  The chain already reconstructed the pair;
  // the rest of a full level goes through one batched Garner pass.
  const std::size_t len = row_length(ui);
  std::vector<BigInt> kept(len);
  const std::size_t rest = full_[ui + 1] && d > 0 ? d - 1 : 0;
  if (rest > 0) {
    std::vector<std::uint64_t> residues(k * rest);
    for (std::size_t s = 0; s < k; ++s) {
      const std::uint64_t* r = row(slots_[s], ui);
      std::copy(r, r + rest,
                residues.begin() + static_cast<std::ptrdiff_t>(s * rest));
    }
    level.basis->reconstruct_batch(residues.data(), rest, k, kept.data(),
                                   rest);
  }
  if (d > 0) kept[len - 2] = lead.next;
  kept[len - 1] = lead.lc;

  // Certify the level against the held-out prime: its image of what
  // F_{i+1} keeps must equal the reduction of the reconstructed values.
  const std::uint64_t* h = row(holdout_, ui);
  for (std::size_t j = 0; j < len; ++j) {
    if (kept[j].mod_u64(holdout_.prime) != h[j]) {
      latch_fallback();
      return;
    }
  }

  // Exact Q_i (Eqs. 15-17) from the leading pairs of F_{i-1} and F_i: the
  // products of quotient_coeffs, in the same order.
  const LeadingPair& prev = leads_[ui - 1];
  const LeadingPair& cur = leads_[ui];
  BigInt q1 = prev.lc * cur.lc;
  BigInt q0 = cur.lc * prev.next - cur.next * prev.lc;
  qs_[ui] = Poly(std::vector<BigInt>{std::move(q0), std::move(q1)});
  if (full_[ui + 1]) fs_[ui + 1] = Poly(std::move(kept));
}

std::size_t MultimodularPrs::bound_bits(int t) const {
  check_arg(t >= 0 && static_cast<std::size_t>(t) < bits_.size(),
            "MultimodularPrs::bound_bits: t in [0, n] after prepare_crt");
  return bits_[static_cast<std::size_t>(t)];
}

std::optional<RemainderSequence> MultimodularPrs::finalize() {
  if (fallback_.load(std::memory_order_acquire)) return std::nullopt;
  check_internal(basis_ != nullptr, "finalize: prepare_crt did not run");
  const auto un = static_cast<std::size_t>(n_);
  for (std::size_t t = 2; t <= un; ++t) {
    check_internal(!qs_[t - 1].is_zero() && (!full_[t] || !fs_[t].is_zero()),
                   "finalize: a level did not run");
  }
  instr::PhaseScope phase(instr::Phase::kRemainder);

  RemainderSequence rs;
  rs.n = n_;
  rs.nstar = n_;
  rs.gcd_part = Poly{1};
  rs.c.assign(un + 1, BigInt(1));
  rs.F = std::move(fs_);
  rs.Q = std::move(qs_);
  rs.c[0] = BigInt(f0_.leading().signum());
  for (std::size_t t = 1; t <= un; ++t) rs.c[t] = leads_[t].lc;
  return rs;
}

std::optional<RemainderSequence> compute_remainder_sequence_multimodular(
    const Poly& f0, const ModularConfig& cfg) {
  return compute_remainder_sequence_multimodular(f0, cfg,
                                                 every_level(f0.degree()));
}

std::optional<RemainderSequence> compute_remainder_sequence_multimodular(
    const Poly& f0, const ModularConfig& cfg,
    const std::vector<int>& full_levels) {
  MultimodularPrs prs(f0, cfg, full_levels);
  if (!prs.worthwhile()) return std::nullopt;
  for (std::size_t s = 0; s < prs.num_slots(); ++s) prs.run_image(s);
  prs.run_holdout();
  prs.prepare_crt();
  for (std::size_t l = 1; l <= prs.num_levels(); ++l) {
    const int i = static_cast<int>(l);
    prs.size_level(i);
    prs.reconstruct_level(i);
  }
  return prs.finalize();
}

}  // namespace pr::modular
