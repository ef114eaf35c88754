#include "modular/modular_prs.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "instr/counters.hpp"
#include "instr/phase.hpp"
#include "modular/tuning.hpp"
#include "sched/task_graph.hpp"
#include "sched/task_pool.hpp"
#include "support/error.hpp"

namespace pr::modular {

MultimodularPrs::MultimodularPrs(const Poly& f0, const ModularConfig& cfg)
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

  // Eager-image prefix (see num_slots()): enough primes for ~60% of the
  // Hadamard target plus a margin.  The induction bound of run_crt decides
  // how many images are actually consumed; slots past the prefix are imaged
  // inline only if it climbs that far.
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
  slot.rows.assign(un - 1, {});

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

    auto& row = slot.rows[static_cast<std::size_t>(i - 1)];
    row.resize(d);
    for (std::size_t j = 0; j < d; ++j) row[j] = f.to_u64(fnext[j]);

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

std::size_t MultimodularPrs::image_batch(int threads) const {
  if (!cfg_.batch_images || eager_ == 0) return 1;
  // Per-image cost in word-multiply units (one 64x64 MAC each): the
  // recurrence touches ~sum_d 12 d ~ 6 n^2 units of field MACs, one field
  // inverse per level (~150 units each), and the input reduction pays ~2
  // units per limb of every coefficient.  Batch until a task clears the
  // tuning's min_task_units (task dispatch is ~2500 units; the floor is
  // calibration-overridable, modular/tuning.hpp), but keep at least ~2
  // tasks per worker so batching never serializes a wide pool.
  const double min_task_units = modular_tuning().batch.min_task_units;
  const double dn = static_cast<double>(n_);
  const double in_limbs = static_cast<double>(f0_.max_coeff_bits() / 64 + 1);
  const double cost =
      6.0 * dn * dn + 150.0 * dn + 2.0 * (2.0 * dn + 2.0) * in_limbs;
  auto batch = static_cast<std::size_t>(min_task_units / cost) + 1;
  const auto workers = static_cast<std::size_t>(std::max(1, threads));
  const std::size_t cap = std::max<std::size_t>(1, eager_ / (2 * workers));
  return std::min(std::max<std::size_t>(1, batch), cap);
}

std::size_t MultimodularPrs::num_image_tasks(int threads) const {
  const std::size_t b = image_batch(threads);
  return (eager_ + b - 1) / b;
}

void MultimodularPrs::run_image_batch(std::size_t task, int threads) {
  const std::size_t b = image_batch(threads);
  const std::size_t first = task * b;
  const std::size_t last = std::min(first + b, eager_);
  for (std::size_t s = first; s < last; ++s) run_image(s);
}

void MultimodularPrs::prepare_crt(std::size_t wave_width) {
  wave_width_ = std::max<std::size_t>(1, wave_width);
  if (fallback_.load(std::memory_order_acquire)) return;
  std::vector<std::uint64_t> primes;
  primes.reserve(slots_.size());
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    check_internal(s >= eager_ || slots_[s].ok,
                   "prepare_crt: not all eager images completed");
    primes.push_back(slots_[s].prime);
  }
  // The basis spans every selected prime, imaged or not, so an escalation
  // never has to grow it (only a bad-prime replacement rebuilds it).
  basis_ = std::make_unique<CrtBasis>(std::move(primes));
  images_done_ = eager_;
  const auto un = static_cast<std::size_t>(n_);
  fs_.assign(un + 1, Poly{});
  qs_.assign(un, Poly{});
  fs_[0] = f0_;
  fs_[1] = f1_;
  cprev_sq_ = BigInt(1);  // c_0^2 == 1 by the Appendix-A sign convention
  instr::on_modular_primes(slots_.size());
}

bool MultimodularPrs::ensure_images(std::size_t k) {
  bool replaced = false;
  while (images_done_ < k) {
    const std::uint64_t before = slots_[images_done_].prime;
    run_image(images_done_);
    if (fallback_.load(std::memory_order_acquire)) return false;
    replaced = replaced || slots_[images_done_].prime != before;
    ++images_done_;
  }
  if (replaced) {
    std::vector<std::uint64_t> primes;
    primes.reserve(slots_.size());
    for (const Slot& s : slots_) primes.push_back(s.prime);
    basis_ = std::make_unique<CrtBasis>(std::move(primes));
  }
  return true;
}

void MultimodularPrs::prepare_level(int i) {
  if (fallback_.load(std::memory_order_acquire) || basis_ == nullptr) return;
  instr::PhaseScope phase(instr::Phase::kRemainder);
  const auto ui = static_cast<std::size_t>(i);
  const Poly& fprev = fs_[ui - 1];
  const Poly& fcur = fs_[ui];
  quotient_coeffs(fprev, fcur, lvl_q1_, lvl_q0_);
  const BigInt& ci = fcur.leading();
  lvl_ci_sq_ = ci * ci;

  // Induction bound on the coefficients of F_{i+1}: each is a three-term
  // sum (q0 F_i[j] + q1 F_i[j-1] - c_i^2 F_{i-1}[j]) divided exactly by
  // c_{i-1}^2, so its magnitude is below
  //   2^{max-term-bits + 2} / 2^{bits(c_{i-1}^2) - 1},
  // with one extra slack bit folded in.  The Hadamard bound caps it, so
  // the slot set (sized for Hadamard at level n) always suffices.
  const std::size_t bfi = fcur.max_coeff_bits();
  const std::size_t bfp = fprev.max_coeff_bits();
  const std::size_t num_bits =
      std::max({lvl_q0_.bit_length() + bfi, lvl_q1_.bit_length() + bfi,
                lvl_ci_sq_.bit_length() + bfp}) +
      3;
  const std::size_t bcp = cprev_sq_.bit_length();
  std::size_t bound = num_bits > bcp ? num_bits - bcp + 1 : 1;
  bound = std::min(bound, bound_.bits_for(i + 1));
  lvl_k_ = basis_->primes_for_bits(bound);
  if (!ensure_images(lvl_k_)) return;  // latched the fallback

  const std::size_t cnt = static_cast<std::size_t>(n_) - ui;
  level_coeffs_.assign(cnt, BigInt());
  // Fan the level out only when its Garner volume clears the threshold;
  // above it, the wave model (digit cost quadratic in the level's prime
  // count, modular/tuning.hpp) sizes the fan-out to the level's measured
  // work instead of always using the full width -- shallow levels with
  // few primes stop paying full-fanout dispatch.  The wave partition is
  // j mod level_waves_, so every wave touches a similar mix of
  // coefficient positions.
  level_waves_ =
      cnt * lvl_k_ >= cfg_.crt_wave_min_work
          ? crt_level_waves(modular_tuning().crt, cnt, lvl_k_,
                            std::min(wave_width_, cnt))
          : 1;
}

void MultimodularPrs::run_crt_wave(int i, std::size_t w) {
  if (w >= level_waves_ || fallback_.load(std::memory_order_acquire) ||
      basis_ == nullptr) {
    return;
  }
  instr::PhaseScope phase(instr::Phase::kRemainder);
  const auto ui = static_cast<std::size_t>(i);
  // Wave-local scratch: waves of one level run concurrently.  The wave's
  // coefficients are gathered into one prime-major matrix (row per prime,
  // column per coefficient) so the whole wave reconstructs through the
  // batched lane-parallel Garner path in one call.
  const std::size_t total = level_coeffs_.size();
  if (w >= total) return;
  const std::size_t count = (total - w + level_waves_ - 1) / level_waves_;
  std::vector<std::uint64_t> residues(lvl_k_ * count);
  std::size_t c = 0;
  for (std::size_t j = w; j < total; j += level_waves_, ++c) {
    for (std::size_t s = 0; s < lvl_k_; ++s) {
      residues[s * count + c] = slots_[s].rows[ui - 1][j];
    }
  }
  std::vector<BigInt> out(count);
  basis_->reconstruct_batch(residues.data(), count, lvl_k_, out.data(), count);
  c = 0;
  for (std::size_t j = w; j < total; j += level_waves_, ++c) {
    level_coeffs_[j] = std::move(out[c]);
  }
}

void MultimodularPrs::finish_level(int i) {
  if (fallback_.load(std::memory_order_acquire) || basis_ == nullptr) return;
  instr::PhaseScope phase(instr::Phase::kRemainder);
  const auto ui = static_cast<std::size_t>(i);
  Poly fnext(std::move(level_coeffs_));
  level_coeffs_.clear();
  if (fnext.degree() != n_ - i - 1) {
    // The reconstruction contradicts normality; the exact path will
    // either produce the extended sequence or throw NonNormalSequence.
    latch_fallback();
    return;
  }
  qs_[ui] = Poly(std::vector<BigInt>{std::move(lvl_q0_), std::move(lvl_q1_)});
  fs_[ui + 1] = std::move(fnext);
  cprev_sq_ = std::move(lvl_ci_sq_);
}

void MultimodularPrs::run_crt(std::size_t chunk) {
  if (chunk != 0 || fallback_.load(std::memory_order_acquire) ||
      basis_ == nullptr) {
    return;
  }
  for (int i = 1; i <= n_ - 1; ++i) {
    prepare_level(i);
    for (std::size_t w = 0; w < level_waves_; ++w) run_crt_wave(i, w);
    finish_level(i);
    if (fallback_.load(std::memory_order_acquire)) return;
  }
}

std::optional<RemainderSequence> MultimodularPrs::finalize() {
  if (fallback_.load(std::memory_order_acquire)) return std::nullopt;
  check_internal(basis_ != nullptr, "finalize: prepare_crt did not run");
  const auto un = static_cast<std::size_t>(n_);
  check_internal(fs_.size() == un + 1, "finalize: run_crt(0) did not run");
  instr::PhaseScope phase(instr::Phase::kRemainder);

  RemainderSequence rs;
  rs.n = n_;
  rs.nstar = n_;
  rs.gcd_part = Poly{1};
  rs.Q.assign(un, Poly{});
  rs.c.assign(un + 1, BigInt(1));
  rs.F = std::move(fs_);
  rs.c[0] = BigInt(f0_.leading().signum());
  rs.c[1] = f1_.leading();
  for (int i = 2; i <= n_; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    rs.c[ui] = rs.F[ui].leading();
  }
  // The quotients fell out of the level-sequential pass exactly (they feed
  // the induction bound) -- together with the exact c_i this pins the
  // result to compute_remainder_sequence() bit for bit.
  for (int i = 1; i <= n_ - 1; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    rs.Q[ui] = std::move(qs_[ui]);
  }

  if (cfg_.paranoid_check) {
    // Certify the reconstruction against one held-out prime: recompute
    // the image sequence at a fresh modulus and compare it with the
    // reduction of the reconstructed coefficients (~1/k of total cost).
    Slot holdout;
    ImageStatus st = ImageStatus::kBadPrime;
    for (int attempt = 0; attempt < 3 && st != ImageStatus::kOk; ++attempt) {
      holdout.prime = take_prime();
      st = compute_image(holdout);
    }
    if (st == ImageStatus::kOk) {
      for (int i = 2; i <= n_; ++i) {
        const auto ui = static_cast<std::size_t>(i);
        const auto& row = holdout.rows[ui - 2];
        for (std::size_t j = 0; j < row.size(); ++j) {
          if (rs.F[ui].coeff(j).mod_u64(holdout.prime) != row[j]) {
            latch_fallback();
            return std::nullopt;
          }
        }
      }
    }
  }
  return rs;
}

std::optional<RemainderSequence> compute_remainder_sequence_multimodular(
    const Poly& f0, const ModularConfig& cfg) {
  MultimodularPrs prs(f0, cfg);
  if (!prs.worthwhile()) return std::nullopt;

  const int threads = std::max(1, cfg.num_threads);
  if (threads == 1) {
    for (std::size_t s = 0; s < prs.num_slots(); ++s) prs.run_image(s);
    prs.prepare_crt(1);
    prs.run_crt(0);
    return prs.finalize();
  }

  // Pool execution: batched image tasks fan out with no dependencies, a
  // barrier builds the basis, then each level chains prepare -> waves ->
  // finish (levels stay sequential through the chain's edges; only the
  // waves of one level overlap).
  TaskGraph g;
  const std::size_t waves =
      crt_wave_fanout_cap(modular_tuning().crt, threads);
  const TaskId prep = g.add(TaskKind::kModPrep, -1,
                            [&prs, waves] { prs.prepare_crt(waves); });
  for (std::size_t t = 0; t < prs.num_image_tasks(threads); ++t) {
    const TaskId img =
        g.add(TaskKind::kPrimeImage, static_cast<std::int32_t>(t),
              [&prs, t, threads] { prs.run_image_batch(t, threads); });
    g.add_edge(img, prep);
  }
  TaskId prev = prep;
  for (std::size_t l = 1; l <= prs.num_levels(); ++l) {
    const int i = static_cast<int>(l);
    const TaskId lp = g.add(TaskKind::kModPrep, i,
                            [&prs, i] { prs.prepare_level(i); });
    g.add_edge(prev, lp);
    const TaskId fin = g.add(TaskKind::kModPublish, i,
                             [&prs, i] { prs.finish_level(i); });
    for (std::size_t w = 0; w < waves; ++w) {
      const TaskId wt =
          g.add(TaskKind::kModCrt, static_cast<std::int32_t>(w),
                [&prs, i, w] { prs.run_crt_wave(i, w); });
      g.add_edge(lp, wt);
      g.add_edge(wt, fin);
    }
    prev = fin;
  }
  g.validate();
  TaskPool pool(threads, PoolPolicy::kCentralQueue);
  pool.run(g);
  return prs.finalize();
}

}  // namespace pr::modular
