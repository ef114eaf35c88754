#include "calibrate/autotune.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <ostream>
#include <vector>

#include "modular/crt.hpp"
#include "modular/polyzp.hpp"
#include "modular/zp.hpp"
#include "support/prng.hpp"

namespace pr::calibrate {

namespace {

using Clock = std::chrono::steady_clock;

double timed_best(int repeats, const std::function<void()>& body) {
  double best = 1e100;
  for (int r = 0; r < std::max(1, repeats); ++r) {
    const auto t0 = Clock::now();
    body();
    const auto t1 = Clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

modular::PolyZp random_polyzp(std::size_t len, const modular::PrimeField& f,
                              Prng& rng) {
  std::vector<modular::Zp> c(len);
  for (auto& z : c) z = f.from_u64(rng.next());
  if (f.to_u64(c.back()) == 0) c.back() = f.from_u64(1);
  return modular::PolyZp(std::move(c));
}

/// Fits the per-value Garner digit cost units(k) = a k + b k^2 from
/// batched reconstructions at several prime counts, converting seconds
/// to word-multiply units via a schoolbook mod-p convolution whose model
/// cost is known (3 m^2 units).
void tune_crt(const AutotuneOptions& opt, Prng& rng, CalibrationProfile& p) {
  // ns per model unit, from a length-64 schoolbook convolution
  // (3 * 64 * 64 units by definition of the cost model).
  const modular::PrimeField f =
      modular::PrimeField::trusted(modular::nth_modulus(0));
  constexpr std::size_t kUnitLen = 64;
  const modular::PolyZp ua = random_polyzp(kUnitLen, f, rng);
  const modular::PolyZp ub = random_polyzp(kUnitLen, f, rng);
  volatile std::uint64_t sink = 0;
  const std::size_t unit_iters = opt.quick ? 32 : 128;
  const double unit_ns = timed_best(opt.repeats, [&] {
                           for (std::size_t i = 0; i < unit_iters; ++i) {
                             sink = sink + ua.mul(ub, f).coeffs().size();
                           }
                         }) /
                         static_cast<double>(unit_iters) * 1e9 /
                         (3.0 * kUnitLen * kUnitLen);

  const std::vector<std::size_t> ks = opt.quick
                                          ? std::vector<std::size_t>{4, 8}
                                          : std::vector<std::size_t>{4, 8, 16};
  const std::size_t kmax = ks.back();
  std::vector<std::uint64_t> primes(kmax);
  for (std::size_t i = 0; i < kmax; ++i) primes[i] = modular::nth_modulus(i);
  const modular::CrtBasis basis(primes);

  const std::size_t count = opt.quick ? 128 : 256;
  std::vector<std::uint64_t> residues(kmax * count);
  std::vector<BigInt> out(count);

  if (opt.log) *opt.log << "  Garner reconstruction (primes -> units/value)\n";
  std::vector<double> kd;
  std::vector<double> units;
  for (const std::size_t k : ks) {
    for (std::size_t j = 0; j < k; ++j) {
      for (std::size_t c = 0; c < count; ++c) {
        residues[j * count + c] = rng.below(primes[j]);
      }
    }
    const std::size_t iters =
        std::max<std::size_t>(1, 2'000'000 / (count * k * k));
    const double per_value_ns =
        timed_best(opt.repeats, [&] {
          for (std::size_t i = 0; i < iters; ++i) {
            basis.reconstruct_batch(residues.data(), count, k, out.data(),
                                    count);
          }
        }) /
        static_cast<double>(iters * count) * 1e9;
    kd.push_back(static_cast<double>(k));
    units.push_back(per_value_ns / std::max(unit_ns, 1e-6));
    if (opt.log) {
      *opt.log << "    k=" << k << ": " << per_value_ns << " ns/value = "
               << units.back() << " units\n";
    }
  }
  (void)sink;

  // Least-squares fit of units(k) = a k + b k^2 through the origin.
  double s1 = 0, s2 = 0, s3 = 0, t1 = 0, t2 = 0;
  for (std::size_t i = 0; i < kd.size(); ++i) {
    const double k = kd[i];
    const double u = units[i];
    s1 += k * k;
    s2 += k * k * k;
    s3 += k * k * k * k;
    t1 += k * u;
    t2 += k * k * u;
  }
  const double det = s1 * s3 - s2 * s2;
  if (det <= 0) return;
  double a = (t1 * s3 - t2 * s2) / det;
  double b = (t2 * s1 - t1 * s2) / det;
  // Degenerate fits (noise can drive one coefficient negative) fall back
  // to the pure one-term model instead of a nonsense mixed one.
  if (b < 0) {
    b = 0;
    a = t1 / s1;
  } else if (a < 0) {
    a = 0;
    b = t2 / s3;
  }
  p.crt_digit_units_linear = std::clamp(a, 0.0, 1024.0);
  p.crt_digit_units_quadratic = std::clamp(b, 0.0, 1024.0);
}

}  // namespace

CalibrationProfile autotune(const AutotuneOptions& opt) {
  CalibrationProfile p;
  p.key = host_profile_key();
  Prng rng(0xca11b8a7e);
  if (opt.log) *opt.log << "calibrating (" << (opt.quick ? "quick" : "full")
                        << ", best of " << opt.repeats << ")\n";
  tune_crt(opt, rng, p);
  return p;
}

}  // namespace pr::calibrate
