#include "modular/tree_poly.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "instr/counters.hpp"
#include "support/error.hpp"

namespace pr::modular {

ModularTreePolys::ModularTreePolys(const RemainderSequence& rs,
                                   std::vector<std::pair<int, int>> nodes,
                                   const ModularConfig& cfg)
    : rs_(rs), nodes_(std::move(nodes)), cfg_(cfg) {
  check_arg(!nodes_.empty(), "ModularTreePolys: no nodes");
  for (std::uint64_t p : cfg_.forced_primes) {
    check_arg((p & 1) != 0 && p < (1ull << 62) && is_prime_u64(p),
              "ModularConfig::forced_primes: odd primes below 2^62 only");
  }
  lo_ = nodes_.front().first;
  hi_ = nodes_.front().second;
  for (const auto& [i, j] : nodes_) {
    check_arg(1 <= i && i <= j && j < rs_.n,
              "ModularTreePolys: nodes need 1 <= i <= j < n");
    lo_ = std::min(lo_, i);
    hi_ = std::max(hi_, j);
  }
  step_used_.assign(static_cast<std::size_t>(hi_ - lo_ + 1), false);
  for (const auto& [i, j] : nodes_) {
    for (int t = i; t <= j; ++t) {
      step_used_[static_cast<std::size_t>(t - lo_)] = true;
    }
  }
}

void ModularTreePolys::set_up() {
  // Exact bit lengths of c_t (t in [lo-1, hi]) and Q_t (t in [lo, hi]).
  const auto bc = [this](int t) {
    return static_cast<std::int64_t>(
        rs_.c[static_cast<std::size_t>(t)].bit_length());
  };
  bits_.assign(nodes_.size(), 0);
  std::size_t max_bits = 0;
  for (std::size_t node = 0; node < nodes_.size(); ++node) {
    const auto [i, j] = nodes_[node];
    // B_{t-2} and B_{t-1} of the file comment; B_{i-2} = -inf drops the
    // second term of the first step.
    std::int64_t b2 = 0;
    std::int64_t b1 = 2 * bc(i - 1);
    for (int t = i; t <= j; ++t) {
      const auto bq = static_cast<std::int64_t>(
          rs_.Q[static_cast<std::size_t>(t)].max_coeff_bits());
      std::int64_t m = bq + b1 + 1;
      if (t > i) m = std::max(m, 2 * bc(t) + b2);
      b2 = b1;
      b1 = m + 3 - 2 * bc(t - 1);
    }
    // A rigorous bound on a nonzero integer polynomial is >= 1 anyway.
    bits_[node] = static_cast<std::size_t>(std::max<std::int64_t>(b1, 1));
    max_bits = std::max(max_bits, bits_[node]);
  }

  // The candidates: the shortest prefix of the stream whose primes would
  // cover the largest bound if none of them turned out bad.
  target_bits_ = max_bits + 2;
  std::size_t have = 0;
  while (have < target_bits_) {
    Slot s;
    s.prime = next_candidate();
    have += static_cast<std::size_t>(std::bit_width(s.prime)) - 1;
    slots_.push_back(std::move(s));
  }
}

std::uint64_t ModularTreePolys::next_candidate() {
  if (next_forced_ < cfg_.forced_primes.size()) {
    return cfg_.forced_primes[next_forced_++];
  }
  for (;;) {
    const std::uint64_t p = nth_modulus(next_table_++);
    // The table must stay disjoint from the forced set.
    if (std::find(cfg_.forced_primes.begin(), cfg_.forced_primes.end(), p) ==
        cfg_.forced_primes.end()) {
      return p;
    }
  }
}

void ModularTreePolys::fill(Slot& slot) const {
  // Candidates are table primes or forced primes validated in the ctor.
  const PrimeField f = PrimeField::trusted(slot.prime);
  LimbReducer red(f);
  const auto m = static_cast<std::size_t>(hi_ - lo_ + 1);  // steps lo..hi
  // c[x] = c_t and csq[x] = c_t^2, t = lo-1+x, x in [0, m] (c_0 =
  // sign(lc F_0), so c_0^2 == 1).  Step x inverts csq[x].
  std::vector<Zp> c(m + 1), csq(m + 1);
  for (std::size_t x = 0; x <= m; ++x) {
    const std::size_t t = static_cast<std::size_t>(lo_ - 1) + x;
    c[x] = red.reduce(rs_.c[t]);
    csq[x] = t == 0 ? f.one() : f.mul(c[x], c[x]);
  }
  slot.good = true;
  for (std::size_t x = 0; x < m; ++x) {
    if (step_used_[x] && f.is_zero(csq[x])) slot.good = false;
  }
  if (!slot.good) return;

  // One field inversion per prime: prefix products over the steps taken,
  // then walk back.
  std::vector<Zp> prefix(m);
  Zp acc = f.one();
  for (std::size_t x = 0; x < m; ++x) {
    prefix[x] = acc;
    if (step_used_[x]) acc = f.mul(acc, csq[x]);
  }
  Zp inv = f.inv(acc);
  slot.steps.assign(m, Step{});
  for (std::size_t x = m; x-- > 0;) {
    if (!step_used_[x]) continue;
    const Zp inv_x = f.mul(inv, prefix[x]);  // 1 / c_{t-1}^2, t = lo + x
    inv = f.mul(inv, csq[x]);
    // Q_t = q1 x + q0 with q1 = lc(F_{t-1}) c_t (Eqs. 15-17): that is
    // c_{t-1} c_t, except at t == 1, where lc(F_0) is not c_0 = +-1.
    const std::size_t t = static_cast<std::size_t>(lo_) + x;
    const Zp q1 =
        t == 1 ? red.reduce(rs_.Q[t].coeff(1)) : f.mul(c[x], c[x + 1]);
    const Zp q0 = red.reduce(rs_.Q[t].coeff(0));
    slot.steps[x] = Step{f.mul(q1, inv_x), f.mul(q0, inv_x),
                         f.mul(csq[x + 1], inv_x), csq[x]};
  }
}

void ModularTreePolys::compute_residues(std::size_t first,
                                        std::size_t stride) {
  check_arg(stride >= 1, "ModularTreePolys::compute_residues: stride >= 1");
  for (std::size_t s = first; s < slots_.size(); s += stride) fill(slots_[s]);
}

void ModularTreePolys::publish() {
  check_internal(target_bits_ > 0, "ModularTreePolys: publish before set_up");
  // The basis is the good candidates in stream order until the bits
  // suffice; a bad candidate is replaced by the next one in the stream,
  // filled inline.
  std::size_t have = 0;
  for (std::size_t s = 0; have < target_bits_; ++s) {
    if (s == slots_.size()) {
      Slot extra;
      extra.prime = next_candidate();
      fill(extra);
      slots_.push_back(std::move(extra));
    }
    if (!slots_[s].good) {
      instr::on_modular_bad_prime();
      continue;
    }
    used_.push_back(s);
    primes_.push_back(slots_[s].prime);
    have += static_cast<std::size_t>(std::bit_width(slots_[s].prime)) - 1;
  }
  basis_ = std::make_unique<CrtBasis>(primes_);
}

Poly ModularTreePolys::node_poly(std::size_t node) const {
  check_internal(basis_ != nullptr, "ModularTreePolys: node before publish");
  const auto [i, j] = nodes_[node];
  const std::size_t k = basis_->primes_for_bits(bits_[node]);
  const auto count = static_cast<std::size_t>(j - i + 2);  // coeffs of P_{i,j}

  // Rolling P_{i,t-2}, P_{i,t-1}, P_{i,t} with one leading zero, so
  // coefficient m sits at index m + 1 and the x-shift reads index m.
  // Lengths only grow within one prime, so entries past a polynomial's
  // length stay zero once the buffers are cleared.
  std::vector<std::uint64_t> residues(k * count);
  std::vector<Zp> b2(count + 1), b1(count + 1), b0(count + 1);
  for (std::size_t s = 0; s < k; ++s) {
    const PrimeField& f = basis_->field(s);
    const Step* steps =
        slots_[used_[s]].steps.data() + static_cast<std::size_t>(i - lo_);
    for (auto* b : {&b2, &b1, &b0}) std::fill(b->begin(), b->end(), Zp{});
    b1[1] = steps[0].csq_prev;  // P_{i,i-1} = c_{i-1}^2
    for (std::size_t t = 0; t + 2 <= count; ++t) {
      const Step& st = steps[t];
      for (std::size_t m = 1; m <= t + 2; ++m) {
        b0[m] = f.sub(f.add(f.mul(st.a1, b1[m - 1]), f.mul(st.a0, b1[m])),
                      f.mul(st.g, b2[m]));
      }
      std::swap(b2, b1);
      std::swap(b1, b0);
    }
    std::uint64_t* row = residues.data() + s * count;
    for (std::size_t m = 0; m < count; ++m) row[m] = f.to_u64(b1[m + 1]);
  }
  std::vector<BigInt> coeffs(count);
  basis_->reconstruct_batch(residues.data(), count, k, coeffs.data(), count);
  instr::on_modular_primes(k);
  instr::on_modular_image(k);
  instr::on_modular_combine();
  return Poly(std::move(coeffs));
}

Poly modular_tree_poly(const RemainderSequence& rs, int i, int j,
                       const ModularConfig& cfg) {
  ModularTreePolys table(rs, {{i, j}}, cfg);
  table.set_up();
  table.compute_residues(0, 1);
  table.publish();
  return table.node_poly(0);
}

}  // namespace pr::modular
