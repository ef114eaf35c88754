#include "modular/modular_combine.hpp"

#include <algorithm>
#include <bit>

#include "instr/counters.hpp"
#include "instr/phase.hpp"
#include "modular/ntt.hpp"
#include "modular/polyzp.hpp"
#include "sched/task_graph.hpp"
#include "sched/task_pool.hpp"
#include "support/error.hpp"

namespace pr::modular {

namespace {

std::size_t ceil_log2(std::size_t n) {
  std::size_t b = 0;
  while ((std::size_t{1} << b) < n) ++b;
  return b;
}

std::size_t entry_len(const PolyMat22& m, int r, int c) {
  return m.at(r, c).coeffs().size();
}

std::size_t entry_bits(const PolyMat22& m) {
  std::size_t b = 1;
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      b = std::max(b, m.at(r, c).max_coeff_bits());
    }
  }
  return b;
}

/// Structural length of one entry of a*b: the longest inner-product term
/// (lengths add under convolution; zero operands contribute nothing).
std::size_t product_entry_len(const std::size_t la[2][2],
                              const std::size_t lb[2][2], int r, int c) {
  std::size_t len = 0;
  for (int t = 0; t < 2; ++t) {
    if (la[r][t] == 0 || lb[t][c] == 0) continue;
    len = std::max(len, la[r][t] + lb[t][c] - 1);
  }
  return len;
}

}  // namespace

ModularCombine::ModularCombine(const PolyMat22& t_right,
                               const PolyMat22& t_left,
                               const RemainderSequence& rs, int k,
                               const ModularConfig& cfg)
    : tr_(t_right), tl_(t_left), cfg_(cfg), u_(u_matrix(rs, k)) {
  const BigInt& ck = rs.c[static_cast<std::size_t>(k)];
  const BigInt& cp = rs.c[static_cast<std::size_t>(k - 1)];
  s_ = ck * ck * cp * cp;

  // Structural entry lengths of W = U * T_left, then T = T_right * W (the
  // exact division by s does not change lengths).
  std::size_t lu[2][2], ll[2][2], lr[2][2], lw[2][2];
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      lu[r][c] = entry_len(u_, r, c);
      ll[r][c] = entry_len(tl_, r, c);
      lr[r][c] = entry_len(tr_, r, c);
    }
  }
  std::size_t max_lw = 1;
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      lw[r][c] = product_entry_len(lu, ll, r, c);
      max_lw = std::max(max_lw, lw[r][c]);
    }
  }
  std::size_t max_ll = 1;
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      len_[r][c] = product_entry_len(lr, lw, r, c);
      max_ll = std::max(max_ll, ll[r][c]);
    }
  }

  // Coefficient bound chained through the two products: each entry is a
  // sum of two convolution terms (hence the +1s), and the exact division
  // by s removes bits(s) - 1 bits.
  const std::size_t bu = entry_bits(u_);
  const std::size_t bl = entry_bits(tl_);
  const std::size_t br = entry_bits(tr_);
  const std::size_t bits_w = bu + bl + ceil_log2(max_ll) + 2;
  const std::size_t bits_p = br + bits_w + ceil_log2(max_lw) + 2;
  const std::size_t bits_s = s_.bit_length();
  bits_t_ = bits_p > bits_s ? bits_p - bits_s + 1 : 1;

  if (bits_t_ < cfg_.min_combine_bits) return;

  // Per-image schoolbook MAC counts of the two matrix products; shared by
  // the exact-vs-modular gate below and the fused-NTT image decision.
  double conv_ul = 0, conv_rw = 0;
  std::size_t max_len = 1;
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      for (int t = 0; t < 2; ++t) {
        conv_ul += static_cast<double>(lu[r][t] * ll[t][c]);
        conv_rw += static_cast<double>(lr[r][t] * lw[t][c]);
      }
      // Output lengths dominate in any non-degenerate chain; folding the
      // input lengths in keeps N >= every transform operand even when a
      // structurally zero product column shrinks len_ below an input.
      max_len = std::max({max_len, len_[r][c], lu[r][c], ll[r][c], lr[r][c]});
    }
  }

  // Fused-NTT image decision (structural, hence deterministic): one
  // transform size N >= every output length makes the whole chain
  // T = R * (U * L) / s pointwise -- 12 forward + 4 inverse transforms
  // and ~20 Montgomery multiplies per frequency point, versus the
  // schoolbook MACs of both products.  Decided here, once, in the same
  // word-multiply units as the gate below (which then costs the modular
  // side with whichever convolution strategy won).
  double conv_units = 3.0 * (conv_ul + conv_rw);
  if (cfg_.use_ntt && max_len >= 64) {
    const std::size_t nsz = std::bit_ceil(max_len);
    const double fused = 16.0 * ntt_transform_cost(nsz) +
                         60.0 * static_cast<double>(nsz);
    if (fused < conv_units) {
      use_ntt_combine_ = true;
      ntt_size_ = nsz;
      conv_units = fused;
    }
  }

  if (cfg_.combine_cost_gate) {
    // Word-multiply cost model (one 64x64 multiply-accumulate == 1 unit;
    // Montgomery ops ~3, they chain two wide multiplies).  Exact side: two
    // schoolbook matrix products plus the exact division by s.  Modular
    // side: every prime reduces all twelve input entries (limb-dot, ~2
    // units/limb), convolves single-word images, and pays per-prime setup
    // (field + basis row + selection); reconstruction is quadratic in the
    // prime count.  Small matrices with huge scalars lose on the k-fold
    // input reduction even though their coefficients are enormous -- that
    // is exactly what this gate screens out.
    const auto limbs = [](std::size_t bits) {
      return static_cast<double>(bits / 64 + 1);
    };
    double len_out = 0, in_limbs = 0;
    for (int r = 0; r < 2; ++r) {
      for (int c = 0; c < 2; ++c) {
        len_out += static_cast<double>(len_[r][c]);
        in_limbs += static_cast<double>(lu[r][c]) * limbs(bu) +
                    static_cast<double>(ll[r][c]) * limbs(bl) +
                    static_cast<double>(lr[r][c]) * limbs(br);
      }
    }
    const double exact_cost = conv_ul * limbs(bu) * limbs(bl) +
                              conv_rw * limbs(br) * limbs(bits_w) +
                              len_out * limbs(bits_p) * limbs(bits_s);
    const double np = static_cast<double>(bits_t_ + 2) / 61.0 + 1.0;
    const double mod_cost =
        np * (2.0 * in_limbs + conv_units + 2500.0) +
        len_out * np * np * 1.3 + np * np * 3.0;
    if (mod_cost * 1.2 > exact_cost) return;
  }

  // Every prime not dividing s is good (see file comment), so selection is
  // a single deterministic scan -- forced primes first (test seam).
  const std::size_t target_bits = bits_t_ + 2;
  std::size_t have_bits = 0;
  std::size_t table_next = 0;
  std::size_t forced_next = 0;
  while (have_bits < target_bits) {
    std::uint64_t p;
    if (forced_next < cfg_.forced_primes.size()) {
      p = cfg_.forced_primes[forced_next++];
      check_arg((p & 1) != 0 && p < (1ull << 62) && is_prime_u64(p),
                "ModularConfig::forced_primes: odd primes below 2^62 only");
    } else {
      p = nth_modulus(table_next++);
      if (std::find(cfg_.forced_primes.begin(), cfg_.forced_primes.end(),
                    p) != cfg_.forced_primes.end()) {
        continue;
      }
    }
    // p divides s = c_k^2 c_{k-1}^2 iff it divides c_k or c_{k-1}; screen
    // with the division-free limb reduction of the two factors instead of
    // a hardware-division sweep over the four-times-longer s, and keep the
    // resulting image of s (run_image needs inv(s) at every prime and must
    // not re-reduce a multi-thousand-bit value each time).
    const PrimeField f = PrimeField::trusted(p);
    LimbReducer red(f);
    const Zp cki = red.reduce(ck);
    const Zp cpi = red.reduce(cp);
    if (f.is_zero(cki) || f.is_zero(cpi)) continue;
    have_bits += static_cast<std::size_t>(std::bit_width(p)) - 1;
    primes_.push_back(p);
    fields_.push_back(f);
    s_imgs_.push_back(f.mul(f.mul(cki, cki), f.mul(cpi, cpi)));
  }
  if (primes_.size() < 3) return;

  rows_.resize(primes_.size());
  instr::on_modular_primes(primes_.size());
  worthwhile_ = true;
}

void ModularCombine::run_image(std::size_t slot) {
  // The selection screen already built the field (Miller-Rabin per
  // construction is not free at hundreds of primes per combine).
  const PrimeField& f = fields_[slot];
  if (use_ntt_combine_ &&
      NttTables::for_prime(f.prime()).max_size() >= ntt_size_) {
    // Every table prime supports 2^20-point transforms; the size check
    // only matters for forced test primes with small 2-adic order, which
    // fall through to the elementwise path below.
    run_image_ntt(slot);
    return;
  }
  LimbReducer red(f);
  PolyZp rimg[2][2], limg[2][2], uimg[2][2];
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      rimg[r][c] = PolyZp::from_poly(tr_.at(r, c), red);
      limg[r][c] = PolyZp::from_poly(tl_.at(r, c), red);
      uimg[r][c] = PolyZp::from_poly(u_.at(r, c), red);
    }
  }
  const Zp inv_s = f.inv(s_imgs_[slot]);

  // Elementwise products still ride the per-convolution NTT dispatch
  // unless the config pinned schoolbook.
  const auto mul_cfg = [this, &f](const PolyZp& a, const PolyZp& b) {
    return cfg_.use_ntt ? a.mul(b, f) : a.mul_schoolbook(b, f);
  };

  PolyZp w[2][2];
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      w[r][c] = mul_cfg(uimg[r][0], limg[0][c])
                    .add(mul_cfg(uimg[r][1], limg[1][c]), f);
    }
  }
  auto& rows = rows_[slot];
  rows.assign(4, {});
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      const PolyZp t = mul_cfg(rimg[r][0], w[0][c])
                           .add(mul_cfg(rimg[r][1], w[1][c]), f)
                           .scaled(inv_s, f);
      auto& row = rows[static_cast<std::size_t>(2 * r + c)];
      row.resize(len_[r][c]);
      for (std::size_t j = 0; j < row.size(); ++j) {
        row[j] = f.to_u64(t.coeff(j));
      }
    }
  }
  instr::on_modular_image();
}

void ModularCombine::run_image_ntt(std::size_t slot) {
  const PrimeField& f = fields_[slot];
  NttTables& tables = NttTables::for_prime(f.prime());
  const NttPlan& plan = tables.plan(ntt_size_);
  const std::size_t n = ntt_size_;
  LimbReducer red(f);
  const Zp inv_s = f.inv(s_imgs_[slot]);

  // Twelve forward transforms of the zero-padded input images.  N exceeds
  // every structural output length, so the cyclic products below equal
  // the linear ones.
  const auto load = [&](const Poly& p) {
    std::vector<Zp> buf(n, Zp{0});
    const auto& coeffs = p.coeffs();
    check_internal(coeffs.size() <= n,
                   "ModularCombine: transform shorter than an input");
    for (std::size_t j = 0; j < coeffs.size(); ++j) {
      buf[j] = red.reduce(coeffs[j]);
    }
    ntt_forward(buf, plan, f);
    return buf;
  };
  std::vector<Zp> rf[2][2], lf[2][2], uf[2][2];
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      rf[r][c] = load(tr_.at(r, c));
      lf[r][c] = load(tl_.at(r, c));
      uf[r][c] = load(u_.at(r, c));
    }
  }

  // Both 2x2 products are pointwise in the frequency domain; W is never
  // brought back to coefficients.
  std::vector<Zp> wf[2][2];
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      auto& w = wf[r][c];
      w.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        w[i] = f.add(f.mul(uf[r][0][i], lf[0][c][i]),
                     f.mul(uf[r][1][i], lf[1][c][i]));
      }
    }
  }
  auto& rows = rows_[slot];
  rows.assign(4, {});
  std::vector<Zp> tf(n);
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      for (std::size_t i = 0; i < n; ++i) {
        tf[i] = f.add(f.mul(rf[r][0][i], wf[0][c][i]),
                      f.mul(rf[r][1][i], wf[1][c][i]));
      }
      ntt_inverse(tf, plan, f);
      auto& row = rows[static_cast<std::size_t>(2 * r + c)];
      row.resize(len_[r][c]);
      for (std::size_t j = 0; j < row.size(); ++j) {
        row[j] = f.to_u64(f.mul(tf[j], inv_s));
      }
    }
  }
  instr::on_modular_image();
}

void ModularCombine::run_images(std::size_t first, std::size_t stride) {
  if (!worthwhile_) return;
  check_arg(stride >= 1, "ModularCombine::run_images: stride >= 1");
  for (std::size_t s = first; s < primes_.size(); s += stride) run_image(s);
}

void ModularCombine::reconstruct_entry(const CrtBasis& basis, int r, int c) {
  const std::size_t k = primes_.size();
  const auto idx = static_cast<std::size_t>(2 * r + c);
  const std::size_t count = len_[r][c];
  std::vector<BigInt> coeffs(count);
  if (count != 0) {
    // Gather the entry's residues into a prime-major matrix and hand the
    // whole coefficient run to the batched (lane-parallel) Garner path.
    std::vector<std::uint64_t> residues(k * count);
    for (std::size_t s = 0; s < k; ++s) {
      check_internal(!rows_[s].empty(),
                     "ModularCombine: reconstruct before images");
      const auto& row = rows_[s][idx];
      check_internal(row.size() >= count,
                     "ModularCombine: image row shorter than entry");
      std::copy_n(row.begin(), count, residues.begin() + s * count);
    }
    basis.reconstruct_batch(residues.data(), count, k, coeffs.data(), count);
  }
  result_.e[r][c] = Poly(std::move(coeffs));
}

void ModularCombine::reconstruct() {
  if (!worthwhile_) return;
  instr::PhaseScope phase(instr::Phase::kTreePoly);
  {
    const CrtBasis basis(primes_);
    for (int r = 0; r < 2; ++r) {
      for (int c = 0; c < 2; ++c) reconstruct_entry(basis, r, c);
    }
  }
  decltype(rows_)().swap(rows_);
}

PolyMat22 ModularCombine::take_result() {
  check_internal(worthwhile_, "ModularCombine::take_result: not worthwhile");
  instr::on_modular_combine();
  return std::move(result_);
}

std::optional<PolyMat22> modular_t_combine(const PolyMat22& t_right,
                                           const PolyMat22& t_left,
                                           const RemainderSequence& rs, int k,
                                           const ModularConfig& cfg) {
  ModularCombine mc(t_right, t_left, rs, k, cfg);
  if (!mc.worthwhile()) return std::nullopt;

  const int threads = std::max(1, cfg.num_threads);
  if (threads == 1) {
    mc.run_images(0, 1);
    mc.reconstruct();
    return mc.take_result();
  }

  TaskGraph g;
  const std::size_t width = std::min<std::size_t>(
      mc.num_primes(), static_cast<std::size_t>(2 * threads));
  std::vector<TaskId> images;
  for (std::size_t s = 0; s < width; ++s) {
    images.push_back(g.add(TaskKind::kModBlock,
                           static_cast<std::int32_t>(s),
                           [&mc, s, width] { mc.run_images(s, width); }));
  }
  const TaskId crt = g.add(TaskKind::kModCrt, -1, [&mc] { mc.reconstruct(); });
  for (TaskId img : images) g.add_edge(img, crt);
  g.validate();
  TaskPool pool(threads, PoolPolicy::kCentralQueue);
  pool.run(g);
  return mc.take_result();
}

}  // namespace pr::modular
