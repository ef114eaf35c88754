// Layer attribution from outside the library: counter deltas and the
// sequential driver's steps replayed one public layer call at a time.
#include "common.hpp"

namespace e2e {

using pr::instr::Phase;

void record_bitcost(Run& run, const pr::instr::PhaseCounts& d) {
  const std::pair<const char*, Phase> phases[] = {
      {"remainder", Phase::kRemainder}, {"tree_poly", Phase::kTreePoly},
      {"sort", Phase::kSort},           {"preinterval", Phase::kPreInterval},
      {"sieve", Phase::kSieve},         {"bisect", Phase::kBisect},
      {"newton", Phase::kNewton}};
  for (const auto& [name, ph] : phases) {
    add_layer(run, std::string("instr.bitcost.") + name,
              static_cast<double>(d[ph].bit_cost()));
  }
  const auto total = d.total();
  add_layer(run, "instr.mul_count", static_cast<double>(total.mul_count));
  add_layer(run, "instr.limb_allocs", static_cast<double>(total.alloc_count));
}

void record_modular(Run& run, const pr::instr::ModularCounts& b,
                    const pr::instr::ModularCounts& a) {
  add_layer(run, "modular.images", static_cast<double>(a.images - b.images));
  add_layer(run, "modular.primes_used",
            static_cast<double>(a.primes_used - b.primes_used));
  add_layer(run, "modular.crt_limbs",
            static_cast<double>(a.crt_limbs - b.crt_limbs));
  add_layer(run, "modular.ntt_transforms",
            static_cast<double>(a.ntt_transforms - b.ntt_transforms));
  add_layer(run, "modular.fallbacks",
            static_cast<double>(a.fallbacks - b.fallbacks));
}

void record_interval_stats(Run& run, const pr::IntervalStats& s) {
  add_layer(run, "core.interval_evals", static_cast<double>(s.total_evals()));
  add_layer(run, "core.newton_iters", static_cast<double>(s.newton_iters));
  add_layer(run, "core.fallback_bisects",
            static_cast<double>(s.fallback_bisects));
}

namespace {

/// Times `body` as layer `name`: adds `<name>_s` and records a span.
template <class F>
auto timed_layer(Run& run, const std::string& name, std::int64_t parent,
                 std::int64_t request, F&& body) {
  ScopedSpan span(run.tracer, name, parent, request, 0);
  const auto t0 = Clock::now();
  auto result = body();
  add_layer(run, name + "_s", seconds_between(t0, Clock::now()));
  return result;
}

pr::BigInt linear_root(const pr::Poly& q, std::size_t mu) {
  return pr::BigInt::cdiv(-(q.coeff(0) << mu), q.coeff(1));
}

}  // namespace

pr::RootReport decompose_sequential(Run& run, const pr::Poly& p,
                                    const pr::RootFinderConfig& cfg,
                                    std::int64_t parent,
                                    std::int64_t request) {
  pr::RootReport report;
  report.mu = cfg.mu_bits;
  report.degree = p.degree();
  pr::Poly work = p.primitive_part();
  std::vector<pr::SquarefreeFactor> factors;
  bool reduced = false;

  // Stage 1 exactly as the sequential driver picks it: the multimodular
  // fast path first when enabled, the exact recurrence when it declines.
  const auto stage1 = [&](const pr::Poly& q) {
    if (cfg.modular.enabled) {
      auto rs = timed_layer(run, "modular.prs", parent, request, [&] {
        return pr::modular::compute_remainder_sequence_multimodular(
            q, cfg.modular);
      });
      if (rs) return std::move(*rs);
    }
    return timed_layer(run, "poly.remainder", parent, request,
                       [&] { return pr::compute_remainder_sequence(q); });
  };

  if (work.degree() == 1) {
    report.roots = {linear_root(work, cfg.mu_bits)};
  } else {
    pr::RemainderSequence rs = stage1(work);
    if (rs.extended()) {
      timed_layer(run, "poly.squarefree", parent, request, [&] {
        factors = pr::squarefree_decompose(work);
        work = pr::squarefree_part(work);
        return 0;
      });
      reduced = true;
      if (work.degree() >= 2) rs = stage1(work);
    }
    if (work.degree() == 1) {
      report.roots = {linear_root(work, cfg.mu_bits)};
    } else {
      report.bound_pow2 = pr::root_bound_pow2(work);
      const pr::BigInt bound_scaled =
          pr::BigInt::pow2(report.bound_pow2 + cfg.mu_bits);
      pr::Tree tree(work.degree());
      timed_layer(run, "core.tree_poly", parent, request, [&] {
        for (int idx : tree.postorder()) {
          pr::compute_node_poly(tree, idx, rs, &cfg.modular);
        }
        return 0;
      });
      timed_layer(run, "core.node_roots", parent, request, [&] {
        for (int idx : tree.postorder()) {
          pr::compute_node_roots(tree, idx, cfg.mu_bits, bound_scaled,
                                 cfg.solver, &report.stats);
        }
        return 0;
      });
      report.roots = tree.node(tree.root_index()).roots;
    }
  }
  report.distinct_roots = work.degree();
  report.squarefree_reduced = reduced;
  if (reduced) {
    report.multiplicities =
        timed_layer(run, "core.multiplicity", parent, request, [&] {
          return pr::detail::assign_multiplicities(report.roots, cfg.mu_bits,
                                                   factors);
        });
  } else {
    report.multiplicities.assign(report.roots.size(), 1);
  }
  return report;
}

}  // namespace e2e
