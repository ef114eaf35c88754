// Test-local reference for the root-finding pipeline: the paper's layers
// replayed one public call at a time, outside the task graph.
//
// find_real_roots and find_real_roots_parallel are one implementation, so
// neither can serve as the other's reference.  This replay makes the same
// public layer calls e2ebench/layers.cpp times -- stage 1 (multimodular
// when enabled, exact otherwise), then compute_node_poly and
// compute_node_roots in postorder -- plus the squarefree reduction, the
// general-input fallback and the multiplicities.  Its multimodular stage 1
// holds only the tree's spine levels in full, as the graph's does, so both
// reconstruct the same values.  The fallback replays the general path one
// call at a time: a gcd test unless stage 1 reduced, isolate_roots,
// cell_mu_approx per cell, then assemble_report.  It never validates.  Its
// squarefree reduction computes gcd(p, p') itself (the one-argument
// squarefree_decompose and squarefree_part), and its multiplicities come
// from sturm_count_multiplicities below, so neither leans on the
// pipeline's stage-1 gcd or on its cell-end sign test.
#pragma once

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/root_finder.hpp"
#include "core/tree.hpp"
#include "core/tree_builder.hpp"
#include "isolate/isolate.hpp"
#include "modular/modular_prs.hpp"
#include "poly/bounds.hpp"
#include "poly/remainder_sequence.hpp"
#include "poly/squarefree.hpp"
#include "poly/sturm.hpp"
#include "support/error.hpp"

namespace pr::test {

/// Reference for detail::assign_multiplicities: a full Sturm chain per
/// factor, and every cell's per-factor root counts consumed in factor
/// order.  The library decides a one-root cell from the factors' signs at
/// its ends instead; on a correct report both rules agree.
inline std::vector<unsigned> sturm_count_multiplicities(
    const std::vector<BigInt>& roots, std::size_t mu,
    const std::vector<SquarefreeFactor>& factors) {
  std::vector<SturmChain> chains;
  chains.reserve(factors.size());
  for (const auto& f : factors) chains.emplace_back(f.factor);
  std::vector<int> pending(factors.size());
  std::vector<unsigned> mult(roots.size(), 1);
  std::size_t i = 0;
  while (i < roots.size()) {
    std::size_t jend = i + 1;
    while (jend < roots.size() && roots[jend] == roots[i]) ++jend;
    const BigInt lo = roots[i] - BigInt(1);
    for (std::size_t f = 0; f < factors.size(); ++f) {
      pending[f] = chains[f].count_half_open(lo, roots[i], mu);
    }
    for (std::size_t r = i; r < jend; ++r) {
      for (std::size_t f = 0; f < factors.size(); ++f) {
        if (pending[f] > 0) {
          mult[r] = factors[f].multiplicity;
          pending[f] -= 1;
          break;
        }
      }
    }
    i = jend;
  }
  return mult;
}

/// Stage 2 on a normal sequence: every node polynomial in postorder, then
/// every node's roots.  Afterwards each node holds its poly and roots.
inline void replay_tree(Tree& tree, const RemainderSequence& rs,
                        std::size_t mu, const BigInt& bound_scaled,
                        const IntervalSolverConfig& solver,
                        IntervalStats* stats,
                        const modular::ModularConfig* modular = nullptr) {
  for (int idx : tree.postorder()) compute_node_poly(tree, idx, rs, modular);
  for (int idx : tree.postorder()) {
    compute_node_roots(tree, idx, mu, bound_scaled, solver, stats, modular);
  }
}

/// The paper-strategy RootReport, one layer call at a time.
inline RootReport replay_layers(const Poly& p, const RootFinderConfig& cfg) {
  const std::size_t mu = cfg.mu_bits;
  RootReport report;
  report.mu = mu;
  report.degree = p.degree();
  Poly work = p.primitive_part();
  std::vector<SquarefreeFactor> factors;
  const auto reduce = [&] {
    factors = squarefree_decompose(work);
    work = squarefree_part(work);
    report.squarefree_reduced = true;
  };
  const auto stage1 = [&] {
    if (cfg.modular.enabled) {
      auto rs = modular::compute_remainder_sequence_multimodular(
          work, cfg.modular, Tree(work.degree()).spine_levels());
      if (rs) return std::move(*rs);
    }
    return compute_remainder_sequence(work);
  };
  try {
    std::optional<RemainderSequence> rs;
    if (work.degree() >= 2) {
      rs = stage1();
      if (rs->extended()) {
        reduce();
        rs.reset();
        if (work.degree() >= 2) rs = stage1();
      }
    }
    if (rs && real_root_count(*rs) != work.degree()) {
      throw NonNormalSequence("non-real roots");
    }
    report.bound_pow2 = root_bound_pow2(work);
    if (rs) {
      Tree tree(work.degree());
      replay_tree(tree, *rs, mu, BigInt::pow2(report.bound_pow2 + mu),
                  cfg.solver, &report.stats, &cfg.modular);
      report.roots = tree.node(tree.root_index()).roots;
    } else {
      report.roots = {BigInt::cdiv(-(work.coeff(0) << mu), work.coeff(1))};
    }
    report.distinct_roots = work.degree();
  } catch (const NonNormalSequence&) {
    if (!cfg.allow_sturm_fallback) throw;
    // The tree rejected a polynomial of degree >= 2, and a squarefree
    // part of a non-normal or non-real input is never linear.
    if (!report.squarefree_reduced &&
        poly_gcd(work, work.derivative()).degree() > 0) {
      reduce();
    }
    isolate::IsolationRun run;
    run.input_degree = p.degree();
    run.work = work;
    run.reduced = report.squarefree_reduced;
    run.bound_pow2 = root_bound_pow2(work);
    run.isolation = isolate::isolate_roots(work);
    std::vector<BigInt> roots;
    isolate::QirStats qir;
    for (const auto& cell : run.isolation.cells) {
      roots.push_back(isolate::cell_mu_approx(run.isolation.stripped, cell,
                                              mu, cfg.isolate.qir, &qir));
    }
    RootFinderConfig unvalidated = cfg;
    unvalidated.validate = false;
    report = isolate::assemble_report(run, unvalidated, std::move(roots), qir);
    report.used_sturm_fallback = true;
  }
  report.multiplicities =
      report.squarefree_reduced
          ? sturm_count_multiplicities(report.roots, mu, factors)
          : std::vector<unsigned>(report.roots.size(), 1);
  return report;
}

/// Every field of two reports, interval statistics included.
inline void expect_same_report(const RootReport& want, const RootReport& got,
                               const std::string& where) {
  EXPECT_EQ(want.roots, got.roots) << where;
  EXPECT_EQ(want.multiplicities, got.multiplicities) << where;
  EXPECT_EQ(want.mu, got.mu) << where;
  EXPECT_EQ(want.bound_pow2, got.bound_pow2) << where;
  EXPECT_EQ(want.degree, got.degree) << where;
  EXPECT_EQ(want.distinct_roots, got.distinct_roots) << where;
  EXPECT_EQ(want.squarefree_reduced, got.squarefree_reduced) << where;
  EXPECT_EQ(want.used_sturm_fallback, got.used_sturm_fallback) << where;
  const IntervalStats& a = want.stats;
  const IntervalStats& b = got.stats;
  EXPECT_EQ(a.sieve_evals, b.sieve_evals) << where;
  EXPECT_EQ(a.bisect_evals, b.bisect_evals) << where;
  EXPECT_EQ(a.newton_iters, b.newton_iters) << where;
  EXPECT_EQ(a.newton_evals, b.newton_evals) << where;
  EXPECT_EQ(a.fallback_bisects, b.fallback_bisects) << where;
  EXPECT_EQ(a.intervals_solved, b.intervals_solved) << where;
  EXPECT_EQ(a.case1, b.case1) << where;
  EXPECT_EQ(a.case2a, b.case2a) << where;
  EXPECT_EQ(a.case2b, b.case2b) << where;
  EXPECT_EQ(a.case2c, b.case2c) << where;
}

}  // namespace pr::test
