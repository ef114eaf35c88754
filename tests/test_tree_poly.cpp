// Multimodular tree polynomials by the three-term recurrence
// (modular/tree_poly.hpp): every internal non-spine node's polynomial
// equals the exact tree's, every bound dominates the actual coefficient
// bits, and a prime is skipped exactly when it divides a c_t some node
// inverts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/parallel_driver.hpp"
#include "core/root_finder.hpp"
#include "core/tree.hpp"
#include "core/tree_builder.hpp"
#include "gen/classic_polys.hpp"
#include "gen/hard_polys.hpp"
#include "gen/matrix_polys.hpp"
#include "instr/counters.hpp"
#include "layer_replay.hpp"
#include "modular/tree_poly.hpp"
#include "poly/remainder_sequence.hpp"
#include "support/prng.hpp"

namespace pr {
namespace {

using modular::ModularConfig;
using modular::ModularTreePolys;

constexpr std::uint64_t kSmallPrime = 1000003;

/// The tree nodes the recurrence serves: internal and off the spine.
std::vector<int> modular_nodes(const Tree& tree) {
  std::vector<int> out;
  for (int idx : tree.postorder()) {
    const TreeNode& nd = tree.node(idx);
    if (!nd.empty() && !nd.leaf() && !nd.spine(tree.degree())) {
      out.push_back(idx);
    }
  }
  return out;
}

std::vector<std::pair<int, int>> ranges_of(const Tree& tree,
                                           const std::vector<int>& nodes) {
  std::vector<std::pair<int, int>> out;
  for (int idx : nodes) out.emplace_back(tree.node(idx).i, tree.node(idx).j);
  return out;
}

ModularConfig modular_on() {
  ModularConfig cfg;
  cfg.enabled = true;
  return cfg;
}

TEST(ModularNodePoly, DifferentialAgainstExactTree) {
  Prng rng(0x7e5);
  struct Case {
    std::string name;
    Poly poly;
  };
  std::vector<Case> cases;
  // Spans from word-sized to ~2^50 entries; the exact reference tree
  // costs seconds past ~5000-bit coefficients, so degree 128 uses span 1.
  const long long huge = 1000000000000000LL;
  cases.push_back({"jacobi-8 span 1e15", random_jacobi_poly(8, huge, rng)});
  cases.push_back(
      {"jacobi-24 span 1e12", random_jacobi_poly(24, huge / 1000, rng)});
  cases.push_back({"jacobi-40 span 3", random_jacobi_poly(40, 3, rng)});
  cases.push_back({"jacobi-64 span 9", random_jacobi_poly(64, 9, rng)});
  cases.push_back({"jacobi-128 span 1", random_jacobi_poly(128, 1, rng)});
  cases.push_back({"berkowitz-16", paper_input(16, rng).poly});
  cases.push_back({"berkowitz-32", paper_input(32, rng).poly});
  cases.push_back({"berkowitz-64", paper_input(64, rng).poly});
  cases.push_back({"wilkinson-20", wilkinson(20)});
  cases.push_back(
      {"clustered-12 gap 40", clustered_squarefree(12, 40, 7, rng)});
  cases.push_back(
      {"clustered-24 gap 8", clustered_squarefree(24, 8, -3, rng)});

  int checked = 0;
  for (const auto& c : cases) {
    const Poly work = c.poly.primitive_part();
    const RemainderSequence rs = compute_remainder_sequence(work);
    if (rs.extended()) continue;  // repeated roots: no tree on this input
    Tree exact(work.degree());
    for (int idx : exact.postorder()) compute_node_poly(exact, idx, rs);

    const std::vector<int> nodes = modular_nodes(exact);
    ASSERT_FALSE(nodes.empty()) << c.name;
    ModularTreePolys table(rs, ranges_of(exact, nodes), modular_on());
    table.set_up();
    // Three interleaved residue classes, as the task graph strides them.
    for (std::size_t w = 0; w < 3; ++w) table.compute_residues(w, 3);
    table.publish();
    double bound_sum = 0, actual_sum = 0;
    for (std::size_t k = 0; k < nodes.size(); ++k) {
      const TreeNode& nd = exact.node(nodes[k]);
      const std::string where = c.name + " node [" + std::to_string(nd.i) +
                                "," + std::to_string(nd.j) + "]";
      EXPECT_EQ(table.node_poly(k), nd.poly) << where;
      EXPECT_GE(table.bound_bits(k), nd.poly.max_coeff_bits()) << where;
      bound_sum += static_cast<double>(table.bound_bits(k));
      actual_sum += static_cast<double>(nd.poly.max_coeff_bits());
    }
    // The chained bound is tight (a few bits per node), not merely valid.
    EXPECT_LT(bound_sum, 1.1 * actual_sum + 8.0 * nodes.size()) << c.name;

    // The one-node form compute_node_poly runs agrees too.
    Tree one(work.degree());
    const ModularConfig cfg = modular_on();
    for (int idx : one.postorder()) compute_node_poly(one, idx, rs, &cfg);
    for (int idx : nodes) {
      EXPECT_EQ(one.node(idx).poly, exact.node(idx).poly) << c.name;
      EXPECT_FALSE(one.node(idx).has_t) << c.name;
    }
    ++checked;
  }
  EXPECT_GE(checked, 9);
}

TEST(ModularNodePoly, PrimeDividingAnInvertedCoefficientIsSkipped) {
  // F_0 = prod (p x - a): lc(F_0) = p^8, so p divides c_1 = 8 p^8, which
  // every node starting at i = 1 or 2 inverts.
  std::vector<long long> roots = {-7, -4, -2, -1, 1, 3, 5, 8};
  Poly f0{1};
  for (long long a : roots) {
    f0 = f0 * Poly{-a, static_cast<long long>(kSmallPrime)};
  }
  ModularConfig cfg = modular_on();
  cfg.min_degree = 2;
  cfg.forced_primes = {kSmallPrime};

  const RemainderSequence rs = compute_remainder_sequence(f0);
  ASSERT_FALSE(rs.extended());
  ASSERT_EQ(rs.c[1].mod_u64(kSmallPrime), 0u);
  const Tree tree(f0.degree());
  const std::vector<int> nodes = modular_nodes(tree);
  ModularTreePolys table(rs, ranges_of(tree, nodes), cfg);
  table.set_up();
  table.compute_residues(0, 1);
  const auto before = instr::modular_counts().bad_primes;
  table.publish();
  EXPECT_GE(instr::modular_counts().bad_primes, before + 1);
  const auto& primes = table.primes();
  EXPECT_EQ(std::find(primes.begin(), primes.end(), kSmallPrime),
            primes.end());
  EXPECT_EQ(primes.front(), modular::nth_modulus(0));

  // A prime dividing only a c_t that no node inverts stays: on this
  // Jacobi-10 input 7 divides c_5, which lies between the ranges of two
  // spine nodes' left children, and no inverted c_t.
  Prng rng(10);
  const Poly j10 = random_jacobi_poly(10, 9, rng);
  const RemainderSequence rs10 = compute_remainder_sequence(j10);
  ASSERT_EQ(rs10.c[5].mod_u64(7), 0u);
  Tree exact10(10);
  for (int idx : exact10.postorder()) compute_node_poly(exact10, idx, rs10);
  const std::vector<int> nodes10 = modular_nodes(exact10);
  ModularConfig seven = cfg;
  seven.forced_primes = {7};
  ModularTreePolys kept(rs10, ranges_of(exact10, nodes10), seven);
  kept.set_up();
  kept.compute_residues(0, 1);
  kept.publish();
  EXPECT_EQ(kept.primes().front(), 7u);
  for (std::size_t k = 0; k < nodes10.size(); ++k) {
    EXPECT_EQ(kept.node_poly(k), exact10.node(nodes10[k]).poly);
  }

  RootFinderConfig exact_cfg;
  exact_cfg.mu_bits = 40;
  const RootReport exact = find_real_roots(f0, exact_cfg);
  RootFinderConfig mod_cfg = exact_cfg;
  mod_cfg.modular = cfg;
  // Stage 1 screens p out at selection without counting it, so every bad
  // prime the pipeline reports is the tree table's skip.
  for (int threads : {1, 4}) {
    ParallelConfig pc;
    pc.num_threads = threads;
    instr::reset_modular();
    const auto run = find_real_roots_parallel(f0, mod_cfg, pc);
    const std::string where = "threads=" + std::to_string(threads);
    EXPECT_EQ(instr::modular_counts().bad_primes, 1u) << where;
    EXPECT_FALSE(run.used_sequential_fallback) << where;
    test::expect_same_report(exact, run.report, where);
  }
}

}  // namespace
}  // namespace pr
