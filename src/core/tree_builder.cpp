#include "core/tree_builder.hpp"

#include <algorithm>

#include "core/interval_stage.hpp"
#include "core/scaled_point.hpp"
#include "instr/phase.hpp"
#include "modular/tree_poly.hpp"
#include "support/error.hpp"

namespace pr {

namespace {

/// T matrix for an empty range [i, i-1]: c_{i-1}^2 * Identity, the neutral
/// element of the combination rule (Eq. 9 degenerates correctly with it).
PolyMat22 t_empty(const RemainderSequence& rs, int i) {
  const BigInt& cp = rs.c[static_cast<std::size_t>(i - 1)];
  const BigInt sq = cp * cp;
  PolyMat22 t;
  t.e[0][0] = Poly::constant(sq);
  t.e[1][1] = Poly::constant(sq);
  return t;
}

}  // namespace

BigInt linear_root_approx(const Poly& p, std::size_t mu) {
  check_internal(p.degree() == 1, "linear_root_approx: degree != 1");
  return BigInt::cdiv(-(p.coeff(0) << mu), p.coeff(1));
}

void compute_node_poly(Tree& tree, int idx, const RemainderSequence& rs,
                       const modular::ModularConfig* modular) {
  instr::PhaseScope phase(instr::Phase::kTreePoly);
  TreeNode& nd = tree.node(idx);
  const int n = tree.degree();

  if (nd.empty()) {
    nd.poly = Poly{1};
    nd.t = t_empty(rs, nd.i);
    nd.has_t = true;
    return;
  }
  if (nd.spine(n)) {
    // P_{i,n} = F_{i-1}; no T matrix is ever needed for spine nodes.
    nd.poly = rs.level(nd.i - 1);
    nd.has_t = false;
    return;
  }
  if (nd.leaf()) {
    nd.t = t_leaf(rs, nd.i);
    nd.has_t = true;
    nd.poly = nd.t.at(1, 1);
    return;
  }
  if (modular != nullptr && modular->enabled) {
    // Straight from the remainder sequence; T_{i,j} is never formed.
    nd.poly = modular::modular_tree_poly(rs, nd.i, nd.j, *modular);
    nd.has_t = false;
  } else {
    const TreeNode& lc = tree.node(nd.left);
    const TreeNode& rc = tree.node(nd.right);
    check_internal(lc.has_t && rc.has_t,
                   "compute_node_poly: children T not ready");
    nd.t = t_combine(rc.t, lc.t, rs, nd.split);
    nd.has_t = true;
    nd.poly = nd.t.at(1, 1);
  }
  check_internal(nd.poly.degree() == nd.length(),
                 "compute_node_poly: unexpected P_{i,j} degree");
}

std::vector<BigInt> merge_child_roots(const Tree& tree, int idx) {
  instr::PhaseScope phase(instr::Phase::kSort);
  const TreeNode& nd = tree.node(idx);
  const auto& a = tree.node(nd.left).roots;
  const auto& b = tree.node(nd.right).roots;
  std::vector<BigInt> out;
  out.reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

void analyze_interleave_range(const Poly& p, const std::vector<BigInt>& points,
                              std::size_t begin, std::size_t end,
                              std::size_t mu,
                              std::vector<InterleavePointInfo>& infos,
                              bool certified_probes) {
  check_internal(end <= points.size() && end <= infos.size() && begin <= end,
                 "analyze_interleave_range: bad range");
  for (std::size_t j = begin; j < end; ++j) {
    infos[j] = analyze_interleave_point(p, points[j], mu, certified_probes);
  }
}

void compute_node_roots(Tree& tree, int idx, std::size_t mu,
                        const BigInt& bound_scaled,
                        const IntervalSolverConfig& config,
                        IntervalStats* stats,
                        const modular::ModularConfig* modular) {
  TreeNode& nd = tree.node(idx);
  if (nd.empty()) {
    nd.roots.clear();
    return;
  }
  if (nd.poly.degree() == 1) {
    // Leaves (and a degree-1 input) have linear polynomials: the root is a
    // single exact ceiling division (Section 2: "the leaves ... are easy
    // to estimate").
    nd.roots = {linear_root_approx(nd.poly, mu)};
    return;
  }
  check_internal(nd.poly.degree() == nd.length(),
                 "compute_node_roots: degree/length mismatch");
  std::vector<BigInt> ys = merge_child_roots(tree, idx);
  const bool certified_probes = modular != nullptr && modular->enabled;
  nd.roots = solve_node_intervals(nd.poly, ys, mu, bound_scaled, config,
                                  stats, certified_probes);
}

}  // namespace pr
