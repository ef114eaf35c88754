#include "core/parallel_driver.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <utility>

#include "core/interval_stage.hpp"
#include "core/scaled_point.hpp"
#include "core/tree.hpp"
#include "core/tree_builder.hpp"
#include "instr/phase.hpp"
#include "isolate/isolate.hpp"
#include "modular/modular_prs.hpp"
#include "modular/tree_poly.hpp"
#include "poly/bounds.hpp"
#include "poly/certified_sign.hpp"
#include "poly/remainder_sequence.hpp"
#include "poly/sturm.hpp"
#include "support/error.hpp"

namespace pr {

namespace {

/// Strided residue tasks per worker thread for the modular tree table.
constexpr int kResidueTasksPerThread = 2;

/// Raised by stage 1 when F_{i+1} vanishes: the input has repeated roots
/// and the sequence is extended (Section 2.3).  A NonNormalSequence, like
/// stage 1's other diagnostics; find_real_roots_parallel catches it first
/// to tell it apart from a genuinely non-normal or non-real sequence, and
/// reduces with the gcd it carries instead of recomputing it.
class ExtendedSequence : public NonNormalSequence {
 public:
  ExtendedSequence(const std::string& what, Poly g)
      : NonNormalSequence(what), gcd(std::move(g)) {}
  /// gcd(F_0, F_0'): the primitive part of the last non-zero F_i
  /// (Section 2.3, footnote 2).
  Poly gcd;
};

/// All shared mutable state of one parallel run.  Every field is written
/// by exactly one task and read only by tasks ordered after it, so no
/// locking is needed beyond the pool's queue synchronization.
struct RunState {
  Poly work;                 // F_0 (primitive, assumed squarefree/normal)
  int n = 0;
  std::size_t mu = 0;
  BigInt bound_scaled;
  IntervalSolverConfig solver;

  RemainderSequence rs;
  // Staging for F_{i+1} coefficients (index: [i+1][j]).
  std::vector<std::vector<BigInt>> fstage;
  // Per-iteration quotient data (valid after the iteration's Q task).
  std::vector<BigInt> q0, q1, ci_sq, cprev_sq;
  // Per-operation grain staging: products of Eq. 18 ([i+1][j][0..2]).
  std::vector<std::vector<std::array<BigInt, 3>>> opstage;

  // Multimodular fast paths (see modular/): both engines expose split-phase
  // APIs precisely so this driver can schedule their stages as tasks.
  modular::ModularConfig modular;
  std::unique_ptr<modular::MultimodularPrs> mprs;
  std::unique_ptr<modular::ModularTreePolys> mtree;

  Tree tree;
  struct NodeScratch {
    PolyMat22 u;                              // U_k (exact internal nodes)
    BigInt s;                                 // c_k^2 c_{k-1}^2 (same)
    PolyMat22 w;                              // U_k * T_left
    std::vector<BigInt> points;               // sentinels + merged ys
    std::vector<InterleavePointInfo> infos;   // PREINTERVAL outputs
    std::vector<IntervalStats> stats;         // per-interval stats
  };
  std::vector<NodeScratch> scratch;

  explicit RunState(const Poly& p) : work(p), n(p.degree()), tree(p.degree()) {
    const auto un = static_cast<std::size_t>(n);
    rs.n = n;
    rs.nstar = n;
    rs.gcd_part = Poly{1};
    rs.F.assign(un + 1, Poly{});
    rs.Q.assign(un, Poly{});
    rs.c.assign(un + 1, BigInt(1));
    fstage.assign(un + 1, {});
    q0.assign(un, BigInt());
    q1.assign(un, BigInt());
    ci_sq.assign(un, BigInt());
    cprev_sq.assign(un, BigInt());
    opstage.assign(un + 1, {});
    scratch.resize(tree.nodes().size());
  }
};

/// Publishes F_{i+1} from the staging area and checks normality.  A free
/// function over RunState (NOT a GraphBuilder member): it runs inside
/// pool tasks, which outlive the builder -- the builder is torn down as
/// soon as the graph is built.
void finish_iteration(RunState& st, int i) {
  Poly next{std::move(st.fstage[static_cast<std::size_t>(i + 1)])};
  if (next.is_zero()) {
    throw ExtendedSequence(
        "repeated roots: F_" + std::to_string(i + 1) + " vanished",
        st.rs.F[static_cast<std::size_t>(i)].primitive_part());
  }
  if (next.degree() != st.n - i - 1) {
    // Same diagnostic as compute_remainder_sequence.
    throw NonNormalSequence(
        "remainder sequence is not normal (premature degree drop at F_" +
        std::to_string(i + 1) + ": degree " + std::to_string(next.degree()) +
        ", expected " + std::to_string(st.n - i - 1) + ")");
  }
  if (next.leading().signum() != st.rs.c[0].signum()) {
    // A normal sequence has all n roots real exactly when every c_t has
    // the sign of c_0 (V(+inf) = 0 and V(-inf) = n), so this level is the
    // first to show a non-real root.  No task has read it yet, and a tree
    // node over the levels before it stays real-rooted.
    throw NonNormalSequence("input has non-real roots");
  }
  st.rs.c[static_cast<std::size_t>(i + 1)] = next.leading();
  st.rs.F[static_cast<std::size_t>(i + 1)] = std::move(next);
}

/// Iteration i's quotient step: Q_i, the squared leading coefficients
/// c_i^2 and c_{i-1}^2, and an empty staging row for F_{i+1}.
void form_quotient(RunState& st, int i) {
  const auto ui = static_cast<std::size_t>(i);
  const Poly& fprev = st.rs.F[ui - 1];
  const Poly& fcur = st.rs.F[ui];
  quotient_coeffs(fprev, fcur, st.q1[ui], st.q0[ui]);
  st.rs.Q[ui] = Poly(std::vector<BigInt>{st.q0[ui], st.q1[ui]});
  const BigInt& ci = st.rs.c[ui];
  const BigInt& cp = st.rs.c[ui - 1];
  st.ci_sq[ui] = ci * ci;
  st.cprev_sq[ui] = cp * cp;
  st.fstage[ui + 1].assign(static_cast<std::size_t>(st.n - i), BigInt());
}

/// Installs a whole stage-1 sequence computed by one task, with the same
/// diagnostics finish_iteration raises one level at a time.
void publish_sequence(RunState& st, RemainderSequence full) {
  if (full.extended()) {
    throw ExtendedSequence("repeated roots detected", std::move(full.gcd_part));
  }
  if (real_root_count(full) != st.n) {
    throw NonNormalSequence("input has non-real roots");
  }
  st.rs = std::move(full);
}

/// Builds the whole task graph for one run.  Returns the id of the root
/// node's roots-marker (the final task).
class GraphBuilder {
 public:
  GraphBuilder(RunState& st, TaskGraph& g, const ParallelConfig& pc)
      : st_(st), g_(g), pc_(pc) {}

  void build() {
    build_remainder_stage();
    build_tree_stage();
  }

 private:
  RunState& st_;
  TaskGraph& g_;
  const ParallelConfig& pc_;

  int chunk_size() const { return std::max(1, pc_.grain_chunk); }

  // mark_[k] completes when F_k (and c_k) are valid, k >= 1.
  std::vector<TaskId> mark_;
  // q_ready_[i] completes when Q_i, c_i, c_{i-1}, and the squared leading
  // coefficients for iteration i are valid, 1 <= i <= n-1.
  std::vector<TaskId> q_ready_;
  // Per-tree-node completion tasks.
  std::vector<TaskId> t_ready_;      // polynomial (and T matrix) visible
  std::vector<TaskId> roots_ready_;  // roots vector visible

  void make_quotient_task(int i) {
    RunState& st = st_;
    const TaskId q = g_.add(TaskKind::kQuotient, i, [&st, i] {
      instr::PhaseScope phase(instr::Phase::kRemainder);
      form_quotient(st, i);
    });
    g_.add_edge(mark_[static_cast<std::size_t>(i)], q);
    q_ready_[static_cast<std::size_t>(i)] = q;
  }

  /// Stage 1 on the multimodular engine: one task per eager prime image
  /// and the held-out image fan out with no dependencies at all, a prep
  /// task builds the CRT basis, a serial chain of one small task per level
  /// sizes it from the leading pairs and reconstructs those, and each
  /// level's task -- released as soon as the chain has sized it -- forms
  /// Q_i and checks the level independently of the others; only for a
  /// spine level, the F_t the tree reads whole, does it also reconstruct
  /// the rest of the level.  One publish task waits for every level,
  /// releases the engine and installs the partial sequence (or recomputes
  /// exactly when the engine declined -- the exact path owns the
  /// extended/non-normal diagnostics).
  void build_modular_remainder_stage() {
    RunState& st = st_;
    const int n = st.n;
    auto& prs = *st.mprs;

    const TaskId prep =
        g_.add(TaskKind::kModPrep, -1, [&prs] { prs.prepare_crt(); });
    for (std::size_t s = 0; s < prs.num_slots(); ++s) {
      const TaskId img =
          g_.add(TaskKind::kPrimeImage, static_cast<std::int32_t>(s),
                 [&prs, s] { prs.run_image(s); });
      g_.add_edge(img, prep);
    }
    const TaskId holdout = g_.add(
        TaskKind::kPrimeImage, static_cast<std::int32_t>(prs.num_slots()),
        [&prs] { prs.run_holdout(); });
    g_.add_edge(holdout, prep);
    const TaskId publish = g_.add(TaskKind::kModPublish, -1, [&st] {
      auto rs = st.mprs->finalize();
      st.mprs.reset();
      publish_sequence(st, rs ? std::move(*rs)
                              : compute_remainder_sequence(st.work));
    });
    // The chain's next step is each step's first dependent, so a worker
    // that finishes a step with an empty queue carries the chain on.
    std::vector<TaskId> chain;
    TaskId prev = prep;
    for (std::size_t l = 1; l <= prs.num_levels(); ++l) {
      const int i = static_cast<int>(l);
      const TaskId step =
          g_.add(TaskKind::kModPrep, i, [&prs, i] { prs.size_level(i); });
      g_.add_edge(prev, step);
      chain.push_back(step);
      prev = step;
    }
    for (std::size_t l = 1; l <= prs.num_levels(); ++l) {
      const int i = static_cast<int>(l);
      const TaskId level = g_.add(TaskKind::kModCrt, i,
                                  [&prs, i] { prs.reconstruct_level(i); });
      g_.add_edge(chain[l - 1], level);
      g_.add_edge(level, publish);
    }
    for (int k = 1; k <= n; ++k) mark_[static_cast<std::size_t>(k)] = publish;
    for (int i = 1; i <= n - 1; ++i) {
      q_ready_[static_cast<std::size_t>(i)] = publish;
    }
  }

  void build_remainder_stage() {
    RunState& st = st_;
    const int n = st.n;
    mark_.assign(static_cast<std::size_t>(n) + 1, -1);
    q_ready_.assign(static_cast<std::size_t>(n), -1);

    if (st.mprs != nullptr) {
      build_modular_remainder_stage();
      return;
    }

    if (pc_.grain == RemainderGrain::kSequential) {
      // One task for the whole stage (the paper's run-time option).  It
      // replaces all of st.rs, F_0 and F_1 included, so every tree task
      // waits for it.
      const TaskId all = g_.add(TaskKind::kCoeff, -1, [&st] {
        publish_sequence(st, compute_remainder_sequence(st.work));
      });
      for (int k = 1; k <= n; ++k) mark_[static_cast<std::size_t>(k)] = all;
      for (int i = 1; i <= n - 1; ++i) q_ready_[static_cast<std::size_t>(i)] = all;
      return;
    }

    const TaskId seed = g_.add(TaskKind::kSeed, 0, [&st] {
      instr::PhaseScope phase(instr::Phase::kRemainder);
      st.rs.F[0] = st.work;
      st.rs.F[1] = st.work.derivative();
      st.rs.c[0] = BigInt(st.work.leading().signum());
      st.rs.c[1] = st.rs.F[1].leading();
    });
    mark_[1] = seed;

    for (int i = 1; i <= n - 1; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      if (pc_.grain == RemainderGrain::kPerIteration) {
        const TaskId it = g_.add(TaskKind::kCoeff, i, [&st, i] {
          instr::PhaseScope phase(instr::Phase::kRemainder);
          form_quotient(st, i);
          const auto uidx = static_cast<std::size_t>(i);
          for (int j = 0; j <= st.n - i - 1; ++j) {
            st.fstage[uidx + 1][static_cast<std::size_t>(j)] = next_f_coeff(
                st.rs.F[uidx - 1], st.rs.F[uidx], st.q1[uidx], st.q0[uidx],
                st.ci_sq[uidx], st.cprev_sq[uidx], static_cast<std::size_t>(j));
          }
          finish_iteration(st, i);
        });
        g_.add_edge(mark_[ui], it);
        q_ready_[ui] = it;
        mark_[ui + 1] = it;
        continue;
      }

      make_quotient_task(i);
      const TaskId marker = g_.add(TaskKind::kIterMark, i,
                                   [&st, i] { finish_iteration(st, i); });
      // Grain coarsening: fuse `chunk` consecutive coefficients into one
      // scheduled task (values are independent of the chunking; only the
      // dispatch count changes).
      const int ncoeff = n - i;  // coefficients j = 0 .. n-i-1
      const int chunk = chunk_size();
      for (int j0 = 0; j0 < ncoeff; j0 += chunk) {
        const auto b = static_cast<std::size_t>(j0);
        const auto e =
            static_cast<std::size_t>(std::min(j0 + chunk, ncoeff));
        if (pc_.grain == RemainderGrain::kPerCoefficient) {
          const TaskId c = g_.add(TaskKind::kCoeff, i, [&st, i, b, e] {
            instr::PhaseScope phase(instr::Phase::kRemainder);
            const auto uidx = static_cast<std::size_t>(i);
            for (std::size_t uj = b; uj < e; ++uj) {
              st.fstage[uidx + 1][uj] = next_f_coeff(
                  st.rs.F[uidx - 1], st.rs.F[uidx], st.q1[uidx], st.q0[uidx],
                  st.ci_sq[uidx], st.cprev_sq[uidx], uj);
            }
          });
          g_.add_edge(q_ready_[ui], c);
          g_.add_edge(c, marker);
        } else {  // kPerOperation: the paper's finest grain
          // Stage the three products of Eq. 18 in separate tasks, then
          // combine (subtractions + exact division) in a fourth; each
          // task covers the chunk's coefficient range.
          if (st.opstage[ui + 1].empty()) {
            st.opstage[ui + 1].resize(static_cast<std::size_t>(ncoeff));
          }
          TaskId prods[3];
          for (int op = 0; op < 3; ++op) {
            prods[op] =
                g_.add(TaskKind::kMulOp, i, [&st, i, b, e, op] {
                  instr::PhaseScope phase(instr::Phase::kRemainder);
                  const auto uidx = static_cast<std::size_t>(i);
                  const Poly& fcur = st.rs.F[uidx];
                  const Poly& fprev = st.rs.F[uidx - 1];
                  for (std::size_t uj = b; uj < e; ++uj) {
                    auto& slot = st.opstage[uidx + 1][uj][
                        static_cast<std::size_t>(op)];
                    switch (op) {
                      case 0: slot = fcur.coeff(uj) * st.q0[uidx]; break;
                      case 1:
                        slot = uj > 0 ? fcur.coeff(uj - 1) * st.q1[uidx]
                                      : BigInt();
                        break;
                      default: slot = st.ci_sq[uidx] * fprev.coeff(uj); break;
                    }
                  }
                });
            g_.add_edge(q_ready_[ui], prods[op]);
          }
          const TaskId comb = g_.add(TaskKind::kCombineOp, i, [&st, i, b, e] {
            instr::PhaseScope phase(instr::Phase::kRemainder);
            const auto uidx = static_cast<std::size_t>(i);
            for (std::size_t uj = b; uj < e; ++uj) {
              // f_{i,j-1} is zero for j == 0: no product, no addition
              // (next_f_coeff counts the same operations).
              const auto& slots = st.opstage[uidx + 1][uj];
              const BigInt num = uj > 0 ? slots[0] + slots[1] : slots[0];
              st.fstage[uidx + 1][uj] =
                  BigInt::divexact(num - slots[2], st.cprev_sq[uidx]);
            }
          });
          for (auto prod : prods) g_.add_edge(prod, comb);
          g_.add_edge(comb, marker);
        }
      }
      mark_[ui + 1] = marker;
    }
  }

  void build_tree_stage() {
    RunState& st = st_;
    const auto& order = st.tree.postorder();
    t_ready_.assign(st.tree.nodes().size(), -1);
    roots_ready_.assign(st.tree.nodes().size(), -1);
    if (st.modular.enabled) build_modular_tree_tasks();
    for (int idx : order) build_node_poly_tasks(idx);
    for (int idx : order) build_node_root_tasks(idx);
  }

  /// Modular tree polynomials (modular/tree_poly.hpp) for every internal
  /// non-spine node, once stage 1 has published the whole sequence: one
  /// set-up task (bounds and candidate primes), residue tasks strided over
  /// the candidates, one publish task (bad-prime screen and CRT basis),
  /// then one task per node -- the recurrence at each of its primes and a
  /// single CRT of P_{i,j} -- and a last task that frees the table and the
  /// basis.  Node tasks wait for nothing else: no children's T.  They are
  /// released longest node first, so the largest CRTs start earliest.
  void build_modular_tree_tasks() {
    RunState& st = st_;
    const int n = st.n;
    std::vector<int> nodes;
    for (int idx : st.tree.postorder()) {
      const TreeNode& nd = st.tree.node(idx);
      if (!nd.empty() && !nd.leaf() && !nd.spine(n)) nodes.push_back(idx);
    }
    if (nodes.empty()) return;
    // The publish task releases its dependents in the order added.
    std::stable_sort(nodes.begin(), nodes.end(), [&st](int a, int b) {
      return st.tree.node(a).length() > st.tree.node(b).length();
    });
    std::vector<std::pair<int, int>> ranges;
    for (int idx : nodes) {
      ranges.emplace_back(st.tree.node(idx).i, st.tree.node(idx).j);
    }
    st.mtree = std::make_unique<modular::ModularTreePolys>(
        st.rs, std::move(ranges), st.modular);
    auto& table = *st.mtree;

    const TaskId setup = g_.add(TaskKind::kModPrep, -1, [&table] {
      instr::PhaseScope phase(instr::Phase::kTreePoly);
      table.set_up();
    });
    g_.add_edge(mark_[static_cast<std::size_t>(n)], setup);
    const TaskId publish = g_.add(TaskKind::kModPrep, -1, [&table] {
      instr::PhaseScope phase(instr::Phase::kTreePoly);
      table.publish();
    });
    const auto width = static_cast<std::size_t>(
        kResidueTasksPerThread * std::max(1, pc_.num_threads));
    for (std::size_t w = 0; w < width; ++w) {
      const TaskId res = g_.add(
          TaskKind::kPrimeImage, static_cast<std::int32_t>(w),
          [&table, w, width] {
            instr::PhaseScope phase(instr::Phase::kTreePoly);
            table.compute_residues(w, width);
          });
      g_.add_edge(setup, res);
      g_.add_edge(res, publish);
    }
    const TaskId release = g_.add(TaskKind::kModPublish, -1,
                                  [&st] { st.mtree.reset(); });
    for (std::size_t k = 0; k < nodes.size(); ++k) {
      const int idx = nodes[k];
      const TaskId t = g_.add(TaskKind::kModCrt, idx, [&st, &table, idx, k] {
        instr::PhaseScope phase(instr::Phase::kTreePoly);
        TreeNode& node = st.tree.node(idx);
        node.poly = table.node_poly(k);
        check_internal(node.poly.degree() == node.length(),
                       "modular COMPUTEPOLY: unexpected degree");
      });
      g_.add_edge(publish, t);
      g_.add_edge(t, release);
      t_ready_[static_cast<std::size_t>(idx)] = t;
    }
  }

  /// Task completing when F_k and c_k are available; F_0/c_0 come from the
  /// seed task.
  TaskId f_available(int k) const {
    return k <= 0 ? mark_[1] : mark_[static_cast<std::size_t>(std::max(k, 1))];
  }

  void build_node_poly_tasks(int idx) {
    RunState& st = st_;
    Tree& tree = st.tree;
    TreeNode& nd = tree.node(idx);
    const int n = st.n;

    if (nd.empty() || nd.spine(n) || nd.leaf()) {
      // The one-node step.  An empty or spine node reads c_{i-1} or
      // F_{i-1}; a leaf reads Q_i -- except the rightmost leaf [n, n],
      // which is a spine node too (q_ready_ has no entry n).
      const TaskId t = g_.add(TaskKind::kSetPoly, idx, [&st, idx] {
        compute_node_poly(st.tree, idx, st.rs);
      });
      g_.add_edge(nd.leaf() && !nd.spine(n)
                      ? q_ready_[static_cast<std::size_t>(nd.i)]
                      : f_available(nd.i - 1),
                  t);
      t_ready_[static_cast<std::size_t>(idx)] = t;
      return;
    }

    // Internal non-spine node: with modular arithmetic on, its task came
    // from build_modular_tree_tasks.
    if (st.modular.enabled) return;
    const int k = nd.split;
    const TaskId left_ready = t_ready_[static_cast<std::size_t>(nd.left)];
    const TaskId right_ready = t_ready_[static_cast<std::size_t>(nd.right)];
    const TaskId uk_ready = q_ready_[static_cast<std::size_t>(k)];
    build_exact_combine_tasks(idx, k, left_ready, right_ready, uk_ready);
  }

  /// Exact COMPUTEPOLY (Section 3.2): a prep task forms U_k and
  /// s = c_k^2 c_{k-1}^2 once, two matrix products run as four entry tasks
  /// each, and the publish task divides by s -- the work of t_combine,
  /// split across tasks.
  void build_exact_combine_tasks(int idx, int k, TaskId left_ready,
                                 TaskId right_ready, TaskId uk_ready) {
    RunState& st = st_;
    const TaskId prep = g_.add(TaskKind::kSetPoly, idx, [&st, idx, k] {
      instr::PhaseScope phase(instr::Phase::kTreePoly);
      auto& sc = st.scratch[static_cast<std::size_t>(idx)];
      const BigInt& ck = st.rs.c[static_cast<std::size_t>(k)];
      const BigInt& cp = st.rs.c[static_cast<std::size_t>(k - 1)];
      sc.u = u_matrix(st.rs, k);
      sc.s = ck * ck * cp * cp;
    });
    g_.add_edge(uk_ready, prep);

    TaskId me1[2][2];
    for (int r = 0; r < 2; ++r) {
      for (int c = 0; c < 2; ++c) {
        me1[r][c] = g_.add(TaskKind::kMatEntry1, idx, [&st, idx, r, c] {
          instr::PhaseScope phase(instr::Phase::kTreePoly);
          auto& sc = st.scratch[static_cast<std::size_t>(idx)];
          const PolyMat22& tl = st.tree.node(st.tree.node(idx).left).t;
          sc.w.e[r][c] = PolyMat22::mul_entry(sc.u, tl, r, c);
        });
        g_.add_edge(left_ready, me1[r][c]);
        g_.add_edge(prep, me1[r][c]);
      }
    }
    TaskId me2[2][2];
    for (int r = 0; r < 2; ++r) {
      for (int c = 0; c < 2; ++c) {
        me2[r][c] = g_.add(TaskKind::kMatEntry2, idx, [&st, idx, r, c] {
          instr::PhaseScope phase(instr::Phase::kTreePoly);
          TreeNode& node = st.tree.node(idx);
          const PolyMat22& tr = st.tree.node(node.right).t;
          const PolyMat22& w = st.scratch[static_cast<std::size_t>(idx)].w;
          node.t.e[r][c] = PolyMat22::mul_entry(tr, w, r, c);
        });
        g_.add_edge(right_ready, me2[r][c]);
        g_.add_edge(me1[0][c], me2[r][c]);
        g_.add_edge(me1[1][c], me2[r][c]);
      }
    }
    const TaskId publish = g_.add(TaskKind::kSetPoly, idx, [&st, idx] {
      instr::PhaseScope phase(instr::Phase::kTreePoly);
      TreeNode& node = st.tree.node(idx);
      auto& sc = st.scratch[static_cast<std::size_t>(idx)];
      node.t = node.t.divexact_scalar(sc.s);
      sc.u = PolyMat22{};
      sc.w = PolyMat22{};
      sc.s = BigInt();
      node.has_t = true;
      node.poly = node.t.at(1, 1);
      check_internal(node.poly.degree() == node.length(),
                     "parallel COMPUTEPOLY: unexpected degree");
    });
    for (int r = 0; r < 2; ++r) {
      for (int c = 0; c < 2; ++c) g_.add_edge(me2[r][c], publish);
    }
    t_ready_[static_cast<std::size_t>(idx)] = publish;
  }

  void build_node_root_tasks(int idx) {
    RunState& st = st_;
    TreeNode& nd = st.tree.node(idx);
    const TaskId poly_ready = t_ready_[static_cast<std::size_t>(idx)];

    if (nd.empty()) {
      const TaskId m = g_.add(TaskKind::kRootsMark, idx, {});
      g_.add_edge(poly_ready, m);
      roots_ready_[static_cast<std::size_t>(idx)] = m;
      return;
    }
    if (nd.length() == 1) {
      const TaskId t = g_.add(TaskKind::kLinRoot, idx, [&st, idx] {
        TreeNode& node = st.tree.node(idx);
        node.roots = {linear_root_approx(node.poly, st.mu)};
      });
      g_.add_edge(poly_ready, t);
      roots_ready_[static_cast<std::size_t>(idx)] = t;
      return;
    }

    const int d = nd.length();
    auto& scratch = st.scratch[static_cast<std::size_t>(idx)];
    scratch.infos.resize(static_cast<std::size_t>(d) + 1);
    scratch.stats.resize(static_cast<std::size_t>(d));

    const TaskId sort = g_.add(TaskKind::kSort, idx, [&st, idx] {
      TreeNode& node = st.tree.node(idx);
      auto& sc = st.scratch[static_cast<std::size_t>(idx)];
      std::vector<BigInt> ys = merge_child_roots(st.tree, idx);
      sc.points.clear();
      sc.points.reserve(ys.size() + 2);
      sc.points.push_back(-st.bound_scaled);
      for (auto& y : ys) sc.points.push_back(std::move(y));
      sc.points.push_back(st.bound_scaled);
      node.roots.assign(static_cast<std::size_t>(node.length()), BigInt());
    });
    g_.add_edge(roots_ready_[static_cast<std::size_t>(nd.left)], sort);
    g_.add_edge(roots_ready_[static_cast<std::size_t>(nd.right)], sort);

    // prein[j] = the task that analyzes interleaving point j.  With
    // grain_chunk > 1 one kPreInterval task covers a whole range of
    // points, so consecutive entries may alias the same task.
    const int chunk = chunk_size();
    std::vector<TaskId> prein(static_cast<std::size_t>(d) + 1);
    for (int j0 = 0; j0 <= d; j0 += chunk) {
      const auto b = static_cast<std::size_t>(j0);
      const auto e = static_cast<std::size_t>(std::min(j0 + chunk, d + 1));
      const TaskId t = g_.add(TaskKind::kPreInterval, idx, [&st, idx, b, e] {
        auto& sc = st.scratch[static_cast<std::size_t>(idx)];
        analyze_interleave_range(st.tree.node(idx).poly, sc.points, b, e,
                                 st.mu, sc.infos, st.modular.enabled);
      });
      g_.add_edge(sort, t);
      g_.add_edge(poly_ready, t);
      for (std::size_t j = b; j < e; ++j) prein[j] = t;
    }

    const TaskId marker = g_.add(TaskKind::kRootsMark, idx, {});
    for (int i = 0; i < d; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      const TaskId iv = g_.add(TaskKind::kInterval, idx, [&st, idx, i, ui] {
        TreeNode& node = st.tree.node(idx);
        auto& sc = st.scratch[static_cast<std::size_t>(idx)];
        node.roots[ui] = solve_one_interval(
            node.poly, i, sc.points[ui], sc.points[ui + 1], sc.infos[ui],
            sc.infos[ui + 1], st.mu, st.solver, &sc.stats[ui],
            st.modular.enabled);
      });
      g_.add_edge(prein[ui], iv);
      if (prein[ui + 1] != prein[ui]) g_.add_edge(prein[ui + 1], iv);
      g_.add_edge(iv, marker);
    }
    roots_ready_[static_cast<std::size_t>(idx)] = marker;
  }
};

/// What a solve's task graph hands the report: one root per distinct real
/// root of the polynomial it ran on, and their interval statistics.
struct Solved {
  std::vector<BigInt> roots;
  IntervalStats stats;
};

/// Builds the full two-stage graph for `work` (primitive, degree >= 2,
/// all roots in (-2^bound, 2^bound)) and runs it on a pool of
/// parallel.num_threads workers; TaskPool(1) executes inline on the
/// caller.  Tasks hold references into `state`, which outlives the run.
/// Records the execution in out.pool and out.trace.
Solved run_graph(const Poly& work, std::size_t bound,
                 const RootFinderConfig& config,
                 const ParallelConfig& parallel, ParallelRunResult& out) {
  RunState state(work);
  state.mu = config.mu_bits;
  state.solver = config.solver;
  state.modular = config.modular;
  state.bound_scaled = BigInt::pow2(bound + config.mu_bits);
  // Stage 1 goes multimodular only when both enabled and big enough;
  // the sequential grain keeps its one-task exact shape.
  if (state.modular.enabled &&
      parallel.grain != RemainderGrain::kSequential) {
    auto prs = std::make_unique<modular::MultimodularPrs>(
        work, state.modular, state.tree.spine_levels());
    if (prs->worthwhile()) state.mprs = std::move(prs);
  }
  TaskGraph graph;
  GraphBuilder(state, graph, parallel).build();
  graph.validate();
  TaskPool pool(parallel.num_threads);
  out.pool = pool.run(graph);
  out.trace = TaskTrace::from_graph(graph);

  Solved solved;
  solved.roots = state.tree.node(state.tree.root_index()).roots;
  for (const auto& sc : state.scratch) {
    for (const auto& st : sc.stats) solved.stats += st;
  }
  return solved;
}

/// The kRefine stage of the general path and of refine_roots_parallel:
/// one task per cell of `p`, each writing its root positionally (the
/// cells are sorted, so the roots are too).  When given, `prepare` first
/// completes a task's cell on the pool.  Records the execution in
/// out.pool and out.trace when there is a cell to refine.
Solved refine_cells(const Poly& p, std::vector<isolate::IsolatingCell>& cells,
                    const RootFinderConfig& config,
                    const ParallelConfig& parallel, ParallelRunResult& out,
                    void (*prepare)(const Poly&, isolate::IsolatingCell&) =
                        nullptr) {
  std::vector<BigInt> roots(cells.size());
  std::vector<isolate::QirStats> stats(cells.size());
  isolate::QirStats totals;
  if (!cells.empty()) {
    TaskGraph graph;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      graph.add(TaskKind::kRefine, static_cast<std::int32_t>(i), [&, i] {
        if (prepare) prepare(p, cells[i]);
        roots[i] = isolate::cell_mu_approx(p, cells[i], config.mu_bits,
                                           config.isolate.qir, &stats[i]);
      });
    }
    graph.validate();
    TaskPool pool(parallel.num_threads);
    out.pool = pool.run(graph);
    out.trace = TaskTrace::from_graph(graph);
    for (const auto& st : stats) totals += st;
  }
  return {std::move(roots), isolate::qir_interval_stats(cells, totals)};
}

/// Completes a stored cell, given its scale and its right end k: the cell
/// ((k-1)/2^mu, k/2^mu] is exact when k is a root, otherwise open with the
/// one-sided sign at k-1 (a zero there is a neighbouring root).  Throws
/// InvalidArgument when the cell shows no sign change.
void stored_cell_signs(const Poly& p, isolate::IsolatingCell& cell) {
  cell.s_hi = filtered_sign_scaled(p, cell.hi, cell.scale);
  if (cell.s_hi == 0) {
    cell.lo = cell.hi;
    cell.exact = true;
    return;
  }
  cell.lo = cell.hi - BigInt(1);
  cell.s_lo = filtered_sign_scaled(p, cell.lo, cell.scale);
  if (cell.s_lo == 0) cell.s_lo = sign_right_limit(p, cell.lo, cell.scale);
  check_arg(cell.s_lo * cell.s_hi == -1,
            "refine_roots_parallel: a stored cell holds no single root");
}

}  // namespace

ParallelRunResult find_real_roots_parallel(const Poly& p,
                                           const RootFinderConfig& config,
                                           const ParallelConfig& parallel) {
  check_arg(p.degree() >= 1, "find_real_roots_parallel: degree >= 1");
  check_arg(parallel.grain_chunk >= 1,
            "find_real_roots_parallel: grain_chunk >= 1");
  ParallelRunResult out;
  // Work on the primitive part; scaling by a positive rational constant
  // changes no root.
  isolate::IsolationRun run;
  run.input_degree = p.degree();
  run.work = p.primitive_part();
  Solved solved;
  bool from_graph = false;
  bool fallback = false;
  if (config.strategy == FinderStrategy::kPaper) {
    // The interleaving tree first.  Repeated roots are detected by the
    // remainder sequence itself (it terminates early, Section 2.3), which
    // also hands over g = gcd(work, work'); only then is a squarefree
    // decomposition paid for, seeded with that g: the graph reruns on the
    // squarefree part (see DESIGN.md for why this realizes the paper's
    // extended-sequence stage) and the factors give the multiplicities.
    try {
      while (run.work.degree() >= 2 && !from_graph) {
        try {
          run.bound_pow2 = root_bound_pow2(run.work);
          solved = run_graph(run.work, run.bound_pow2, config, parallel, out);
          from_graph = true;
        } catch (const ExtendedSequence& e) {
          check_internal(!run.reduced,
                         "squarefree input yielded an extended sequence");
          run.reduce(e.gcd);
        }
      }
    } catch (const NonNormalSequence&) {
      // A non-normal sequence or non-real roots: the tree does not apply,
      // so the general path answers (when allowed), starting from any
      // reduction stage 1 already made.
      if (!config.allow_sturm_fallback) throw;
      fallback = true;
    }
  }
  if (!from_graph) {
    // kRadii, kPaper's fallback, and a linear input or squarefree part.
    isolate::isolate_run(run);
    if (run.work.degree() == 1) {
      solved.roots = {linear_root_approx(run.work, config.mu_bits)};
    } else {
      solved = refine_cells(run.isolation.stripped, run.isolation.cells,
                            config, parallel, out);
    }
    out.used_sequential_fallback = run.isolation.cells.empty();
  }
  out.report = isolate::assemble_report(run, config, std::move(solved.roots),
                                        solved.stats);
  out.report.used_sturm_fallback = fallback;
  out.isolated = std::move(run.work);
  return out;
}

ParallelRunResult refine_roots_parallel(const Poly& isolated,
                                        const RootReport& stored,
                                        const RootFinderConfig& config,
                                        const ParallelConfig& parallel) {
  const std::size_t mu = config.mu_bits;
  check_arg(mu >= stored.mu,
            "refine_roots_parallel: target precision below the stored mu");
  check_arg(isolated.degree() >= 1,
            "refine_roots_parallel: non-constant polynomial required");
  const std::vector<BigInt>& ks = stored.roots;
  // Two distinct roots closer than 2^-stored.mu share a stored value, and
  // their cell then holds two roots; only a cold run separates them.
  check_arg(std::adjacent_find(ks.begin(), ks.end()) == ks.end(),
            "refine_roots_parallel: two roots share a stored cell");
  ParallelRunResult out;
  std::vector<isolate::IsolatingCell> cells;
  Solved solved;
  if (isolated.degree() == 1) {
    // No bracket needed: the division find_real_roots_parallel answers a
    // linear input with, kept only if it lands in the stored cell.
    solved.roots = {linear_root_approx(isolated, mu)};
    check_arg(ks.size() == 1 &&
                  ceil_shift(solved.roots[0], mu - stored.mu) == ks[0],
              "refine_roots_parallel: a stored cell holds no single root");
  } else {
    // Stored value k is the cell ((k-1)/2^mu, k/2^mu] at mu = stored.mu;
    // each task finds its cell's signs before refining it.
    cells.resize(ks.size());
    for (std::size_t i = 0; i < ks.size(); ++i) {
      cells[i].scale = stored.mu;
      cells[i].hi = ks[i];
    }
    solved = refine_cells(isolated, cells, config, parallel, out,
                          stored_cell_signs);
  }
  out.report = stored;
  out.report.roots = std::move(solved.roots);
  out.report.mu = mu;
  out.report.stats = solved.stats;
  if (config.validate) detail::validate_roots(isolated, out.report.roots, mu);
  out.isolated = isolated;
  out.used_sequential_fallback = cells.empty();
  return out;
}

}  // namespace pr
