// RealRootFinder: the library's main entry point.
//
// Computes mu-approximations (ceiling convention, ceil(2^mu x) / 2^mu) of
// every real root of an integer polynomial whose roots are all real, using
// the interleaving-tree algorithm of Narendran & Tiwari (after Ben-Or &
// Tiwari).  Repeated roots are reduced away by squarefree decomposition
// and reported through per-root multiplicities; inputs whose remainder
// sequence is not normal, or shows non-real roots, fall back to the
// general-input path of the kRadii strategy, Descartes isolation + QIR
// (src/isolate/; configurable).
//
// There is one implementation: find_real_roots is find_real_roots_parallel
// (core/parallel_driver.hpp) at one thread, whose task graph then runs
// inline on the caller.
#pragma once

#include <cstddef>
#include <vector>

#include "core/interval_solver.hpp"
#include "isolate/isolate_config.hpp"
#include "modular/modular_config.hpp"
#include "poly/poly.hpp"
#include "poly/squarefree.hpp"

namespace pr {

struct RootFinderConfig {
  /// Output precision: roots are reported as ceil(2^mu x) at scale mu.
  std::size_t mu_bits = 53;
  /// Which isolation pipeline runs: the paper's interleaving tree
  /// (default) or kRadii, Descartes isolation + QIR refinement
  /// (src/isolate/), which also accepts inputs with complex roots.
  /// Mu-approximations are bit-identical where both apply.
  FinderStrategy strategy = FinderStrategy::kPaper;
  /// Interval-problem solver settings (hybrid by default).
  IntervalSolverConfig solver;
  /// Settings of the general-input path (kRadii and kPaper's fallback).
  isolate::IsolateConfig isolate;
  /// kPaper only: if the remainder sequence is not normal or shows a
  /// non-real root, answer through kRadii's general-input path instead of
  /// throwing NonNormalSequence.  The name is historical.
  bool allow_sturm_fallback = true;
  /// Cross-checks the report against a Sturm count of the real roots
  /// (detail::validate_roots; expensive, for tests and debugging).  Applies
  /// to every entry point and strategy, kPaper's fallback included, and
  /// so to every cold solve of the RootService.
  bool validate = false;
  /// Multimodular fast paths (remainder sequence + tree polynomials); off by
  /// default, bit-identical results when enabled.
  modular::ModularConfig modular;
};

struct RootReport {
  /// ceil(2^mu x) for each distinct real root x, nondecreasing.  Two
  /// distinct roots closer than 2^-mu may share a value.
  std::vector<BigInt> roots;
  /// Multiplicity of each root in the original polynomial (aligned with
  /// `roots`; all 1 for squarefree inputs).
  std::vector<unsigned> multiplicities;
  std::size_t mu = 0;          ///< scale of `roots`
  std::size_t bound_pow2 = 0;  ///< R: all roots lie in (-2^R, 2^R)
  int degree = 0;              ///< degree of the input
  int distinct_roots = 0;      ///< roots.size(): the distinct real roots
  /// gcd(p, p') is non-constant; `roots` are the squarefree part's.
  bool squarefree_reduced = false;
  /// kPaper's tree rejected the input (a non-normal or non-real sequence)
  /// and kRadii's general-input path answered.  The name is historical.
  bool used_sturm_fallback = false;
  /// Interval statistics; on the general-input path, the QIR counters.
  IntervalStats stats;

  /// Root i as a double (for reporting).
  double root_as_double(std::size_t i) const;
};

class RealRootFinder {
 public:
  explicit RealRootFinder(RootFinderConfig config = {}) : config_(config) {}

  /// Finds all real roots of p: find_real_roots_parallel at one thread.
  /// Precondition: p is non-constant.  Under kPaper, an input with
  /// non-real roots takes the fallback through the Descartes isolator and
  /// QIR, and gets kRadii's report (or throws NonNormalSequence when
  /// allow_sturm_fallback is off); validate checks the returned roots
  /// against a Sturm count of the real roots.
  RootReport find(const Poly& p) const;

  const RootFinderConfig& config() const { return config_; }

 private:
  RootFinderConfig config_;
};

/// One-call convenience wrapper.
RootReport find_real_roots(const Poly& p, RootFinderConfig config = {});

namespace detail {

/// Assigns a multiplicity to each computed root by locating it within the
/// squarefree factors.  A root alone in its cell (lo, hi] =
/// ((k-1)/2^mu, k/2^mu] belongs to the one factor that vanishes at hi or
/// whose sign at hi differs from its sign just right of lo: the certified
/// filtered_sign_scaled at both ends, and sign_right_limit where the value
/// at lo is 0.  A cell that several roots share, or whose signs do not
/// single out exactly one factor, counts each factor's roots in it with
/// that factor's Sturm chain (built on first need) and consumes the counts
/// in factor order.  Shared by the finder strategies.
std::vector<unsigned> assign_multiplicities(
    const std::vector<BigInt>& roots, std::size_t mu,
    const std::vector<SquarefreeFactor>& factors);

/// Sturm cross-check of a finished report (RootFinderConfig::validate):
/// `roots` holds one value per distinct real root of the squarefree
/// `work`, and each group of equal values sits in a cell
/// ((k-1)/2^mu, k/2^mu] holding exactly that many roots.  Non-real roots
/// of `work` are allowed, but a report that counts them fails: a graph
/// report returns deg(work) values, more than the Sturm count.  Throws
/// InternalError on a mismatch.  Run once for every report, by
/// isolate::assemble_report.
void validate_roots(const Poly& work, const std::vector<BigInt>& roots,
                    std::size_t mu);

}  // namespace detail
}  // namespace pr
