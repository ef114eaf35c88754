// RealRootFinder: the library's main entry point.
//
// Computes mu-approximations (ceiling convention, ceil(2^mu x) / 2^mu) of
// every real root of an integer polynomial whose roots are all real, using
// the interleaving-tree algorithm of Narendran & Tiwari (after Ben-Or &
// Tiwari).  Repeated roots are reduced away by squarefree decomposition
// and reported through per-root multiplicities; inputs whose remainder
// sequence is not normal fall back to the Sturm baseline (configurable).
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
  /// (default) or the root-radii + Descartes + QIR subsystem
  /// (src/isolate/), which also accepts square-free inputs with complex
  /// roots.  Mu-approximations are bit-identical where both apply.
  FinderStrategy strategy = FinderStrategy::kPaper;
  /// Interval-problem solver settings (hybrid by default).
  IntervalSolverConfig solver;
  /// Settings for the kRadii strategy (ignored by kPaper).
  isolate::IsolateConfig isolate;
  /// If the remainder sequence is not normal, silently use the Sturm
  /// baseline instead of throwing NonNormalSequence.
  bool allow_sturm_fallback = true;
  /// Cross-checks every returned cell against a Sturm count (expensive;
  /// for tests and debugging).  Applies to every entry point, and so to
  /// every cold solve of the RootService.
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
  int distinct_roots = 0;      ///< n*
  bool squarefree_reduced = false;
  bool used_sturm_fallback = false;
  IntervalStats stats;

  /// Root i as a double (for reporting).
  double root_as_double(std::size_t i) const;
};

class RealRootFinder {
 public:
  explicit RealRootFinder(RootFinderConfig config = {}) : config_(config) {}

  /// Finds all real roots of p: find_real_roots_parallel at one thread.
  /// Preconditions: p is non-constant and all its roots are real (checked
  /// via a Sturm count when validate is on; otherwise a violation surfaces
  /// as an exception from the internal consistency checks).
  RootReport find(const Poly& p) const;

  const RootFinderConfig& config() const { return config_; }

 private:
  RootFinderConfig config_;
};

/// One-call convenience wrapper.
RootReport find_real_roots(const Poly& p, RootFinderConfig config = {});

namespace detail {

/// Assigns a multiplicity to each computed root by locating it within the
/// squarefree factors.  Each root's cell ((k-1)/2^mu, k/2^mu] is tested
/// against every factor; when several roots share a cell the factor counts
/// are consumed in order.  Shared by the finder strategies.
std::vector<unsigned> assign_multiplicities(
    const std::vector<BigInt>& roots, std::size_t mu,
    const std::vector<SquarefreeFactor>& factors);

}  // namespace detail
}  // namespace pr
