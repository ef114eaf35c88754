// Configuration for the root-isolation subsystem (src/isolate/).
//
// This header is deliberately dependency-free so that RootFinderConfig can
// embed the strategy selection without pulling the isolation machinery into
// every translation unit that names the finder.
#pragma once

#include <cstddef>

namespace pr {

/// Which isolation pipeline a RealRootFinder runs.
enum class FinderStrategy {
  /// The paper's interleaving-tree algorithm (all-real-rooted inputs;
  /// non-real roots fall back to kRadii's pipeline or throw).
  kPaper,
  /// Squarefree reduction, Descartes (Collins-Akritas) subdivision of the
  /// root bound interval (-2^R, 2^R), and quadratic (QIR) refinement of
  /// the cells.  Handles every integer input, complex roots included;
  /// bit-identical mu-approximations to the paper path where both apply.
  /// The name is historical (a root-radii stage once narrowed the
  /// interval); it keys service cache entries and the CLI's --finder.
  kRadii,
};

/// Name for diagnostics and CLI parsing ("paper" / "radii").
const char* finder_strategy_name(FinderStrategy s);

namespace isolate {

/// Quadratic interval refinement (QIR) settings, after Abbott and
/// Kerber-Sagraloff (arXiv:1104.1362).
struct QirConfig {
  /// Extra working-scale bits beyond the target precision.
  std::size_t guard_bits = 8;
  /// log2 of the initial subdivision count N (N = 4 by default).
  std::size_t initial_subdiv_log2 = 2;
  /// Cap on log2 N; successful steps square N (double log2 N) up to this.
  std::size_t max_subdiv_log2 = 64;
};

/// Bundled configuration for the general-input path: the kRadii strategy
/// and kPaper's fallback.
struct IsolateConfig {
  QirConfig qir;
};

}  // namespace isolate
}  // namespace pr
