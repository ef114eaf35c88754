// polyroots -- parallel real-root approximation for polynomials with all
// real roots.
//
// A faithful, instrumented reproduction of:
//   B. Narendran, P. Tiwari.  "Polynomial Root-Finding: Analysis and
//   Computational Investigation of a Parallel Algorithm."  SPAA 1992
//   (UW-Madison CS TR #1061, 1991),
// itself a practical version of the Ben-Or--Tiwari NC algorithm.
//
// Quick start:
//
//   #include "polyroots.hpp"
//   pr::Poly p{(-2), 0, 1};                 // x^2 - 2
//   pr::RootFinderConfig cfg;
//   cfg.mu_bits = 53;
//   auto report = pr::find_real_roots(p, cfg);
//   // report.roots[i] == ceil(2^mu * root_i), report.root_as_double(i)
//
// See README.md for the architecture overview and DESIGN.md for the
// paper-to-module map.
#pragma once

#include "baseline/descartes_finder.hpp"      // IWYU pragma: export
#include "baseline/interval_ablations.hpp"    // IWYU pragma: export
#include "baseline/sturm_finder.hpp"          // IWYU pragma: export
#include "bigint/bigint.hpp"                  // IWYU pragma: export
#include "core/interval_solver.hpp"           // IWYU pragma: export
#include "core/interval_stage.hpp"            // IWYU pragma: export
#include "core/parallel_driver.hpp"           // IWYU pragma: export
#include "core/refine.hpp"                    // IWYU pragma: export
#include "eigen/symmetric.hpp"                // IWYU pragma: export
#include "core/root_finder.hpp"               // IWYU pragma: export
#include "core/scaled_point.hpp"              // IWYU pragma: export
#include "core/tree.hpp"                      // IWYU pragma: export
#include "core/tree_builder.hpp"              // IWYU pragma: export
#include "gen/classic_polys.hpp"              // IWYU pragma: export
#include "gen/hard_polys.hpp"                 // IWYU pragma: export
#include "gen/matrix_polys.hpp"               // IWYU pragma: export
#include "isolate/isolate.hpp"                // IWYU pragma: export
#include "instr/counters.hpp"                 // IWYU pragma: export
#include "instr/phase.hpp"                    // IWYU pragma: export
#include "instr/sched_stats.hpp"              // IWYU pragma: export
#include "linalg/berkowitz.hpp"               // IWYU pragma: export
#include "linalg/intmatrix.hpp"               // IWYU pragma: export
#include "linalg/polymat22.hpp"               // IWYU pragma: export
#include "model/mult_model.hpp"               // IWYU pragma: export
#include "model/size_bounds.hpp"              // IWYU pragma: export
#include "modular/crt.hpp"                    // IWYU pragma: export
#include "modular/modular_config.hpp"         // IWYU pragma: export
#include "modular/modular_prs.hpp"            // IWYU pragma: export
#include "modular/polyzp.hpp"                 // IWYU pragma: export
#include "modular/tree_poly.hpp"              // IWYU pragma: export
#include "modular/zp.hpp"                     // IWYU pragma: export
#include "poly/bounds.hpp"                    // IWYU pragma: export
#include "poly/certified_sign.hpp"            // IWYU pragma: export
#include "poly/poly.hpp"                      // IWYU pragma: export
#include "poly/newton_sums.hpp"               // IWYU pragma: export
#include "poly/remainder_sequence.hpp"        // IWYU pragma: export
#include "poly/squarefree.hpp"                // IWYU pragma: export
#include "poly/sturm.hpp"                     // IWYU pragma: export
#include "rational/rational.hpp"              // IWYU pragma: export
#include "sched/task_graph.hpp"               // IWYU pragma: export
#include "sched/task_pool.hpp"                // IWYU pragma: export
#include "sched/trace.hpp"                    // IWYU pragma: export
#include "service/canonical.hpp"              // IWYU pragma: export
#include "service/result_cache.hpp"           // IWYU pragma: export
#include "service/root_service.hpp"           // IWYU pragma: export
#include "sim/des.hpp"                        // IWYU pragma: export
#include "support/error.hpp"                  // IWYU pragma: export
#include "verify/certificate.hpp"             // IWYU pragma: export
#include "verify/isolate_certificate.hpp"     // IWYU pragma: export
#include "support/prng.hpp"                   // IWYU pragma: export
#include "support/stopwatch.hpp"              // IWYU pragma: export
#include "support/text.hpp"                   // IWYU pragma: export
