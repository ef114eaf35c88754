// The root-isolation subsystem (src/isolate/): Descartes isolation, QIR
// refinement, the kRadii finder strategy (sequential + parallel,
// bit-identical to the paper path on its domain), and the independent
// isolation certificate.
#include "isolate/isolate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "baseline/descartes_finder.hpp"
#include "baseline/sturm_finder.hpp"
#include "core/interval_solver.hpp"
#include "core/parallel_driver.hpp"
#include "core/scaled_point.hpp"
#include "gen/classic_polys.hpp"
#include "gen/hard_polys.hpp"
#include "gen/matrix_polys.hpp"
#include "poly/squarefree.hpp"
#include "poly/sturm.hpp"
#include "sched/task_pool.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"
#include "verify/isolate_certificate.hpp"

namespace pr {
namespace {

using isolate::isolate_in_band;
using isolate::isolate_roots;
using isolate::QirConfig;
using isolate::QirStats;

RootFinderConfig radii_config(std::size_t mu = 53) {
  RootFinderConfig cfg;
  cfg.mu_bits = mu;
  cfg.strategy = FinderStrategy::kRadii;
  return cfg;
}

void expect_same_report(const RootReport& a, const RootReport& b,
                        const char* label) {
  EXPECT_EQ(a.roots, b.roots) << label;
  EXPECT_EQ(a.multiplicities, b.multiplicities) << label;
  EXPECT_EQ(a.mu, b.mu) << label;
  EXPECT_EQ(a.degree, b.degree) << label;
  EXPECT_EQ(a.distinct_roots, b.distinct_roots) << label;
}

/// The product of polynomials given by their low-to-high coefficients.
Poly product_of(const std::vector<std::vector<BigInt>>& factors) {
  Poly p{1};
  for (const auto& f : factors) p = p * Poly(f);
  return p;
}

struct NamedPoly {
  std::string name;
  Poly poly;
};

/// Square-free inputs with complex, clustered, widely spread, zero and
/// integer roots, plus the degree and Mignotte ladders of service-mixed's
/// kRadii members.
std::vector<NamedPoly> general_inputs() {
  Prng rng(4242);
  std::vector<NamedPoly> out;
  out.push_back({"clustered(24, 53)", clustered_squarefree(24, 53, 3, rng)});
  out.push_back({"mignotte(32, 9)", mignotte(32, 9)});
  // Roots 2^-j and 3 * 2^j for j = 1..8, then the same with a complex
  // pair of modulus 2^-2j in place of each 2^-j.
  std::vector<std::vector<BigInt>> spread;
  std::vector<std::vector<BigInt>> pairs;
  for (std::size_t j = 1; j <= 8; ++j) {
    const std::vector<BigInt> big{-(BigInt(3) << j), BigInt(1)};
    spread.push_back({BigInt(-1), BigInt::pow2(j)});
    spread.push_back(big);
    pairs.push_back({BigInt(1), BigInt(0), BigInt::pow2(4 * j)});
    pairs.push_back(big);
  }
  out.push_back({"spread real", product_of(spread)});
  out.push_back({"spread complex pairs", product_of(pairs)});
  // Zero and integer roots, some of them bisection midpoints.
  out.push_back({"x wilkinson(8)", Poly{0, 1} * wilkinson(8)});
  out.push_back({"roots -8 -1 0 2 16",
                 poly_from_integer_roots({-8, -1, 0, 2, 16})});
  out.push_back({"x (x^2 + 1) (x - 1)",
                 Poly{0, 1} * Poly{1, 0, 1} * Poly{-1, 1}});
  // One real root besides zero: a single cell over (-2^R, 2^R) would
  // straddle the divided-out zero root.
  out.push_back({"x (x - 3)", poly_from_integer_roots({0, 3})});
  for (int degree : {16, 23, 31}) {
    out.push_back({"random(" + std::to_string(degree) + ", 20)",
                   random_squarefree_poly(degree, 20, rng)});
  }
  out.push_back({"mignotte(16, 3)", mignotte(16, 3)});
  out.push_back({"mignotte(21, 5)", mignotte(21, 5)});
  out.push_back({"mignotte(25, 9)", mignotte(25, 9)});
  return out;
}

// --- Descartes isolation --------------------------------------------------

TEST(Isolate, BandIsolatesInteriorAndEndpointRoots) {
  // Roots 1 and 3 inside [0, 4]; band endpoints 0 and 4 are roots of
  // x(x-1)(x-3)(x-4) but the band version gets them as exact cells.
  const Poly inner = poly_from_integer_roots({1, 3});
  auto cells = isolate_in_band(inner, BigInt(0), BigInt(4), 0);
  ASSERT_EQ(cells.size(), 2u);
  for (const auto& c : cells) {
    if (c.exact) {
      EXPECT_EQ(inner.sign_at_scaled(c.lo, c.scale), 0);
    } else {
      EXPECT_EQ(c.s_lo * c.s_hi, -1);
      EXPECT_LT(c.lo, c.hi);
    }
  }
  const Poly with_ends = poly_from_integer_roots({0, 1, 3, 4});
  cells = isolate_in_band(with_ends, BigInt(0), BigInt(4), 0);
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_TRUE(cells.front().exact);
  EXPECT_EQ(cells.front().lo, BigInt(0));
  EXPECT_TRUE(cells.back().exact);
  EXPECT_EQ(cells.back().lo, BigInt(4) << cells.back().scale);
}

TEST(Isolate, RepeatedRootExceedsDepthBound) {
  // A repeated root at a dyadic subdivision point is peeled exactly (one
  // cell, no divergence)...
  const Poly dyadic = Poly{-1, 1} * Poly{-1, 1};  // (x-1)^2
  const auto cells = isolate_in_band(dyadic, BigInt(0), BigInt(2), 0);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_TRUE(cells.front().exact);
  // ...but a non-dyadic repeated root can never be separated, and the
  // squarefree depth bound converts the divergence into a diagnostic.
  const Poly p = Poly{-2, 0, 1} * Poly{-2, 0, 1};  // (x^2 - 2)^2
  EXPECT_THROW(isolate_in_band(p, BigInt(0), BigInt(2), 0), InvalidArgument);
}

TEST(Isolate, FullPipelineHandlesZeroRoot) {
  // x(x-1)(x+1): zero root becomes an exact cell, the others isolate
  // against the stripped polynomial.
  const Poly p = poly_from_integer_roots({0, 1, -1});
  const auto out = isolate_roots(p);
  ASSERT_EQ(out.cells.size(), 3u);
  EXPECT_EQ(out.stripped.degree(), 2);
  bool has_zero = false;
  for (const auto& c : out.cells) {
    if (c.exact && c.lo.is_zero()) has_zero = true;
  }
  EXPECT_TRUE(has_zero);
  // Cells are sorted left to right.
  for (std::size_t i = 1; i < out.cells.size(); ++i) {
    EXPECT_TRUE(isolate::cell_less(out.cells[i - 1], out.cells[i]));
  }
}

TEST(Isolate, ComplexRootsProduceNoCells) {
  const Poly p{-1, 0, 0, 1};  // x^3 - 1: one real root
  const auto out = isolate_roots(p);
  EXPECT_EQ(out.cells.size(), 1u);
  const Poly q{1, 0, 1};  // x^2 + 1: none
  EXPECT_TRUE(isolate_roots(q).cells.empty());
}

TEST(Isolate, CertificateValidOnGenerators) {
  for (const auto& in : general_inputs()) {
    const auto cert = certify_isolation(in.poly);
    EXPECT_TRUE(cert.valid) << in.name << "\n" << cert.to_string();
    EXPECT_EQ(cert.distinct_real_roots,
              SturmChain(in.poly).distinct_real_roots())
        << in.name;
  }
  Prng rng(42);
  const Poly clustered = clustered_squarefree(6, 8, 3, rng);
  auto cert = certify_isolation(clustered);
  EXPECT_TRUE(cert.valid) << cert.to_string();
  EXPECT_EQ(cert.distinct_real_roots, 6);

  const Poly mign = mignotte(9, 5);
  cert = certify_isolation(mign);
  EXPECT_TRUE(cert.valid) << cert.to_string();

  for (int degree : {5, 9, 14}) {
    const Poly p = random_squarefree_poly(degree, 12, rng);
    cert = certify_isolation(p);
    EXPECT_TRUE(cert.valid) << "degree " << degree << "\n"
                            << cert.to_string();
  }
}

// The isolator needs a square-free input; the certificate tests that
// first and records the failure instead of running it.
TEST(Isolate, CertificateRejectsNonSquarefreeWithoutThrowing) {
  const Poly s2{-2, 0, 1};
  const Poly inputs[] = {s2 * s2, s2 * s2 * Poly{-3, 1} * Poly{1, 0, 1}};
  for (const Poly& p : inputs) {
    IsolationCertificate cert;
    ASSERT_NO_THROW(cert = certify_isolation(p)) << p.to_string();
    EXPECT_FALSE(cert.valid) << p.to_string();
    ASSERT_EQ(cert.failures.size(), 1u) << p.to_string();
    EXPECT_NE(cert.failures[0].find("not squarefree"), std::string::npos)
        << cert.to_string();
  }
}

TEST(Isolate, CertificateRejectsTamperedCells) {
  const Poly p = poly_from_integer_roots({1, 3, 5});
  auto out = isolate_roots(p);
  ASSERT_EQ(out.cells.size(), 3u);
  // Drop a cell: totality fails.
  auto dropped = out.cells;
  dropped.pop_back();
  EXPECT_FALSE(certify_cells_isolated(p, dropped).valid);
  // Duplicate a cell: disjointness fails.
  auto duped = out.cells;
  duped.push_back(duped.back());
  EXPECT_FALSE(certify_cells_isolated(p, duped).valid);
  // Non-squarefree input is rejected outright.
  const Poly sq = Poly{-1, 1} * Poly{-1, 1};
  EXPECT_FALSE(certify_cells_isolated(sq, out.cells).valid);
}

// --- QIR --------------------------------------------------------------------

TEST(Qir, SolveSqrtTwoToHighPrecision) {
  const Poly p{-2, 0, 1};
  QirStats stats;
  const std::size_t mu = 200;
  const BigInt k = isolate::qir_solve(p, BigInt(1), BigInt(2), -1, 1, 0, mu,
                                      QirConfig{}, &stats);
  // (k-1)^2 < 2 * 2^(2mu) <= k^2: the ceiling of 2^mu sqrt(2).
  EXPECT_LT((k - BigInt(1)) * (k - BigInt(1)), BigInt(2) << (2 * mu));
  EXPECT_GE(k * k, BigInt(2) << (2 * mu));
  EXPECT_GT(stats.iters, 0u);
  EXPECT_GT(stats.evals, 0u);
}

TEST(Qir, QuadraticConvergenceDoublesTheGrid) {
  // Successful secant steps double log2 N; reaching a large grid within
  // one deep refinement is the observable quadratic-convergence signature.
  const Poly p{-2, 0, 1};
  QirStats stats;
  QirConfig cfg;
  isolate::qir_solve(p, BigInt(1), BigInt(2), -1, 1, 0, 2000, cfg, &stats);
  EXPECT_GT(stats.successes, 0u);
  EXPECT_GE(stats.max_subdiv_log2, 4 * cfg.initial_subdiv_log2);
}

TEST(Qir, RefineMatchesIntervalSolverBitForBit) {
  // QIR and the paper's hybrid interval solver compute the same
  // mu-approximation from the same isolator cell.
  Prng rng(2026);
  const auto input = paper_input(12, rng);
  const auto out = isolate_roots(input.poly);
  ASSERT_EQ(out.cells.size(), 12u);
  for (std::size_t mu : {8u, 120u}) {
    for (const auto& c : out.cells) {
      ASSERT_FALSE(c.exact);
      const BigInt qir = isolate::qir_solve(out.stripped, c.lo, c.hi, c.s_lo,
                                            c.s_hi, c.scale, mu, QirConfig{},
                                            nullptr);
      // solve_isolated_interval takes its cell at the output scale.
      const std::size_t w = std::max(c.scale, mu);
      const BigInt hybrid = solve_isolated_interval(
          out.stripped, c.lo << (w - c.scale), c.hi << (w - c.scale), c.s_lo,
          c.s_hi, w, IntervalSolverConfig{}, nullptr);
      EXPECT_EQ(qir, ceil_shift(hybrid, w - mu)) << "mu " << mu;
    }
  }
}

TEST(Qir, RejectsNonIsolatingCell) {
  const Poly p{-2, 0, 1};
  const QirConfig cfg;
  // Empty or reversed interval.
  EXPECT_THROW(isolate::qir_solve(p, BigInt(2), BigInt(2), -1, 1, 0, 10, cfg,
                                  nullptr),
               InvalidArgument);
  EXPECT_THROW(isolate::qir_solve(p, BigInt(2), BigInt(1), -1, 1, 0, 10, cfg,
                                  nullptr),
               InvalidArgument);
  // Endpoint signs that do not change.
  EXPECT_THROW(isolate::qir_solve(p, BigInt(2), BigInt(3), 1, 1, 0, 10, cfg,
                                  nullptr),
               InvalidArgument);
  EXPECT_THROW(isolate::qir_solve(p, BigInt(1), BigInt(2), 0, 1, 0, 10, cfg,
                                  nullptr),
               InvalidArgument);
}

/// p(3x): every root divided by 3, so that dyadic roots become
/// non-dyadic and stored cells stay open.
Poly roots_over_3(const Poly& p) {
  std::vector<BigInt> c = p.coeffs();
  BigInt f(1);
  for (BigInt& v : c) {
    v *= f;
    f *= BigInt(3);
  }
  return Poly(std::move(c));
}

/// The golden corpus: hard and classic inputs, fixed draws.
std::vector<std::pair<std::string, Poly>> golden_corpus() {
  Prng rng(25);
  const BigInt m = BigInt(3) << 12;
  const Poly integer_roots = poly_from_integer_roots({0, -7, 3, 5, 11, -2, 1});
  std::vector<std::pair<std::string, Poly>> out;
  out.emplace_back("paper_input(24)", paper_input(24, rng).poly);
  out.emplace_back("jacobi(64)", random_jacobi_poly(64, 9, rng));
  out.emplace_back("chebyshev_t(30)", chebyshev_t(30));
  out.emplace_back("laguerre(24)", laguerre_scaled(24));
  out.emplace_back("wilkinson(20)", wilkinson(20));
  out.emplace_back("mignotte(16,7)", mignotte(16, 7));
  out.emplace_back("random_squarefree(24)",
                   random_squarefree_poly(24, 16, rng));
  out.emplace_back("clustered(2^-40)", clustered_squarefree(6, 40, 1, rng));
  out.emplace_back("clustered(2^-100)",
                   clustered_squarefree(6, 100, -3, rng));
  out.emplace_back("clustered(2^-40) at 3x",
                   roots_over_3(clustered_squarefree(6, 40, 1, rng)));
  out.emplace_back("wilkinson(20) at 3x", roots_over_3(wilkinson(20)));
  out.emplace_back("integer roots with 0", integer_roots);
  out.emplace_back("integer roots with 0 at 3x", roots_over_3(integer_roots));
  out.emplace_back("neighbour on open end",
                   Poly{-1, 1} * Poly(std::vector<BigInt>{-(m + BigInt(1)), m}));
  return out;
}

/// The open cells ((k-1)/2^mu, k/2^mu] of p's kRadii report at mu that hold
/// one root, shaped as refine_roots_parallel shapes them.
std::vector<isolate::IsolatingCell> stored_open_cells(const Poly& p,
                                                      std::size_t mu,
                                                      Poly& isolated) {
  const ParallelRunResult run =
      find_real_roots_parallel(p, radii_config(mu), ParallelConfig{});
  isolated = run.isolated;
  const std::vector<BigInt>& ks = run.report.roots;
  std::vector<isolate::IsolatingCell> cells;
  for (std::size_t i = 0; i < ks.size(); ++i) {
    if (std::count(ks.begin(), ks.end(), ks[i]) > 1) continue;
    isolate::IsolatingCell c;
    c.scale = mu;
    c.hi = ks[i];
    c.s_hi = isolated.sign_at_scaled(c.hi, mu);
    if (c.s_hi == 0) continue;
    c.lo = c.hi - BigInt(1);
    c.s_lo = sign_right_limit(isolated, c.lo, mu);
    cells.push_back(std::move(c));
  }
  return cells;
}

/// 64-bit FNV-1a, fed one field at a time.
void fnv_mix(std::uint64_t& h, const std::string& field) {
  for (unsigned char ch : field) {
    h ^= ch;
    h *= 1099511628211ULL;
  }
  h ^= 0xff;
  h *= 1099511628211ULL;
}

TEST(Qir, GoldenIteratesMatchTheExactEvaluation) {
  // The gate on QIR's bounded evaluation: every root and all six QirStats
  // fields equal those of the exact-evaluation QIR, recorded before the
  // evaluation changed.  Cells are the isolator's (from = -1) and stored
  // cells at mu 0, 20 and 53; each is raised to 107, 256 and 1024 bits and
  // the results are folded, in order, into one digest per row.  A secant
  // index taken from the approximations without the bounds check changes
  // iterates here.  Exact values stay rare: a bounded evaluation that
  // silently never certified would keep every iterate too.  And the secant
  // index takes no exact value of its own: when its corner bounds
  // disagree, both ends climb the precision ladder, which evaluates
  // exactly only at zeros and at its cost limit.  The corpus then takes
  // 264 exact values; evaluating both ends exactly at each undecided
  // secant index instead would take 498.
  struct Golden {
    const char* name;
    int from;
    std::size_t cells;
    std::uint64_t evals;
    std::uint64_t digest;
  };
  static const Golden kGolden[] = {
      {"paper_input(24)", -1, 24, 2174, 0x3d19155542a737c5ull},
      {"paper_input(24)", 0, 3, 292, 0x4cc23179cc9e0f6cull},
      {"paper_input(24)", 20, 24, 1737, 0xbdf5b6b4c2e80509ull},
      {"paper_input(24)", 53, 24, 1686, 0x665e0c740a25d2c8ull},
      {"jacobi(64)", -1, 64, 5747, 0x9130c7283db187ccull},
      {"jacobi(64)", 0, 15, 1411, 0x148e13c3213a229dull},
      {"jacobi(64)", 20, 64, 4610, 0x0f1388792e2c0488ull},
      {"jacobi(64)", 53, 64, 4488, 0x22c0b77071185544ull},
      {"chebyshev_t(30)", -1, 30, 2396, 0xf1b3213ebf29c9aaull},
      {"chebyshev_t(30)", 20, 30, 2172, 0x308a974b008d96b8ull},
      {"chebyshev_t(30)", 53, 30, 2106, 0x977451e2fd9e9826ull},
      {"laguerre(24)", -1, 24, 2154, 0x878730bf8d5c9aa7ull},
      {"laguerre(24)", 0, 21, 1791, 0x4cb2c1369a93333eull},
      {"laguerre(24)", 20, 24, 1731, 0x310435c40fe2aee9ull},
      {"laguerre(24)", 53, 24, 1680, 0x082cdd344c04ec70ull},
      {"wilkinson(20)", -1, 10, 759, 0x6c46364c503ada84ull},
      {"mignotte(16,7)", -1, 4, 393, 0xda7d6c0c28878eabull},
      {"mignotte(16,7)", 0, 2, 196, 0x6b3c1b7021334dcbull},
      {"mignotte(16,7)", 20, 2, 142, 0x56fedcf66b5fb85bull},
      {"mignotte(16,7)", 53, 4, 282, 0xfab3b5c395eb8212ull},
      {"random_squarefree(24)", -1, 2, 157, 0x343e1ae0f0e31ae9ull},
      {"random_squarefree(24)", 20, 2, 145, 0x7e4df5fe7f51e6b9ull},
      {"random_squarefree(24)", 53, 2, 138, 0x547c9c6aba3afec8ull},
      {"clustered(2^-40)", -1, 3, 273, 0xccbf8aa540f98bbaull},
      {"clustered(2^-100)", -1, 5, 191, 0xae172cc5e486962eull},
      {"clustered(2^-40) at 3x", -1, 4, 376, 0x949362b482773961ull},
      {"clustered(2^-40) at 3x", 53, 4, 288, 0x342a038fce4bd682ull},
      {"wilkinson(20) at 3x", -1, 14, 1237, 0x9fc8950a85d5d680ull},
      {"wilkinson(20) at 3x", 20, 14, 1036, 0x1971953c8aec5316ull},
      {"wilkinson(20) at 3x", 53, 14, 1008, 0xe40b040de8dfb058ull},
      {"integer roots with 0", -1, 6, 311, 0x8bb525ac15eef42eull},
      {"integer roots with 0 at 3x", -1, 5, 445, 0x89401360c049fbc2ull},
      {"integer roots with 0 at 3x", 0, 3, 273, 0xf8da10ca247a9e37ull},
      {"integer roots with 0 at 3x", 20, 5, 370, 0xe4d5181e38f3a902ull},
      {"integer roots with 0 at 3x", 53, 5, 360, 0x4076628ec3ada119ull},
      {"neighbour on open end", -1, 1, 113, 0x2c1bfb6835cfb526ull},
      {"neighbour on open end", 0, 1, 113, 0x2c1bfb6835cfb526ull},
      {"neighbour on open end", 20, 1, 74, 0xf34d772864640bf2ull},
      {"neighbour on open end", 53, 1, 72, 0x1b3e78e897edac2full},
  };
  std::size_t row = 0;
  std::uint64_t all_evals = 0;
  std::uint64_t exact_evals = 0;
  for (const auto& [name, p] : golden_corpus()) {
    for (int from : {-1, 0, 20, 53}) {
      Poly isolated;
      std::vector<isolate::IsolatingCell> cells;
      if (from < 0) {
        const auto iso = isolate_roots(p.primitive_part());
        isolated = iso.stripped;
        for (const auto& c : iso.cells) {
          if (!c.exact) cells.push_back(c);
        }
      } else {
        cells = stored_open_cells(p, static_cast<std::size_t>(from), isolated);
      }
      if (cells.empty()) continue;
      const std::string where = name + " from " + std::to_string(from);
      ASSERT_LT(row, std::size(kGolden)) << where;
      const Golden& want = kGolden[row++];
      ASSERT_EQ(want.name, name);
      ASSERT_EQ(want.from, from) << where;
      ASSERT_EQ(want.cells, cells.size()) << where;
      std::uint64_t evals = 0;
      std::uint64_t digest = 14695981039346656037ULL;
      for (std::size_t mu : {107u, 256u, 1024u}) {
        for (const auto& c : cells) {
          QirStats st;
          const BigInt k = isolate::qir_solve(isolated, c.lo, c.hi, c.s_lo,
                                              c.s_hi, c.scale, mu,
                                              QirConfig{}, &st);
          evals += st.evals;
          exact_evals += st.exact_evals;
          fnv_mix(digest, k.to_hex());
          for (std::uint64_t v : {st.iters, st.evals, st.successes,
                                  st.failures, st.bisect_steps,
                                  st.max_subdiv_log2}) {
            fnv_mix(digest, std::to_string(v));
          }
        }
      }
      EXPECT_EQ(evals, want.evals) << where;
      EXPECT_EQ(digest, want.digest) << where;
      all_evals += evals;
    }
  }
  EXPECT_EQ(row, std::size(kGolden));
  EXPECT_LT(exact_evals * 20, all_evals)
      << exact_evals << " exact values for " << all_evals << " evaluations";
  EXPECT_EQ(exact_evals, 264u);
}

// --- the kRadii strategy, sequential ----------------------------------------

TEST(IsolateStrategy, BitIdenticalToPaperOnInterleavingWorkloads) {
  Prng rng(11);
  for (std::size_t n : {6u, 10u, 14u}) {
    const auto input = paper_input(n, rng);
    RootFinderConfig paper_cfg;
    paper_cfg.mu_bits = 53;
    const auto paper = find_real_roots(input.poly, paper_cfg);
    const auto radii = find_real_roots(input.poly, radii_config(53));
    expect_same_report(paper, radii, "paper_input");
  }
  const Poly w = wilkinson(15);
  RootFinderConfig paper_cfg;
  const auto paper = find_real_roots(w, paper_cfg);
  const auto radii = find_real_roots(w, radii_config());
  expect_same_report(paper, radii, "wilkinson(15)");
}

TEST(IsolateStrategy, MultiplicitiesMatchPaperPath) {
  // (x-1)^2 (x+2): squarefree reduction + multiplicity assignment.
  const Poly p = Poly{-1, 1} * Poly{-1, 1} * Poly{2, 1};
  RootFinderConfig paper_cfg;
  const auto paper = find_real_roots(p, paper_cfg);
  const auto radii = find_real_roots(p, radii_config());
  expect_same_report(paper, radii, "(x-1)^2(x+2)");
  EXPECT_TRUE(radii.squarefree_reduced);
}

TEST(IsolateStrategy, AcceptsInputsThePaperPathRejects) {
  RootFinderConfig strict;
  strict.allow_sturm_fallback = false;
  const Poly mign = mignotte(11, 4);
  EXPECT_THROW(find_real_roots(mign, strict), NonNormalSequence);

  auto cfg = radii_config();
  cfg.allow_sturm_fallback = false;
  cfg.validate = true;  // Sturm cross-check of every returned cell
  const auto report = find_real_roots(mign, cfg);
  EXPECT_EQ(static_cast<int>(report.roots.size()),
            SturmChain(mign).distinct_real_roots());
  EXPECT_FALSE(report.used_sturm_fallback);
}

TEST(IsolateStrategy, GeneralSquarefreeInputsCrossCheckedBySturm) {
  Prng rng(99);
  auto cfg = radii_config(64);
  cfg.validate = true;
  for (int degree : {4, 7, 12}) {
    const Poly p = random_squarefree_poly(degree, 10, rng);
    const auto report = find_real_roots(p, cfg);
    EXPECT_EQ(static_cast<int>(report.roots.size()),
              SturmChain(p).distinct_real_roots())
        << "degree " << degree;
  }
  // Every root, bit for bit, against both sequential baselines.
  for (const auto& in : general_inputs()) {
    const Poly sf = squarefree_part(in.poly);
    for (std::size_t mu : {53u, 256u}) {
      cfg.mu_bits = mu;
      const auto report = find_real_roots(in.poly, cfg);
      const IntervalSolverConfig solver;
      EXPECT_EQ(report.roots, sturm_find_roots(sf, mu, solver, nullptr))
          << in.name << " mu " << mu;
      EXPECT_EQ(report.roots, descartes_find_roots(sf, mu, solver, nullptr))
          << in.name << " mu " << mu;
    }
  }
}

TEST(IsolateStrategy, ZeroAndLinearEdgeCases) {
  // Zero root reported exactly; linear inputs solved by ceiling division.
  const auto zero = find_real_roots(poly_from_integer_roots({0, 2}),
                                    radii_config(10));
  ASSERT_EQ(zero.roots.size(), 2u);
  EXPECT_EQ(zero.roots[0], BigInt(0));
  EXPECT_EQ(zero.roots[1], BigInt(2) << 10);

  RootFinderConfig paper_cfg;
  paper_cfg.mu_bits = 20;
  const Poly lin{-3, 2};  // root 3/2
  expect_same_report(find_real_roots(lin, paper_cfg),
                     find_real_roots(lin, radii_config(20)), "2x-3");
}

// --- the kRadii strategy, parallel ------------------------------------------

TEST(IsolateStrategy, ParallelBitIdenticalAcrossThreadCounts) {
  Prng rng(5);
  const auto input = paper_input(12, rng);
  const auto cfg = radii_config(53);
  const auto sequential = find_real_roots(input.poly, cfg);
  for (int threads : {1, 2, 8}) {
    ParallelConfig pc;
    pc.num_threads = threads;
    const auto run = find_real_roots_parallel(input.poly, cfg, pc);
    expect_same_report(sequential, run.report, "radii parallel");
  }
  RootFinderConfig paper_cfg;
  paper_cfg.mu_bits = 53;
  EXPECT_EQ(sequential.roots, find_real_roots(input.poly, paper_cfg).roots);
}

TEST(IsolateStrategy, ParallelHandlesComplexRootsAndTagsRefineTasks) {
  const Poly mign = mignotte(13, 3);
  const auto cfg = radii_config(64);
  const auto sequential = find_real_roots(mign, cfg);
  ParallelConfig pc;
  pc.num_threads = 4;
  const auto run = find_real_roots_parallel(mign, cfg, pc);
  EXPECT_EQ(run.report.roots, sequential.roots);
  // The trace records the staged kRefine tasks (one per non-exact cell).
  bool saw_refine = false;
  for (const auto& t : run.trace.tasks) {
    if (t.kind == TaskKind::kRefine) saw_refine = true;
  }
  EXPECT_TRUE(saw_refine);
}

}  // namespace
}  // namespace pr
