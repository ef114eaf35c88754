// Google-benchmark micro-benchmarks for the arithmetic substrate: the
// costs the Section 4 model builds on (quadratic multiplication, linear
// addition, scaled Horner evaluation, remainder-sequence iterations),
// plus allocation-churn diagnostics for the small-value-optimized
// representation and the fused kernels.
//
// Each benchmark that touches BigInt storage reports limb-buffer heap
// allocations per iteration ("allocs" / "alloc_limbs" counters) via the
// instrumentation layer.  A custom main() writes machine-readable JSON to
// BENCH_micro.json by default (override with --benchmark_out=...).
#include <benchmark/benchmark.h>

#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "polyroots.hpp"

namespace {

pr::BigInt random_bigint(pr::Prng& rng, int bits) {
  pr::BigInt v;
  for (int i = 0; i < bits; i += 64) {
    v <<= 64;
    v += pr::BigInt(static_cast<unsigned long long>(rng.next()));
  }
  return v >> static_cast<std::size_t>((64 - bits % 64) % 64);
}

/// Attaches per-iteration limb-allocation counters for the instrumented
/// region that ran inside the timing loop.
void report_allocs(benchmark::State& state, const pr::instr::OpCounts& before,
                   const pr::instr::OpCounts& after) {
  const double iters = static_cast<double>(state.iterations());
  state.counters["allocs"] = benchmark::Counter(
      static_cast<double>(after.alloc_count - before.alloc_count) / iters);
  state.counters["alloc_limbs"] = benchmark::Counter(
      static_cast<double>(after.alloc_limbs - before.alloc_limbs) / iters);
}

// --- multi-limb substrate costs (the Section 4 quadratic model) ----------

void BM_BigIntMul(benchmark::State& state) {
  pr::Prng rng(1);
  const int bits = static_cast<int>(state.range(0));
  const pr::BigInt a = random_bigint(rng, bits);
  const pr::BigInt b = random_bigint(rng, bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BigIntMul)->RangeMultiplier(4)->Range(256, 65536)->Complexity();

void BM_BigIntMulKaratsuba(benchmark::State& state) {
  pr::Prng rng(1);
  const int bits = static_cast<int>(state.range(0));
  const pr::BigInt a = random_bigint(rng, bits);
  const pr::BigInt b = random_bigint(rng, bits);
  pr::BigInt::set_karatsuba_enabled(true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
  pr::BigInt::set_karatsuba_enabled(false);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BigIntMulKaratsuba)
    ->RangeMultiplier(4)
    ->Range(256, 65536)
    ->Complexity();

void BM_BigIntAdd(benchmark::State& state) {
  pr::Prng rng(2);
  const pr::BigInt a = random_bigint(rng, static_cast<int>(state.range(0)));
  const pr::BigInt b = random_bigint(rng, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a + b);
  }
}
BENCHMARK(BM_BigIntAdd)->Range(256, 65536);

void BM_BigIntDivmod(benchmark::State& state) {
  pr::Prng rng(3);
  const pr::BigInt a = random_bigint(rng, static_cast<int>(state.range(0)));
  const pr::BigInt b =
      random_bigint(rng, static_cast<int>(state.range(0)) / 2);
  pr::BigInt q, r;
  pr::BigInt::Scratch scratch;
  const pr::instr::OpCounts before = pr::instr::aggregate().total();
  for (auto _ : state) {
    pr::BigInt::divmod(a, b, q, r, scratch);
    benchmark::DoNotOptimize(q);
  }
  report_allocs(state, before, pr::instr::aggregate().total());
}
BENCHMARK(BM_BigIntDivmod)->Range(512, 32768);

// --- small-operand throughput (the inline single-limb fast path) ---------

void BM_SmallAdd(benchmark::State& state) {
  // Sub-64-bit operands: the whole loop runs on inline storage.
  pr::BigInt acc(1);
  const pr::BigInt b(0x1234567ll);
  const pr::instr::OpCounts before = pr::instr::aggregate().total();
  for (auto _ : state) {
    acc += b;
    acc -= b;
    benchmark::DoNotOptimize(acc);
  }
  report_allocs(state, before, pr::instr::aggregate().total());
}
BENCHMARK(BM_SmallAdd);

void BM_SmallMul(benchmark::State& state) {
  const pr::BigInt a(0x12345678ll);
  const pr::BigInt b(-0x1e240ll);
  const pr::instr::OpCounts before = pr::instr::aggregate().total();
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
  report_allocs(state, before, pr::instr::aggregate().total());
}
BENCHMARK(BM_SmallMul);

void BM_SmallAddmulFused(benchmark::State& state) {
  // The Eq. 18 / inner-product accumulation shape on small coefficients:
  // steady state must be allocation-free.
  const pr::BigInt b(123456789ll);
  const pr::BigInt c(-987654321ll);
  pr::BigInt acc;
  const pr::instr::OpCounts before = pr::instr::aggregate().total();
  for (auto _ : state) {
    acc.addmul(b, c);
    acc.submul(b, c);
    benchmark::DoNotOptimize(acc);
  }
  report_allocs(state, before, pr::instr::aggregate().total());
}
BENCHMARK(BM_SmallAddmulFused);

void BM_AddmulFused(benchmark::State& state) {
  // a += b*c via the fused kernel at multi-limb sizes: the product stays
  // in scratch capacity, the accumulator reuses its own buffer.
  pr::Prng rng(8);
  const int bits = static_cast<int>(state.range(0));
  const pr::BigInt b = random_bigint(rng, bits);
  const pr::BigInt c = random_bigint(rng, bits);
  pr::BigInt acc = random_bigint(rng, 2 * bits);
  pr::BigInt::Scratch scratch;
  const pr::instr::OpCounts before = pr::instr::aggregate().total();
  for (auto _ : state) {
    acc.addmul(b, c, scratch);
    acc.submul(b, c, scratch);  // keep acc bounded
    benchmark::DoNotOptimize(acc);
  }
  report_allocs(state, before, pr::instr::aggregate().total());
}
BENCHMARK(BM_AddmulFused)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_AddmulComposed(benchmark::State& state) {
  // The same accumulation written as `acc += b * c`: the baseline the
  // fused kernel is measured against (temporary product each step).
  pr::Prng rng(8);
  const int bits = static_cast<int>(state.range(0));
  const pr::BigInt b = random_bigint(rng, bits);
  const pr::BigInt c = random_bigint(rng, bits);
  pr::BigInt acc = random_bigint(rng, 2 * bits);
  const pr::instr::OpCounts before = pr::instr::aggregate().total();
  for (auto _ : state) {
    acc += b * c;
    acc -= b * c;
    benchmark::DoNotOptimize(acc);
  }
  report_allocs(state, before, pr::instr::aggregate().total());
}
BENCHMARK(BM_AddmulComposed)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

// --- algorithm-level kernels ---------------------------------------------

void BM_ScaledHorner(benchmark::State& state) {
  pr::Prng rng(4);
  const auto input = pr::paper_input(static_cast<std::size_t>(state.range(0)),
                                     rng);
  const pr::BigInt x = random_bigint(rng, 100);
  const pr::instr::OpCounts before = pr::instr::aggregate().total();
  for (auto _ : state) {
    benchmark::DoNotOptimize(input.poly.eval_scaled(x, 107));
  }
  report_allocs(state, before, pr::instr::aggregate().total());
}
BENCHMARK(BM_ScaledHorner)->Arg(10)->Arg(30)->Arg(70);

/// BM_SignProbe's inputs: a Jacobi-96 tree-node polynomial at mu 53 (the
/// root's left child, a non-spine node of degree 48) with 64 random points
/// of its root range and 64 points within two units of its roots, all at
/// the interval solver's scale mu + 8.
struct SignProbeCase {
  pr::Poly poly;
  std::vector<pr::BigInt> random_points;
  std::vector<pr::BigInt> near_points;
  std::size_t w = 0;
};

const SignProbeCase& sign_probe_case() {
  static const SignProbeCase c = [] {
    constexpr std::size_t kMu = 53;
    pr::Prng rng(9);
    const pr::Poly work = pr::random_jacobi_poly(96, 9, rng).primitive_part();
    pr::modular::ModularConfig mod;
    mod.enabled = true;
    auto rs = pr::modular::compute_remainder_sequence_multimodular(work, mod);
    if (!rs) rs = pr::compute_remainder_sequence(work);
    pr::Tree tree(work.degree());
    const pr::BigInt bound =
        pr::BigInt::pow2(pr::root_bound_pow2(work) + kMu);
    for (int idx : tree.postorder()) {
      pr::compute_node_poly(tree, idx, *rs, &mod);
    }
    for (int idx : tree.postorder()) {
      pr::compute_node_roots(tree, idx, kMu, bound, pr::IntervalSolverConfig{},
                             nullptr, &mod);
    }
    const pr::TreeNode& node = tree.node(tree.node(tree.root_index()).left);
    SignProbeCase out;
    out.poly = node.poly;
    out.w = kMu + 8;
    const std::int64_t lo = node.roots.front().to_int64();
    const std::int64_t hi = node.roots.back().to_int64();
    for (int k = 0; k < 64; ++k) {
      const pr::BigInt t(static_cast<long long>(rng.range(lo, hi)));
      out.random_points.push_back(t << 8);
      const pr::BigInt& r = node.roots[rng.below(node.roots.size())];
      out.near_points.push_back((r << 8) +
                                pr::BigInt(static_cast<long long>(k % 5) - 2));
    }
    return out;
  }();
  return c;
}

/// BM_SignProbe's third point set: Jacobi-128 itself (the tree's root
/// node) at w = 61, one to two units (2^-61 to 2^-60) from each of its
/// roots, where the two-limb rung declines about three probes in four and
/// the filter's next rung, 248 bits, decides them.
const SignProbeCase& sign_probe_case_jacobi128() {
  static const SignProbeCase c = [] {
    pr::Prng rng(9);
    SignProbeCase out;
    out.poly = pr::random_jacobi_poly(128, 9, rng).primitive_part();
    out.w = 61;
    pr::RootFinderConfig cfg;
    cfg.mu_bits = out.w;
    cfg.modular.enabled = true;
    for (const pr::BigInt& r : pr::find_real_roots(out.poly, cfg).roots) {
      out.near_points.push_back(r + pr::BigInt(1));
      out.near_points.push_back(r - pr::BigInt(2));
    }
    return out;
  }();
  return c;
}

void BM_SignProbe(benchmark::State& state) {
  // Exact sign_at_scaled (method 0) against certified_sign_scaled alone
  // (1) and filtered_sign_scaled, the two-limb rung followed by the
  // precision ladder (2), at random (near_root 0) and near-root (1) points
  // of a Jacobi-96 node, and at Jacobi-128's points 2^-61 from its roots
  // (2).  certified_share counts the probes the two-limb rung decided.
  const auto set = state.range(1);
  const SignProbeCase& c =
      set == 2 ? sign_probe_case_jacobi128() : sign_probe_case();
  const auto method = state.range(0);
  const auto& points = set == 0 ? c.random_points : c.near_points;
  std::size_t next = 0;
  std::uint64_t certified = 0;
  const pr::instr::OpCounts before = pr::instr::aggregate().total();
  for (auto _ : state) {
    const pr::BigInt& t = points[next];
    next = (next + 1) % points.size();
    if (method == 0) {
      benchmark::DoNotOptimize(c.poly.sign_at_scaled(t, c.w));
    } else if (method == 1) {
      const std::optional<int> s = pr::certified_sign_scaled(c.poly, t, c.w);
      certified += s.has_value() ? 1 : 0;
      benchmark::DoNotOptimize(s);
    } else {
      benchmark::DoNotOptimize(pr::filtered_sign_scaled(c.poly, t, c.w));
    }
  }
  report_allocs(state, before, pr::instr::aggregate().total());
  if (method == 1) {
    state.counters["certified_share"] = benchmark::Counter(
        static_cast<double>(certified) /
        static_cast<double>(state.iterations()));
  }
}
BENCHMARK(BM_SignProbe)
    ->ArgNames({"method", "near_root"})
    ->ArgsProduct({{0, 1, 2}, {0, 1, 2}});

void BM_NewtonStep(benchmark::State& state) {
  // One Newton step's quotient e / d at a near-root point: the exact
  // values of p and p' and one division (method 0), against their values
  // from the precision ladder, entered at w + 192 bits as the interval
  // solver enters it with modular arithmetic on, and the quotient from
  // their bounds (newton_step_scaled, 1).  Set 0 is the Jacobi-96 node's
  // near-root points, set 1 Jacobi-128's points 2^-61 from its roots.
  const SignProbeCase& c =
      state.range(1) == 1 ? sign_probe_case_jacobi128() : sign_probe_case();
  const pr::Poly dp = c.poly.derivative();
  const std::size_t prec = c.w + 192;
  const bool exact = state.range(0) == 0;
  std::size_t next = 0;
  const pr::instr::OpCounts before = pr::instr::aggregate().total();
  for (auto _ : state) {
    const pr::BigInt& t = c.near_points[next];
    next = (next + 1) % c.near_points.size();
    if (exact) {
      const pr::BigInt e = c.poly.eval_scaled(t, c.w);
      const pr::BigInt d = dp.eval_scaled(t, c.w);
      benchmark::DoNotOptimize(e / d);
    } else {
      benchmark::DoNotOptimize(pr::newton_step_scaled(
          c.poly, dp, t, c.w,
          pr::certified_eval_scaled(c.poly, t, c.w, prec, nullptr),
          pr::certified_eval_scaled(dp, t, c.w, prec, nullptr)));
    }
  }
  report_allocs(state, before, pr::instr::aggregate().total());
}
BENCHMARK(BM_NewtonStep)
    ->ArgNames({"method", "set"})
    ->ArgsProduct({{0, 1}, {0, 1}});

/// BM_QirEval's inputs: a degree-n paper input with its roots at mu = w -
/// 8 (kRadii), and points within two units of each root at QIR's working
/// scale w, where QIR's last iterations evaluate.
struct QirEvalCase {
  pr::Poly poly;
  std::vector<pr::BigInt> points;
};

const QirEvalCase& qir_eval_case(std::size_t n, std::size_t w) {
  static std::map<std::pair<std::size_t, std::size_t>, QirEvalCase> cases;
  QirEvalCase& c = cases[{n, w}];
  if (c.points.empty()) {
    pr::Prng rng(0x9e7a + n);
    pr::RootFinderConfig cfg;
    cfg.strategy = pr::FinderStrategy::kRadii;
    cfg.mu_bits = w - 8;
    const auto run = pr::find_real_roots_parallel(pr::paper_input(n, rng).poly,
                                                  cfg, pr::ParallelConfig{});
    c.poly = run.isolated;
    int k = 0;
    for (const pr::BigInt& r : run.report.roots) {
      c.points.push_back((r << 8) + pr::BigInt(k++ % 5 - 2));
    }
  }
  return c;
}

void BM_QirEval(benchmark::State& state) {
  // Exact eval_scaled (method 0) against bounded_eval_scaled (1) at the
  // precision QIR starts its last iterations with (w + ||p|| + 64 bits),
  // for degree n at w = mu + 8, mu = 107, 256 and 1024.  certified_share
  // counts the evaluations the bounds decided.
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto w = static_cast<std::size_t>(state.range(2));
  const QirEvalCase& c = qir_eval_case(n, w);
  const std::size_t prec = w + c.poly.max_coeff_bits() + 64;
  const bool exact = state.range(0) == 0;
  std::size_t next = 0;
  std::uint64_t certified = 0;
  const pr::instr::OpCounts before = pr::instr::aggregate().total();
  for (auto _ : state) {
    const pr::BigInt& t = c.points[next];
    next = (next + 1) % c.points.size();
    if (exact) {
      benchmark::DoNotOptimize(c.poly.eval_scaled(t, w));
    } else {
      const pr::ValueBounds v = pr::bounded_eval_scaled(c.poly, t, w, prec);
      certified += v.sign != 0 ? 1 : 0;
      benchmark::DoNotOptimize(v);
    }
  }
  report_allocs(state, before, pr::instr::aggregate().total());
  if (!exact) {
    state.counters["certified_share"] = benchmark::Counter(
        static_cast<double>(certified) /
        static_cast<double>(state.iterations()));
  }
}
BENCHMARK(BM_QirEval)
    ->ArgNames({"method", "n", "w"})
    ->ArgsProduct({{0, 1}, {16, 40, 64}, {115, 264, 1032}});

void BM_RemainderSequence(benchmark::State& state) {
  pr::Prng rng(5);
  const auto input = pr::paper_input(static_cast<std::size_t>(state.range(0)),
                                     rng);
  const pr::instr::OpCounts before = pr::instr::aggregate().total();
  for (auto _ : state) {
    benchmark::DoNotOptimize(pr::compute_remainder_sequence(input.poly));
  }
  report_allocs(state, before, pr::instr::aggregate().total());
}
BENCHMARK(BM_RemainderSequence)->Arg(10)->Arg(30)->Arg(50);

void BM_FullFind(benchmark::State& state) {
  pr::Prng rng(6);
  const auto input = pr::paper_input(static_cast<std::size_t>(state.range(0)),
                                     rng);
  pr::RootFinderConfig cfg;
  cfg.mu_bits = 107;
  const pr::instr::OpCounts before = pr::instr::aggregate().total();
  for (auto _ : state) {
    benchmark::DoNotOptimize(pr::find_real_roots(input.poly, cfg));
  }
  report_allocs(state, before, pr::instr::aggregate().total());
}
BENCHMARK(BM_FullFind)->Arg(10)->Arg(30)->Arg(50);

void BM_Berkowitz(benchmark::State& state) {
  pr::Prng rng(7);
  const auto m = pr::random_01_symmetric_matrix(
      static_cast<std::size_t>(state.range(0)), rng);
  const pr::instr::OpCounts before = pr::instr::aggregate().total();
  for (auto _ : state) {
    benchmark::DoNotOptimize(pr::charpoly_berkowitz(m));
  }
  report_allocs(state, before, pr::instr::aggregate().total());
}
BENCHMARK(BM_Berkowitz)->Arg(10)->Arg(30)->Arg(50);

void BM_Degree64RemainderInterval(benchmark::State& state) {
  // The headline allocation workload: remainder sequence plus the full
  // interval stage (sieve/bisect/Newton) on a degree-64 paper input --
  // the shape the fused-kernel refactor targets.  Reports per-phase
  // allocation counts alongside wall time.
  pr::Prng rng(0x5eed0000ULL + 64 * 100);
  const auto input = pr::paper_input(64, rng);
  pr::RootFinderConfig cfg;
  cfg.mu_bits = 107;
  const pr::instr::PhaseCounts before = pr::instr::aggregate();
  for (auto _ : state) {
    benchmark::DoNotOptimize(pr::compute_remainder_sequence(input.poly));
    benchmark::DoNotOptimize(pr::find_real_roots(input.poly, cfg));
  }
  const pr::instr::PhaseCounts after = pr::instr::aggregate();
  const pr::instr::PhaseCounts delta = after - before;
  report_allocs(state, before.total(), after.total());
  const double iters = static_cast<double>(state.iterations());
  using pr::instr::Phase;
  state.counters["remainder_allocs"] = benchmark::Counter(
      static_cast<double>(delta[Phase::kRemainder].alloc_count) / iters);
  const std::uint64_t interval_allocs =
      delta[Phase::kPreInterval].alloc_count +
      delta[Phase::kSieve].alloc_count + delta[Phase::kBisect].alloc_count +
      delta[Phase::kNewton].alloc_count;
  state.counters["interval_allocs"] =
      benchmark::Counter(static_cast<double>(interval_allocs) / iters);
}
BENCHMARK(BM_Degree64RemainderInterval)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main: identical to benchmark_main but defaults --benchmark_out to
// a machine-readable BENCH_micro.json at the repository root (falling back
// to the working directory when POLYROOTS_REPO_ROOT is unset), so CI and
// scripted runs always get parseable output in a canonical place without
// extra flags.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
#ifdef POLYROOTS_REPO_ROOT
  std::string out_flag =
      std::string("--benchmark_out=") + POLYROOTS_REPO_ROOT +
      "/BENCH_micro.json";
#else
  std::string out_flag = "--benchmark_out=BENCH_micro.json";
#endif
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int argn = static_cast<int>(args.size());
  benchmark::Initialize(&argn, args.data());
  // Stamp the profile id (the active kernel table) into the JSON context.
  benchmark::AddCustomContext("calibration_profile",
                              prbench::bench_profile_id());
  // The context's library_build_type describes the installed
  // google-benchmark library; this records how polyroots was built.
#ifdef NDEBUG
  benchmark::AddCustomContext("polyroots_build", "optimized (NDEBUG)");
#else
  benchmark::AddCustomContext("polyroots_build", "debug (assertions on)");
#endif
  if (benchmark::ReportUnrecognizedArguments(argn, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
