// Calibration subsystem: profile JSON round-trip and line-context
// diagnostics, apply/clamp semantics, the CRT wave model, and the
// determinism contract -- a profile moves dispatch crossovers, never a
// computed root.
#include "calibrate/calibrate.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>

#include "calibrate/autotune.hpp"
#include "core/parallel_driver.hpp"
#include "gen/matrix_polys.hpp"
#include "modular/tuning.hpp"
#include "support/error.hpp"
#include "support/prng.hpp"

namespace pr {
namespace {

namespace cal = pr::calibrate;

/// A profile with every tunable away from its default, for round-trip
/// and apply tests.
cal::CalibrationProfile distinct_profile() {
  cal::CalibrationProfile p;
  p.key.cpu = "Test CPU 9000";
  p.key.isa = "avx2";
  p.key.build = "gcc 12.2.0";
  p.karatsuba_threshold = 17;
  p.bigint_ntt_threshold = 512;
  p.ntt_butterfly_units = 2.5;
  p.modular_ntt_min_operand = 24;
  p.crt_digit_units_linear = 3.5;
  p.crt_digit_units_quadratic = 0.75;
  p.crt_units_per_wave = 8192.0;
  p.crt_max_fanout = 8;
  p.crt_fanout_per_thread = 3;
  p.batch_min_task_units = 10000.0;
  return p;
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream os(path, std::ios::trunc);
  os << content;
}

/// Every test that applies a profile or touches the dispatch word runs
/// through this fixture so global tuning state is restored afterwards.
class CalibrateTest : public ::testing::Test {
 protected:
  void TearDown() override {
    cal::reset();
    BigInt::set_mul_dispatch(MulDispatch{});
  }
};

TEST(CalibrateProfile, RoundTripsThroughJson) {
  const cal::CalibrationProfile p = distinct_profile();
  EXPECT_EQ(cal::from_json(cal::to_json(p)), p);
  // Defaults round-trip too (integral doubles survive the writer).
  const cal::CalibrationProfile d;
  EXPECT_EQ(cal::from_json(cal::to_json(d)), d);
}

TEST(CalibrateProfile, RoundTripsThroughDisk) {
  const cal::CalibrationProfile p = distinct_profile();
  const std::string path = temp_path("roundtrip_profile.json");
  cal::save_profile(p, path);
  EXPECT_EQ(cal::load_profile(path), p);
}

TEST(CalibrateProfile, MalformedLineIsDiagnosedWithLineContext) {
  // Line 3 lacks the ':' separator.
  const std::string text =
      "{\n"
      "  \"version\": 1,\n"
      "  \"cpu\" \"missing colon\",\n"
      "}\n";
  try {
    cal::from_json(text);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("calibration profile"),
              std::string::npos)
        << e.what();
  }
}

TEST(CalibrateProfile, TruncatedJsonIsDiagnosed) {
  std::string text = cal::to_json(distinct_profile());
  // Chop at a line boundary mid-object: drops several fields and the
  // closing brace (an interrupted write, the realistic truncation).
  std::size_t cut = 0;
  for (int lines = 0; lines < 6; ++lines) cut = text.find('\n', cut) + 1;
  text.resize(cut);
  try {
    cal::from_json(text);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
}

TEST(CalibrateProfile, MissingFieldIsDiagnosed) {
  // Structurally complete object that never mentions the CRT fields.
  const std::string text =
      "{\n"
      "  \"version\": 1\n"
      "}\n";
  try {
    cal::from_json(text);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("missing key"), std::string::npos)
        << e.what();
  }
}

TEST(CalibrateProfile, VersionMismatchIsDiagnosed) {
  std::string text = cal::to_json(distinct_profile());
  const std::string needle = "\"version\": 1";
  text.replace(text.find(needle), needle.size(), "\"version\": 99");
  try {
    cal::from_json(text);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported profile version 99"),
              std::string::npos)
        << e.what();
  }
}

TEST(CalibrateProfile, UnknownKeyIsDiagnosed) {
  const std::string text =
      "{\n"
      "  \"version\": 1,\n"
      "  \"warp_factor\": 9\n"
      "}\n";
  try {
    cal::from_json(text);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("warp_factor"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(CalibrateProfile, ProfileIdDistinguishesDefaultsFromCalibrated) {
  const cal::CalibrationProfile d;
  EXPECT_EQ(cal::profile_id(d).rfind("defaults-", 0), 0u);
  const cal::CalibrationProfile p = distinct_profile();
  EXPECT_EQ(cal::profile_id(p).rfind("cal-", 0), 0u);
  // The id is a function of the content: different profiles, different
  // ids.
  cal::CalibrationProfile q = p;
  q.karatsuba_threshold = 18;
  EXPECT_NE(cal::profile_id(p), cal::profile_id(q));
}

TEST_F(CalibrateTest, LoadAndApplyInstallsAMatchingProfile) {
  cal::CalibrationProfile p = distinct_profile();
  p.key = cal::host_profile_key();  // make the key match this host
  const std::string path = temp_path("matching_profile.json");
  cal::save_profile(p, path);

  const cal::LoadResult r = cal::load_and_apply(path);
  EXPECT_TRUE(r.applied) << r.diagnostic;
  EXPECT_TRUE(r.diagnostic.empty());

  const MulDispatch fast = MulDispatch::fast();
  EXPECT_EQ(fast.karatsuba_threshold, p.karatsuba_threshold);
  EXPECT_EQ(fast.ntt_threshold, p.bigint_ntt_threshold);
  const modular::ModularTuning t = modular::modular_tuning();
  EXPECT_EQ(t.ntt.min_operand, p.modular_ntt_min_operand);
  EXPECT_DOUBLE_EQ(t.ntt.butterfly_units, p.ntt_butterfly_units);
  EXPECT_DOUBLE_EQ(t.crt.digit_units_quadratic, p.crt_digit_units_quadratic);
  EXPECT_EQ(cal::active_profile_id(), cal::profile_id(p));
}

TEST_F(CalibrateTest, KeyMismatchFallsBackWithDiagnostic) {
  cal::CalibrationProfile p = distinct_profile();
  p.key = cal::host_profile_key();
  p.key.isa = p.key.isa == "scalar" ? "avx512" : "scalar";  // wrong ISA
  const std::string path = temp_path("mismatched_profile.json");
  cal::save_profile(p, path);

  const MulDispatch before = MulDispatch::fast();
  const cal::LoadResult r = cal::load_and_apply(path);
  EXPECT_FALSE(r.applied);
  EXPECT_NE(r.diagnostic.find("key mismatch"), std::string::npos)
      << r.diagnostic;
  // Tuning untouched.
  EXPECT_EQ(MulDispatch::fast(), before);
}

TEST_F(CalibrateTest, UnreadableAndMalformedFilesFallBack) {
  cal::LoadResult r = cal::load_and_apply(temp_path("does_not_exist.json"));
  EXPECT_FALSE(r.applied);
  EXPECT_NE(r.diagnostic.find("cannot open"), std::string::npos)
      << r.diagnostic;

  const std::string path = temp_path("malformed_profile.json");
  write_file(path, "{\n  not json at all\n}\n");
  r = cal::load_and_apply(path);
  EXPECT_FALSE(r.applied);
  EXPECT_NE(r.diagnostic.find("line 2"), std::string::npos) << r.diagnostic;
}

TEST_F(CalibrateTest, ApplyClampsExtremeValues) {
  cal::CalibrationProfile p = distinct_profile();
  p.karatsuba_threshold = 0;           // below the recursion floor
  p.bigint_ntt_threshold = 4000000000; // above the 16-bit field
  p.modular_ntt_min_operand = 1;
  p.ntt_butterfly_units = -5.0;        // nonsense: clamps to 0 (= auto)
  p.crt_max_fanout = 0;
  p.crt_fanout_per_thread = 1000;
  p.crt_units_per_wave = 1.0;
  cal::apply(p);

  const MulDispatch fast = MulDispatch::fast();
  EXPECT_EQ(fast.karatsuba_threshold, 4u);
  EXPECT_EQ(fast.ntt_threshold, 0xffffu);
  const modular::ModularTuning t = modular::modular_tuning();
  EXPECT_EQ(t.ntt.min_operand, 4u);
  EXPECT_DOUBLE_EQ(t.ntt.butterfly_units, 0.0);
  EXPECT_EQ(t.crt.max_fanout, 1u);
  EXPECT_EQ(t.crt.fanout_per_thread, 64u);
  EXPECT_DOUBLE_EQ(t.crt.units_per_wave, 256.0);
}

TEST_F(CalibrateTest, CalibratedThresholdsPreserveDispatchFlags) {
  MulDispatch d;
  d.karatsuba = true;  // ntt stays off
  d.karatsuba_threshold = 30;
  d.ntt_threshold = 300;
  BigInt::set_mul_dispatch(d);

  BigInt::set_calibrated_mul_thresholds(10, 100);
  const MulDispatch live = BigInt::mul_dispatch();
  EXPECT_TRUE(live.karatsuba);
  EXPECT_FALSE(live.ntt);  // calibration never flips a flag on
  EXPECT_EQ(live.karatsuba_threshold, 10u);
  EXPECT_EQ(live.ntt_threshold, 100u);
  const MulDispatch fast = MulDispatch::fast();
  EXPECT_EQ(fast.karatsuba_threshold, 10u);
  EXPECT_EQ(fast.ntt_threshold, 100u);
}

// --- CRT wave model --------------------------------------------------

TEST(CrtWaveModel, FanoutCapReproducesCompiledDefault) {
  const modular::CrtWaveModel m;  // defaults: max 16, 2 per thread
  EXPECT_EQ(modular::crt_wave_fanout_cap(m, 1), 2u);
  EXPECT_EQ(modular::crt_wave_fanout_cap(m, 4), 8u);
  EXPECT_EQ(modular::crt_wave_fanout_cap(m, 8), 16u);
  EXPECT_EQ(modular::crt_wave_fanout_cap(m, 100), 16u);  // capped
}

TEST(CrtWaveModel, LevelWavesScaleWithWorkAndRespectTheCap) {
  const modular::CrtWaveModel m;
  // Tiny level: one wave.
  EXPECT_EQ(modular::crt_level_waves(m, 10, 2, 16), 1u);
  // units(cnt, k) = cnt * (2k + k^2); at cnt=4096, k=8: 4096*80 =
  // 327680 units = 20 waves at 16384 units/wave, clamped to the cap.
  EXPECT_EQ(modular::crt_level_waves(m, 4096, 8, 16), 16u);
  EXPECT_EQ(modular::crt_level_waves(m, 4096, 8, 64), 20u);
  // Monotone in both cnt and k.
  const std::size_t w1 = modular::crt_level_waves(m, 1024, 4, 64);
  const std::size_t w2 = modular::crt_level_waves(m, 2048, 4, 64);
  const std::size_t w3 = modular::crt_level_waves(m, 2048, 8, 64);
  EXPECT_LE(w1, w2);
  EXPECT_LE(w2, w3);
  // cap <= 1 short-circuits.
  EXPECT_EQ(modular::crt_level_waves(m, 1u << 20, 16, 1), 1u);
}

// --- determinism under synthetic extreme profiles --------------------

/// Thresholds clamped as low as they go: every fast path fires as early
/// as possible (NTT at 4 limbs, mod-p NTT at length 4, maximal CRT
/// fan-out, no image batching).
cal::CalibrationProfile extreme_low() {
  cal::CalibrationProfile p;
  p.karatsuba_threshold = 4;
  p.bigint_ntt_threshold = 4;
  p.ntt_butterfly_units = 0.25;
  p.modular_ntt_min_operand = 4;
  p.crt_digit_units_linear = 1024.0;
  p.crt_digit_units_quadratic = 1024.0;
  p.crt_units_per_wave = 256.0;
  p.crt_max_fanout = 4096;
  p.crt_fanout_per_thread = 64;
  p.batch_min_task_units = 256.0;
  return p;
}

/// Thresholds clamped as high as they go: no fast path ever fires
/// (schoolbook everywhere, one CRT wave, everything batched).
cal::CalibrationProfile extreme_high() {
  cal::CalibrationProfile p;
  p.karatsuba_threshold = 65535;
  p.bigint_ntt_threshold = 65535;
  p.ntt_butterfly_units = 64.0;
  p.modular_ntt_min_operand = 60000;
  p.crt_digit_units_linear = 0.0;
  p.crt_digit_units_quadratic = 0.0;
  p.crt_units_per_wave = 1e12;
  p.crt_max_fanout = 1;
  p.crt_fanout_per_thread = 1;
  p.batch_min_task_units = 1e12;
  return p;
}

TEST_F(CalibrateTest, ExtremeProfilesKeepRootReportsBitIdentical) {
  Prng rng(21);
  const auto input = paper_input(12, rng);
  RootFinderConfig cfg;
  cfg.mu_bits = 40;
  // Route through the multimodular machinery so the CRT wave model and
  // image batching sit on the hot path.  (No pipeline path convolves mod
  // p any more, so the mod-p NTT cutoff is not on it.)
  cfg.modular.enabled = true;
  cfg.modular.min_degree = 2;

  cal::reset();
  const auto ref = find_real_roots(input.poly, cfg);

  const struct {
    const char* name;
    cal::CalibrationProfile profile;
  } cases[] = {
      {"defaults", cal::CalibrationProfile{}},
      {"extreme-low", extreme_low()},
      {"extreme-high", extreme_high()},
  };
  for (const auto& c : cases) {
    cal::apply(c.profile);
    // Enable the full BigInt ladder so the calibrated thresholds are
    // actually consulted (calibration itself never flips flags).
    BigInt::set_mul_dispatch(MulDispatch::fast());
    for (const int threads : {1, 2, 8}) {
      ParallelConfig pc;
      pc.num_threads = threads;
      const auto run = find_real_roots_parallel(input.poly, cfg, pc);
      EXPECT_FALSE(run.used_sequential_fallback)
          << c.name << " threads=" << threads;
      EXPECT_EQ(run.report.roots, ref.roots)
          << c.name << " threads=" << threads;
      EXPECT_EQ(run.report.multiplicities, ref.multiplicities)
          << c.name << " threads=" << threads;
      EXPECT_EQ(run.report.mu, ref.mu) << c.name << " threads=" << threads;
    }
    BigInt::set_mul_dispatch(MulDispatch{});
  }
}

// --- autotune smoke --------------------------------------------------

TEST_F(CalibrateTest, QuickAutotuneProducesAWellFormedProfile) {
  // Snapshot, not MulDispatch{}: under a startup-applied profile (the CI
  // calibrate-then-test leg) the live dispatch already carries calibrated
  // thresholds before this test runs.
  const MulDispatch before = BigInt::mul_dispatch();
  cal::AutotuneOptions opt;
  opt.quick = true;
  opt.repeats = 1;
  const cal::CalibrationProfile p = cal::autotune(opt);

  EXPECT_EQ(p.version, cal::CalibrationProfile::kVersion);
  EXPECT_EQ(p.key, cal::host_profile_key());
  // Structural invariants, not timing assertions: thresholds inside
  // their clamps and ladder-ordered, fitted units nonnegative.
  EXPECT_GE(p.karatsuba_threshold, 4u);
  EXPECT_LE(p.karatsuba_threshold, 65535u);
  EXPECT_GE(p.bigint_ntt_threshold, p.karatsuba_threshold);
  EXPECT_GE(p.modular_ntt_min_operand, 4u);
  EXPECT_LE(p.modular_ntt_min_operand, 256u);
  EXPECT_GE(p.ntt_butterfly_units, 0.0);
  EXPECT_GE(p.crt_digit_units_linear, 0.0);
  EXPECT_GE(p.crt_digit_units_quadratic, 0.0);
  // The autotuner restores whatever dispatch it perturbed.
  EXPECT_EQ(BigInt::mul_dispatch(), before);
  EXPECT_EQ(p.crt_units_per_wave, cal::CalibrationProfile{}.crt_units_per_wave);

  // And the result round-trips like any other profile.
  EXPECT_EQ(cal::from_json(cal::to_json(p)), p);
}

}  // namespace
}  // namespace pr
