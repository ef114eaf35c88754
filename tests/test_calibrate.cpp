// Calibration subsystem: profile JSON round-trip and line-context
// diagnostics, apply/clamp semantics, the CRT wave model, and the
// determinism contract -- a profile moves how reconstruction work is
// split into tasks, never a computed root.
#include "calibrate/calibrate.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <string>

#include "calibrate/autotune.hpp"
#include "core/parallel_driver.hpp"
#include "gen/matrix_polys.hpp"
#include "modular/simd/simd.hpp"
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
  p.crt_digit_units_linear = 3.5;
  p.crt_digit_units_quadratic = 0.75;
  return p;
}

bool same_tuning(const modular::ModularTuning& a,
                 const modular::ModularTuning& b) {
  return a.crt_digit_units_linear == b.crt_digit_units_linear &&
         a.crt_digit_units_quadratic == b.crt_digit_units_quadratic;
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream os(path, std::ios::trunc);
  os << content;
}

/// Every test that applies a profile runs through this fixture so global
/// tuning state is restored afterwards.
class CalibrateTest : public ::testing::Test {
 protected:
  void TearDown() override { cal::reset(); }
};

TEST(CalibrateProfile, RoundTripsThroughJson) {
  const cal::CalibrationProfile p = distinct_profile();
  EXPECT_EQ(cal::from_json(cal::to_json(p)), p);
  // Defaults round-trip too (integral doubles survive the writer).
  const cal::CalibrationProfile d;
  EXPECT_EQ(cal::from_json(cal::to_json(d)), d);
  // Values beyond the integral-print range take the exponent path.
  cal::CalibrationProfile big = p;
  big.crt_digit_units_linear = 1e300;
  big.crt_digit_units_quadratic = -1e16;
  EXPECT_EQ(cal::from_json(cal::to_json(big)), big);
}

TEST(CalibrateProfile, RoundTripsThroughDisk) {
  const cal::CalibrationProfile p = distinct_profile();
  const std::string path = temp_path("roundtrip_profile.json");
  cal::save_profile(p, path);
  EXPECT_EQ(cal::load_profile(path), p);
}

TEST(CalibrateProfile, MalformedLineIsDiagnosedWithLineContext) {
  const struct {
    std::string text;
    const char* line;
  } cases[] = {
      // Line 3 lacks the ':' separator.
      {"{\n"
       "  \"version\": 2,\n"
       "  \"cpu\" \"missing colon\",\n"
       "}\n",
       "line 3"},
      // A NaN version is rejected before any integer conversion.
      {"{\n"
       "  \"version\": nan,\n"
       "}\n",
       "line 2"},
  };
  for (const auto& c : cases) {
    try {
      cal::from_json(c.text);
      ADD_FAILURE() << "expected InvalidArgument for " << c.text;
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(c.line), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("calibration profile"),
                std::string::npos)
          << e.what();
    }
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
      "  \"version\": 2\n"
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
  const std::string needle =
      "\"version\": " + std::to_string(cal::CalibrationProfile::kVersion);
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
      "  \"version\": 2,\n"
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
  EXPECT_EQ(cal::profile_id(d),
            std::string("defaults-") +
                modular::simd::isa_name(modular::simd::active_isa()));
  const cal::CalibrationProfile p = distinct_profile();
  EXPECT_EQ(cal::profile_id(p).rfind("cal-", 0), 0u);
  // The id is a function of the content: different profiles, different
  // ids.
  cal::CalibrationProfile q = p;
  q.crt_digit_units_linear = 3.75;
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

  const modular::ModularTuning t = modular::modular_tuning();
  EXPECT_DOUBLE_EQ(t.crt_digit_units_linear, p.crt_digit_units_linear);
  EXPECT_DOUBLE_EQ(t.crt_digit_units_quadratic, p.crt_digit_units_quadratic);
  EXPECT_EQ(cal::active_profile_id(), cal::profile_id(p));
}

TEST_F(CalibrateTest, KeyMismatchFallsBackWithDiagnostic) {
  cal::CalibrationProfile p = distinct_profile();
  p.key = cal::host_profile_key();
  p.key.isa = p.key.isa == "scalar" ? "avx512" : "scalar";  // wrong ISA
  const std::string path = temp_path("mismatched_profile.json");
  cal::save_profile(p, path);

  const modular::ModularTuning before = modular::modular_tuning();
  const cal::LoadResult r = cal::load_and_apply(path);
  EXPECT_FALSE(r.applied);
  EXPECT_NE(r.diagnostic.find("key mismatch"), std::string::npos)
      << r.diagnostic;
  // Tuning untouched.
  EXPECT_TRUE(same_tuning(modular::modular_tuning(), before));
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

TEST_F(CalibrateTest, VersionOneProfileFallsBackToDefaults) {
  // The version-1 layout, which also carried the multiplication-ladder
  // thresholds and the CRT/batching constants.  Start from the defaults,
  // as a process without a usable profile does.
  cal::reset();
  const cal::ProfileKey host = cal::host_profile_key();
  const std::string path = temp_path("version1_profile.json");
  write_file(path,
             "{\n"
             "  \"version\": 1,\n"
             "  \"cpu\": \"" + host.cpu + "\",\n"
             "  \"isa\": \"" + host.isa + "\",\n"
             "  \"build\": \"" + host.build + "\",\n"
             "  \"karatsuba_threshold\": 24,\n"
             "  \"bigint_ntt_threshold\": 256,\n"
             "  \"ntt_butterfly_units\": 0.0,\n"
             "  \"modular_ntt_min_operand\": 16,\n"
             "  \"crt_digit_units_linear\": 3.0,\n"
             "  \"crt_digit_units_quadratic\": 0.5,\n"
             "  \"crt_units_per_wave\": 16384.0,\n"
             "  \"crt_max_fanout\": 16,\n"
             "  \"crt_fanout_per_thread\": 2,\n"
             "  \"batch_min_task_units\": 20000.0\n"
             "}\n");
  const cal::LoadResult r = cal::load_and_apply(path);
  EXPECT_FALSE(r.applied);
  EXPECT_NE(r.diagnostic.find("unsupported profile version 1"),
            std::string::npos)
      << r.diagnostic;
  EXPECT_NE(r.diagnostic.find("recalibrate with --calibrate"),
            std::string::npos)
      << r.diagnostic;
  EXPECT_TRUE(same_tuning(modular::modular_tuning(), {}));
  EXPECT_EQ(cal::active_profile_id(), cal::profile_id({}));
}

TEST_F(CalibrateTest, ApplyClampsExtremeValues) {
  cal::CalibrationProfile p = distinct_profile();
  p.crt_digit_units_linear = -5.0;  // nonsense: clamps to 0
  p.crt_digit_units_quadratic = 1e9;
  cal::apply(p);
  modular::ModularTuning t = modular::modular_tuning();
  EXPECT_DOUBLE_EQ(t.crt_digit_units_linear, 0.0);
  EXPECT_DOUBLE_EQ(t.crt_digit_units_quadratic, 1024.0);

  p.crt_digit_units_linear = std::numeric_limits<double>::quiet_NaN();
  p.crt_digit_units_quadratic = std::numeric_limits<double>::infinity();
  cal::apply(p);
  t = modular::modular_tuning();
  EXPECT_DOUBLE_EQ(t.crt_digit_units_linear, 0.0);
  EXPECT_DOUBLE_EQ(t.crt_digit_units_quadratic, 0.0);
}

// --- CRT wave model --------------------------------------------------

TEST(CrtWaveModel, FanoutCapReproducesCompiledDefault) {
  // min(16, 2 * threads), at least one slot.
  EXPECT_EQ(modular::crt_wave_fanout_cap(0), 2u);
  EXPECT_EQ(modular::crt_wave_fanout_cap(1), 2u);
  EXPECT_EQ(modular::crt_wave_fanout_cap(4), 8u);
  EXPECT_EQ(modular::crt_wave_fanout_cap(8), 16u);
  EXPECT_EQ(modular::crt_wave_fanout_cap(100), 16u);  // capped
}

TEST(CrtWaveModel, LevelWavesScaleWithWorkAndRespectTheCap) {
  const modular::ModularTuning m;
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

/// Garner costs clamped as high as they go: every CRT level that clears
/// crt_wave_min_work fans out to all its wave slots.
cal::CalibrationProfile extreme_high() {
  cal::CalibrationProfile p;
  p.crt_digit_units_linear = 1024.0;
  p.crt_digit_units_quadratic = 1024.0;
  return p;
}

/// Garner costs of zero: every level runs as one wave.
cal::CalibrationProfile extreme_low() {
  cal::CalibrationProfile p;
  p.crt_digit_units_linear = 0.0;
  p.crt_digit_units_quadratic = 0.0;
  return p;
}

TEST_F(CalibrateTest, ExtremeProfilesKeepRootReportsBitIdentical) {
  Prng rng(21);
  const auto input = paper_input(12, rng);
  RootFinderConfig cfg;
  cfg.mu_bits = 40;
  // Route through the multimodular machinery so the CRT wave model sits
  // on the hot path.
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
  }
}

// --- autotune smoke --------------------------------------------------

TEST_F(CalibrateTest, QuickAutotuneProducesAWellFormedProfile) {
  // Snapshot, not the defaults: under a startup-applied profile (the CI
  // calibrate-then-test leg) the live tuning is already calibrated.
  const modular::ModularTuning before = modular::modular_tuning();
  cal::AutotuneOptions opt;
  opt.quick = true;
  opt.repeats = 1;
  const cal::CalibrationProfile p = cal::autotune(opt);

  EXPECT_EQ(p.version, cal::CalibrationProfile::kVersion);
  EXPECT_EQ(p.key, cal::host_profile_key());
  // Structural invariants, not timing assertions: fitted units inside
  // their clamps.
  EXPECT_GE(p.crt_digit_units_linear, 0.0);
  EXPECT_LE(p.crt_digit_units_linear, 1024.0);
  EXPECT_GE(p.crt_digit_units_quadratic, 0.0);
  EXPECT_LE(p.crt_digit_units_quadratic, 1024.0);
  // The autotuner measures; it does not install what it measured.
  EXPECT_TRUE(same_tuning(modular::modular_tuning(), before));

  // And the result round-trips like any other profile.
  EXPECT_EQ(cal::from_json(cal::to_json(p)), p);
}

}  // namespace
}  // namespace pr
