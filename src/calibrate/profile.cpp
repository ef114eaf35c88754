#include "calibrate/profile.hpp"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "modular/simd/simd.hpp"
#include "support/error.hpp"

namespace pr::calibrate {

namespace {

[[noreturn]] void malformed(const std::string& who, std::size_t lineno,
                            const std::string& why) {
  throw InvalidArgument(who + ": line " + std::to_string(lineno) + ": " + why);
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/// One parsed "key": value line (value still raw text, comma stripped).
struct KeyValue {
  std::string key;
  std::string value;
};

KeyValue split_key_value(const std::string& who, std::size_t lineno,
                         const std::string& line) {
  if (line.empty() || line[0] != '"') {
    malformed(who, lineno, "expected a quoted key, got '" + line + "'");
  }
  const std::size_t close = line.find('"', 1);
  if (close == std::string::npos) {
    malformed(who, lineno, "unterminated key string");
  }
  KeyValue kv;
  kv.key = line.substr(1, close - 1);
  std::string rest = trim(line.substr(close + 1));
  if (rest.empty() || rest[0] != ':') {
    malformed(who, lineno, "expected ':' after key \"" + kv.key + "\"");
  }
  rest = trim(rest.substr(1));
  if (!rest.empty() && rest.back() == ',') rest = trim(rest.substr(0, rest.size() - 1));
  if (rest.empty()) {
    malformed(who, lineno, "missing value for key \"" + kv.key + "\"");
  }
  kv.value = rest;
  return kv;
}

std::string parse_string(const std::string& who, std::size_t lineno,
                         const KeyValue& kv) {
  if (kv.value.size() < 2 || kv.value.front() != '"' ||
      kv.value.back() != '"') {
    malformed(who, lineno,
              "key \"" + kv.key + "\" expects a quoted string value");
  }
  return kv.value.substr(1, kv.value.size() - 2);
}

double parse_double(const std::string& who, std::size_t lineno,
                    const KeyValue& kv) {
  char* end = nullptr;
  const double v = std::strtod(kv.value.c_str(), &end);
  if (end == kv.value.c_str() || *end != '\0') {
    malformed(who, lineno,
              "key \"" + kv.key + "\" expects a number, got '" + kv.value +
                  "'");
  }
  return v;
}

std::uint32_t parse_u32(const std::string& who, std::size_t lineno,
                        const KeyValue& kv) {
  const double v = parse_double(who, lineno, kv);
  // Range first: converting a NaN or out-of-range double to an integer is
  // undefined behaviour.
  if (!std::isfinite(v) || v < 0 || v > 4294967295.0 ||
      v != static_cast<double>(static_cast<std::uint64_t>(v))) {
    malformed(who, lineno,
              "key \"" + kv.key + "\" expects a nonnegative integer, got '" +
                  kv.value + "'");
  }
  return static_cast<std::uint32_t>(v);
}

void append_number(std::ostringstream& os, double v) {
  // Round-trippable doubles; integral values print without an exponent so
  // the file stays hand-editable.  Range first, as in parse_u32.
  if (v >= -1e15 && v <= 1e15 &&
      v == static_cast<double>(static_cast<long long>(v))) {
    os << static_cast<long long>(v) << ".0";
  } else {
    os.precision(17);
    os << v;
  }
}

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

ProfileKey host_profile_key() {
  ProfileKey k;
  k.cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    // x86 reports "model name"; keep the first match.
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    if (trim(line.substr(0, colon)) == "model name") {
      k.cpu = trim(line.substr(colon + 1));
      break;
    }
  }
  k.isa = modular::simd::isa_name(modular::simd::active_isa());
#if defined(__clang__)
  k.build = "clang " __clang_version__;
#elif defined(__GNUC__)
  k.build = "gcc " __VERSION__;
#else
  k.build = "unknown";
#endif
  return k;
}

std::string to_json(const CalibrationProfile& p) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"version\": " << p.version << ",\n";
  os << "  \"cpu\": \"" << p.key.cpu << "\",\n";
  os << "  \"isa\": \"" << p.key.isa << "\",\n";
  os << "  \"build\": \"" << p.key.build << "\",\n";
  os << "  \"crt_digit_units_linear\": ";
  append_number(os, p.crt_digit_units_linear);
  os << ",\n";
  os << "  \"crt_digit_units_quadratic\": ";
  append_number(os, p.crt_digit_units_quadratic);
  os << "\n}\n";
  return os.str();
}

CalibrationProfile from_json(const std::string& text, const std::string& who) {
  std::istringstream is(text);
  std::string line;
  std::size_t lineno = 0;

  // Skip blank lines to the opening brace.
  bool open = false;
  while (std::getline(is, line)) {
    ++lineno;
    const std::string t = trim(line);
    if (t.empty()) continue;
    if (t != "{") malformed(who, lineno, "expected '{', got '" + t + "'");
    open = true;
    break;
  }
  if (!open) malformed(who, lineno, "empty input (expected a JSON object)");

  CalibrationProfile p;
  // Field presence tracking: a truncated file (missing '}' or missing
  // keys) is diagnosed, not silently defaulted.
  bool seen_version = false;
  std::vector<std::string> missing = {
      "cpu",
      "isa",
      "build",
      "crt_digit_units_linear",
      "crt_digit_units_quadratic",
  };
  const auto mark = [&missing](const std::string& key) {
    for (auto it = missing.begin(); it != missing.end(); ++it) {
      if (*it == key) {
        missing.erase(it);
        return true;
      }
    }
    return false;
  };

  bool closed = false;
  while (std::getline(is, line)) {
    ++lineno;
    const std::string t = trim(line);
    if (t.empty()) continue;
    if (t == "}") {
      closed = true;
      break;
    }
    const KeyValue kv = split_key_value(who, lineno, t);
    if (kv.key == "version") {
      if (seen_version) malformed(who, lineno, "duplicate key \"version\"");
      seen_version = true;
      p.version = static_cast<int>(parse_u32(who, lineno, kv));
      if (p.version != CalibrationProfile::kVersion) {
        malformed(who, lineno,
                  "unsupported profile version " + std::to_string(p.version) +
                      " (this build reads version " +
                      std::to_string(CalibrationProfile::kVersion) +
                      "); recalibrate with --calibrate");
      }
      continue;
    }
    if (!mark(kv.key)) {
      malformed(who, lineno, "unknown or duplicate key \"" + kv.key + "\"");
    }
    if (kv.key == "cpu") {
      p.key.cpu = parse_string(who, lineno, kv);
    } else if (kv.key == "isa") {
      p.key.isa = parse_string(who, lineno, kv);
    } else if (kv.key == "build") {
      p.key.build = parse_string(who, lineno, kv);
    } else if (kv.key == "crt_digit_units_linear") {
      p.crt_digit_units_linear = parse_double(who, lineno, kv);
    } else if (kv.key == "crt_digit_units_quadratic") {
      p.crt_digit_units_quadratic = parse_double(who, lineno, kv);
    }
  }
  if (!closed) {
    malformed(who, lineno, "truncated profile: missing closing '}'");
  }
  if (!seen_version) {
    malformed(who, lineno, "truncated profile: missing key \"version\"");
  }
  if (!missing.empty()) {
    malformed(who, lineno,
              "truncated profile: missing key \"" + missing.front() + "\"");
  }
  return p;
}

void save_profile(const CalibrationProfile& p, const std::string& path) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) throw Error("calibration profile: cannot open for writing: " + path);
  os << to_json(p);
  os.flush();
  if (!os) throw Error("calibration profile: write failed: " + path);
}

CalibrationProfile load_profile(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw Error("calibration profile: cannot open: " + path);
  std::ostringstream buf;
  buf << is.rdbuf();
  return from_json(buf.str(), "calibration profile " + path);
}

std::string profile_id(const CalibrationProfile& p) {
  const std::string isa =
      !p.key.isa.empty()
          ? p.key.isa
          : modular::simd::isa_name(modular::simd::active_isa());
  CalibrationProfile defaults;
  defaults.key = p.key;
  if (p == defaults) return "defaults-" + isa;
  const std::uint64_t h = fnv1a64(to_json(p));
  char hex[9];
  std::snprintf(hex, sizeof hex, "%08x",
                static_cast<unsigned>(h ^ (h >> 32)));
  return std::string("cal-") + hex + "-" + isa;
}

}  // namespace pr::calibrate
