// In-memory span recorder for the end-to-end benchmark's traced mode.
//
// Spans are recorded only around the benchmark's own calls (request ->
// public call -> layer call); nothing inside the library is instrumented.
// They stay in memory until the run ends and are then written once as
// Chrome trace-event JSON, which Perfetto and chrome://tracing open offline.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  double start = 0;  // seconds since the tracer's origin
  double end = 0;
  std::int64_t id = 0;
  std::int64_t parent = -1;
  std::int64_t request = -1;
  int tid = 0;
  std::vector<std::pair<std::string, std::string>> tags;
};

inline std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }
  double at(Clock::time_point t) const {
    return std::chrono::duration<double>(t - origin_).count();
  }

  /// Opens a span; returns -1 (and records nothing) when tracing is off.
  std::int64_t begin(std::string name, std::int64_t parent,
                     std::int64_t request, int tid,
                     std::vector<std::pair<std::string, std::string>> tags = {}) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mutex_);
    Span s;
    s.name = std::move(name);
    s.start = now();
    s.end = s.start;
    s.id = static_cast<std::int64_t>(spans_.size());
    s.parent = parent;
    s.request = request;
    s.tid = tid;
    s.tags = std::move(tags);
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  void end(std::int64_t id) {
    if (id < 0) return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = now();
  }

  void tag(std::int64_t id, std::string key, std::string value) {
    if (id < 0) return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].tags.emplace_back(std::move(key),
                                                           std::move(value));
  }

  /// Records an already-finished span (e.g. a pool task from the
  /// library's execution timeline, shifted to this tracer's clock).
  void add(Span s) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mutex_);
    s.id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(std::move(s));
  }

  std::size_t size() const { return spans_.size(); }
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name: each span's duration minus the part of it
  /// covered by its children on the same thread.
  std::map<std::string, double> self_seconds() const {
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent < 0) continue;
      const Span& p = spans_[static_cast<std::size_t>(s.parent)];
      if (p.tid != s.tid) continue;
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
    }
    std::map<std::string, double> out;
    for (const Span& s : spans_) {
      auto& iv = kids[static_cast<std::size_t>(s.id)];
      std::sort(iv.begin(), iv.end());
      double covered = 0, cur_lo = 0, cur_hi = -1;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start);
        hi = std::min(hi, s.end);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
      out[s.name] += (s.end - s.start) - covered;
    }
    return out;
  }

  /// Writes the spans as Chrome trace-event JSON ("X" complete events,
  /// microsecond timestamps); `metadata` lands in the top-level
  /// "otherData" object.
  bool write_chrome(const std::string& path,
                    const std::vector<std::pair<std::string, std::string>>&
                        metadata) const {
    std::ofstream os(path);
    if (!os) return false;
    os << "{\"displayTimeUnit\": \"ms\",\n \"otherData\": {";
    for (std::size_t i = 0; i < metadata.size(); ++i) {
      os << (i ? ", " : "") << "\"" << json_escape(metadata[i].first)
         << "\": \"" << json_escape(metadata[i].second) << "\"";
    }
    os << "},\n \"traceEvents\": [\n";
    os.precision(3);
    os << std::fixed;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << "  {\"name\": \"" << json_escape(s.name)
         << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
         << ", \"ts\": " << s.start * 1e6
         << ", \"dur\": " << (s.end - s.start) * 1e6
         << ", \"args\": {\"span\": " << s.id << ", \"parent\": " << s.parent
         << ", \"request\": " << s.request;
      for (const auto& [k, v] : s.tags) {
        os << ", \"" << json_escape(k) << "\": \"" << json_escape(v) << "\"";
      }
      os << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << " ]}\n";
    return static_cast<bool>(os);
  }

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, std::string name, std::int64_t parent,
             std::int64_t request, int tid,
             std::vector<std::pair<std::string, std::string>> tags = {})
      : tracer_(t),
        id_(t.begin(std::move(name), parent, request, tid, std::move(tags))) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t id() const { return id_; }
  void tag(std::string k, std::string v) {
    tracer_.tag(id_, std::move(k), std::move(v));
  }

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

}  // namespace e2e
