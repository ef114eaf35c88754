#include "instr/counters.hpp"

#include <atomic>
#include <memory>
#include <mutex>
#include <sstream>
#include <vector>

#include "instr/phase.hpp"
#include "support/text.hpp"

namespace pr::instr {

namespace {

/// Per-thread counter block.  Heap-allocated and owned jointly by the
/// thread (via thread_local shared_ptr) and the global registry, so the
/// numbers survive thread exit and remain visible to aggregate().
struct ThreadBlock {
  PhaseCounts counts;
  std::uint64_t total_bits = 0;
};

std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}

std::vector<std::shared_ptr<ThreadBlock>>& registry() {
  static std::vector<std::shared_ptr<ThreadBlock>> r;
  return r;
}

ThreadBlock& local_block() {
  thread_local std::shared_ptr<ThreadBlock> block = [] {
    auto b = std::make_shared<ThreadBlock>();
    std::lock_guard<std::mutex> lock(registry_mutex());
    registry().push_back(b);
    return b;
  }();
  return *block;
}

}  // namespace

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kOther: return "other";
    case Phase::kCharPoly: return "charpoly";
    case Phase::kRemainder: return "remainder";
    case Phase::kTreePoly: return "treepoly";
    case Phase::kSort: return "sort";
    case Phase::kPreInterval: return "preinterval";
    case Phase::kSieve: return "sieve";
    case Phase::kBisect: return "bisect";
    case Phase::kNewton: return "newton";
    case Phase::kBaseline: return "baseline";
    case Phase::kCount_: break;
  }
  return "?";
}

OpCounts& OpCounts::operator+=(const OpCounts& o) {
  mul_count += o.mul_count;
  div_count += o.div_count;
  add_count += o.add_count;
  mul_bits += o.mul_bits;
  div_bits += o.div_bits;
  add_bits += o.add_bits;
  alloc_count += o.alloc_count;
  alloc_limbs += o.alloc_limbs;
  return *this;
}

OpCounts OpCounts::operator-(const OpCounts& o) const {
  OpCounts r;
  r.mul_count = mul_count - o.mul_count;
  r.div_count = div_count - o.div_count;
  r.add_count = add_count - o.add_count;
  r.mul_bits = mul_bits - o.mul_bits;
  r.div_bits = div_bits - o.div_bits;
  r.add_bits = add_bits - o.add_bits;
  r.alloc_count = alloc_count - o.alloc_count;
  r.alloc_limbs = alloc_limbs - o.alloc_limbs;
  return r;
}

OpCounts PhaseCounts::total() const {
  OpCounts t;
  for (const auto& c : by_phase) t += c;
  return t;
}

PhaseCounts& PhaseCounts::operator+=(const PhaseCounts& o) {
  for (std::size_t i = 0; i < kNumPhases; ++i) by_phase[i] += o.by_phase[i];
  return *this;
}

PhaseCounts PhaseCounts::operator-(const PhaseCounts& o) const {
  PhaseCounts r;
  for (std::size_t i = 0; i < kNumPhases; ++i)
    r.by_phase[i] = by_phase[i] - o.by_phase[i];
  return r;
}

void on_mul(std::size_t abits, std::size_t bbits) {
  auto& blk = local_block();
  auto& c = blk.counts[current_phase()];
  const std::uint64_t cost =
      static_cast<std::uint64_t>(abits) * static_cast<std::uint64_t>(bbits);
  c.mul_count += 1;
  c.mul_bits += cost;
  blk.total_bits += cost;
}

void on_div(std::size_t abits, std::size_t bbits) {
  auto& blk = local_block();
  auto& c = blk.counts[current_phase()];
  const std::uint64_t qbits = abits >= bbits ? abits - bbits + 1 : 1;
  const std::uint64_t cost = qbits * static_cast<std::uint64_t>(bbits);
  c.div_count += 1;
  c.div_bits += cost;
  blk.total_bits += cost;
}

void on_add(std::size_t abits, std::size_t bbits) {
  auto& blk = local_block();
  auto& c = blk.counts[current_phase()];
  const std::uint64_t cost = abits > bbits ? abits : bbits;
  c.add_count += 1;
  c.add_bits += cost;
  blk.total_bits += cost;
}

void on_limb_alloc(std::size_t limbs) {
  auto& c = local_block().counts[current_phase()];
  c.alloc_count += 1;
  c.alloc_limbs += limbs;
  // Intentionally no total_bits contribution: allocations are not part of
  // the paper's arithmetic cost model and must not perturb DES task costs.
}

const PhaseCounts& thread_counts() { return local_block().counts; }

std::uint64_t thread_bit_cost() { return local_block().total_bits; }

PhaseCounts aggregate() {
  PhaseCounts out;
  std::lock_guard<std::mutex> lock(registry_mutex());
  for (const auto& b : registry()) out += b->counts;
  return out;
}

namespace {

struct ModularAtomics {
  std::atomic<std::uint64_t> primes_used{0};
  std::atomic<std::uint64_t> images{0};
  std::atomic<std::uint64_t> bad_primes{0};
  std::atomic<std::uint64_t> crt_values{0};
  std::atomic<std::uint64_t> crt_limbs{0};
  std::atomic<std::uint64_t> combines{0};
  std::atomic<std::uint64_t> fallbacks{0};
  std::atomic<std::uint64_t> ntt_transforms{0};
  std::atomic<std::uint64_t> ntt_points{0};
};

ModularAtomics& modular_atomics() {
  static ModularAtomics m;
  return m;
}

}  // namespace

void on_modular_primes(std::uint64_t count) {
  modular_atomics().primes_used.fetch_add(count, std::memory_order_relaxed);
}

void on_modular_image(std::uint64_t count) {
  modular_atomics().images.fetch_add(count, std::memory_order_relaxed);
}

void on_modular_bad_prime() {
  modular_atomics().bad_primes.fetch_add(1, std::memory_order_relaxed);
}

void on_modular_crt(std::uint64_t values, std::uint64_t limbs) {
  auto& m = modular_atomics();
  m.crt_values.fetch_add(values, std::memory_order_relaxed);
  m.crt_limbs.fetch_add(limbs, std::memory_order_relaxed);
}

void on_modular_combine() {
  modular_atomics().combines.fetch_add(1, std::memory_order_relaxed);
}

void on_modular_fallback() {
  modular_atomics().fallbacks.fetch_add(1, std::memory_order_relaxed);
}

void on_modular_ntt(std::uint64_t transforms, std::uint64_t points) {
  auto& m = modular_atomics();
  m.ntt_transforms.fetch_add(transforms, std::memory_order_relaxed);
  m.ntt_points.fetch_add(points, std::memory_order_relaxed);
}

ModularCounts modular_counts() {
  const auto& m = modular_atomics();
  ModularCounts c;
  c.primes_used = m.primes_used.load(std::memory_order_relaxed);
  c.images = m.images.load(std::memory_order_relaxed);
  c.bad_primes = m.bad_primes.load(std::memory_order_relaxed);
  c.crt_values = m.crt_values.load(std::memory_order_relaxed);
  c.crt_limbs = m.crt_limbs.load(std::memory_order_relaxed);
  c.combines = m.combines.load(std::memory_order_relaxed);
  c.fallbacks = m.fallbacks.load(std::memory_order_relaxed);
  c.ntt_transforms = m.ntt_transforms.load(std::memory_order_relaxed);
  c.ntt_points = m.ntt_points.load(std::memory_order_relaxed);
  return c;
}

void reset_modular() {
  auto& m = modular_atomics();
  m.primes_used.store(0, std::memory_order_relaxed);
  m.images.store(0, std::memory_order_relaxed);
  m.bad_primes.store(0, std::memory_order_relaxed);
  m.crt_values.store(0, std::memory_order_relaxed);
  m.crt_limbs.store(0, std::memory_order_relaxed);
  m.combines.store(0, std::memory_order_relaxed);
  m.fallbacks.store(0, std::memory_order_relaxed);
  m.ntt_transforms.store(0, std::memory_order_relaxed);
  m.ntt_points.store(0, std::memory_order_relaxed);
}

void reset_all() {
  std::lock_guard<std::mutex> lock(registry_mutex());
  for (const auto& b : registry()) {
    b->counts = PhaseCounts{};
    b->total_bits = 0;
  }
  reset_modular();
}

std::string format(const PhaseCounts& c) {
  TextTable table({-12, 14, 14, 14, 20, 12});
  std::ostringstream os;
  os << table.row({"phase", "muls", "divs", "adds", "bit-cost", "allocs"})
     << '\n'
     << table.rule() << '\n';
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    const auto& p = c.by_phase[i];
    if (p.mul_count == 0 && p.div_count == 0 && p.add_count == 0 &&
        p.alloc_count == 0) {
      continue;
    }
    os << table.row({phase_name(static_cast<Phase>(i)),
                     with_commas(p.mul_count), with_commas(p.div_count),
                     with_commas(p.add_count), with_commas(p.bit_cost()),
                     with_commas(p.alloc_count)})
       << '\n';
  }
  const auto t = c.total();
  os << table.rule() << '\n'
     << table.row({"total", with_commas(t.mul_count), with_commas(t.div_count),
                   with_commas(t.add_count), with_commas(t.bit_cost()),
                   with_commas(t.alloc_count)})
     << '\n';
  return os.str();
}

}  // namespace pr::instr
