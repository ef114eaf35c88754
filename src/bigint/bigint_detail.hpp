// Internal helpers shared between the BigInt translation units.
// Not part of the public API.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "bigint/bigint.hpp"
#include "bigint/limb_store.hpp"

namespace pr::detail {

/// Bit length of a trimmed limb store (0 for the empty/zero store).
inline std::size_t store_bit_length(const LimbStore& v) {
  if (v.empty()) return 0;
  return 64 * (v.size() - 1) +
         (64 - static_cast<std::size_t>(std::countl_zero(v.back())));
}

}  // namespace pr::detail
