// FNV-1a, the order-sensitive digest behind every run fingerprint (chaos,
// checker, load generator, scale traffic, flight recorder) and the broker's
// settlement-log chain hashes.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"

namespace cb {

inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Fold the 8 bytes of `v` into `h`, least significant byte first.
inline void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= kFnvPrime;
  }
}

/// FNV-1a over a byte string, continuing from `h`.
inline std::uint64_t fnv1a(BytesView data, std::uint64_t h = kFnvOffset) {
  for (std::uint8_t b : data) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace cb
