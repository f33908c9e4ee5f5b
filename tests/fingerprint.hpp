// FNV-1a fingerprints for tests that pin recorded results: a whole trace,
// counter set or memory image folds into one 64-bit constant, so a test
// can compare a run against values recorded once instead of against a
// second implementation run side by side.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace argotest {

inline constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;

/// Fold `n` bytes into `h` (chain calls to fingerprint several pieces).
inline std::uint64_t fnv1a(const void* p, std::size_t n,
                           std::uint64_t h = kFnvBasis) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Fold a string and a terminator, so {"ab","c"} and {"a","bc"} differ.
inline std::uint64_t fnv1a(const std::string& s, std::uint64_t h = kFnvBasis) {
  return fnv1a(s.c_str(), s.size() + 1, h);
}

}  // namespace argotest
