// Host-side memoization support for pure workload kernels.
//
// The scaling benches run the same deterministic workload once per
// configuration (sequential baseline, each thread count, each node count,
// the MPI port...). The simulated data movement differs per configuration
// — that is what is being measured — but the *numerical* work is
// identical: the same trajectory, the same option prices, recomputed from
// scratch each run. Caching those pure-kernel results across runs is a
// host-side optimization only: a hit returns the exact double previously
// computed from bit-identical inputs, so checksums, page contents, diffs
// and hence every virtual time are unchanged. The memoized kernels are
// declared below so tests can check each memo against the kernel it
// caches (tests/test_apps.cpp).
//
// Keys are always verified by exact byte comparison of the full inputs —
// the hash only narrows the search, it is never trusted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace argoapps {

// --- mm: row-product memo (apps/mm.cpp) -------------------------------------

/// The kernel: C[row] = A[row] · B for rows [lo, hi) of n x n operands;
/// `a` and `c` point at row `lo`.
void mm_rows(const double* a, const double* b, double* c, std::size_t n,
             std::size_t lo, std::size_t hi);

/// mm_intern_b's answer when the memo's byte budget is exhausted.
inline constexpr std::size_t kMmNoMemo = static_cast<std::size_t>(-1);

/// Resolve B (n x n) to its interned id — one full memcmp against the few
/// known B operands — or kMmNoMemo.
std::size_t mm_intern_b(const double* b, std::size_t n);

/// mm_rows over `rows` rows, replayed from the memo when this A block was
/// multiplied by the same interned B before.
void mm_rows_memo(const double* a, std::size_t b_id, const double* b,
                  double* c, std::size_t n, std::size_t rows);

// --- nbody: force-table memo (apps/nbody.cpp) -------------------------------

/// The kernel: force on body i of n from every body.
void accumulate_force(const double* x, const double* y, const double* z,
                      const double* m, std::size_t n, std::size_t i,
                      double& fx, double& fy, double& fz);

/// Forces on bodies [lo, hi) of the position state x|y|z|m into
/// fx/fy/fz[0, hi - lo), each replayed from the memo once computed.
void nbody_forces(const double* x, const double* y, const double* z,
                  const double* m, std::size_t n, std::size_t lo,
                  std::size_t hi, double* fx, double* fy, double* fz);

// --- blackscholes: price-block memo (apps/blackscholes.cpp) ------------------

/// bs_price over `cnt` options, the whole block replayed from the memo
/// when the same inputs were priced before.
void bs_price_block(const double* s, const double* k, const double* r,
                    const double* v, const double* e,
                    const std::uint8_t* put, std::size_t cnt, double* out);

/// FNV-1a folding eight bytes per step (an order of magnitude faster than
/// the byte loop on the multi-KiB keys the memos use); the tail is hashed
/// byte-wise. Collisions only cost an extra memcmp — every lookup verifies
/// the full key.
inline std::uint64_t hash_words(const void* p, std::size_t n,
                                std::uint64_t seed = 1469598103934665603ull) {
  const auto* b = static_cast<const unsigned char*>(p);
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h = seed;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, b + i, 8);
    h = (h ^ w) * kPrime;
    h ^= h >> 29;  // extra diffusion: eight new bytes per multiply
  }
  for (; i < n; ++i) h = (h ^ b[i]) * kPrime;
  return h;
}

}  // namespace argoapps
