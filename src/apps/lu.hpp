// SPLASH-2-style blocked dense LU factorization without pivoting
// (paper §5.4, Fig. 13a).
//
// The matrix is stored in blocked layout (each B×B block contiguous, so a
// block maps to whole pages) and blocks are assigned to threads in a 2D
// scatter. Step k: the owner factors the diagonal block; perimeter owners
// update row/column blocks against it; interior owners update their blocks
// against the perimeter — three barriers per step, with heavy block
// migration between steps (the paper: "involves a lot of data migration").
#pragma once

#include <cstddef>
#include <vector>

#include "core/cluster.hpp"
#include "sim/time.hpp"

namespace argoapps {

using argosim::Time;

struct LuParams {
  std::size_t n = 256;      ///< matrix dimension (multiple of block)
  std::size_t block = 32;   ///< block size (32×32 doubles = 2 pages)
  std::uint64_t seed = 3;
  Time ns_per_mac = 1;
};

struct LuResult {
  Time elapsed = 0;
  double checksum = 0;  ///< sum of all factored entries (L\U in place)
};

/// Deterministic diagonally dominant input (no pivoting needed), in
/// blocked layout: element (i,j) lives at block-major position.
std::vector<double> lu_make_input(const LuParams& p);

/// Blocked-layout index of element (i, j).
std::size_t lu_index(const LuParams& p, std::size_t i, std::size_t j);

/// Sequential reference: same blocked algorithm, same operation order.
/// Returns the checksum of lu_reference_factors.
double lu_reference(const LuParams& p);

/// The factored matrix of the sequential reference (L\U in place, blocked
/// layout).
std::vector<double> lu_reference_factors(const LuParams& p);

LuResult lu_run_argo(argo::Cluster& cl, const LuParams& p);

}  // namespace argoapps
