// NAS CG-style conjugate-gradient solver (paper §5.5, Fig. 13f).
//
// A symmetric positive-definite sparse matrix (diagonally dominant banded
// stencil with wrap-around offsets) is partitioned by rows; each CG
// iteration needs the whole direction vector p (neighbour slices through
// the band) and two scalar reductions — three barriers per iteration,
// making CG the synchronization-heavy benchmark of the suite.
//
// Backends: Argo, "OpenMP" (1-node cluster), UPC (fine-grained remote
// reads of off-slice p elements, PGAS partial arrays for reductions).
#pragma once

#include <cstddef>
#include <vector>

#include "core/cluster.hpp"
#include "sim/time.hpp"

namespace argoapps {

using argosim::Time;

struct CgParams {
  std::size_t n = 4096;     ///< unknowns
  int iterations = 12;      ///< CG iterations
  std::uint64_t seed = 11;
  Time ns_per_nnz = 3;      ///< SpMV multiply-accumulate
  Time ns_per_flop = 1;     ///< vector updates / dot products
};

/// The banded SPD test matrix: A[i][i] = kDiag, A[i][(i±o) mod n] = v(o)
/// for each offset o in kOffsets (symmetric by construction).
struct CgMatrix {
  static constexpr int kOffsets[4] = {1, 7, 61, 331};
  static constexpr double kDiag = 9.0;
  static double off_value(int k) { return -1.0 / (k + 2); }

  /// y[i] for rows [lo, hi), reading the full vector p.
  static void spmv_rows(const double* p, double* y, std::size_t n,
                        std::size_t lo, std::size_t hi);
  /// y[r] for `rows` consecutive rows from a band of p: band[kOffsets[3] +
  /// r] is row r's diagonal element, with kOffsets[3] elements of halo on
  /// each side. Same floating-point order as spmv_rows.
  static void spmv_band(const double* band, double* y, std::size_t rows);
  /// nnz per row (diagonal + both sides of each offset).
  static constexpr std::size_t nnz_per_row() { return 9; }
};

struct CgResult {
  Time elapsed = 0;
  double final_rho = 0;   ///< squared residual norm after the last iteration
  double x_checksum = 0;  ///< sum of the solution vector
};

/// Sequential reference (same algorithm, single partial per "thread").
CgResult cg_reference(const CgParams& p);

CgResult cg_run_argo(argo::Cluster& cl, const CgParams& p);
CgResult cg_run_upc(argo::Cluster& cl, const CgParams& p);

}  // namespace argoapps
