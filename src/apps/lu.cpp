#include "apps/lu.hpp"

#include <cassert>
#include <cmath>
#include <cstring>

#include "apps/span_util.hpp"
#include "sim/random.hpp"

namespace argoapps {

using argo::gptr;
using argo::Thread;

namespace {

// The block kernels run once per block task and dominate lu's host time.
// Each has an AVX2 clone picked at load time by ifunc; neither clone may
// contract to FMA (no FMA target, -ffp-contract=off), and every element
// takes its subtract-multiplies in the order the source spells out, so the
// factors are bit-identical whichever clone runs. Pointers never alias:
// callers pass distinct scratch blocks.
#define ARGO_LU_KERNEL __attribute__((target_clones("avx2", "default")))

/// Factor the diagonal block in place (unit-lower L, U on/above diagonal).
ARGO_LU_KERNEL void factor_diag(double* __restrict d, std::size_t b) {
  for (std::size_t j = 0; j < b; ++j)
    for (std::size_t i = j + 1; i < b; ++i) {
      d[i * b + j] /= d[j * b + j];
      const double lij = d[i * b + j];
      for (std::size_t k = j + 1; k < b; ++k) d[i * b + k] -= lij * d[j * b + k];
    }
}

/// Column-perimeter block: A := A · U(diag)^{-1}.
ARGO_LU_KERNEL void bdiv(double* __restrict a, const double* __restrict diag,
                         std::size_t b) {
  for (std::size_t i = 0; i < b; ++i)
    for (std::size_t j = 0; j < b; ++j) {
      a[i * b + j] /= diag[j * b + j];
      const double aij = a[i * b + j];
      for (std::size_t k = j + 1; k < b; ++k)
        a[i * b + k] -= aij * diag[j * b + k];
    }
}

/// Row-perimeter block: A := L(diag)^{-1} · A.
ARGO_LU_KERNEL void bmodd(double* __restrict a, const double* __restrict diag,
                          std::size_t b) {
  for (std::size_t j = 0; j < b; ++j)
    for (std::size_t i = j + 1; i < b; ++i) {
      const double lij = diag[i * b + j];
      for (std::size_t c = 0; c < b; ++c) a[i * b + c] -= lij * a[j * b + c];
    }
}

/// Interior block: A -= L · U, i.e. a[i][j] -= l[i][k] * u[k][j] for k in
/// order. Register-blocked: two rows by 16 columns of A stay in vector
/// registers across the whole k loop, so U is loaded once per row pair.
/// Leftover rows and columns take the same k-ordered scalar chain.
using V = double __attribute__((vector_size(32)));
constexpr std::size_t kV = sizeof(V) / sizeof(double);
inline V load_v(const double* p) {
  V v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline void store_v(double* p, V v) { std::memcpy(p, &v, sizeof(v)); }

ARGO_LU_KERNEL void bmod(double* __restrict a, const double* __restrict l,
                         const double* __restrict u, std::size_t b) {
  const std::size_t rows = b & ~std::size_t{1}, cols = b - b % (4 * kV);
  for (std::size_t i = 0; i < rows; i += 2)
    for (std::size_t j = 0; j < cols; j += 4 * kV) {
      double* a0 = &a[i * b + j];
      double* a1 = a0 + b;
      V c0[4], c1[4];
      for (std::size_t q = 0; q < 4; ++q) {
        c0[q] = load_v(a0 + q * kV);
        c1[q] = load_v(a1 + q * kV);
      }
      for (std::size_t k = 0; k < b; ++k) {
        const double l0 = l[i * b + k], l1 = l[(i + 1) * b + k];
        for (std::size_t q = 0; q < 4; ++q) {
          const V w = load_v(&u[k * b + j + q * kV]);
          c0[q] -= l0 * w;
          c1[q] -= l1 * w;
        }
      }
      for (std::size_t q = 0; q < 4; ++q) {
        store_v(a0 + q * kV, c0[q]);
        store_v(a1 + q * kV, c1[q]);
      }
    }
  for (std::size_t i = 0; i < b; ++i)
    for (std::size_t j = i < rows ? cols : 0; j < b; ++j) {
      double acc = a[i * b + j];
      for (std::size_t k = 0; k < b; ++k) acc -= l[i * b + k] * u[k * b + j];
      a[i * b + j] = acc;
    }
}

/// The blocks one thread owns under the 2D scatter: thread grid pr×pc with
/// pr·pc == T, block (bi, bj) belonging to thread (bi mod pr)·pc +
/// (bj mod pc). Kept as a row and a column table, so (bi, bj) is mine iff
/// row bi and column bj both are, and no ownership test divides.
struct MyBlocks {
  std::vector<char> row, col;
  MyBlocks(int threads, int gid, std::size_t nb) : row(nb), col(nb) {
    int pr = 1;
    for (int d = static_cast<int>(std::sqrt(threads)); d >= 1; --d)
      if (threads % d == 0) {
        pr = d;
        break;
      }
    const auto rows = static_cast<std::size_t>(pr);
    const auto cols = static_cast<std::size_t>(threads / pr);
    const auto me = static_cast<std::size_t>(gid);
    for (std::size_t x = 0; x < nb; ++x) {
      row[x] = x % rows == me / cols;
      col[x] = x % cols == me % cols;
    }
  }
  bool operator()(std::size_t bi, std::size_t bj) const {
    return row[bi] && col[bj];
  }
};

std::size_t block_off(std::size_t bi, std::size_t bj, std::size_t nb,
                      std::size_t b) {
  return (bi * nb + bj) * b * b;
}

/// Run the blocked factorization; `mine` decides which blocks this caller
/// owns, `sync` is called at the three phase boundaries per step, and
/// load/store access the matrix (shared by reference for the sequential
/// path, through the DSM for Argo).
template <typename Mine, typename Sync, typename LoadB, typename StoreB,
          typename Charge>
void lu_steps(std::size_t nb, std::size_t b, const Mine& mine, Sync sync,
              LoadB load_block, StoreB store_block, Charge charge) {
  std::vector<double> diag(b * b), work(b * b), lblk(b * b), ublk(b * b);
  const auto b3 = static_cast<Time>(b * b * b);
  for (std::size_t k = 0; k < nb; ++k) {
    if (mine(k, k)) {
      load_block(k, k, diag.data());
      factor_diag(diag.data(), b);
      charge(b3 / 3);
      store_block(k, k, diag.data());
    }
    sync();
    bool have_diag = false;
    for (std::size_t i = k + 1; i < nb; ++i) {
      if (mine(i, k)) {
        if (!have_diag) {
          load_block(k, k, diag.data());
          have_diag = true;
        }
        load_block(i, k, work.data());
        bdiv(work.data(), diag.data(), b);
        charge(b3 / 2);
        store_block(i, k, work.data());
      }
      if (mine(k, i)) {
        if (!have_diag) {
          load_block(k, k, diag.data());
          have_diag = true;
        }
        load_block(k, i, work.data());
        bmodd(work.data(), diag.data(), b);
        charge(b3 / 2);
        store_block(k, i, work.data());
      }
    }
    sync();
    for (std::size_t i = k + 1; i < nb; ++i) {
      bool have_l = false;
      for (std::size_t j = k + 1; j < nb; ++j) {
        if (!mine(i, j)) continue;
        if (!have_l) {
          load_block(i, k, lblk.data());
          have_l = true;
        }
        load_block(k, j, ublk.data());
        load_block(i, j, work.data());
        bmod(work.data(), lblk.data(), ublk.data(), b);
        charge(b3);
        store_block(i, j, work.data());
      }
    }
    sync();
  }
}

}  // namespace

std::size_t lu_index(const LuParams& p, std::size_t i, std::size_t j) {
  const std::size_t b = p.block, nb = p.n / p.block;
  return block_off(i / b, j / b, nb, b) + (i % b) * b + (j % b);
}

std::vector<double> lu_make_input(const LuParams& p) {
  assert(p.n % p.block == 0);
  argosim::Rng rng(p.seed);
  std::vector<double> a(p.n * p.n);
  // Fill in (i, j) order so the content is layout-independent.
  for (std::size_t i = 0; i < p.n; ++i)
    for (std::size_t j = 0; j < p.n; ++j) {
      double v = rng.next_double(-1, 1);
      if (i == j) v += static_cast<double>(p.n);  // diagonal dominance
      a[lu_index(p, i, j)] = v;
    }
  return a;
}

std::vector<double> lu_reference_factors(const LuParams& p) {
  std::vector<double> a = lu_make_input(p);
  const std::size_t b = p.block, nb = p.n / b;
  lu_steps(
      nb, b, [](std::size_t, std::size_t) { return true; }, [] {},
      [&](std::size_t bi, std::size_t bj, double* out) {
        std::copy_n(a.data() + block_off(bi, bj, nb, b), b * b, out);
      },
      [&](std::size_t bi, std::size_t bj, const double* in) {
        std::copy_n(in, b * b, a.data() + block_off(bi, bj, nb, b));
      },
      [](Time) {});
  return a;
}

double lu_reference(const LuParams& p) {
  double sum = 0;
  for (double v : lu_reference_factors(p)) sum += v;
  return sum;
}

LuResult lu_run_argo(argo::Cluster& cl, const LuParams& p) {
  const std::size_t b = p.block, nb = p.n / b;
  auto result = cl.alloc<double>(1);
  auto partial = cl.alloc<double>(static_cast<std::size_t>(cl.nthreads()));
  auto mat = cl.alloc<double>(p.n * p.n);
  {  // the input copy is freed before the run
    const std::vector<double> init = lu_make_input(p);
    std::copy(init.begin(), init.end(), cl.host_ptr(mat));
  }
  cl.reset_classification();

  LuResult res;
  res.elapsed = cl.run([&](Thread& t) {
    const MyBlocks mine(t.nthreads(), t.gid(), nb);
    lu_steps(
        nb, b, mine,
        [&] { t.barrier(); },
        [&](std::size_t bi, std::size_t bj, double* out) {
          t.load_bulk(mat + static_cast<std::ptrdiff_t>(block_off(bi, bj, nb, b)),
                      out, b * b);
        },
        [&](std::size_t bi, std::size_t bj, const double* in) {
          t.store_bulk(mat + static_cast<std::ptrdiff_t>(block_off(bi, bj, nb, b)),
                       in, b * b);
        },
        [&](Time c) { t.compute(c * p.ns_per_mac); });
    // Checksum of the blocks this thread owns, summed in place through
    // per-page spans (no block-sized scratch copy).
    double sum = 0;
    for (std::size_t bi = 0; bi < nb; ++bi)
      for (std::size_t bj = 0; bj < nb; ++bj) {
        if (!mine(bi, bj)) continue;
        sum += span_sum(
            t, mat + static_cast<std::ptrdiff_t>(block_off(bi, bj, nb, b)),
            b * b);
      }
    t.store(partial + t.gid(), sum);
    t.barrier();
    if (t.gid() == 0)
      t.store(result,
              span_sum(t, partial, static_cast<std::size_t>(t.nthreads())));
  });
  res.checksum = *cl.host_ptr(result);
  return res;
}

}  // namespace argoapps
