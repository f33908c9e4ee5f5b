#include "apps/mm.hpp"

#include <cstring>
#include <deque>

#include "apps/memo.hpp"
#include "apps/span_util.hpp"
#include "sim/random.hpp"

namespace argoapps {

using argo::gptr;
using argo::Thread;

/// C[row] = A[row] · B for rows [lo, hi) — ikj order so the inner loop
/// streams B rows (the real computation all backends share).
void mm_rows(const double* a, const double* b, double* c, std::size_t n,
             std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) {
    double* ci = c + (i - lo) * n;
    for (std::size_t j = 0; j < n; ++j) ci[j] = 0.0;
    const double* ai = a + (i - lo) * n;
    for (std::size_t k = 0; k < n; ++k) {
      const double aik = ai[k];
      const double* bk = b + k * n;
      for (std::size_t j = 0; j < n; ++j) ci[j] += aik * bk[j];
    }
  }
}

namespace {

// Row-level product memo: every backend multiplies the same deterministic
// A rows by the same B, once per iteration per configuration, so each row
// product recurs bit-identically across the sweep (see apps/memo.hpp). B
// operands are interned by exact comparison (the benches use one per
// size); interning is a separate step the backends run ONCE per local B
// buffer fill — comparing the full B on every row call made the intern
// memcmp, not the product, the dominant host cost. Each cached row stores
// its A row and result row, verified with a full memcmp before replay.
// Random row data rejects mismatches on the first word, so the
// newest-first scan is effectively O(entries) cheap word compares.
// Bounded by total bytes.
struct MmRow {
  std::size_t b_id;
  std::vector<double> a, c;
};

// Entries are never evicted: the byte cap just stops inserts.
std::deque<std::vector<double>> mm_bmats;  // deque: stable growth
std::deque<MmRow> mm_cache;
std::size_t mm_memo_bytes = 0;
constexpr std::size_t kMmMaxBytes = 96u << 20;

}  // namespace

std::size_t mm_intern_b(const double* b, std::size_t n) {
  const std::size_t bn = n * n;
  for (std::size_t i = mm_bmats.size(); i-- > 0;) {
    if (mm_bmats[i].size() == bn &&
        std::memcmp(mm_bmats[i].data(), b, bn * sizeof(double)) == 0)
      return i;
  }
  if (mm_memo_bytes + bn * sizeof(double) > kMmMaxBytes) return kMmNoMemo;
  mm_bmats.emplace_back(b, b + bn);
  mm_memo_bytes += bn * sizeof(double);
  return mm_bmats.size() - 1;
}

void mm_rows_memo(const double* a, std::size_t b_id, const double* b,
                  double* c, std::size_t n, std::size_t rows) {
  if (b_id == kMmNoMemo) {  // memo over budget
    mm_rows(a, b, c, n, 0, rows);
    return;
  }
  const std::size_t an = rows * n;
  for (auto it = mm_cache.rbegin(); it != mm_cache.rend(); ++it) {
    if (it->b_id == b_id && it->a.size() == an &&
        std::memcmp(it->a.data(), a, an * sizeof(double)) == 0) {
      std::memcpy(c, it->c.data(), an * sizeof(double));
      return;
    }
  }
  mm_rows(a, b, c, n, 0, rows);
  if (mm_memo_bytes + 2 * an * sizeof(double) <= kMmMaxBytes) {
    mm_cache.push_back(MmRow{b_id, std::vector<double>(a, a + an),
                             std::vector<double>(c, c + an)});
    mm_memo_bytes += 2 * an * sizeof(double);
  }
}

void mm_make_input(const MmParams& p, std::vector<double>& a,
                   std::vector<double>& b) {
  argosim::Rng rng(p.seed);
  a.resize(p.n * p.n);
  b.resize(p.n * p.n);
  for (auto& v : a) v = rng.next_double(-1, 1);
  for (auto& v : b) v = rng.next_double(-1, 1);
}

double mm_reference(const MmParams& p) {
  std::vector<double> a, b, c(p.n * p.n);
  mm_make_input(p, a, b);
  mm_rows(a.data(), b.data(), c.data(), p.n, 0, p.n);
  double sum = 0;
  for (double v : c) sum += v;
  return sum;
}

MmResult mm_run_argo(argo::Cluster& cl, const MmParams& p) {
  std::vector<double> ah, bh;
  mm_make_input(p, ah, bh);
  const std::size_t n = p.n;
  auto result = cl.alloc<double>(1);
  auto partial = cl.alloc<double>(static_cast<std::size_t>(cl.nthreads()));
  auto a = cl.alloc<double>(n * n);
  auto b = cl.alloc<double>(n * n);
  auto c = cl.alloc<double>(n * n);
  std::copy(ah.begin(), ah.end(), cl.host_ptr(a));
  std::copy(bh.begin(), bh.end(), cl.host_ptr(b));
  cl.reset_classification();

  MmResult res;
  res.elapsed = cl.run([&](Thread& t) {
    const auto nt = static_cast<std::size_t>(t.nthreads());
    const auto gid = static_cast<std::size_t>(t.gid());
    const std::size_t lo = n * gid / nt, hi = n * (gid + 1) / nt;
    const std::size_t rows = hi - lo;
    std::vector<double> la(rows * n), lb(n * n), lc(rows * n);
    for (int iter = 0; iter < p.iterations; ++iter) {
      // A's rows are this thread's (private pages); B is read-only shared
      // (S,NW) — under P/S3 both stay cached across the barrier.
      t.load_bulk(a + static_cast<std::ptrdiff_t>(lo * n), la.data(), rows * n);
      t.load_bulk(b, lb.data(), n * n);
      const std::size_t b_id = mm_intern_b(lb.data(), n);
      // One row at a time, storing each result row as it is produced
      // (like the original element-wise code).
      for (std::size_t i = 0; i < rows; ++i) {
        mm_rows_memo(la.data() + i * n, b_id, lb.data(), lc.data() + i * n,
                     n, 1);
        t.compute(static_cast<Time>(n * n) * p.ns_per_mac);
        t.store_bulk(c + static_cast<std::ptrdiff_t>((lo + i) * n),
                     lc.data() + i * n, n);
      }
      t.barrier();
    }
    double sum = 0;
    for (double v : lc) sum += v;
    t.store(partial + t.gid(), sum);
    t.barrier();
    if (t.gid() == 0)
      t.store(result,
              span_sum(t, partial, static_cast<std::size_t>(t.nthreads())));
  });
  res.checksum = *cl.host_ptr(result);
  return res;
}

MmResult mm_run_mpi(argompi::MpiEnv& env, const MmParams& p) {
  std::vector<double> ah, bh;
  mm_make_input(p, ah, bh);
  const std::size_t n = p.n;
  const int ranks = env.world.size();
  MmResult res;
  double checksum = 0;
  res.elapsed = env.run([&](argompi::MpiWorld& w, int me) {
    const std::size_t lo = n * static_cast<std::size_t>(me) /
                           static_cast<std::size_t>(ranks);
    const std::size_t hi = n * (static_cast<std::size_t>(me) + 1) /
                           static_cast<std::size_t>(ranks);
    const std::size_t rows = hi - lo;
    std::vector<double> b(n * n), la(rows * n), lc(rows * n);
    if (me == 0) {
      b = bh;
      // Scatter A row blocks.
      for (int r = 1; r < ranks; ++r) {
        const std::size_t rlo = n * static_cast<std::size_t>(r) /
                                static_cast<std::size_t>(ranks);
        const std::size_t rhi = n * (static_cast<std::size_t>(r) + 1) /
                                static_cast<std::size_t>(ranks);
        w.send(0, r, 10, ah.data() + rlo * n, (rhi - rlo) * n * sizeof(double));
      }
      std::copy(ah.begin(), ah.begin() + static_cast<std::ptrdiff_t>(rows * n),
                la.begin());
    } else {
      w.recv(me, 0, 10, la.data(), rows * n * sizeof(double));
    }
    w.bcast(me, 0, b.data(), n * n * sizeof(double));
    const std::size_t b_id = mm_intern_b(b.data(), n);
    for (int iter = 0; iter < p.iterations; ++iter) {
      for (std::size_t i = 0; i < rows; ++i) {
        mm_rows_memo(la.data() + i * n, b_id, b.data(), lc.data() + i * n,
                     n, 1);
        argosim::delay(static_cast<Time>(n * n) * p.ns_per_mac);
      }
      w.barrier(me);
    }
    double sum = 0;
    for (double v : lc) sum += v;
    // Gather C back to the root (the result matrix must land somewhere).
    if (me != 0) {
      w.send(me, 0, 11, lc.data(), rows * n * sizeof(double));
    } else {
      std::vector<double> rbuf;
      for (int r = 1; r < ranks; ++r) {
        const std::size_t rlo = n * static_cast<std::size_t>(r) /
                                static_cast<std::size_t>(ranks);
        const std::size_t rhi = n * (static_cast<std::size_t>(r) + 1) /
                                static_cast<std::size_t>(ranks);
        rbuf.resize((rhi - rlo) * n);
        w.recv(0, r, 11, rbuf.data(), rbuf.size() * sizeof(double));
      }
    }
    w.reduce_sum(me, 0, &sum, 1);
    if (me == 0) checksum = sum;
  });
  res.checksum = checksum;
  return res;
}

}  // namespace argoapps
