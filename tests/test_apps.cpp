// Application correctness tests: every backend of every benchmark must
// reproduce the sequential reference (bitwise for deterministic kernels,
// tight tolerance where parallel reduction order differs).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/blackscholes.hpp"
#include "apps/cg.hpp"
#include "apps/ep.hpp"
#include "apps/lu.hpp"
#include "apps/memo.hpp"
#include "apps/mm.hpp"
#include "apps/nbody.hpp"
#include "apps/pqueue.hpp"
#include "sim/random.hpp"
#include "sync/qd_lock.hpp"

namespace argoapps {
namespace {

using argo::Cluster;
using argo::ClusterConfig;
using argo::Mode;
using argomem::kPageSize;

ClusterConfig app_cfg(int nodes, int tpn, std::size_t mem_pages,
                      Mode mode = Mode::PS3) {
  ClusterConfig c;
  c.nodes = nodes;
  c.threads_per_node = tpn;
  c.global_mem_bytes = mem_pages * kPageSize;
  c.cache.classification = mode;
  c.cache.cache_lines = 8192;
  c.cache.write_buffer_pages = 1024;
  return c;
}

double rel_err(double a, double b) {
  return std::fabs(a - b) / std::max(1.0, std::fabs(b));
}

// ---------------------------------------------------------------------------
// Blackscholes
// ---------------------------------------------------------------------------

TEST(Blackscholes, PriceSanity) {
  // At-the-money call with typical parameters: price must be positive and
  // below spot; put-call parity must hold.
  const double c = bs_price(100, 100, 0.05, 0.2, 1.0, false);
  const double p = bs_price(100, 100, 0.05, 0.2, 1.0, true);
  EXPECT_GT(c, 0.0);
  EXPECT_LT(c, 100.0);
  const double parity = c - p - (100 - 100 * std::exp(-0.05));
  EXPECT_NEAR(parity, 0.0, 1e-9);
}

TEST(Blackscholes, ArgoMatchesReference) {
  BsParams p;
  p.options = 4096;
  p.iterations = 2;
  const double ref = bs_reference(p);
  for (Mode m : {Mode::S, Mode::PSNaive, Mode::PS, Mode::PS3}) {
    Cluster cl(app_cfg(4, 2, 256, m));
    const auto r = bs_run_argo(cl, p);
    EXPECT_LT(rel_err(r.checksum, ref), 1e-12) << to_string(m);
    EXPECT_GT(r.elapsed, 0u);
  }
}

TEST(Blackscholes, MpiMatchesReference) {
  BsParams p;
  p.options = 4096;
  p.iterations = 2;
  const double ref = bs_reference(p);
  argompi::MpiEnv env(4, 2, argonet::NetConfig{});
  const auto r = bs_run_mpi(env, p);
  EXPECT_LT(rel_err(r.checksum, ref), 1e-12);
}

TEST(Blackscholes, SingleNodeEqualsSharedMemory) {
  BsParams p;
  p.options = 2048;
  p.iterations = 1;
  Cluster cl(app_cfg(1, 4, 256));
  const auto r = bs_run_argo(cl, p);
  EXPECT_LT(rel_err(r.checksum, bs_reference(p)), 1e-12);
  // One node: no network traffic at all.
  EXPECT_EQ(cl.net_stats().rdma_reads, 0u);
}

// ---------------------------------------------------------------------------
// N-body
// ---------------------------------------------------------------------------

TEST(Nbody, ArgoMatchesReferenceBitwise) {
  NbodyParams p;
  p.bodies = 256;
  p.steps = 3;
  const double ref = nbody_reference(p);
  for (Mode m : {Mode::S, Mode::PS3}) {
    Cluster cl(app_cfg(4, 2, 128, m));
    const auto r = nbody_run_argo(cl, p);
    EXPECT_LT(rel_err(r.checksum, ref), 1e-12) << to_string(m);
  }
}

TEST(Nbody, MpiMatchesReference) {
  NbodyParams p;
  p.bodies = 256;
  p.steps = 3;
  argompi::MpiEnv env(4, 2, argonet::NetConfig{});
  const auto r = nbody_run_mpi(env, p);
  EXPECT_LT(rel_err(r.checksum, nbody_reference(p)), 1e-12);
}

TEST(Nbody, OddStepCountUsesTheRightBuffer) {
  NbodyParams p;
  p.bodies = 64;
  p.steps = 5;  // odd: final positions in pos[1]
  Cluster cl(app_cfg(2, 1, 64));
  const auto r = nbody_run_argo(cl, p);
  EXPECT_LT(rel_err(r.checksum, nbody_reference(p)), 1e-12);
}

// ---------------------------------------------------------------------------
// MM
// ---------------------------------------------------------------------------

TEST(Mm, ArgoMatchesReference) {
  MmParams p;
  p.n = 96;
  const double ref = mm_reference(p);
  for (Mode m : {Mode::S, Mode::PSNaive, Mode::PS3}) {
    Cluster cl(app_cfg(4, 2, 128, m));
    const auto r = mm_run_argo(cl, p);
    // Partial sums are grouped per thread: tolerance for reassociation.
    EXPECT_LT(rel_err(r.checksum, ref), 1e-12) << to_string(m);
  }
}

TEST(Mm, MpiMatchesReference) {
  MmParams p;
  p.n = 96;
  argompi::MpiEnv env(4, 2, argonet::NetConfig{});
  const auto r = mm_run_mpi(env, p);
  EXPECT_LT(rel_err(r.checksum, mm_reference(p)), 1e-12);
}

TEST(Mm, ReadOnlyBNeverInvalidatesUnderPS3) {
  MmParams p;
  p.n = 128;
  Cluster cl(app_cfg(4, 1, 128, Mode::PS3));
  (void)mm_run_argo(cl, p);
  // B is shared read-only (S,NW): no page of it may be written back, and
  // invalidations should be limited to written data (C and the partials).
  const auto st = cl.coherence_stats();
  EXPECT_GT(st.read_misses, 0u);
}

// ---------------------------------------------------------------------------
// EP
// ---------------------------------------------------------------------------

TEST(Ep, ChunksAreThreadCountAgnostic) {
  EpParams p;
  p.log2_pairs = 14;
  p.chunks = 64;
  const EpTally ref = ep_reference(p);
  EXPECT_GT(ref.accepted, 0u);
  // Two different cluster shapes must produce identical tallies.
  Cluster a(app_cfg(2, 2, 64));
  Cluster b(app_cfg(4, 4, 64));
  const auto ra = ep_run_argo(a, p);
  const auto rb = ep_run_argo(b, p);
  // Gaussian sums are reassociated across chunks; counts must be exact.
  EXPECT_LT(rel_err(ra.tally.sx, ref.sx), 1e-12);
  EXPECT_LT(rel_err(rb.tally.sx, ref.sx), 1e-12);
  EXPECT_EQ(ra.tally.accepted, ref.accepted);
  EXPECT_EQ(rb.tally.accepted, ref.accepted);
  EXPECT_EQ(ra.tally.q, ref.q);
  EXPECT_EQ(rb.tally.q, ref.q);
}

TEST(Ep, UpcMatchesReference) {
  EpParams p;
  p.log2_pairs = 14;
  p.chunks = 64;
  const EpTally ref = ep_reference(p);
  Cluster cl(app_cfg(4, 2, 64));
  const auto r = ep_run_upc(cl, p);
  EXPECT_LT(rel_err(r.tally.sx, ref.sx), 1e-12);
  EXPECT_LT(rel_err(r.tally.sy, ref.sy), 1e-12);
  EXPECT_EQ(r.tally.q, ref.q);
}

// ---------------------------------------------------------------------------
// CG
// ---------------------------------------------------------------------------

TEST(Cg, ReferenceConverges) {
  CgParams p;
  p.n = 1024;
  p.iterations = 16;
  const auto ref = cg_reference(p);
  EXPECT_LT(ref.final_rho, 1.0);  // residual shrinks from n = 1024
  EXPECT_GT(ref.x_checksum, 0.0);
}

TEST(Cg, ArgoMatchesReference) {
  CgParams p;
  p.n = 1024;
  p.iterations = 8;
  const auto ref = cg_reference(p);
  for (Mode m : {Mode::S, Mode::PS3}) {
    Cluster cl(app_cfg(4, 2, 128, m));
    const auto r = cg_run_argo(cl, p);
    EXPECT_LT(rel_err(r.final_rho, ref.final_rho), 1e-9) << to_string(m);
    EXPECT_LT(rel_err(r.x_checksum, ref.x_checksum), 1e-9) << to_string(m);
  }
}

// Each Argo CG thread keeps only the band of p its rows read, but still
// walks the whole shared vector every iteration. Virtual time, read
// hit/miss counts and both outputs are pinned bit-exactly to the values of
// the full-copy kernel, for three shapes: the band wraps around zero for
// the first and last threads (4x4, n=4096; 2x2, n=1024), and one thread
// whose band is the whole vector (1x1).
TEST(Cg, BandedArgoKernelMatchesFullCopy) {
  struct Shape {
    int nodes, tpn;
    std::size_t n;
    Time elapsed;
    std::uint64_t read_hits, read_misses;
    double rho, checksum;
  };
  const Shape shapes[] = {
      {4, 4, 4096, 715124, 120, 624, 0x1.d0271a0f515bep-29,
       0x1.1e7a07f32b7cep+10},
      {2, 2, 1024, 418217, 10, 42, 0x1.5a43cf17b9b3p-30,
       0x1.1e1a8746009fcp+8},
      {1, 1, 2048, 394466, 0, 0, 0x1.97cf95b60cb29p-29,
       0x1.1e3a5cd46e99bp+9},
  };
  for (const Shape& s : shapes) {
    CgParams p;
    p.n = s.n;
    p.iterations = 6;
    Cluster cl(app_cfg(s.nodes, s.tpn, 128));
    const auto r = cg_run_argo(cl, p);
    const auto st = cl.coherence_stats();
    const std::string what = std::to_string(s.nodes) + "x" +
                             std::to_string(s.tpn) + " n=" +
                             std::to_string(s.n);
    EXPECT_EQ(r.elapsed, s.elapsed) << what;
    EXPECT_EQ(st.read_hits, s.read_hits) << what;
    EXPECT_EQ(st.read_misses, s.read_misses) << what;
    EXPECT_EQ(r.final_rho, s.rho) << what;
    EXPECT_EQ(r.x_checksum, s.checksum) << what;
  }
}

TEST(Cg, UpcMatchesReference) {
  CgParams p;
  p.n = 1024;
  p.iterations = 8;
  const auto ref = cg_reference(p);
  Cluster cl(app_cfg(4, 2, 128));
  const auto r = cg_run_upc(cl, p);
  EXPECT_LT(rel_err(r.final_rho, ref.final_rho), 1e-9);
  EXPECT_LT(rel_err(r.x_checksum, ref.x_checksum), 1e-9);
}

// ---------------------------------------------------------------------------
// LU
// ---------------------------------------------------------------------------

TEST(Lu, BlockedLayoutIndexing) {
  LuParams p;
  p.n = 64;
  p.block = 16;
  // Distinct (i,j) map to distinct indices inside the right block.
  EXPECT_EQ(lu_index(p, 0, 0), 0u);
  EXPECT_EQ(lu_index(p, 0, 16), 16u * 16u);       // block (0,1)
  EXPECT_EQ(lu_index(p, 16, 0), 4u * 16u * 16u);  // block (1,0)
  EXPECT_EQ(lu_index(p, 1, 1), 17u);
}

TEST(Lu, ArgoMatchesReference) {
  LuParams p;
  p.n = 128;
  p.block = 16;
  const double ref = lu_reference(p);
  for (Mode m : {Mode::S, Mode::PS3}) {
    Cluster cl(app_cfg(4, 2, 128, m));
    const auto r = lu_run_argo(cl, p);
    // The factors are identical; the checksum is reassociated per owner.
    EXPECT_LT(rel_err(r.checksum, ref), 1e-12) << to_string(m);
  }
}

TEST(Lu, ReferenceChecksumBitsArePinned) {
  // Exact bits of lu_reference and an FNV-1a hash of the bits of every
  // factor it sums, recorded before the block kernels were vectorized.
  // Each element takes its multiply-subtracts in the order the source
  // spells out, so any vector width reproduces them. A kernel that
  // contracts to FMA or reassociates moves factor bits; the checksum alone
  // would not see it (the moves are far below the sum's last bit).
  struct Case {
    std::size_t n, block;
    std::uint64_t sum_bits, factor_hash;
  };
  for (const Case c :
       {Case{128, 16, 0x40d02387f1017e19, 0xb2fd39c3826b5c51},
        Case{128, 32, 0x40d02387f1017e18, 0x15bfb1768c207bd9},
        Case{256, 16, 0x40effff9f55658c5, 0x9fbb74b71d8cbcb5},
        Case{256, 32, 0x40effff9f55658ca, 0xeccfae06135881fd}}) {
    LuParams p;
    p.n = c.n;
    p.block = c.block;
    std::uint64_t h = 0xcbf29ce484222325;
    for (const double v : lu_reference_factors(p)) {
      h ^= std::bit_cast<std::uint64_t>(v);
      h *= 0x100000001b3;
    }
    const std::string what =
        "n " + std::to_string(c.n) + " block " + std::to_string(c.block);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(lu_reference(p)), c.sum_bits)
        << what;
    EXPECT_EQ(h, c.factor_hash) << what;
  }
}

TEST(Lu, BlockedFactorizationMatchesUnblockedDoolittle) {
  // Independent check of the blocked algorithm itself: factor the same
  // matrix with plain (unblocked) Doolittle elimination; the blocked code
  // must produce the same factors up to floating-point reassociation.
  LuParams p;
  p.n = 64;
  p.block = 16;
  const std::vector<double> a = lu_make_input(p);
  const std::size_t n = p.n;
  std::vector<double> d(n * n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) d[i * n + j] = a[lu_index(p, i, j)];
  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t i = k + 1; i < n; ++i) {
      d[i * n + k] /= d[k * n + k];
      for (std::size_t j = k + 1; j < n; ++j)
        d[i * n + j] -= d[i * n + k] * d[k * n + j];
    }
  double unblocked_sum = 0;
  for (double v : d) unblocked_sum += v;
  EXPECT_LT(rel_err(unblocked_sum, lu_reference(p)), 1e-9);
}

// ---------------------------------------------------------------------------
// Priority queue
// ---------------------------------------------------------------------------

TEST(PairingHeapLocal, SortsAndTracksSize) {
  PairingHeap h;
  argosim::Rng rng(1);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 500; ++i) {
    keys.push_back(rng.next_u64());
    h.insert(keys.back());
  }
  EXPECT_EQ(h.size(), 500u);
  std::sort(keys.begin(), keys.end());
  for (int i = 0; i < 500; ++i) {
    auto m = h.extract_min();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(*m, keys[static_cast<std::size_t>(i)]);
  }
  EXPECT_FALSE(h.extract_min().has_value());
  EXPECT_EQ(h.size(), 0u);
}

TEST(PairingHeapLocal, VisitCountsAreSane) {
  PairingHeap h;
  for (int i = 0; i < 100; ++i) {
    h.insert(static_cast<std::uint64_t>(100 - i));
    EXPECT_LE(h.last_visits(), 2);
  }
  (void)h.extract_min();
  EXPECT_GT(h.last_visits(), 1);  // two-pass merging visits many children
}

TEST(DsmPairingHeapTest, MatchesLocalHeapUnderHqdl) {
  argo::ClusterConfig cfg = app_cfg(3, 2, 256);
  Cluster cl(cfg);
  DsmPairingHeap heap(cl, 4096);
  argosync::HqdLock lock(cl);
  // Deterministic op sequence executed via delegation; compare against a
  // local heap replaying the global execution order.
  std::vector<std::pair<bool, std::uint64_t>> log;  // (was_insert, value)
  cl.run([&](argo::Thread& t) {
    argosim::Rng rng(static_cast<std::uint64_t>(t.gid()) + 1);
    for (int i = 0; i < 60; ++i) {
      const bool ins = rng.next_bool(0.6);
      const std::uint64_t key = rng.next_u64() >> 40;
      lock.execute(t,
                   [&, ins, key](argo::Thread& exec) {
                     if (ins) {
                       heap.insert(exec, key);
                       log.emplace_back(true, key);
                     } else {
                       auto m = heap.extract_min(exec);
                       log.emplace_back(false, m.value_or(~std::uint64_t{0}));
                     }
                   },
                   true);
      t.compute(300);
    }
  });
  // Replay on a plain heap: results must match op for op.
  PairingHeap ref;
  for (const auto& [ins, val] : log) {
    if (ins) {
      ref.insert(val);
    } else {
      auto m = ref.extract_min();
      EXPECT_EQ(val, m.value_or(~std::uint64_t{0}));
    }
  }
}

TEST(PqBench, LocalHarnessRunsAndCounts) {
  argonet::NodeTopology topo;
  argosync::QdLock qd(&topo);
  PqParams p;
  p.duration = 200'000;
  p.prefill = 256;
  const auto r = pq_bench_local(qd, topo, 4, p);
  EXPECT_GT(r.ops, 0u);
  EXPECT_GT(r.ops_per_us(), 0.0);
}

TEST(PqBench, DsmHarnessRunsBothLocks) {
  for (auto kind : {DsmLockKind::Hqdl, DsmLockKind::Cohort}) {
    Cluster cl(app_cfg(2, 3, 512));
    PqParams p;
    p.duration = 150'000;
    p.prefill = 128;
    const auto r = pq_bench_dsm(cl, kind, p);
    EXPECT_GT(r.ops, 0u);
  }
}

// ---------------------------------------------------------------------------
// Host memos (apps/memo.hpp): a repeated call replays exactly the doubles
// the un-memoized kernel computes, and an input differing in one element
// misses the memo and gets the recomputed value.
// ---------------------------------------------------------------------------

std::vector<double> random_doubles(std::size_t n, std::uint64_t seed,
                                   double lo, double hi) {
  argosim::Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.next_double(lo, hi);
  return v;
}

TEST(Memo, MmRowProductsMatchTheKernel) {
  constexpr std::size_t n = 24, rows = 3;
  const auto a = random_doubles(rows * n, 101, -1, 1);
  const auto b = random_doubles(n * n, 102, -1, 1);
  auto kernel = [&](const std::vector<double>& av,
                    const std::vector<double>& bv) {
    std::vector<double> c(rows * n);
    mm_rows(av.data(), bv.data(), c.data(), n, 0, rows);
    return c;
  };
  auto memo = [&](const std::vector<double>& av,
                  const std::vector<double>& bv) {
    const std::size_t b_id = mm_intern_b(bv.data(), n);
    EXPECT_NE(b_id, kMmNoMemo);
    std::vector<double> c(rows * n, -1.0);
    mm_rows_memo(av.data(), b_id, bv.data(), c.data(), n, rows);
    return c;
  };
  const auto want = kernel(a, b);
  EXPECT_EQ(memo(a, b), want);  // first call fills the memo
  EXPECT_EQ(memo(a, b), want);  // the repeat replays it

  auto a2 = a;
  a2[n + 5] += 0.5;
  const auto want_a2 = kernel(a2, b);
  ASSERT_NE(want_a2, want);
  EXPECT_EQ(memo(a2, b), want_a2);

  auto b2 = b;
  b2[7 * n + 3] += 0.5;
  const auto want_b2 = kernel(a, b2);
  ASSERT_NE(want_b2, want);
  EXPECT_EQ(memo(a, b2), want_b2);
}

TEST(Memo, NbodyForceTableMatchesTheKernel) {
  constexpr std::size_t n = 33;
  const auto y = random_doubles(n, 202, -1, 1);
  const auto z = random_doubles(n, 203, -1, 1);
  const auto m = random_doubles(n, 204, 0.5, 1.5);
  // Forces of bodies [lo, hi) as fx | fy | fz.
  auto kernel = [&](const std::vector<double>& x, std::size_t lo,
                    std::size_t hi) {
    const std::size_t w = hi - lo;
    std::vector<double> f(3 * w);
    for (std::size_t i = lo; i < hi; ++i)
      accumulate_force(x.data(), y.data(), z.data(), m.data(), n, i,
                       f[i - lo], f[w + i - lo], f[2 * w + i - lo]);
    return f;
  };
  auto memo = [&](const std::vector<double>& x, std::size_t lo,
                  std::size_t hi) {
    const std::size_t w = hi - lo;
    std::vector<double> f(3 * w, -1.0);
    nbody_forces(x.data(), y.data(), z.data(), m.data(), n, lo, hi,
                 f.data(), f.data() + w, f.data() + 2 * w);
    return f;
  };
  const auto x = random_doubles(n, 201, -1, 1);
  EXPECT_EQ(memo(x, 0, n / 2), kernel(x, 0, n / 2));  // fills half
  EXPECT_EQ(memo(x, 0, n), kernel(x, 0, n));  // replays half, fills the rest
  EXPECT_EQ(memo(x, 0, n), kernel(x, 0, n));  // replays all

  auto x2 = x;
  x2[5] += 0.25;
  const auto want = kernel(x2, 0, n);
  ASSERT_NE(want, kernel(x, 0, n));
  EXPECT_EQ(memo(x2, 0, n), want);
}

TEST(Memo, BlackscholesPriceBlocksMatchTheKernel) {
  constexpr std::size_t cnt = 16;
  const auto s = random_doubles(cnt, 301, 80, 120);
  const auto k = random_doubles(cnt, 302, 80, 120);
  const auto r = random_doubles(cnt, 303, 0.01, 0.05);
  const auto e = random_doubles(cnt, 305, 0.25, 2.0);
  std::vector<std::uint8_t> put(cnt);
  for (std::size_t j = 0; j < cnt; ++j) put[j] = j % 3 == 0;
  auto kernel = [&](const std::vector<double>& v) {
    std::vector<double> out(cnt);
    for (std::size_t j = 0; j < cnt; ++j)
      out[j] = bs_price(s[j], k[j], r[j], v[j], e[j], put[j] != 0);
    return out;
  };
  auto memo = [&](const std::vector<double>& v) {
    std::vector<double> out(cnt, -1.0);
    bs_price_block(s.data(), k.data(), r.data(), v.data(), e.data(),
                   put.data(), cnt, out.data());
    return out;
  };
  const auto v = random_doubles(cnt, 304, 0.1, 0.5);
  const auto want = kernel(v);
  EXPECT_EQ(memo(v), want);  // first call fills the memo
  EXPECT_EQ(memo(v), want);  // the repeat replays it

  auto v2 = v;
  v2[9] += 0.1;
  const auto want_v2 = kernel(v2);
  ASSERT_NE(want_v2, want);
  EXPECT_EQ(memo(v2), want_v2);
}

}  // namespace
}  // namespace argoapps
