// Application correctness tests: every backend of every benchmark must
// reproduce the sequential reference (bitwise for deterministic kernels,
// tight tolerance where parallel reduction order differs).
#include <gtest/gtest.h>

#include <cmath>

#include "apps/blackscholes.hpp"
#include "apps/cg.hpp"
#include "apps/ep.hpp"
#include "apps/lu.hpp"
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

}  // namespace
}  // namespace argoapps
