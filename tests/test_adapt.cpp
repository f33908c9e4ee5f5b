// Adaptive runtime tuning (core/adapt.*): both policies must be
// deterministic (bit-identical across reruns and to results recorded once,
// under chaos and crash schedules too), an inert policy must pass the configured knob
// through verbatim, and each policy's controller must honor its directed
// semantics: the write-buffer hill-climber's priming/judgment/revert/
// bounds, and the diff-density streak and probe cadence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "apps/lu.hpp"
#include "core/adapt.hpp"
#include "core/carina.hpp"
#include "core/cluster.hpp"
#include "fingerprint.hpp"
#include "net/faults.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"

namespace {

using argocore::AdaptConfig;
using argocore::AdaptEngine;
using argocore::AdaptStats;

// A page no capacity drain in these tests ever names: its admission never
// counts as re-dirty churn.
constexpr std::uint64_t kFreshPage = ~std::uint64_t{0};

constexpr std::size_t kWordsPerPage = argomem::kPageSize / sizeof(std::uint64_t);

// The write-buffer sizer's capacity ceiling (kWbMaxPages in
// core/adapt.cpp).
constexpr std::size_t kWbCeiling = 8192;

// The curated comparable footprint of one node's CoherenceStats (same
// fields tests/test_hostperf.cpp compares) plus every adapt decision
// counter — policy decisions are part of the observable behaviour.
std::vector<std::uint64_t> stat_fields(const argocore::CoherenceStats& s) {
  return {s.read_hits,      s.read_misses,
          s.write_hits,     s.write_misses,
          s.home_accesses,  s.line_fetches,
          s.pages_fetched,  s.bytes_fetched,
          s.writebacks,     s.writeback_bytes,
          s.diffs_built,    s.full_page_writebacks,
          s.si_fences,      s.sd_fences,
          s.si_invalidations, s.evictions,
          s.dir_ops,        s.transitions_caused,
          s.checkpoints,    s.checkpoint_bytes,
          s.heals,          s.sd_fence_ns.samples,
          s.si_fence_ns.samples};
}

std::vector<std::uint64_t> adapt_fields(const AdaptStats& a) {
  return {a.wb_grows, a.wb_shrinks, a.wb_reverts, a.full_page_selected,
          a.density_probes};
}

struct RunObs {
  std::vector<std::uint8_t> trace;
  argosim::Time elapsed = 0;
  std::vector<std::vector<std::uint64_t>> stats;
  std::uint64_t mem_hash = 0;

  bool operator==(const RunObs& o) const {
    return trace == o.trace && elapsed == o.elapsed && stats == o.stats &&
           mem_hash == o.mem_hash;
  }
  // Everything above folded into one FNV-1a word, to compare with a
  // recorded result.
  std::uint64_t fold() const {
    std::uint64_t h = argotest::fnv1a(trace.data(), trace.size());
    h = argotest::fnv1a(&elapsed, sizeof elapsed, h);
    for (const auto& v : stats)
      h = argotest::fnv1a(v.data(), v.size() * sizeof(std::uint64_t), h);
    return argotest::fnv1a(&mem_hash, sizeof mem_hash, h);
  }
};

void apply_mask(argo::ClusterConfig& c, int mask) {
  c.adapt.write_buffer = (mask & 1) != 0;
  c.adapt.diff_granularity = (mask & 2) != 0;
}

// The same DRF torture workload the host-path suite uses — alternating
// owner-write / read-anywhere phases on a cache small enough to force
// evictions and a write buffer small enough to force overflow drains —
// with the adaptive policy mask as a parameter.
RunObs run_random_workload(unsigned seed, bool chaos, int adapt_mask) {
  argo::ClusterConfig c;
  c.nodes = 2;
  c.threads_per_node = 2;
  c.global_mem_bytes = 128 * argomem::kPageSize;
  c.cache.cache_lines = 8;
  c.cache.pages_per_line = 2;
  c.cache.write_buffer_pages = 4;
  c.trace.enabled = true;
  apply_mask(c, adapt_mask);
  if (chaos) {
    c.faults.enabled = true;
    c.faults.seed = 4321;
    c.faults.rdma_fail_prob = 0.02;
    c.faults.jitter_prob = 0.1;
    c.faults.jitter_max = 500;
  }
  argo::Cluster cl(c);
  constexpr std::size_t kPages = 96;
  auto arr = cl.alloc<std::uint64_t>(kPages * kWordsPerPage);
  cl.reset_classification();
  RunObs obs;
  obs.elapsed = cl.run([&](argo::Thread& t) {
    std::mt19937 rng(seed * 7919u + static_cast<unsigned>(t.gid()));
    const std::size_t slice = kPages / static_cast<std::size_t>(t.nthreads());
    const std::size_t own_lo = slice * static_cast<std::size_t>(t.gid());
    for (int round = 0; round < 6; ++round) {
      for (int k = 0; k < 40; ++k) {  // writes confined to the own slice
        const std::size_t pg = own_lo + rng() % slice;
        const std::size_t idx = pg * kWordsPerPage + rng() % kWordsPerPage;
        t.store(arr + static_cast<std::ptrdiff_t>(idx),
                static_cast<std::uint64_t>(rng()));
      }
      t.barrier();
      std::uint64_t sink = 0;  // reads roam everywhere (no writes in flight)
      for (int k = 0; k < 80; ++k) {
        const std::size_t pg = rng() % kPages;
        const std::size_t idx = pg * kWordsPerPage + rng() % kWordsPerPage;
        sink ^= t.load(arr + static_cast<std::ptrdiff_t>(idx));
      }
      (void)sink;
      t.barrier();
    }
  });
  obs.trace = argoobs::encode_binary(cl.tracer().snapshot(),
                                     cl.tracer().dropped());
  for (int n = 0; n < c.nodes; ++n) {
    obs.stats.push_back(stat_fields(cl.node_cache(n).stats()));
    obs.stats.push_back(adapt_fields(cl.node_cache(n).adapt().stats()));
  }
  const std::byte* bytes = cl.gmem().home_ptr(0);
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a over home memory
  for (std::size_t i = 0; i < cl.gmem().size(); ++i) {
    h ^= static_cast<std::uint8_t>(bytes[i]);
    h *= 1099511628211ull;
  }
  obs.mem_hash = h;
  return obs;
}

// ---------------------------------------------------------------------------
// Determinism: reruns, recorded results, chaos, crash schedules

TEST(AdaptDeterminism, BitIdenticalAcrossRerunsAndWorkerCounts) {
  const struct {
    unsigned seed;
    bool chaos;
    std::uint64_t want;
  } cases[] = {
      {11, false, 14714757622279624722ull}, {11, true, 3168595047122091118ull},
      {22, false, 8165191926741962533ull}, {22, true, 12684292111647352930ull},
      {33, false, 6364695087858499634ull}, {33, true, 16833430058872707530ull},
  };
  for (const auto& c : cases) {
    const RunObs ref = run_random_workload(c.seed, c.chaos, /*adapt_mask=*/3);
    ASSERT_GT(ref.trace.size(), 32u) << "seed " << c.seed;
    EXPECT_EQ(ref, run_random_workload(c.seed, c.chaos, 3))
        << "rerun, seed " << c.seed << " chaos " << c.chaos;
    EXPECT_EQ(ref.fold(), c.want)
        << "recorded result, seed " << c.seed << " chaos " << c.chaos;
  }
}

TEST(AdaptDeterminism, CrashRecoveryRunsReplayBitIdentically) {
  // A mid-run crash-stop failure with lease recovery, transient RDMA chaos
  // on top, and every adaptive policy active: (elapsed, checksum) must
  // replay bit-identically per seed and reproduce the recorded result.
  const struct {
    std::uint64_t seed;
    std::pair<argosim::Time, double> want;
  } cases[] = {
      {101, {746872, 0x1.832781898f58bp+13}},
      {202, {738246, 0x1.83278377b732dp+13}},
      {303, {744328, 0x1.83278377b732dp+13}},
  };
  for (const auto& c : cases) {
    const std::uint64_t seed = c.seed;
    auto run = [&] {
      argo::ClusterConfig cfg;
      cfg.nodes = 4;
      cfg.threads_per_node = 2;
      cfg.global_mem_bytes = 2048 * argomem::kPageSize;
      cfg.cache.cache_lines = 8192;
      cfg.cache.write_buffer_pages = 1024;
      cfg.faults.enabled = true;
      cfg.faults.seed = seed;
      cfg.faults.rdma_fail_prob = 0.01;
      cfg.membership.enabled = true;
      cfg.faults.crashes.push_back(argonet::CrashEvent{.node = 3, .at = 400'000});
      apply_mask(cfg, 3);
      argo::Cluster cl(cfg);
      argoapps::LuParams p;
      p.n = 128;
      p.block = 32;
      const auto r = argoapps::lu_run_argo(cl, p);
      EXPECT_EQ(cl.membership().stats().deaths, 1u);
      return std::make_pair(r.elapsed, r.checksum);
    };
    const auto ref = run();
    EXPECT_EQ(ref, run()) << "seed " << seed;
    EXPECT_EQ(ref, c.want) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Policies off: the configured knob, verbatim

TEST(AdaptReference, InertPolicyPreservesSeedKnobVerbatim) {
  // With the policy off the configured knob passes through unclamped:
  // the seed's behaviour must not change just because adapt.hpp exists.
  AdaptConfig cfg;  // write_buffer = false
  AdaptEngine eng(cfg, /*base_wb_pages=*/3, /*protocol_supported=*/true);
  EXPECT_EQ(eng.wb_capacity(), 3u);  // below the 4-page floor, kept verbatim
  eng.note_wb_admit(1, kFreshPage);
  EXPECT_EQ(eng.sample_fence(1000, 100, 0), 0u);
  EXPECT_EQ(eng.stats().wb_shrinks, 0u);
}

// ---------------------------------------------------------------------------
// Directed policy (a): the write-buffer hill-climber

AdaptEngine wb_engine(std::size_t base) {
  AdaptConfig cfg;
  cfg.write_buffer = true;
  return AdaptEngine(cfg, base, /*protocol_supported=*/true);
}

TEST(AdaptWriteBuffer, FirstActingFencePrimesWithoutMoving) {
  AdaptEngine eng = wb_engine(64);
  // Fences before any admission carry no signal at all.
  EXPECT_EQ(eng.sample_fence(50'000, 10'000, 0), 0u);
  // The first admitting fence only starts the phase clock.
  eng.note_wb_admit(1, kFreshPage);
  EXPECT_EQ(eng.sample_fence(100'000, 10'000, 0), 0u);
  EXPECT_EQ(eng.wb_capacity(), 64u);
  EXPECT_EQ(eng.stats().wb_shrinks, 0u);
}

TEST(AdaptWriteBuffer, GrosslyOversizedBufferJumpsToFourTimesPeak) {
  AdaptEngine eng = wb_engine(1024);
  eng.note_wb_admit(1, kFreshPage);
  EXPECT_EQ(eng.sample_fence(100'000, 10'000, 0), 0u);  // prime
  // One real phase with peak occupancy 2 on a 1024-page buffer: the
  // climber skips the halving walk and jumps to pow2(4 * peak) = 8.
  eng.note_wb_admit(2, kFreshPage);
  EXPECT_EQ(eng.sample_fence(200'000, 10'000, 0), 8u);
  EXPECT_EQ(eng.wb_capacity(), 8u);
  EXPECT_EQ(eng.stats().wb_shrinks, 1u);
}

TEST(AdaptWriteBuffer, SlowerStallingPhaseRevertsTheMoveAndHolds) {
  AdaptEngine eng = wb_engine(1024);
  eng.note_wb_admit(1, kFreshPage);
  EXPECT_EQ(eng.sample_fence(100'000, 10'000, 0), 0u);
  eng.note_wb_admit(2, kFreshPage);
  EXPECT_EQ(eng.sample_fence(200'000, 10'000, 0), 8u);  // the jump
  // The post-move phase runs much slower with real overflow stall: the
  // jump is judged harmful and the old capacity restored.
  eng.note_drain_stall(50'000);
  eng.note_wb_admit(8, kFreshPage);
  EXPECT_EQ(eng.sample_fence(400'000, 10'000, 0), 1024u);
  EXPECT_EQ(eng.wb_capacity(), 1024u);
  EXPECT_EQ(eng.stats().wb_reverts, 1u);
  // The revert starts a cooldown: the next acting fence must not move.
  eng.note_wb_admit(1, kFreshPage);
  EXPECT_EQ(eng.sample_fence(500'000, 10'000, 0), 0u);
  EXPECT_EQ(eng.wb_capacity(), 1024u);
}

TEST(AdaptWriteBuffer, GrowNeedsSustainedStallPressure) {
  AdaptEngine eng = wb_engine(4);  // at the floor: shrinking impossible
  eng.note_wb_admit(1, kFreshPage);
  EXPECT_EQ(eng.sample_fence(100'000, 1'000, 0), 0u);  // prime
  // Heavy per-admission stall raises the pressure EWMA past the
  // threshold, but a grow also needs the two-phase baseline.
  eng.note_drain_stall(8'000);
  eng.note_wb_admit(1, kFreshPage);
  EXPECT_EQ(eng.sample_fence(200'000, 1'000, 0), 0u);
  eng.note_drain_stall(8'000);
  eng.note_wb_admit(1, kFreshPage);
  EXPECT_EQ(eng.sample_fence(300'000, 1'000, 0), 8u);  // the grow probe
  EXPECT_EQ(eng.stats().wb_grows, 1u);
}

TEST(AdaptWriteBuffer, GrowWithoutStallReliefIsReverted) {
  AdaptEngine eng = wb_engine(4);
  eng.note_wb_admit(1, kFreshPage);
  EXPECT_EQ(eng.sample_fence(100'000, 1'000, 0), 0u);
  eng.note_drain_stall(8'000);
  eng.note_wb_admit(1, kFreshPage);
  EXPECT_EQ(eng.sample_fence(200'000, 1'000, 0), 0u);
  eng.note_drain_stall(8'000);
  eng.note_wb_admit(1, kFreshPage);
  EXPECT_EQ(eng.sample_fence(300'000, 1'000, 0), 8u);
  // Post-grow phase: same length, stall undiminished — the capacity was
  // not what throttled the phase, so the grow must not be kept.
  eng.note_drain_stall(8'000);
  eng.note_wb_admit(1, kFreshPage);
  EXPECT_EQ(eng.sample_fence(400'000, 1'000, 0), 4u);
  EXPECT_EQ(eng.wb_capacity(), 4u);
  EXPECT_EQ(eng.stats().wb_reverts, 1u);
}

TEST(AdaptWriteBuffer, GrowKeptWhenStallVanishesAndPhaseImproves) {
  AdaptEngine eng = wb_engine(4);
  eng.note_wb_admit(1, kFreshPage);
  EXPECT_EQ(eng.sample_fence(100'000, 1'000, 0), 0u);
  eng.note_drain_stall(8'000);
  eng.note_wb_admit(1, kFreshPage);
  EXPECT_EQ(eng.sample_fence(200'000, 1'000, 0), 0u);
  eng.note_drain_stall(8'000);
  eng.note_wb_admit(1, kFreshPage);
  EXPECT_EQ(eng.sample_fence(300'000, 1'000, 0), 8u);
  // Post-grow phase: clearly faster AND stall-free — kept.
  eng.note_wb_admit(1, kFreshPage);
  EXPECT_EQ(eng.sample_fence(380'000, 1'000, 0), 0u);
  EXPECT_EQ(eng.wb_capacity(), 8u);
  EXPECT_EQ(eng.stats().wb_reverts, 0u);
}

TEST(AdaptWriteBuffer, CapacityRespectsFloorLiveEntriesAndCeiling) {
  // Shrink as hard as possible while 5 pages stay queued (SI fences do
  // not drain): capacity must never go below pow2(live) = 8.
  AdaptEngine low = wb_engine(64);
  std::uint64_t t = 0;
  for (int phase = 0; phase < 40; ++phase) {
    low.note_drain_stall(phase >= 20 ? 8'000 : 0);
    low.note_wb_admit(5, kFreshPage);
    t += 100'000;
    low.sample_fence(t, 50'000, /*live=*/5);
    EXPECT_GE(low.wb_capacity(), 8u) << "phase " << phase;
  }
  // A workload whose overflow stall halves with every doubling of the
  // buffer but never drops below the growth threshold: every grow pays,
  // so the climber walks all the way up — and stops at the ceiling.
  AdaptEngine high = wb_engine(8);
  t = 0;
  for (int phase = 0; phase < 200; ++phase) {
    const std::uint64_t stall = 4'000 * kWbCeiling / high.wb_capacity();
    high.note_drain_stall(stall);
    high.note_wb_admit(1, kFreshPage);
    t += 20'000 + stall;
    high.sample_fence(t, 100, 0);
    EXPECT_LE(high.wb_capacity(), kWbCeiling) << "phase " << phase;
  }
  EXPECT_EQ(high.wb_capacity(), kWbCeiling);
}

// Pages a full buffer drained and stores then re-dirtied within the same
// phase are churn the stall signal does not price: the capacity goes
// straight back to cover them, and churn-free phases cannot shrink it
// below that floor until the evidence ages out.
TEST(AdaptWriteBuffer, RedirtiedDrainedPagesSetACapacityFloor) {
  AdaptEngine eng = wb_engine(1024);
  eng.note_wb_admit(1, 100);
  EXPECT_EQ(eng.sample_fence(100'000, 10'000, 0), 0u);  // prime
  eng.note_wb_admit(2, 101);
  EXPECT_EQ(eng.sample_fence(200'000, 10'000, 0), 8u);  // jump to 4 * peak
  // At 8 pages the buffer drains pages 0..19 and siblings re-dirty all of
  // them (page 3 twice: distinct pages count). Page 500 is drained but
  // never stored to again, and page 600 is only admitted.
  for (std::uint64_t p = 0; p < 20; ++p) eng.note_capacity_drain(p);
  eng.note_capacity_drain(500);
  for (std::uint64_t p = 0; p < 20; ++p) eng.note_wb_admit(8, p);
  eng.note_wb_admit(8, 3);
  eng.note_wb_admit(8, 600);
  EXPECT_EQ(eng.sample_fence(300'000, 10'000, 0), 32u);  // pow2(20)
  EXPECT_EQ(eng.stats().wb_grows, 1u);
  // A page drained in one phase and re-dirtied in the next is no churn.
  eng.note_capacity_drain(700);
  eng.note_wb_admit(1, 800);
  EXPECT_EQ(eng.sample_fence(400'000, 10'000, 0), 0u);
  std::uint64_t now = 400'000;
  for (int phase = 0; phase < 10; ++phase) {
    eng.note_wb_admit(1, 700);
    now += 100'000;
    eng.sample_fence(now, 10'000, 0);
    EXPECT_EQ(eng.wb_capacity(), 32u) << "phase " << phase;
  }
  // Twelve churn-free phases later the floor lapses and shrinking resumes.
  for (int phase = 0; phase < 8; ++phase) {
    eng.note_wb_admit(1, kFreshPage);
    now += 100'000;
    eng.sample_fence(now, 10'000, 0);
  }
  EXPECT_LT(eng.wb_capacity(), 32u);
}

TEST(AdaptWriteBuffer, ChurnFloorNeverExceedsTheMaximumCapacity) {
  AdaptEngine eng = wb_engine(kWbCeiling);
  eng.note_wb_admit(1, kFreshPage);
  EXPECT_EQ(eng.sample_fence(100'000, 10'000, 0), 0u);  // prime
  eng.note_wb_admit(1, kFreshPage);
  eng.sample_fence(200'000, 10'000, 0);
  ASSERT_LT(eng.wb_capacity(), kWbCeiling);  // explored downward
  // Every phase from here re-dirties 9000 drained pages: a floor of
  // pow2(9000) = 16384 pages, past the maximum.
  constexpr std::uint64_t kChurn = 9000;
  std::uint64_t now = 200'000;
  auto churn_phase = [&] {
    for (std::uint64_t p = 0; p < kChurn; ++p) eng.note_capacity_drain(p);
    for (std::uint64_t p = 0; p < kChurn; ++p) eng.note_wb_admit(4, p);
    now += 100'000;
    return eng.sample_fence(now, 10'000, 0);
  };
  EXPECT_EQ(churn_phase(), kWbCeiling);  // restored to the maximum, once
  const std::uint64_t grows = eng.stats().wb_grows;
  const std::size_t history = eng.wb_capacity_history().size();
  for (int phase = 0; phase < 4; ++phase) {
    // At the maximum the floor holds: no further restore, no phantom
    // grow, no change traced.
    EXPECT_EQ(churn_phase(), 0u) << "phase " << phase;
    EXPECT_EQ(eng.wb_capacity(), kWbCeiling) << "phase " << phase;
  }
  EXPECT_EQ(eng.stats().wb_grows, grows);
  EXPECT_EQ(eng.wb_capacity_history().size(), history);
}

TEST(AdaptWriteBuffer, ResetRuntimeRestoresBaseCapacity) {
  AdaptEngine eng = wb_engine(1024);
  eng.note_wb_admit(1, kFreshPage);
  eng.sample_fence(100'000, 10'000, 0);
  eng.note_wb_admit(2, kFreshPage);
  eng.sample_fence(200'000, 10'000, 0);
  ASSERT_NE(eng.wb_capacity(), 1024u);
  eng.reset_runtime();
  EXPECT_EQ(eng.wb_capacity(), 1024u);
  EXPECT_EQ(eng.wb_capacity_history().size(), 1u);
}

// ---------------------------------------------------------------------------
// Directed policy (b): diff-density classification

AdaptEngine diff_engine() {
  AdaptConfig cfg;
  cfg.diff_granularity = true;
  return AdaptEngine(cfg, 512, /*protocol_supported=*/true);
}

TEST(AdaptDiffDensity, FullPageNeedsBothDenseEwmaAndStreak) {
  AdaptEngine eng = diff_engine();
  bool flipped = false;
  // Never-diffed pages stay on the diff path.
  EXPECT_FALSE(eng.prefer_full_page(7, flipped));
  // Two dense diffs: EWMA is dense but the streak (3) is not yet met.
  eng.note_diff(7, argomem::kPageSize);
  eng.note_diff(7, argomem::kPageSize);
  EXPECT_FALSE(eng.prefer_full_page(7, flipped));
  EXPECT_FALSE(flipped);
  // The third consecutive dense diff crosses the streak threshold.
  eng.note_diff(7, argomem::kPageSize);
  EXPECT_TRUE(eng.prefer_full_page(7, flipped));
  EXPECT_TRUE(flipped);  // classification changed diff -> full page
  EXPECT_EQ(eng.stats().full_page_selected, 1u);
  // One sparse diff breaks the streak and knocks the EWMA down: back to
  // run-coalesced diffs, reported as a flip again.
  eng.note_diff(7, 64);
  EXPECT_FALSE(eng.prefer_full_page(7, flipped));
  EXPECT_TRUE(flipped);
}

TEST(AdaptDiffDensity, AlternatingDenseCleanPagesKeepDiffing) {
  // A page that alternates dense and clean writebacks must never flip to
  // full-page mode: a full-page write of an unchanged page ships 4 KiB
  // for nothing.
  AdaptEngine eng = diff_engine();
  bool flipped = false;
  for (int round = 0; round < 12; ++round) {
    eng.note_diff(3, (round % 2 == 0) ? argomem::kPageSize : 0);
    EXPECT_FALSE(eng.prefer_full_page(3, flipped)) << "round " << round;
  }
  EXPECT_EQ(eng.stats().full_page_selected, 0u);
}

TEST(AdaptDiffDensity, PeriodicProbeRediffsDensePages) {
  AdaptEngine eng = diff_engine();  // density_probe_interval = 8
  bool flipped = false;
  for (int i = 0; i < 3; ++i) eng.note_diff(9, argomem::kPageSize);
  // 16 full-page-eligible consultations: every 8th is forced back onto
  // the diff path so the EWMA keeps observing real wire bytes.
  unsigned full = 0, probes = 0;
  for (int i = 0; i < 16; ++i) {
    if (eng.prefer_full_page(9, flipped))
      ++full;
    else
      ++probes;
  }
  EXPECT_EQ(full, 14u);
  EXPECT_EQ(probes, 2u);
  EXPECT_EQ(eng.stats().density_probes, 2u);
  EXPECT_EQ(eng.stats().full_page_selected, 14u);
}

// ---------------------------------------------------------------------------
// End-to-end: both policies act on a workload shaped for it, and the
// memory image matches the fixed-knob run exactly (policies move virtual
// time, never data).

TEST(AdaptCluster, PoliciesActOnAStreamingWorkloadWithoutChangingMemory) {
  auto run_once = [&](int mask) {
    argo::ClusterConfig c;
    c.nodes = 2;
    c.threads_per_node = 1;
    c.global_mem_bytes = 256 * argomem::kPageSize;
    c.cache.write_buffer_pages = 32;
    c.trace.enabled = true;
    apply_mask(c, mask);
    argo::Cluster cl(c);
    constexpr std::size_t kPages = 256, kQuarter = 64;
    auto arr = cl.alloc<std::uint64_t>(kPages * kWordsPerPage);
    cl.reset_classification();
    cl.run([&](argo::Thread& t) {
      // Each node streams full-page writes over a quarter homed on the
      // OTHER node (64 remote dirty pages vs a 32-page buffer: overflow
      // drains plus dense sole-writer diffs), then — after the barrier's
      // SI fence dropped its cached copies — streams reads back over the
      // same quarter.
      const std::size_t lo = t.node() == 0 ? 128 : 0;
      for (int round = 0; round < 5; ++round) {
        for (std::size_t p = 0; p < kQuarter; ++p)
          for (std::size_t w = 0; w < kWordsPerPage; ++w)
            t.store(arr + static_cast<std::ptrdiff_t>(
                              (lo + p) * kWordsPerPage + w),
                    static_cast<std::uint64_t>(round * kPages + p));
        t.barrier();
        std::uint64_t sum = 0;
        for (std::size_t p = 0; p < kQuarter; ++p)
          sum += t.load(arr + static_cast<std::ptrdiff_t>(
                                  (lo + p) * kWordsPerPage));
        EXPECT_EQ(sum, [&] {
          std::uint64_t s = 0;
          for (std::size_t p = 0; p < kQuarter; ++p)
            s += static_cast<std::uint64_t>(round * kPages + p);
          return s;
        }());
        t.barrier();
      }
    });
    AdaptStats total;
    for (int n = 0; n < c.nodes; ++n) total += cl.node_cache(n).adapt().stats();
    std::uint64_t kinds[2] = {0, 0};
    for (const auto& e : cl.tracer().snapshot()) {
      if (e.kind == static_cast<std::uint8_t>(argoobs::Ev::AdaptWbResize))
        ++kinds[0];
      if (e.kind == static_cast<std::uint8_t>(argoobs::Ev::AdaptDiffMode))
        ++kinds[1];
    }
    const std::byte* bytes = cl.gmem().home_ptr(0);
    std::uint64_t h = 14695981039346656037ull;
    for (std::size_t i = 0; i < cl.gmem().size(); ++i) {
      h ^= static_cast<std::uint8_t>(bytes[i]);
      h *= 1099511628211ull;
    }
    return std::make_tuple(total, kinds[0], kinds[1], h);
  };
  const auto [stats, wb_ev, diff_ev, hash] = run_once(3);
  // Both policies made at least one decision and traced it.
  EXPECT_GT(stats.wb_grows + stats.wb_shrinks + stats.wb_reverts, 0u);
  EXPECT_GT(stats.full_page_selected, 0u);
  EXPECT_GT(wb_ev, 0u);
  EXPECT_GT(diff_ev, 0u);
  // Adaptation reshapes timing, never data: the final memory image is the
  // fixed-knob run's, bit for bit.
  const auto [stats0, w0, d0, hash0] = run_once(0);
  EXPECT_EQ(adapt_fields(stats0), std::vector<std::uint64_t>(5, 0));
  EXPECT_EQ(w0 + d0, 0u);
  EXPECT_EQ(hash, hash0);
}

}  // namespace
