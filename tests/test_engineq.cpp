// Calendar run-queue property suite and fast-vs-slow identity reruns.
//
// Two layers of the same contract. First, CalQueue must be *extensionally
// equal* to the seed's binary heap: for any op sequence, pops come out in
// exactly (when, seq) order — randomized mixed workloads, tie-break
// groups, purge/lazy-deletion and pathological horizon spreads all check
// against a std::priority_queue reference. Second, whole programs must not
// be able to tell the fast engine paths from the slow ones: LU / MM / EP
// rerun under ARGO_SLOW_PATHS=1 (heap run queue, ucontext switching, no
// record pooling) must produce bit-identical virtual times, statistics and
// traces to the fast configuration (calendar, fcontext where supported,
// pooled effects) at every engine worker count, with and without chaos
// fault injection, at posted-pipeline depths 1 and 16.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <queue>
#include <string>
#include <vector>

#include "apps/ep.hpp"
#include "apps/lu.hpp"
#include "apps/mm.hpp"
#include "core/cluster.hpp"
#include "net/faults.hpp"
#include "sim/calqueue.hpp"
#include "sim/random.hpp"
#include "sim/slowpath.hpp"
#include "sim/time.hpp"

namespace {

using argosim::CalQueue;
using argosim::EventQueue;
using argosim::Rng;
using argosim::Time;

// Restores the process-wide slow-path toggle on scope exit so a failing
// test cannot leak ARGO_SLOW_PATHS semantics into later tests.
struct SlowGuard {
  bool prev = argosim::slow_paths();
  ~SlowGuard() { argosim::set_slow_paths(prev); }
};

// ---------------------------------------------------------------------------
// CalQueue vs the heap reference
// ---------------------------------------------------------------------------

// The engine's key shape: a timestamp plus a deterministic tie-break.
struct Ev {
  Time when = 0;
  std::uint64_t seq = 0;
  bool operator>(const Ev& o) const {
    if (when != o.when) return when > o.when;
    return seq > o.seq;
  }
};

using HeapRef = std::priority_queue<Ev, std::vector<Ev>, std::greater<>>;

void expect_same_drain(CalQueue<Ev>& cal, HeapRef& ref) {
  ASSERT_EQ(cal.size(), ref.size());
  while (!ref.empty()) {
    const Ev want = ref.top();
    ref.pop();
    const Ev got = cal.top();
    cal.pop();
    ASSERT_EQ(got.when, want.when);
    ASSERT_EQ(got.seq, want.seq);
  }
  EXPECT_TRUE(cal.empty());
}

TEST(CalQueueVsHeap, RandomizedMixedOpsMatchExactly) {
  // Mixed push/pop streams at several horizon spreads, keeping the
  // engine's invariant that pushes never land before the popped frontier.
  for (const std::uint64_t spread :
       {std::uint64_t{8}, std::uint64_t{1} << 12, std::uint64_t{1} << 24}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      CalQueue<Ev> cal;
      HeapRef ref;
      Rng rng(seed * 77 + spread);
      Time frontier = 0;
      std::uint64_t seq = 0;
      for (int op = 0; op < 20000; ++op) {
        if (ref.empty() || rng.next_below(10) < 6) {
          const Ev e{frontier + rng.next_below(spread), seq++};
          cal.push(e);
          ref.push(e);
        } else {
          const Ev want = ref.top();
          ref.pop();
          const Ev got = cal.top();
          cal.pop();
          ASSERT_EQ(got.when, want.when) << "spread " << spread;
          ASSERT_EQ(got.seq, want.seq) << "spread " << spread;
          frontier = want.when;
        }
      }
      expect_same_drain(cal, ref);
    }
  }
}

TEST(CalQueueVsHeap, TieBreaksPopInSeqOrder) {
  // Several groups at identical timestamps, inserted in scrambled seq
  // order: pops must come out time-major, seq-minor — the engine's
  // determinism hinges on exactly this order.
  CalQueue<Ev> cal;
  HeapRef ref;
  Rng rng(99);
  std::vector<Ev> all;
  for (Time t : {Time{100}, Time{100}, Time{7}, Time{4096}})
    for (std::uint64_t s = 0; s < 64; ++s)
      all.push_back({t, rng.next_u64()});  // random seqs, duplicated times
  // Scramble insertion order deterministically.
  for (std::size_t i = all.size(); i > 1; --i)
    std::swap(all[i - 1], all[rng.next_below(i)]);
  for (const Ev& e : all) {
    cal.push(e);
    ref.push(e);
  }
  expect_same_drain(cal, ref);
}

TEST(CalQueueVsHeap, PurgeMatchesReferenceErase) {
  // Lazy deletion: fill both, advance the drain cursor a little, purge a
  // predicate slice, and check the survivors drain identically and the
  // removed counts agree. Mirrors the engine's stale-wake compaction.
  CalQueue<Ev> cal;
  std::vector<Ev> live;
  Rng rng(5);
  std::uint64_t seq = 0;
  for (int i = 0; i < 5000; ++i) {
    const Ev e{rng.next_below(1 << 20), seq++};
    cal.push(e);
    live.push_back(e);
  }
  // Pop a prefix so the rung cursor is mid-day when purge runs.
  HeapRef order(live.begin(), live.end());
  for (int i = 0; i < 137; ++i) {
    const Ev want = order.top();
    order.pop();
    ASSERT_EQ(cal.top().seq, want.seq);
    cal.pop();
    live.erase(std::find_if(live.begin(), live.end(), [&](const Ev& e) {
      return e.seq == want.seq;
    }));
  }
  const auto stale = [](const Ev& e) { return e.seq % 3 == 0; };
  const std::size_t want_removed =
      static_cast<std::size_t>(std::count_if(live.begin(), live.end(), stale));
  EXPECT_EQ(cal.purge(stale), want_removed);
  live.erase(std::remove_if(live.begin(), live.end(), stale), live.end());
  HeapRef ref(live.begin(), live.end());
  expect_same_drain(cal, ref);
}

TEST(CalQueueVsHeap, ExtremeHorizonSpreadsAndResizes) {
  // Pathological time distributions: day-sized clusters interleaved with
  // jumps of 2^40 ns and timestamps out at 2^62, growing then draining so
  // the bucket array walks through both rebuild directions. The pop order
  // must stay exact throughout and the calendar must actually have
  // re-tuned (resizes observable via the sim.calendar_resizes counter).
  CalQueue<Ev> cal;
  HeapRef ref;
  Rng rng(1234);
  std::uint64_t seq = 0;
  Time base = 0;
  for (int wave = 0; wave < 8; ++wave) {
    for (int i = 0; i < 4000; ++i) {
      Time w = base + rng.next_below(512);
      if (rng.next_below(100) == 0) w = (Time{1} << 62) + rng.next_below(512);
      const Ev e{w, seq++};
      cal.push(e);
      ref.push(e);
    }
    // Drain most of the wave, then jump the clock far ahead.
    for (int i = 0; i < 3800; ++i) {
      const Ev want = ref.top();
      ref.pop();
      ASSERT_EQ(cal.top().when, want.when);
      ASSERT_EQ(cal.top().seq, want.seq);
      cal.pop();
    }
    base += Time{1} << 40;
  }
  EXPECT_GT(cal.resizes(), 0u);
  expect_same_drain(cal, ref);
}

TEST(EventQueueFacade, BackendFollowsSlowPathToggleAndCompactAgrees) {
  SlowGuard guard;
  // Same contents through both backends: identical compaction counts and
  // identical drain order.
  for (const bool slow : {false, true}) {
    argosim::set_slow_paths(slow);
    EventQueue<Ev> q;
    EXPECT_EQ(q.calendar(), !slow);
    HeapRef ref;
    Rng rng(slow ? 11u : 12u);
    for (std::uint64_t s = 0; s < 3000; ++s) {
      const Ev e{rng.next_below(1 << 16), s};
      q.push(e);
      if (e.seq % 7 != 0) ref.push(e);
    }
    EXPECT_EQ(q.compact([](const Ev& e) { return e.seq % 7 == 0; }),
              3000u / 7u + 1u);
    ASSERT_EQ(q.size(), ref.size());
    while (!ref.empty()) {
      ASSERT_EQ(q.top().seq, ref.top().seq);
      q.pop();
      ref.pop();
    }
  }
}

// ---------------------------------------------------------------------------
// Fast-vs-slow program identity: LU / MM / EP
// ---------------------------------------------------------------------------

using argo::Cluster;
using argo::ClusterConfig;
using argoapps::EpParams;
using argoapps::LuParams;
using argoapps::MmParams;

// Everything the identity contract covers, in comparable form.
struct AppFp {
  Time elapsed = 0;
  double checksum = 0;
  std::vector<std::string> counters;
  std::vector<std::string> trace;
};

void append_observables(AppFp& f, Cluster& cl) {
  // Host-side diagnostics (sim.* scheduler counters, page-buffer
  // allocations) intentionally differ between fast and slow paths —
  // outside the contract.
  for (const auto& c : cl.stats().counters)
    if (!argo::ClusterStats::host_side(c.name))
      f.counters.push_back(c.name + "=" + std::to_string(c.value));
  for (const auto& e : cl.tracer().snapshot())
    f.trace.push_back(std::to_string(e.seq) + ":" + std::to_string(e.t) + ":" +
                      std::to_string(e.page) + ":" + std::to_string(e.arg) +
                      ":" + std::to_string(e.thread) + ":" +
                      std::to_string(e.node) + ":" + std::to_string(e.kind) +
                      ":" + std::to_string(e.state));
}

void expect_identical(const AppFp& slow, const AppFp& fast,
                      const std::string& label) {
  EXPECT_EQ(slow.elapsed, fast.elapsed) << label << ": virtual time diverged";
  EXPECT_EQ(slow.checksum, fast.checksum) << label << ": result diverged";
  EXPECT_EQ(slow.counters, fast.counters) << label << ": counters diverged";
  EXPECT_EQ(slow.trace, fast.trace) << label << ": trace diverged";
}

ClusterConfig identity_cfg(int workers, int pipeline) {
  ClusterConfig c;
  c.nodes = 4;
  c.threads_per_node = 2;
  c.global_mem_bytes = 128 * argomem::kPageSize;
  c.cache.cache_lines = 8192;
  c.cache.write_buffer_pages = 1024;
  c.net.pipeline = pipeline;
  c.trace.enabled = true;
  c.engine_threads = workers;
  return c;
}

// Rerun `run` with the slow (seed) paths as the oracle, then fast, at
// one worker (the sequential reference) and parallel workers 2 and 8.
template <class RunFn>
void fast_slow_identity(const std::string& label, RunFn run) {
  for (const int workers : {1, 2, 8}) {
    SlowGuard guard;
    argosim::set_slow_paths(true);
    const AppFp slow = run(workers);
    argosim::set_slow_paths(false);
    const AppFp fast = run(workers);
    expect_identical(slow, fast,
                     label + " workers=" + std::to_string(workers));
  }
}

TEST(FastSlowIdentity, LuAtPipelineDepths1And16) {
  LuParams p;
  p.n = 64;
  p.block = 16;
  for (const int pipeline : {1, 16}) {
    fast_slow_identity(
        "lu pipeline=" + std::to_string(pipeline), [&](int workers) {
          Cluster cl(identity_cfg(workers, pipeline));
          const auto r = argoapps::lu_run_argo(cl, p);
          AppFp f;
          f.elapsed = r.elapsed;
          f.checksum = r.checksum;
          append_observables(f, cl);
          return f;
        });
  }
}

TEST(FastSlowIdentity, MmAtPipelineDepths1And16) {
  MmParams p;
  p.n = 64;
  for (const int pipeline : {1, 16}) {
    fast_slow_identity(
        "mm pipeline=" + std::to_string(pipeline), [&](int workers) {
          Cluster cl(identity_cfg(workers, pipeline));
          const auto r = argoapps::mm_run_argo(cl, p);
          AppFp f;
          f.elapsed = r.elapsed;
          f.checksum = r.checksum;
          append_observables(f, cl);
          return f;
        });
  }
}

TEST(FastSlowIdentity, EpUnderChaosSeeds) {
  EpParams p;
  p.log2_pairs = 12;
  p.chunks = 32;
  for (const std::uint64_t chaos_seed : {3u, 17u}) {
    fast_slow_identity(
        "ep chaos_seed=" + std::to_string(chaos_seed), [&](int workers) {
          ClusterConfig cfg = identity_cfg(workers, 16);
          cfg.faults.enabled = true;
          cfg.faults.seed = chaos_seed;
          cfg.faults.rdma_fail_prob = 0.02;
          cfg.faults.jitter_prob = 0.2;
          cfg.faults.jitter_max = 800;
          cfg.faults.msg_drop_prob = 0.05;
          cfg.faults.msg_dup_prob = 0.02;
          Cluster cl(cfg);
          const auto r = argoapps::ep_run_argo(cl, p);
          AppFp f;
          f.elapsed = r.elapsed;
          f.checksum = r.tally.sx + r.tally.sy +
                       static_cast<double>(r.tally.accepted);
          append_observables(f, cl);
          return f;
        });
  }
}

}  // namespace
