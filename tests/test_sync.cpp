// Tests for Vela synchronization: node-local locks (mutex/ticket/MCS/
// cohort/QD) and distributed locks (RDMA MCS, HQDL, DSM cohort, flags).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/pqueue.hpp"
#include "core/cluster.hpp"
#include "fingerprint.hpp"
#include "sync/dsm_locks.hpp"
#include "sync/local_locks.hpp"
#include "sync/qd_lock.hpp"

namespace argosync {
namespace {

using argo::Cluster;
using argo::ClusterConfig;
using argo::Thread;
using argomem::kPageSize;
using argosim::Engine;
using argosim::Time;

// ---------------------------------------------------------------------------
// Node-local locks (one simulated machine): exercised on a bare Engine.
// ---------------------------------------------------------------------------

TEST(NodeTopology, NumaGroupsAndTransferCosts) {
  const argonet::NodeTopology t;
  const CoreMap m(&t);
  EXPECT_EQ(m.group_of(0), 0);
  EXPECT_EQ(m.group_of(3), 0);
  EXPECT_EQ(m.group_of(4), 1);
  EXPECT_EQ(m.group_of(15), 3);
  EXPECT_EQ(m.cacheline_transfer(2, 2), t.l1_hit);
  EXPECT_EQ(m.cacheline_transfer(0, 3), t.cacheline_same_numa);
  EXPECT_EQ(m.cacheline_transfer(0, 12), t.cacheline_cross_numa);
}

// CoreMap's divide-free group lookup against the formula it replaces,
// over every core pair: the default 16 cores in 4 groups, and 12 cores in
// 4 groups of 3 (a divisor that is not a power of two).
TEST(NodeTopology, TransferMatchesTheGroupFormulaForEveryCorePair) {
  for (const auto& [cores, groups] : {std::pair{16, 4}, std::pair{12, 4}}) {
    argonet::NodeTopology t;
    t.cores = cores;
    t.numa_groups = groups;
    const CoreMap m(&t);
    for (int src = 0; src < cores; ++src) {
      EXPECT_EQ(m.group_of(src), src / (cores / groups)) << src;
      for (int dst = 0; dst < cores; ++dst) {
        const Time want = src == dst ? t.l1_hit
                          : src / (cores / groups) == dst / (cores / groups)
                              ? t.cacheline_same_numa
                              : t.cacheline_cross_numa;
        EXPECT_EQ(m.cacheline_transfer(src, dst), want)
            << cores << " cores: " << src << " -> " << dst;
      }
    }
  }
}

struct LocalHarness {
  Engine eng;
  argonet::NodeTopology topo;
};

// Every lock must provide mutual exclusion and execute every section once.
void check_mutual_exclusion(CriticalSectionExecutor& lock) {
  LocalHarness h;
  int counter = 0;
  int inside = 0;
  bool overlapped = false;
  const int threads = 8, iters = 50;
  for (int i = 0; i < threads; ++i) {
    const int core = i % h.topo.cores;
    h.eng.spawn("t" + std::to_string(i), [&, core] {
      for (int k = 0; k < iters; ++k) {
        lock.execute(core,
                     [&](int) {
                       if (inside != 0) overlapped = true;
                       ++inside;
                       ++counter;
                       argosim::delay(50);  // critical-section work
                       --inside;
                     },
                     /*wait=*/true);
        argosim::delay(20);  // local work
      }
    });
  }
  h.eng.run();
  EXPECT_FALSE(overlapped) << lock.name();
  EXPECT_EQ(counter, threads * iters) << lock.name();
}

TEST(LocalLocks, MutexMutualExclusion) {
  argonet::NodeTopology topo;
  MutexLock l(&topo);
  check_mutual_exclusion(l);
}

TEST(LocalLocks, TicketMutualExclusion) {
  argonet::NodeTopology topo;
  TicketLock l(&topo);
  check_mutual_exclusion(l);
}

TEST(LocalLocks, McsMutualExclusion) {
  argonet::NodeTopology topo;
  McsLock l(&topo);
  check_mutual_exclusion(l);
}

TEST(LocalLocks, CohortMutualExclusion) {
  argonet::NodeTopology topo;
  CohortLock l(&topo);
  check_mutual_exclusion(l);
}

TEST(LocalLocks, QdMutualExclusion) {
  argonet::NodeTopology topo;
  QdLock l(&topo);
  check_mutual_exclusion(l);
}

TEST(LocalLocks, TicketIsFifo) {
  LocalHarness h;
  argonet::NodeTopology topo;
  TicketLock l(&topo);
  std::vector<int> order;
  for (int i = 0; i < 6; ++i)
    h.eng.spawn("t" + std::to_string(i), [&, i] {
      argosim::delay(static_cast<Time>(i * 10));  // arrive in index order
      l.lock(i);
      order.push_back(i);
      argosim::delay(500);
      l.unlock(i);
    });
  h.eng.run();
  std::vector<int> expect{0, 1, 2, 3, 4, 5};
  EXPECT_EQ(order, expect);
}

TEST(LocalLocks, McsIsFifo) {
  LocalHarness h;
  argonet::NodeTopology topo;
  McsLock l(&topo);
  std::vector<int> order;
  for (int i = 0; i < 6; ++i)
    h.eng.spawn("t" + std::to_string(i), [&, i] {
      argosim::delay(static_cast<Time>(i * 10));
      l.lock(i);
      order.push_back(i);
      argosim::delay(500);
      l.unlock(i);
    });
  h.eng.run();
  std::vector<int> expect{0, 1, 2, 3, 4, 5};
  EXPECT_EQ(order, expect);
}

TEST(LocalLocks, QdDetachedDelegationExecutesEventually) {
  LocalHarness h;
  argonet::NodeTopology topo;
  QdLock l(&topo);
  int executed = 0;
  // One slow helper plus detached delegators that return immediately.
  h.eng.spawn("helper", [&] {
    l.execute(0, [&](int) {
      ++executed;
      argosim::delay(5000);  // long section: others delegate meanwhile
    }, true);
  });
  for (int i = 1; i <= 6; ++i)
    h.eng.spawn("d" + std::to_string(i), [&, i] {
      argosim::delay(100);
      Time before = argosim::now();
      l.execute(i % 16, [&](int) { ++executed; }, /*wait=*/false);
      // Detached delegation must not wait for the helper's 5 us section.
      EXPECT_LT(argosim::now() - before, 3000u);
    });
  h.eng.run();
  EXPECT_EQ(executed, 7);
  EXPECT_GE(l.delegated(), 1u);
}

TEST(LocalLocks, QdWaitBlocksUntilExecution) {
  LocalHarness h;
  argonet::NodeTopology topo;
  QdLock l(&topo);
  bool side_effect = false;
  h.eng.spawn("helper", [&] {
    l.execute(0, [&](int) { argosim::delay(2000); }, true);
  });
  h.eng.spawn("waiter", [&] {
    argosim::delay(100);
    l.execute(1, [&](int) { side_effect = true; }, /*wait=*/true);
    EXPECT_TRUE(side_effect);  // visible immediately after execute returns
  });
  h.eng.run();
  EXPECT_TRUE(side_effect);
}

TEST(LocalLocks, QdBatchesOnOneCore) {
  // Under contention the helper should execute many sections per lock
  // acquisition (that is the whole point of delegation).
  LocalHarness h;
  argonet::NodeTopology topo;
  QdLock l(&topo);
  const int threads = 8, iters = 40;
  for (int i = 0; i < threads; ++i)
    h.eng.spawn("t" + std::to_string(i), [&, i] {
      for (int k = 0; k < iters; ++k) {
        l.execute(i % 16, [&](int) { argosim::delay(100); }, true);
        argosim::delay(30);
      }
    });
  h.eng.run();
  EXPECT_GT(l.delegated(), static_cast<std::uint64_t>(threads * iters / 2));
  EXPECT_LT(l.batches(), static_cast<std::uint64_t>(threads * iters / 2));
}

TEST(LocalLocks, QdOutperformsMutexUnderContention) {
  // Throughput sanity for Figure 11's ordering: same workload, same
  // virtual clock; QD must finish sooner than the sleeping mutex.
  auto run_with = [](CriticalSectionExecutor& lock) {
    LocalHarness h;
    const int threads = 8, iters = 100;
    for (int i = 0; i < threads; ++i) {
      const int core = i % h.topo.cores;
      h.eng.spawn("t", [&, core] {
        for (int k = 0; k < iters; ++k) {
          lock.execute(core, [](int) { argosim::delay(150); }, true);
          argosim::delay(50);
        }
      });
    }
    h.eng.run();
    return h.eng.now();
  };
  argonet::NodeTopology topo;
  MutexLock mutex(&topo);
  QdLock qd(&topo);
  const Time t_mutex = run_with(mutex);
  const Time t_qd = run_with(qd);
  EXPECT_LT(t_qd, t_mutex);
}

// ---------------------------------------------------------------------------
// Distributed locks
// ---------------------------------------------------------------------------

ClusterConfig dsm_cfg(int nodes, int tpn) {
  ClusterConfig c;
  c.nodes = nodes;
  c.threads_per_node = tpn;
  c.global_mem_bytes = static_cast<std::size_t>(nodes) * 32 * kPageSize;
  return c;
}

TEST(GlobalMcs, MutualExclusionAcrossNodes) {
  Cluster cl(dsm_cfg(4, 1));
  GlobalMcsLock lock(cl);
  int inside = 0, count = 0;
  bool overlapped = false;
  cl.run([&](Thread& t) {
    for (int k = 0; k < 20; ++k) {
      lock.acquire(t);
      if (inside != 0) overlapped = true;
      ++inside;
      ++count;
      t.compute(500);
      --inside;
      lock.release(t);
      t.compute(100);
    }
  });
  EXPECT_FALSE(overlapped);
  EXPECT_EQ(count, 80);
}

TEST(Hqdl, CountsProtectedIncrementsCorrectly) {
  Cluster cl(dsm_cfg(4, 4));
  HqdLock lock(cl);
  // The protected counter lives in global memory and is accessed through
  // the normal DSM path (load/store) — exactly what critical sections do.
  auto ctr = cl.alloc<std::uint64_t>(1);
  const int iters = 25;
  cl.run([&](Thread& t) {
    for (int k = 0; k < iters; ++k) {
      lock.execute(t, [&](Thread& exec) {
        exec.store(ctr, exec.load(ctr) + 1);
      }, /*wait=*/true);
      t.compute(200);
    }
  });
  // Final value must be exact: read it at home after the run.
  EXPECT_EQ(*cl.host_ptr(ctr), static_cast<std::uint64_t>(16 * iters));
  const auto st = lock.total_stats();
  EXPECT_EQ(st.executed, static_cast<std::uint64_t>(16 * iters));
  EXPECT_GT(st.delegated, 0u);
  EXPECT_LT(st.batches, st.executed);  // batching happened
}

TEST(Hqdl, DetachedDelegation) {
  Cluster cl(dsm_cfg(2, 4));
  HqdLock lock(cl);
  auto ctr = cl.alloc<std::uint64_t>(1);
  cl.run([&](Thread& t) {
    for (int k = 0; k < 10; ++k)
      lock.execute(t, [&](Thread& exec) {
        exec.store(ctr, exec.load(ctr) + 1);
      }, /*wait=*/false);
    t.barrier();  // all sections must have drained by the barrier epoch end
  });
  EXPECT_EQ(*cl.host_ptr(ctr), 80u);
}

TEST(Hqdl, FencesOncePerBatchNotPerSection) {
  Cluster cl(dsm_cfg(2, 8));
  HqdLock lock(cl);
  auto ctr = cl.alloc<std::uint64_t>(1);
  cl.run([&](Thread& t) {
    for (int k = 0; k < 10; ++k)
      lock.execute(t, [&](Thread& exec) {
        exec.store(ctr, exec.load(ctr) + 1);
      }, true);
  });
  const auto cs = cl.coherence_stats();
  const auto ls = lock.total_stats();
  EXPECT_EQ(ls.executed, 160u);
  // One SI and one SD per batch (plus none elsewhere in this program).
  EXPECT_EQ(cs.si_fences, ls.batches);
  EXPECT_EQ(cs.sd_fences, ls.batches);
  EXPECT_LT(ls.batches, 160u);
}

TEST(DsmCohort, CorrectAndFencesPerSection) {
  Cluster cl(dsm_cfg(2, 4));
  DsmCohortLock lock(cl);
  auto ctr = cl.alloc<std::uint64_t>(1);
  const int iters = 10;
  cl.run([&](Thread& t) {
    for (int k = 0; k < iters; ++k) {
      lock.execute(t, [&](Thread& exec) {
        exec.store(ctr, exec.load(ctr) + 1);
      });
      t.compute(100);
    }
  });
  EXPECT_EQ(*cl.host_ptr(ctr), 80u);
  const auto cs = cl.coherence_stats();
  EXPECT_EQ(cs.si_fences, 80u);  // per section, unlike HQDL
  EXPECT_EQ(cs.sd_fences, 80u);
  EXPECT_LT(lock.global_acquisitions(), 80u);  // cohort batching of the lock
}

TEST(DsmMutex, Correctness) {
  Cluster cl(dsm_cfg(3, 2));
  DsmMutex lock(cl);
  auto ctr = cl.alloc<std::uint64_t>(1);
  cl.run([&](Thread& t) {
    for (int k = 0; k < 15; ++k) {
      lock.lock(t);
      t.store(ctr, t.load(ctr) + 1);
      lock.unlock(t);
    }
  });
  EXPECT_EQ(*cl.host_ptr(ctr), 90u);
}

TEST(DsmFlag, SignalPublishesData) {
  Cluster cl(dsm_cfg(2, 1));
  DsmFlag flag(cl);
  auto data = cl.alloc<std::uint64_t>(64);
  cl.run([&](Thread& t) {
    if (t.node() == 0) {
      for (int i = 0; i < 64; ++i)
        t.store(data + i, static_cast<std::uint64_t>(i * i));
      flag.set(t);
    } else {
      flag.wait(t);
      for (int i = 0; i < 64; ++i)
        EXPECT_EQ(t.load(data + i), static_cast<std::uint64_t>(i * i));
    }
  });
}

TEST(Hqdl, BeatsDsmCohortUnderContention) {
  // Figure 12's ordering: same microworkload, HQDL finishes sooner.
  auto run_with = [](bool use_hqdl) {
    Cluster cl(dsm_cfg(4, 4));
    HqdLock hqdl(cl);
    DsmCohortLock cohort(cl);
    auto ctr = cl.alloc<std::uint64_t>(1);
    return cl.run([&](Thread& t) {
      for (int k = 0; k < 20; ++k) {
        auto cs = [&](Thread& exec) { exec.store(ctr, exec.load(ctr) + 1); };
        if (use_hqdl)
          hqdl.execute(t, cs, true);
        else
          cohort.execute(t, cs);
        t.compute(500);
      }
    });
  };
  const Time t_hqdl = run_with(true);
  const Time t_cohort = run_with(false);
  EXPECT_LT(t_hqdl, t_cohort);
}


TEST(GlobalMcs, TimedAcquireSucceedsAndTimesOut) {
  Cluster cl(dsm_cfg(2, 1));
  GlobalMcsLock lock(cl);
  bool n0_got = false, n1_got = true;
  cl.run([&](Thread& t) {
    if (t.node() == 0) {
      n0_got = lock.try_acquire_for(t, 1000);  // free: immediate success
      t.compute(500000);                       // hold it well past the other
      if (n0_got) lock.release(t);
    } else {
      t.compute(5000);  // let node 0 win the lock first
      n1_got = lock.try_acquire_for(t, 20000);
    }
  });
  EXPECT_TRUE(n0_got);
  EXPECT_FALSE(n1_got);  // gave up while node 0 still held it
}

TEST(GlobalMcs, TimedAcquireInteroperatesWithRelease) {
  // A lock obtained through the timed path must release normally and be
  // re-acquirable through the blocking path, repeatedly.
  Cluster cl(dsm_cfg(2, 1));
  GlobalMcsLock lock(cl);
  int acquisitions = 0;
  cl.run([&](Thread& t) {
    for (int k = 0; k < 10; ++k) {
      if (lock.try_acquire_for(t, 1u << 22)) {
        ++acquisitions;
        t.compute(300);
        lock.release(t);
      }
      t.compute(200);
    }
  });
  EXPECT_EQ(acquisitions, 20);
}

TEST(Hqdl, TryExecuteRunsOrFailsCleanly) {
  Cluster cl(dsm_cfg(4, 4));
  HqdLock lock(cl);
  auto ctr = cl.alloc<std::uint64_t>(1);
  const int iters = 10;
  std::uint64_t executed = 0;
  cl.run([&](Thread& t) {
    for (int k = 0; k < iters; ++k) {
      const bool ran = lock.try_execute(t, [&](Thread& exec) {
        exec.store(ctr, exec.load(ctr) + 1);
      }, /*timeout=*/1u << 26);
      if (ran) ++executed;
      t.compute(200);
    }
  });
  // A generous timeout must execute everything — and the counter must
  // agree exactly with the number of reported successes.
  EXPECT_EQ(executed, 16u * iters);
  EXPECT_EQ(*cl.host_ptr(ctr), executed);
}

TEST(Hqdl, TryExecuteTimesOutWithoutStrandingEntries) {
  Cluster cl(dsm_cfg(2, 2));
  HqdLock lock(cl);
  auto ctr = cl.alloc<std::uint64_t>(1);
  std::uint64_t succeeded = 0, failed = 0;
  cl.run([&](Thread& t) {
    if (t.node() == 0 && t.tid() == 0) {
      // Hog the lock with one long critical section.
      lock.execute(t, [&](Thread& exec) { exec.compute(300000); },
                   /*wait=*/true);
    } else {
      t.compute(2000);  // let the hog start first
      const bool ran = lock.try_execute(t, [&](Thread& exec) {
        exec.store(ctr, exec.load(ctr) + 1);
      }, /*timeout=*/5000);
      if (ran) ++succeeded; else ++failed;
    }
  });
  // Tight timeout while the lock is hogged: some threads must fail, and
  // every reported success must be reflected in the counter — a timed-out
  // entry never executes later.
  EXPECT_GT(failed, 0u);
  EXPECT_EQ(*cl.host_ptr(ctr), succeeded);
}

// Contended bounded delegation, pinned to recorded results: every call's
// outcome and return instant, the run/timeout counts, the HQDL statistics
// and the elapsed virtual time. A small queue and batch limit keep node
// queues full or closed much of the time, and node 0's long sections keep
// other nodes' helpers in their timed global acquisition (queue closed), so
// many timeouts land in the closed-queue backoff.
TEST(Hqdl, TryExecuteUnderContentionRepeatsRecordedResults) {
  Cluster cl(dsm_cfg(3, 4));
  HqdLock lock(cl, /*queue_capacity=*/3, /*batch_limit=*/4);
  auto ctr = cl.alloc<std::uint64_t>(1);
  std::uint64_t runs = 0, timeouts = 0;
  std::uint64_t log = argotest::kFnvBasis;
  const Time elapsed = cl.run([&](Thread& t) {
    if (t.node() == 0 && t.tid() == 0) {
      for (int k = 0; k < 3; ++k) {
        lock.execute(t, [](Thread& exec) { exec.compute(12000); },
                     /*wait=*/true);
        t.compute(30000);
      }
      return;
    }
    for (int k = 0; k < 8; ++k) {
      const bool ran = lock.try_execute(t, [&](Thread& exec) {
        exec.store(ctr, exec.load(ctr) + 1);
        exec.compute(300);
      }, /*timeout=*/4000 + 3000 * static_cast<Time>(t.tid()));
      ++(ran ? runs : timeouts);
      const std::string who =
          std::to_string(t.node()) + "." + std::to_string(t.tid());
      log = argotest::fnv1a(
          who + (ran ? " ran at " : " timed out at ") + std::to_string(t.now()),
          log);
      t.compute(500 + 250 * static_cast<Time>(t.node()));
    }
  });
  const DelegationStats st = lock.total_stats();
  EXPECT_EQ(*cl.host_ptr(ctr), runs);
  EXPECT_EQ(runs + timeouts, 11u * 8);
  // Recorded with the fiber-driven backoff loop (20 of the 54 timeouts
  // found the queue closed).
  EXPECT_EQ(elapsed, 155488u);
  EXPECT_EQ(runs, 34u);
  EXPECT_EQ(timeouts, 54u);
  EXPECT_EQ(st.batches, 14u);
  EXPECT_EQ(st.executed, 37u);  // the 34 runs and node 0's 3 sections
  EXPECT_EQ(st.delegated, 23u);
  EXPECT_EQ(log, 1822617465944660065ull);
}

TEST(DsmMutex, TimedLockHonorsTimeoutAndFences) {
  Cluster cl(dsm_cfg(2, 1));
  DsmMutex lock(cl);
  auto data = cl.alloc<std::uint64_t>(1);
  bool n1_first_try = true;
  std::uint64_t n1_read = 0;
  cl.run([&](Thread& t) {
    if (t.node() == 0) {
      lock.lock(t);
      t.store(data, std::uint64_t{41});
      t.compute(100000);
      t.store(data, std::uint64_t{42});
      lock.unlock(t);
    } else {
      t.compute(2000);
      n1_first_try = lock.try_lock_for(t, 5000);  // held: must time out
      if (!n1_first_try && lock.try_lock_for(t, 1u << 22)) {
        n1_read = t.load(data);  // SI fence ran: sees node 0's release
        lock.unlock(t);
      }
    }
  });
  EXPECT_FALSE(n1_first_try);
  EXPECT_EQ(n1_read, 42u);
}

// The timed path polls the tail with CAS under exponential backoff; the
// last backoff is cut at the deadline, so the final CAS goes out at the
// deadline and the call fails no later than one CAS round trip past it.
TEST(GlobalMcs, TimedAcquireFailsWithinOneCasOfTheDeadline) {
  for (const Time timeout : {Time{1000}, Time{5000}, Time{50000}}) {
    Cluster cl(dsm_cfg(2, 1));
    GlobalMcsLock lock(cl);
    auto probe = cl.alloc<std::uint64_t>(1);  // homed on node 0, like the tail
    bool got = true;
    Time cas_rtt = 0, start = 0, returned = 0;
    cl.run([&](Thread& t) {
      if (t.node() == 0) {
        lock.acquire(t);
        t.compute(10 * timeout);
        lock.release(t);
      } else {
        t.compute(5000);  // node 0 holds the lock by now
        const Time c0 = t.now();
        t.atomic_cas(probe, 1, 2);
        cas_rtt = t.now() - c0;
        start = t.now();
        got = lock.try_acquire_for(t, timeout);
        returned = t.now();
      }
    });
    EXPECT_FALSE(got) << "timeout " << timeout;
    EXPECT_GE(returned, start + timeout) << "timeout " << timeout;
    EXPECT_LE(returned, start + timeout + cas_rtt) << "timeout " << timeout;
  }
}

// ---------------------------------------------------------------------------
// Vela identity: recorded results
// ---------------------------------------------------------------------------
//
// Each Vela scenario must reproduce the virtual time and the fingerprint
// recorded before the idle-poll skip existed, at posted-pipeline depths 1
// and 16. The fingerprint folds the HQDL statistics, every net.* counter
// (each skipped poll still counts as the local read it stands for) and the
// delay count sim.fast_forwards + sim.runq_pushes - sim.poll_floats:
// host-side, but deterministic for one shard partition (one shard per node
// here), and exactly what skipped polls must leave as simulated ones would
// have. (Each delay is one fast-forward or one push, whichever the window
// allows; a float adds one push, its catch-up entry. Floats move window
// ends, so fast-forwards alone are not pinned.) The fingerprints were
// derived without floats, where the delay count is fast_forwards + pushes.
// sim.context_switches + sim.gated_waits + sim.spin_steps is the
// resumption count without spin steps (gated wakes included).

struct VelaFp {
  Time elapsed = 0;
  std::uint64_t fp = 0;
  std::uint64_t switches = 0;
};

VelaFp vela_fp(Cluster& cl, Time elapsed, std::uint64_t ops = 0,
               const DelegationStats& hq = {}) {
  std::uint64_t h = argotest::kFnvBasis;
  auto fold = [&h](const std::string& name, std::uint64_t v) {
    h = argotest::fnv1a(name + "=" + std::to_string(v), h);
  };
  fold("ops", ops);
  fold("hqdl.batches", hq.batches);
  fold("hqdl.executed", hq.executed);
  fold("hqdl.delegated", hq.delegated);
  const argo::ClusterStats st = cl.stats();
  for (const auto& c : st.counters)
    if (c.name.rfind("net.", 0) == 0) fold(c.name, c.value);
  fold("delays", st.counter("sim.fast_forwards") +
                     st.counter("sim.runq_pushes") -
                     st.counter("sim.poll_floats"));
  return {elapsed, h,
          st.counter("sim.context_switches") + st.counter("sim.gated_waits") +
              st.counter("sim.spin_steps")};
}

ClusterConfig vela_cfg(int nodes, int tpn, int pipeline) {
  ClusterConfig c = dsm_cfg(nodes, tpn);
  c.net.pipeline = pipeline;
  return c;
}

// Four nodes queue on one global MCS lock: grant spins and link waits.
VelaFp vela_mcs(int pipeline) {
  Cluster cl(vela_cfg(4, 1, pipeline));
  GlobalMcsLock lock(cl);
  const Time e = cl.run([&](Thread& t) {
    for (int k = 0; k < 20; ++k) {
      lock.acquire(t);
      t.compute(3000);
      lock.release(t);
      t.compute(100 * static_cast<Time>(t.node()));
    }
  });
  return vela_fp(cl, e);
}

VelaFp vela_pq(argoapps::DsmLockKind kind, int pipeline) {
  Cluster cl(vela_cfg(4, 3, pipeline));
  argoapps::PqParams p;
  p.duration = 150'000;
  p.prefill = 128;
  const auto r = argoapps::pq_bench_dsm(cl, kind, p);
  return vela_fp(cl, cl.now(), r.ops, r.hqdl);
}

VelaFp vela_mutex(int pipeline) {
  Cluster cl(vela_cfg(3, 2, pipeline));
  DsmMutex lock(cl);
  auto ctr = cl.alloc<std::uint64_t>(1);
  const Time e = cl.run([&](Thread& t) {
    for (int k = 0; k < 10; ++k) {
      lock.lock(t);
      t.store(ctr, t.load(ctr) + 1);
      lock.unlock(t);
      t.compute(400);
    }
  });
  EXPECT_EQ(*cl.host_ptr(ctr), 60u);
  return vela_fp(cl, e);
}

// The flag word is homed on node 0: node 0's waiters spin locally, the
// rest remotely.
VelaFp vela_flag(int pipeline) {
  Cluster cl(vela_cfg(3, 2, pipeline));
  DsmFlag flag(cl);
  auto data = cl.alloc<std::uint64_t>(8);
  const Time e = cl.run([&](Thread& t) {
    if (t.node() == 1 && t.tid() == 0) {
      t.compute(30000);
      for (int i = 0; i < 8; ++i)
        t.store(data + i, static_cast<std::uint64_t>(i + 1));
      flag.set(t, 3);
    } else {
      EXPECT_EQ(flag.wait(t, 2), 3u);
      EXPECT_EQ(t.load(data + 7), 8u);
    }
  });
  return vela_fp(cl, e);
}

TEST(VelaIdentity, RecordedResultsAtEveryWorkerCountAndDepth) {
  using argoapps::DsmLockKind;
  const struct {
    const char* name;
    int pipeline;
    VelaFp want;
    std::function<VelaFp(int)> run;
  } cases[] = {
      {"global_mcs", 1, {416517, 14192598990595445839ull, 576}, vela_mcs},
      {"global_mcs", 16, {416517, 14192598990595445839ull, 576}, vela_mcs},
      {"pq_hqdl", 1, {231054, 10369511168309020145ull, 814},
       [](int d) { return vela_pq(DsmLockKind::Hqdl, d); }},
      {"pq_hqdl", 16, {227835, 16976102682998999875ull, 844},
       [](int d) { return vela_pq(DsmLockKind::Hqdl, d); }},
      {"pq_cohort", 1, {366159, 14842358924035715955ull, 376},
       [](int d) { return vela_pq(DsmLockKind::Cohort, d); }},
      {"pq_cohort", 16, {333759, 17863699879761819877ull, 372},
       [](int d) { return vela_pq(DsmLockKind::Cohort, d); }},
      {"dsm_mutex", 1, {525897, 5824421259757279204ull, 676}, vela_mutex},
      {"dsm_mutex", 16, {522697, 5381639178171489769ull, 675}, vela_mutex},
      {"dsm_flag", 1, {51692, 17532846167804768209ull, 492}, vela_flag},
      {"dsm_flag", 16, {47789, 15924858060319843160ull, 468}, vela_flag},
  };
  for (const auto& c : cases) {
    const VelaFp got = c.run(c.pipeline);
    const std::string what =
        std::string(c.name) + " pipeline=" + std::to_string(c.pipeline);
    EXPECT_EQ(got.elapsed, c.want.elapsed) << what << ": virtual time moved";
    EXPECT_EQ(got.fp, c.want.fp) << what << ": counters moved";
    EXPECT_EQ(got.switches, c.want.switches) << what << ": switches moved";
  }
}

// Every per-engine sim.* scheduler counter repeats exactly for a fixed
// shard partition: two fresh runs count the same resumptions, run-queue
// traffic, fast-forwards, floats, gated waits and spin steps. Four nodes
// queueing on one global MCS lock stall fibers in await() on blocking
// verbs; the HQDL pairing heap spins on closed node queues.
TEST(VelaIdentity, SimCountersRepeatAcrossFreshRuns) {
  auto counters = [](Cluster& cl) {
    const argo::ClusterStats st = cl.stats();
    std::vector<std::uint64_t> v;
    for (const char* name :
         {"sim.context_switches", "sim.runq_pushes", "sim.runq_pops",
          "sim.fast_forwards", "sim.poll_floats", "sim.gated_waits",
          "sim.spin_steps"})
      v.push_back(st.counter(name));
    return v;
  };
  auto mcs = [&] {
    Cluster cl(vela_cfg(4, 1, 1));
    GlobalMcsLock lock(cl);
    cl.run([&](Thread& t) {
      for (int k = 0; k < 20; ++k) {
        lock.acquire(t);
        t.compute(3000);
        lock.release(t);
        t.compute(100 * static_cast<Time>(t.node()));
      }
    });
    return counters(cl);
  };
  auto pq = [&] {
    Cluster cl(vela_cfg(4, 3, 1));
    argoapps::PqParams p;
    p.duration = 150'000;
    p.prefill = 128;
    argoapps::pq_bench_dsm(cl, argoapps::DsmLockKind::Hqdl, p);
    return counters(cl);
  };
  const std::vector<std::uint64_t> first = mcs();
  EXPECT_GT(first[0], 0u);
  EXPECT_EQ(first, mcs());
  const std::vector<std::uint64_t> hq = pq();
  EXPECT_GT(hq[6], 0u);  // the closed-queue backoff ran as spin steps
  EXPECT_EQ(hq, pq());
}

}  // namespace
}  // namespace argosync
