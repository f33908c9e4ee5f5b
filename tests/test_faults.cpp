// Chaos suite: deterministic fault injection (src/net/faults), the
// retry/backoff machinery in the interconnect, and the coherence invariant
// checker (src/core/validate).
//
// The determinism contract under test: a given (program, config, seed)
// triple must produce bit-identical results, virtual times, and fault
// statistics on every run — chaos runs are as reproducible as clean runs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/ep.hpp"
#include "apps/lu.hpp"
#include "apps/mm.hpp"
#include "core/cluster.hpp"
#include "core/membership.hpp"
#include "core/validate.hpp"
#include "net/faults.hpp"
#include "net/interconnect.hpp"
#include "sim/engine.hpp"
#include "sync/dsm_locks.hpp"

namespace {

using argo::Cluster;
using argo::ClusterConfig;
using argo::Mode;
using argocore::ProtocolValidator;
using argomem::kPageSize;
using argonet::FaultConfig;
using argonet::FaultInjector;
using argonet::Interconnect;
using argonet::NetConfig;
using argonet::NetworkError;
using argonet::NodeNetStats;
using argosim::Engine;
using argosim::Time;

// ---------------------------------------------------------------------------
// FaultInjector distributions and determinism (no simulation needed:
// plan_attempt takes the virtual time as a parameter)
// ---------------------------------------------------------------------------

TEST(FaultInjector, FailureRateMatchesProbability) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 42;
  cfg.rdma_fail_prob = 0.1;
  FaultInjector inj(cfg, 2);
  const int draws = 20000;
  int fails = 0;
  for (int i = 0; i < draws; ++i)
    fails += inj.plan_attempt(0, 1, static_cast<Time>(i)).fail ? 1 : 0;
  EXPECT_GT(fails, draws / 10 * 8 / 10);  // within ±20 % of expectation
  EXPECT_LT(fails, draws / 10 * 12 / 10);
}

TEST(FaultInjector, DropAndDuplicateRates) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 7;
  cfg.msg_drop_prob = 0.2;
  cfg.msg_dup_prob = 0.05;
  FaultInjector inj(cfg, 2);
  const int draws = 20000;
  int drops = 0, dups = 0;
  for (int i = 0; i < draws; ++i) {
    drops += inj.drop_message() ? 1 : 0;
    dups += inj.duplicate_message() ? 1 : 0;
  }
  EXPECT_GT(drops, 3200);
  EXPECT_LT(drops, 4800);
  EXPECT_GT(dups, 700);
  EXPECT_LT(dups, 1300);
}

TEST(FaultInjector, DeterministicPerSeedAndSensitiveToSeed) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 123;
  cfg.rdma_fail_prob = 0.3;
  cfg.jitter_prob = 0.5;
  cfg.jitter_max = 1000;

  FaultInjector a(cfg, 4), b(cfg, 4);
  FaultConfig other = cfg;
  other.seed = 124;
  FaultInjector c(other, 4);
  bool any_difference = false;
  for (int i = 0; i < 500; ++i) {
    const auto pa = a.plan_attempt(0, 1, static_cast<Time>(i));
    const auto pb = b.plan_attempt(0, 1, static_cast<Time>(i));
    const auto pc = c.plan_attempt(0, 1, static_cast<Time>(i));
    EXPECT_EQ(pa.fail, pb.fail);
    EXPECT_EQ(pa.extra_latency, pb.extra_latency);
    if (pa.fail != pc.fail || pa.extra_latency != pc.extra_latency)
      any_difference = true;
  }
  EXPECT_TRUE(any_difference);  // a different seed gives a different pattern
}

TEST(FaultInjector, ZeroRatesInjectNothing) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 9;
  FaultInjector inj(cfg, 2);
  for (int i = 0; i < 100; ++i) {
    const auto p = inj.plan_attempt(0, 1, static_cast<Time>(i));
    EXPECT_FALSE(p.fail);
    EXPECT_EQ(p.extra_latency, 0);
    EXPECT_EQ(p.latency_mult, 1.0);
    EXPECT_EQ(p.bw_frac, 1.0);
    EXPECT_FALSE(inj.drop_message());
    EXPECT_FALSE(inj.duplicate_message());
  }
  EXPECT_FALSE(inj.in_brownout(0, 1u << 30));
}

TEST(FaultInjector, BrownoutWindowsArePerNodeAndDegradeOps) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 5;
  cfg.brownout_mean_interval = 100000;
  cfg.brownout_mean_duration = 20000;
  FaultInjector inj(cfg, 2);

  // Scan virtual time; both nodes must enter windows, on distinct
  // schedules (per-node streams), and ops during a window are degraded.
  std::vector<bool> n0, n1;
  bool saw_degraded = false;
  for (Time t = 0; t < 2000000; t += 1000) {
    n0.push_back(inj.in_brownout(0, t));
    n1.push_back(inj.in_brownout(1, t));
    if (n0.back()) {
      const auto p = inj.plan_attempt(0, 1, t);
      EXPECT_EQ(p.latency_mult, cfg.brownout_latency_mult);
      EXPECT_EQ(p.bw_frac, cfg.brownout_bw_frac);
      saw_degraded = true;
    }
  }
  EXPECT_TRUE(saw_degraded);
  EXPECT_GT(inj.brownouts_seen(0), 5u);
  EXPECT_GT(inj.brownouts_seen(1), 5u);
  EXPECT_NE(n0, n1);
}

TEST(FaultInjector, BackoffJitterStaysInSpan) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 3;
  FaultInjector inj(cfg, 1);
  EXPECT_EQ(inj.backoff_jitter(0), 0);
  for (int i = 0; i < 1000; ++i) {
    const Time j = inj.backoff_jitter(500);
    EXPECT_GE(j, 0);
    EXPECT_LE(j, 500);
  }
}

// ---------------------------------------------------------------------------
// Interconnect retry/backoff behaviour
// ---------------------------------------------------------------------------

NetConfig faulty_net() {
  NetConfig c;
  c.rdma_latency = 1000;
  c.msg_latency = 1000;
  c.nic_overhead = 100;
  c.net_bytes_per_ns = 2.0;
  c.mem_latency = 50;
  c.mem_bytes_per_ns = 10.0;
  return c;
}

TEST(InterconnectFaults, RetriesUntilSuccess) {
  Engine eng;
  Interconnect net(2, faulty_net());
  FaultConfig fc;
  fc.enabled = true;
  fc.seed = 17;
  fc.rdma_fail_prob = 0.4;
  net.enable_faults(fc);

  std::uint64_t remote = 0;
  eng.spawn("t", [&] {
    for (std::uint64_t i = 1; i <= 50; ++i) {
      net.write(0, 1, &remote, &i, sizeof(i));
      std::uint64_t back = 0;
      net.read(0, 1, &remote, &back, sizeof(back));
      EXPECT_EQ(back, i);  // the reliable verbs never lose an op
    }
  });
  eng.run();
  const NodeNetStats& s = net.stats(0);
  EXPECT_EQ(s.rdma_reads, 50u);   // logical ops, not attempts
  EXPECT_EQ(s.rdma_writes, 50u);
  EXPECT_GT(s.faults_injected, 0u);
  EXPECT_GT(s.retries, 0u);
  EXPECT_GT(s.backoff_time, 0);
  EXPECT_EQ(s.faults_injected, s.retries);  // every fault was retried
}

TEST(InterconnectFaults, ExponentialBackoffIsExactWithoutJitter) {
  Engine eng;
  NetConfig nc = faulty_net();
  nc.retry.max_attempts = 4;
  nc.retry.backoff_base = 1000;
  nc.retry.backoff_mult = 2.0;
  nc.retry.backoff_jitter = 0.0;  // deterministic arithmetic check
  Interconnect net(2, nc);
  FaultConfig fc;
  fc.enabled = true;
  fc.seed = 1;
  fc.rdma_fail_prob = 1.0;  // every attempt fails
  net.enable_faults(fc);

  std::uint64_t remote = 0, local = 0;
  eng.spawn("t", [&] {
    net.read(0, 1, &remote, &local, sizeof(local));
  });
  EXPECT_THROW(eng.run(), NetworkError);
  const NodeNetStats& s = net.stats(0);
  EXPECT_EQ(s.faults_injected, 4u);       // all four attempts failed
  EXPECT_EQ(s.retries, 3u);               // three re-attempts
  EXPECT_EQ(s.backoff_time, 1000 + 2000 + 4000);
}

TEST(InterconnectFaults, DeadlineCapsRetrying) {
  Engine eng;
  NetConfig nc = faulty_net();
  nc.retry.max_attempts = 1000000;
  nc.retry.backoff_base = 1000;
  nc.retry.backoff_jitter = 0.0;
  nc.retry.deadline = 10000;  // give up ~10 us in
  Interconnect net(2, nc);
  FaultConfig fc;
  fc.enabled = true;
  fc.seed = 2;
  fc.rdma_fail_prob = 1.0;
  net.enable_faults(fc);

  std::uint64_t remote = 0, local = 0;
  Time gave_up_at = 0;
  eng.spawn("t", [&] {
    try {
      net.read(0, 1, &remote, &local, sizeof(local));
      FAIL() << "expected NetworkError";
    } catch (const NetworkError&) {
      gave_up_at = argosim::now();
    }
  });
  eng.run();
  EXPECT_GE(gave_up_at, nc.retry.deadline);
  EXPECT_LT(net.stats(0).retries, 20u);  // deadline, not attempt budget
}

TEST(InterconnectFaults, FaultFreePathIdenticalWhenDisabled) {
  // A FaultConfig with enabled == false must leave the interconnect
  // byte-identical to one that never saw a FaultConfig at all.
  auto run_once = [](bool attach_disabled_config) {
    Engine eng;
    Interconnect net(2, faulty_net());
    if (attach_disabled_config) {
      FaultConfig fc;  // enabled defaults to false
      fc.seed = 99;
      fc.rdma_fail_prob = 1.0;  // must be ignored entirely
      net.enable_faults(fc);
    }
    eng.spawn("t", [&] {
      std::uint64_t remote = 0;
      for (std::uint64_t i = 0; i < 20; ++i) {
        net.write(0, 1, &remote, &i, sizeof(i));
        std::uint64_t v;
        net.read(0, 1, &remote, &v, sizeof(v));
      }
    });
    eng.run();
    return eng.now();
  };
  EXPECT_FALSE([] {
    Interconnect net(2, NetConfig{});
    return net.faults_enabled();
  }());
  EXPECT_EQ(run_once(false), run_once(true));
}

TEST(InterconnectFaults, DroppedAndDuplicatedMessages) {
  Engine eng;
  Interconnect net(2, faulty_net());
  FaultConfig fc;
  fc.enabled = true;
  fc.seed = 31;
  fc.msg_drop_prob = 0.3;
  fc.msg_dup_prob = 0.2;
  net.enable_faults(fc);

  const int to_send = 200;
  int accepted = 0;
  int received = 0;
  bool tx_done = false;
  eng.spawn("rx", [&] {
    // Drain until the sender is done and a full timeout passes with
    // nothing further in flight (duplicates trail by one msg_latency).
    for (;;) {
      if (net.recv_for(1, 50000))
        ++received;
      else if (tx_done)
        break;
    }
  });
  eng.spawn("tx", [&] {
    for (int i = 0; i < to_send; ++i) {
      argonet::Message m;
      m.src = 0;
      m.dst = 1;
      m.tag = i;
      accepted += net.try_send(std::move(m)) ? 1 : 0;
    }
    tx_done = true;
  });
  eng.run();
  EXPECT_LT(accepted, to_send);            // some messages were dropped
  EXPECT_GT(received, accepted * 9 / 10);  // everything accepted arrives...
  EXPECT_GE(received, accepted);           // ...and duplicates add to it
  EXPECT_GT(received, 0);
  EXPECT_GT(net.stats(0).faults_injected, 0u);  // drops are counted
}

void expect_stats_equal(const NodeNetStats& a, const NodeNetStats& b) {
  EXPECT_EQ(a.rdma_reads, b.rdma_reads);
  EXPECT_EQ(a.rdma_writes, b.rdma_writes);
  EXPECT_EQ(a.rdma_atomics, b.rdma_atomics);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.backoff_time, b.backoff_time);
  EXPECT_EQ(a.nic_busy, b.nic_busy);
  EXPECT_EQ(a.posted_ops, b.posted_ops);
  EXPECT_EQ(a.posted_inflight_hwm, b.posted_inflight_hwm);
}

// ---------------------------------------------------------------------------
// Posted (pipelined) verbs under fault injection
// ---------------------------------------------------------------------------

TEST(PostedFaults, OnlyTheFaultedOpPaysItsRetries) {
  // Post six reads back to back at depth 8. The fault pattern is drawn
  // from the injector's shared stream, so an identical probe injector
  // tells us exactly which ops fault and how often — the completion time
  // and retry/backoff statistics must charge those retries to the faulted
  // ops alone, and to nothing else.
  NetConfig nc = faulty_net();
  nc.pipeline = 8;
  nc.retry.backoff_base = 1000;
  nc.retry.backoff_mult = 2.0;
  nc.retry.backoff_jitter = 0.0;
  FaultConfig fc;
  fc.enabled = true;
  fc.seed = 17;
  fc.rdma_fail_prob = 0.25;

  constexpr int kOps = 6;
  FaultInjector probe(fc, 2);
  int fails[kOps] = {};
  for (int i = 0; i < kOps; ++i)
    while (probe.plan_attempt(0, 1, 0).fail) ++fails[i];
  int total_fails = 0;
  bool any_clean = false, any_faulted = false;
  for (int f : fails) {
    total_fails += f;
    (f == 0 ? any_clean : any_faulted) = true;
  }
  ASSERT_TRUE(any_clean && any_faulted) << "seed no longer discriminates";

  // Mirror the cost model: op i's NIC charge ends at 104*(i+1); its wire
  // completes one rdma_latency later plus, per retry k, the backoff
  // 1000*2^k and a full retransmission (104 + 1000) folded into the
  // completion; in-order retirement takes the running max.
  Time expect_done = 0;
  Time expect_backoff = 0;
  for (int i = 0; i < kOps; ++i) {
    Time done = 104u * static_cast<Time>(i + 1) + 1000;
    for (int k = 0; k < fails[i]; ++k) {
      const Time backoff = 1000u << k;
      done += backoff + 104 + 1000;
      expect_backoff += backoff;
    }
    expect_done = std::max(expect_done, done);
  }

  auto run_once = [&] {
    Engine eng;
    Interconnect net(2, nc);
    net.enable_faults(fc);
    std::uint64_t remote[kOps], local[kOps] = {};
    for (int i = 0; i < kOps; ++i) remote[i] = 100 + static_cast<unsigned>(i);
    Time finished = 0;
    eng.spawn("t", [&] {
      for (int i = 0; i < kOps; ++i) net.post_read(0, 1, &remote[i], &local[i], 8);
      net.wait_all(0);
      finished = argosim::now();
      // In-order retirement: every read landed, in program order.
      for (int i = 0; i < kOps; ++i)
        EXPECT_EQ(local[i], 100u + static_cast<unsigned>(i));
    });
    eng.run();
    return std::make_pair(finished, net.stats(0));
  };
  const auto [t1, s1] = run_once();
  EXPECT_EQ(t1, expect_done);
  EXPECT_EQ(s1.faults_injected, static_cast<std::uint64_t>(total_fails));
  EXPECT_EQ(s1.retries, static_cast<std::uint64_t>(total_fails));
  EXPECT_EQ(s1.backoff_time, expect_backoff);
  EXPECT_EQ(s1.rdma_reads, static_cast<std::uint64_t>(kOps));
  // Same seed, same everything: pipelined chaos reruns are bit-identical.
  const auto [t2, s2] = run_once();
  EXPECT_EQ(t1, t2);
  expect_stats_equal(s1, s2);
}

TEST(PostedFaults, ExhaustedRetryBudgetSurfacesAtWait) {
  NetConfig nc = faulty_net();
  nc.pipeline = 4;
  nc.retry.max_attempts = 3;
  nc.retry.backoff_jitter = 0.0;
  FaultConfig fc;
  fc.enabled = true;
  fc.seed = 1;
  fc.rdma_fail_prob = 1.0;  // every attempt fails: the op is doomed
  Engine eng;
  Interconnect net(2, nc);
  net.enable_faults(fc);
  std::uint64_t remote = 42, local = 0;
  eng.spawn("t", [&] {
    argonet::PostedHandle h = net.post_read(0, 1, &remote, &local, 8);
    // The post itself returns normally — the failure is banked against the
    // handle and thrown only when its owner collects the completion.
    EXPECT_THROW(net.wait(h), NetworkError);
    EXPECT_EQ(local, 0u);  // a hard-failed op never applies its effect
    net.wait_all(0);       // failure already consumed by wait: no rethrow
  });
  eng.run();
  EXPECT_EQ(net.stats(0).faults_injected, 3u);
  EXPECT_EQ(net.stats(0).retries, 2u);
}

// A posted atomic whose target crash-stops hard-fails. wait_all reports the
// failure, and the handle stays claimable: its wait() must throw the same
// NodeFailedError rather than return 0, which would read as the word's
// previous value.
TEST(PostedFaults, FailureStaysClaimableAfterWaitAll) {
  NetConfig nc = faulty_net();
  nc.pipeline = 4;
  nc.retry.max_attempts = 3;
  nc.retry.backoff_jitter = 0.0;
  FaultConfig fc;
  fc.enabled = true;
  fc.seed = 1;
  fc.rdma_fail_prob = 1.0;
  fc.crashes.push_back(argonet::CrashEvent{.node = 1, .at = 1});
  Engine eng;
  Interconnect net(2, nc);
  net.enable_faults(fc);
  std::uint64_t remote = 42;
  eng.spawn("t", [&] {
    const argonet::PostedHandle h = net.post_fetch_add(0, 1, &remote, 5);
    EXPECT_THROW(net.wait_all(0), argonet::NodeFailedError);
    EXPECT_THROW(net.wait(h), argonet::NodeFailedError);
    net.wait_all(0);  // reported once: no rethrow
    EXPECT_EQ(net.wait(h), 0u);  // claimed: the handle is spent
  });
  eng.run();
  EXPECT_EQ(remote, 42u);  // a hard-failed atomic never commits
  EXPECT_EQ(net.take_aborted_posted(0), 1u);
}

// ---------------------------------------------------------------------------
// Chaos runs of the fig13 mini-apps: numerically correct, fault counters
// alive, and bit-identical per seed
// ---------------------------------------------------------------------------

constexpr std::uint64_t kChaosSeeds[] = {11, 22, 33};

ClusterConfig chaos_cfg(std::uint64_t seed) {
  ClusterConfig c;
  c.nodes = 4;
  c.threads_per_node = 2;
  c.global_mem_bytes = 2048 * kPageSize;
  c.cache.cache_lines = 8192;
  c.cache.write_buffer_pages = 1024;
  c.faults.enabled = true;
  c.faults.seed = seed;
  c.faults.rdma_fail_prob = 0.02;
  c.faults.jitter_prob = 0.1;
  c.faults.jitter_max = 500;
  c.faults.brownout_mean_interval = 500000;
  c.faults.brownout_mean_duration = 50000;
  return c;
}

double rel_err(double a, double b) {
  return std::fabs(a - b) / std::max(1.0, std::fabs(b));
}

TEST(ChaosApps, LuCorrectAndDeterministicUnderFaults) {
  argoapps::LuParams p;
  p.n = 128;
  p.block = 32;
  const double ref = argoapps::lu_reference(p);
  for (const std::uint64_t seed : kChaosSeeds) {
    auto run_once = [&] {
      Cluster cl(chaos_cfg(seed));
      auto r = argoapps::lu_run_argo(cl, p);
      return std::make_pair(r, cl.net_stats());
    };
    const auto [r1, s1] = run_once();
    const auto [r2, s2] = run_once();
    // The factors are exact; the checksum is reassociated per owner.
    EXPECT_LT(rel_err(r1.checksum, ref), 1e-12) << "seed " << seed;
    EXPECT_GT(s1.faults_injected, 0u) << "seed " << seed;
    EXPECT_GT(s1.retries, 0u) << "seed " << seed;
    // Bit-identical rerun: same seed, same virtual time, same stats.
    EXPECT_EQ(r1.elapsed, r2.elapsed) << "seed " << seed;
    EXPECT_EQ(r1.checksum, r2.checksum) << "seed " << seed;
    expect_stats_equal(s1, s2);
  }
}

TEST(ChaosApps, MmCorrectUnderFaultsWithValidator) {
  argoapps::MmParams p;
  p.n = 96;
  p.iterations = 2;
  const double ref = argoapps::mm_reference(p);
  for (const std::uint64_t seed : kChaosSeeds) {
    Cluster cl(chaos_cfg(seed));
    ProtocolValidator validator(cl);
    validator.attach();
    const auto r = argoapps::mm_run_argo(cl, p);
    EXPECT_LT(rel_err(r.checksum, ref), 1e-12) << "seed " << seed;
    EXPECT_GT(cl.net_stats().faults_injected, 0u) << "seed " << seed;
    EXPECT_GT(cl.net_stats().retries, 0u) << "seed " << seed;
    // Coherence invariants hold at every barrier even under chaos.
    EXPECT_GT(validator.checks_run(), 0u);
    EXPECT_TRUE(validator.violations().empty())
        << "seed " << seed << ": " << validator.violations().front();
  }
}

TEST(ChaosApps, EpCorrectAndDeterministicUnderFaults) {
  argoapps::EpParams p;
  p.log2_pairs = 14;
  p.chunks = 64;
  const auto ref = argoapps::ep_reference(p);
  for (const std::uint64_t seed : kChaosSeeds) {
    auto run_once = [&] {
      Cluster cl(chaos_cfg(seed));
      return argoapps::ep_run_argo(cl, p);
    };
    const auto r1 = run_once();
    const auto r2 = run_once();
    EXPECT_LT(rel_err(r1.tally.sx, ref.sx), 1e-12) << "seed " << seed;
    EXPECT_LT(rel_err(r1.tally.sy, ref.sy), 1e-12) << "seed " << seed;
    EXPECT_EQ(r1.tally.accepted, ref.accepted) << "seed " << seed;
    EXPECT_EQ(r1.tally.q, ref.q) << "seed " << seed;
    EXPECT_EQ(r1.elapsed, r2.elapsed) << "seed " << seed;
  }
}

TEST(ChaosApps, PipelinedAllModesCorrectDeterministicAndValidated) {
  // Pipelining must not change what the protocol computes: every
  // classification mode, under every chaos seed, at depth 4 — checksum
  // exact, coherence invariants clean at every barrier, rerun
  // bit-identical.
  argoapps::MmParams p;
  p.n = 96;
  p.iterations = 2;
  const double ref = argoapps::mm_reference(p);
  const Mode modes[] = {Mode::S, Mode::PSNaive, Mode::PS, Mode::PS3};
  for (const Mode mode : modes) {
    for (const std::uint64_t seed : kChaosSeeds) {
      auto run_once = [&] {
        ClusterConfig cfg = chaos_cfg(seed);
        cfg.cache.classification = mode;
        cfg.net.pipeline = 4;
        Cluster cl(cfg);
        ProtocolValidator validator(cl);
        validator.attach();
        const auto r = argoapps::mm_run_argo(cl, p);
        EXPECT_GT(validator.checks_run(), 0u);
        EXPECT_TRUE(validator.violations().empty())
            << "mode " << static_cast<int>(mode) << " seed " << seed << ": "
            << validator.violations().front();
        return std::make_pair(r, cl.net_stats());
      };
      const auto [r1, s1] = run_once();
      const auto [r2, s2] = run_once();
      EXPECT_LT(rel_err(r1.checksum, ref), 1e-12)
          << "mode " << static_cast<int>(mode) << " seed " << seed;
      EXPECT_GT(s1.faults_injected, 0u) << "seed " << seed;
      EXPECT_EQ(r1.elapsed, r2.elapsed)
          << "mode " << static_cast<int>(mode) << " seed " << seed;
      EXPECT_EQ(r1.checksum, r2.checksum);
      expect_stats_equal(s1, s2);
    }
  }
}

TEST(ChaosApps, PipeliningPreservesFaultFreeResultsAndCutsTime) {
  // Depth 4 versus depth 1 on a clean (fault-free) run: identical
  // checksum, strictly less virtual time, and the posted machinery
  // actually engaged (posted_ops > 0, high-water mark > 1).
  argoapps::MmParams p;
  p.n = 96;
  p.iterations = 2;
  auto run_depth = [&](int depth) {
    ClusterConfig cfg;
    cfg.nodes = 4;
    cfg.threads_per_node = 2;
    cfg.global_mem_bytes = 2048 * kPageSize;
    cfg.cache.cache_lines = 8192;
    cfg.cache.write_buffer_pages = 1024;
    cfg.net.pipeline = depth;
    Cluster cl(cfg);
    const auto r = argoapps::mm_run_argo(cl, p);
    return std::make_pair(r, cl.net_stats());
  };
  const auto [r1, s1] = run_depth(1);
  const auto [r4, s4] = run_depth(4);
  EXPECT_EQ(r1.checksum, r4.checksum);
  EXPECT_EQ(s1.posted_ops, 0u);
  EXPECT_GT(s4.posted_ops, 0u);
  EXPECT_GT(s4.posted_inflight_hwm, 1u);
  EXPECT_LT(r4.elapsed, r1.elapsed);
}

// ---------------------------------------------------------------------------
// ProtocolValidator: clean on healthy configurations, loud on a
// deliberately broken protocol
// ---------------------------------------------------------------------------

TEST(ProtocolValidator, CleanOnHealthyFaultFreeRun) {
  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.threads_per_node = 2;
  cfg.global_mem_bytes = 1024 * kPageSize;
  Cluster cl(cfg);
  ProtocolValidator validator(cl);
  validator.attach();
  argoapps::MmParams p;
  p.n = 64;
  p.iterations = 2;
  const auto r = argoapps::mm_run_argo(cl, p);
  EXPECT_LT(rel_err(r.checksum, argoapps::mm_reference(p)), 1e-12);
  EXPECT_GT(validator.checks_run(), 0u);
  EXPECT_TRUE(validator.violations().empty())
      << validator.violations().front();
}

TEST(ProtocolValidator, CatchesSkippedSelfDowngrade) {
  // Break the protocol on purpose: a node that skips its SD fence leaves
  // pages dirty across the barrier; under PS3 a single-writer page also
  // survives SI, so the post-barrier check must flag it.
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.threads_per_node = 1;
  cfg.global_mem_bytes = 64 * kPageSize;
  cfg.cache.classification = Mode::PS3;
  cfg.cache.debug_skip_sd_fence = true;
  Cluster cl(cfg);
  // Blocked mapping: pages 0..31 homed on node 0, 32..63 on node 1.
  auto data = cl.alloc<std::uint64_t>(
      40 * kPageSize / sizeof(std::uint64_t));
  cl.reset_classification();

  ProtocolValidator validator(cl);
  validator.attach();
  cl.run([&](argo::Thread& t) {
    // Each node writes a page homed on the *other* node, so the write
    // goes through the page cache and stays dirty when SD is skipped.
    const std::size_t per_page = kPageSize / sizeof(std::uint64_t);
    const std::size_t idx = t.node() == 0 ? 35 * per_page : 0;
    t.store(data + idx, std::uint64_t{0xabcd} + t.node());
    t.barrier();
  });
  ASSERT_FALSE(validator.violations().empty());
  bool mentions_dirty = false;
  for (const auto& v : validator.violations())
    if (v.find("still dirty") != std::string::npos) mentions_dirty = true;
  EXPECT_TRUE(mentions_dirty);
}

// ---------------------------------------------------------------------------
// Crash-stop schedules: detection, lease recovery, degraded-mode runs.
// Crashes are deterministic (virtual-time triggers, no RNG draws); the
// seeds vary the *transient* fault pattern layered on top, and every
// scenario must rerun bit-identically per seed.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kCrashSeeds[] = {101, 202, 303};

ClusterConfig crash_cfg(std::uint64_t seed) {
  ClusterConfig c;
  c.nodes = 4;
  c.threads_per_node = 2;
  c.global_mem_bytes = 2048 * kPageSize;
  c.cache.cache_lines = 8192;
  c.cache.write_buffer_pages = 1024;
  c.faults.enabled = true;  // crash schedules ride the fault channel
  c.faults.seed = seed;
  c.faults.rdma_fail_prob = 0.01;  // light transient chaos so seeds matter
  c.membership.enabled = true;
  return c;
}

// Worst-case virtual delay from crash to declaration under crash_cfg:
// miss_threshold heartbeats of misses plus one alignment interval.
Time detect_bound(const ClusterConfig& c) {
  return static_cast<Time>(c.membership.miss_threshold + 2) *
         c.membership.heartbeat_interval;
}

TEST(CrashRecovery, HqdlHolderCrashRecoversViaLease) {
  for (const std::uint64_t seed : kCrashSeeds) {
    auto run_once = [&] {
      ClusterConfig cfg = crash_cfg(seed);
      cfg.faults.crashes.push_back(
          argonet::CrashEvent{.node = 2, .at = 400'000});
      Cluster cl(cfg);
      ProtocolValidator validator(cl);
      validator.attach();
      auto counter = cl.alloc<std::uint64_t>(1);
      argosync::HqdLock lock(cl);
      constexpr int kIncs = 20;
      const Time elapsed = cl.run([&](argo::Thread& t) {
        if (t.node() == 2) {
          // Hog the lock: become this node's helper (thread 0) or park in
          // its delegation queue (thread 1), so the crash lands squarely
          // on the node holding the global MCS lock.
          lock.execute(
              t, [](argo::Thread& th) { for (;;) th.compute(10'000); },
              /*wait=*/true);
          return;  // unreachable: the crash kills this fiber
        }
        t.compute(100'000);  // let node 2 take the lock first
        for (int i = 0; i < kIncs; ++i)
          lock.execute(
              t,
              [&](argo::Thread& th) {
                th.store(counter, th.load(counter) + 1);
              },
              /*wait=*/true);
        t.barrier();
      });
      const std::uint64_t total = *cl.gmem().home_ptr(counter);
      const auto& ms = cl.membership().stats();
      EXPECT_TRUE(validator.violations().empty())
          << "seed " << seed << ": " << validator.violations().front();
      return std::make_tuple(elapsed, total, ms.deaths, ms.locks_recovered);
    };
    const auto [e1, v1, d1, l1] = run_once();
    // Every surviving thread got the lock back after the lease reset.
    EXPECT_EQ(v1, 3u * 2u * 20u) << "seed " << seed;
    EXPECT_EQ(d1, 1u) << "seed " << seed;
    EXPECT_GE(l1, 1u) << "seed " << seed;  // the forced MCS queue reset
    // Same seed, same everything: crash recovery replays bit-identically.
    const auto [e2, v2, d2, l2] = run_once();
    EXPECT_EQ(e1, e2) << "seed " << seed;
    EXPECT_EQ(v1, v2) << "seed " << seed;
    EXPECT_EQ(d1, d2);
    EXPECT_EQ(l1, l2);
  }
}

TEST(CrashRecovery, HomeNodeCrashDuringSdFenceFailsOver) {
  // Every live thread dirties pages homed on node 3, then fences; node 3
  // dies while the write buffers drain, so the writebacks fail over to
  // the reconstructed home on the successor.
  constexpr std::size_t kWordsPerPage = kPageSize / sizeof(std::uint64_t);
  constexpr std::size_t kPagesPerThread = 8;
  for (const std::uint64_t seed : kCrashSeeds) {
    auto run_once = [&] {
      ClusterConfig cfg = crash_cfg(seed);
      cfg.faults.crashes.push_back(
          argonet::CrashEvent{.node = 3, .at = 150'000});
      Cluster cl(cfg);
      ProtocolValidator validator(cl);
      validator.attach();
      // 8 threads × 8 pages at the bottom of node 3's blocked region: all
      // homed on the doomed node. (alloc_on_node is for sub-page sync
      // variables; bulk data just addresses the region directly.)
      const argomem::gptr<std::uint64_t> data{3 * cl.gmem().pages_per_node() *
                                              kPageSize};
      const Time elapsed = cl.run([&](argo::Thread& t) {
        if (t.node() == 3) return;  // the victim contributes nothing
        const std::size_t base =
            static_cast<std::size_t>(t.gid()) * kPagesPerThread;
        for (std::size_t p = 0; p < kPagesPerThread; ++p)
          t.store(data + (base + p) * kWordsPerPage,
                  0xbeef0000u + t.gid() * 100 + p);
        t.barrier();  // SD drain overlaps the crash → failover + retry
        for (std::size_t p = 0; p < kPagesPerThread; ++p)
          EXPECT_EQ(t.load(data + (base + p) * kWordsPerPage),
                    0xbeef0000u + t.gid() * 100 + p)
              << "seed " << seed;
        t.barrier();
      });
      const auto& ms = cl.membership().stats();
      EXPECT_TRUE(validator.violations().empty())
          << "seed " << seed << ": " << validator.violations().front();
      return std::make_tuple(elapsed, ms.deaths, ms.pages_recovered,
                             ms.pages_lost);
    };
    const auto [e1, d1, r1, l1] = run_once();
    EXPECT_EQ(d1, 1u) << "seed " << seed;
    // The survivors' dirty copies rebuilt their pages on the successor.
    EXPECT_GT(r1, 0u) << "seed " << seed;
    const auto [e2, d2, r2, l2] = run_once();
    EXPECT_EQ(e1, e2) << "seed " << seed;
    EXPECT_EQ(d1, d2);
    EXPECT_EQ(r1, r2);
    EXPECT_EQ(l1, l2);
  }
}

TEST(CrashRecovery, BarrierCompletesOverSurvivingView) {
  // Node 1 is the straggler of every round and dies mid-computation; the
  // barrier must complete over the surviving view instead of hanging.
  constexpr int kRounds = 10;
  for (const std::uint64_t seed : kCrashSeeds) {
    auto run_once = [&] {
      ClusterConfig cfg = crash_cfg(seed);
      cfg.faults.crashes.push_back(
          argonet::CrashEvent{.node = 1, .at = 200'000});
      Cluster cl(cfg);
      std::uint64_t rounds_done[8] = {};
      const Time elapsed = cl.run([&](argo::Thread& t) {
        for (int r = 0; r < kRounds; ++r) {
          t.compute(t.node() == 1 ? 500'000 : 20'000);
          t.barrier();
          ++rounds_done[t.gid()];
        }
      });
      std::uint64_t live_rounds = 0;
      for (int g = 0; g < 8; ++g)
        if (g / 2 != 1) live_rounds += rounds_done[g];
      return std::make_tuple(elapsed, live_rounds,
                             cl.membership().stats().deaths);
    };
    const auto [e1, r1, d1] = run_once();
    EXPECT_EQ(r1, 6u * kRounds) << "seed " << seed;  // no survivor stranded
    EXPECT_EQ(d1, 1u) << "seed " << seed;
    const auto [e2, r2, d2] = run_once();
    EXPECT_EQ(e1, e2) << "seed " << seed;
    EXPECT_EQ(r1, r2);
    EXPECT_EQ(d1, d2);
  }
}

TEST(CrashRecovery, UnsharedPageOnDeadHomeIsLost) {
  // A page homed on the victim whose only copies were dropped at an SI
  // fence before the crash is unrecoverable: the directory word names
  // sharers but no survivor holds the data. Recovery zeroes it and counts
  // it lost — reads after recovery see zeros, not stale garbage.
  ClusterConfig cfg = crash_cfg(101);
  cfg.faults.crashes.push_back(argonet::CrashEvent{.node = 3, .at = 600'000});
  Cluster cl(cfg);
  // A page homed on node 3, written by two nodes: multi-writer shared, so
  // BOTH cached copies self-invalidate at the barrier — by crash time no
  // survivor holds the data.
  const argomem::gptr<std::uint64_t> page{3 * cl.gmem().pages_per_node() *
                                          kPageSize};
  std::uint64_t after = ~0ull;
  cl.run([&](argo::Thread& t) {
    if (t.node() == 0 && t.tid() == 0) t.store(page, std::uint64_t{777});
    if (t.node() == 1 && t.tid() == 0) t.store(page + 1, std::uint64_t{888});
    // Everyone (node 3 included) joins this barrier, so it completes
    // healthily long before the crash; the SI fence drops both MW copies.
    t.barrier();
    t.compute(1'500'000);  // node 3 dies at 600k, mid-compute
    t.barrier();  // completes over the surviving view
    if (t.node() == 0 && t.tid() == 0) after = t.load(page);
  });
  EXPECT_EQ(after, 0u);  // lost page reads as zeros after failover
  EXPECT_GE(cl.membership().stats().pages_lost, 1u);
  EXPECT_EQ(cl.membership().stats().deaths, 1u);
}

TEST(CrashRecovery, FailedFillStillNotifiesTheDisplacedOwner) {
  // A three-page line straddling a live and a doomed home. Node 2 reads it
  // first (private owner); after node 1 dies, node 3's miss registers at
  // the live directory home (P→S, displacing node 2) and then the fill's
  // read from the dead home fails. The transition's deferred invalidation
  // must still reach node 2: the retry after failover finds node 3's bit
  // already in the home entry and displaces nobody.
  for (const int pipeline : {1, 16}) {
    ClusterConfig cfg = crash_cfg(101);
    cfg.faults.rdma_fail_prob = 0;  // crash only: just the dead home fails
    cfg.net.pipeline = pipeline;
    cfg.cache.pages_per_line = 3;
    cfg.faults.crashes.push_back(argonet::CrashEvent{.node = 1, .at = 200'000});
    Cluster cl(cfg);
    // Line [510, 513): pages 510-511 (and the line's directory word) homed
    // on node 0, page 512 on node 1.
    constexpr std::uint64_t kFirst = 510;
    ASSERT_EQ(cl.gmem().home_of_page(kFirst), 0);
    ASSERT_EQ(cl.gmem().home_of_page(kFirst + 2), 1);
    const argomem::gptr<std::uint64_t> word{kFirst * kPageSize};
    std::uint64_t seen = ~0ull;
    cl.run([&](argo::Thread& t) {
      if (t.tid() != 0) return;
      if (t.node() == 2) t.load(word);
      if (t.node() == 3) {
        t.compute(210'000);  // crashed, not yet declared
        seen = t.load(word);
      }
    });
    const std::string what = "pipeline " + std::to_string(pipeline);
    EXPECT_EQ(seen, 0u) << what;
    EXPECT_EQ(cl.membership().stats().deaths, 1u) << what;
    // The fill did fail and was retried after recovery.
    EXPECT_GE(cl.membership().stats().aborted_ops, 1u) << what;
    EXPECT_TRUE(cl.dir().cache_get(2, kFirst).is_accessor(3)) << what;
  }
}

TEST(CrashRecovery, DetectionAndRejoinAsFreshNode) {
  ClusterConfig cfg = crash_cfg(202);
  cfg.faults.crashes.push_back(argonet::CrashEvent{
      .node = 2, .at = 200'000, .rejoin_at = 1'500'000});
  Cluster cl(cfg);
  const auto& svc = cl.membership();
  Time declared_at = 0;
  bool live_mid_run = true;
  cl.run([&](argo::Thread& t) {
    if (t.node() != 0 || t.tid() != 0) {
      t.compute(3'000'000);
      return;
    }
    // Wait out detection, note the declaration time, then the rejoin.
    while (svc.is_live(2)) t.compute(10'000);
    declared_at = t.now();
    live_mid_run = svc.is_live(2);
    t.compute(3'000'000 - (t.now() - 0));
  });
  EXPECT_FALSE(live_mid_run);
  EXPECT_GT(declared_at, 200'000);
  EXPECT_LE(declared_at, 200'000 + detect_bound(cfg));
  // Rejoined as a fresh node: probed live again, but permanently departed
  // from collectives and its old worker fibers are gone for good.
  EXPECT_TRUE(svc.is_live(2));
  EXPECT_EQ(svc.stats().deaths, 1u);
  EXPECT_EQ(svc.stats().rejoins, 1u);
  EXPECT_TRUE(svc.departed_set().test(2));
  EXPECT_GE(svc.epoch(), 2u);
  EXPECT_EQ(svc.stats().detect_ns.samples, 1u);
}

TEST(CrashRecovery, HighNodeDeathAt128NodesRebuildsUpperWords) {
  // 128 nodes: four-word directory entries on every page. The victim sits
  // past node 31, so its reader/writer bits — and the survivor-OR rebuild
  // and scrub that must clear them — live in the entry's last word, the
  // region the old single-word encoding could not even represent.
  ClusterConfig cfg = crash_cfg(404);
  cfg.nodes = 128;
  cfg.threads_per_node = 1;
  cfg.cache.cache_lines = 1024;
  cfg.global_mem_bytes = 1024 * kPageSize;  // 8 pages per node
  constexpr int kVictim = 100;
  cfg.faults.crashes.push_back(
      argonet::CrashEvent{.node = kVictim, .at = 5'000'000});
  Cluster cl(cfg);
  // pageA: homed on node 0, read by the victim before dying — the
  // victim's reader bit lands in entry word 3.
  const argomem::gptr<std::uint64_t> pageA{0};
  // pageB: homed on the victim, privately written by node 0 — recoverable
  // from the survivor's copy after the home dies.
  const argomem::gptr<std::uint64_t> pageB{
      static_cast<std::uint64_t>(kVictim) * cl.gmem().pages_per_node() *
      kPageSize};
  std::uint64_t after = 0;
  cl.run([&](argo::Thread& t) {
    if (t.node() == 0) {
      t.store(pageA, std::uint64_t{111});
      t.store(pageB, std::uint64_t{222});
    }
    t.barrier();
    if (t.node() == kVictim) (void)t.load(pageA);
    t.barrier();
    t.compute(15'000'000);  // victim dies at 5ms, mid-compute
    t.barrier();            // completes over the surviving view
    if (t.node() == 0) after = t.load(pageB);
  });
  EXPECT_EQ(after, 222u);
  EXPECT_EQ(cl.membership().stats().deaths, 1u);
  EXPECT_FALSE(cl.membership().is_live(kVictim));
  EXPECT_GE(cl.membership().stats().pages_recovered, 1u);
  // The victim's bits are gone from pageA's home entry (word 3), while
  // node 0's own registration survives untouched in word 0.
  const argodir::DirEntry entry = cl.dir().host_entry(0);
  EXPECT_FALSE(entry.is_reader(kVictim));
  EXPECT_FALSE(entry.is_writer(kVictim));
  EXPECT_TRUE(entry.is_writer(0));
}

TEST(CrashRecovery, MembershipIdleRunsAreBitIdentical) {
  // Membership enabled but no crash schedule: the heartbeat machinery must
  // be deterministic, and two runs must agree to the virtual nanosecond.
  auto run_once = [] {
    ClusterConfig cfg = crash_cfg(303);
    Cluster cl(cfg);
    argoapps::MmParams p;
    p.n = 64;
    p.iterations = 1;
    const auto r = argoapps::mm_run_argo(cl, p);
    return std::make_tuple(r.elapsed, r.checksum,
                           cl.membership().stats().probes,
                           cl.membership().stats().deaths);
  };
  const auto [e1, c1, p1, d1] = run_once();
  const auto [e2, c2, p2, d2] = run_once();
  EXPECT_EQ(e1, e2);
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(p1, p2);
  EXPECT_GT(p1, 0u);
  EXPECT_EQ(d1, 0u);
  EXPECT_EQ(d1, d2);
}

// ---------------------------------------------------------------------------
// Directed timeout paths: a bounded wait must fail fast once the peer it
// depends on is dead, not ride out the full timeout.
// ---------------------------------------------------------------------------

TEST(CrashTimeouts, SimMutexTryLockFailsFastWhenHolderKilled) {
  Engine eng;
  argosim::SimMutex m;
  bool got = true;
  Time returned_at = 0;
  argosim::SimThread* holder = eng.spawn("holder", [&] {
    m.lock();
    argosim::delay(1'000'000'000);
    m.unlock();
  });
  eng.spawn("killer", [&] {
    argosim::delay(50'000);
    Engine::current()->kill(holder);
  });
  eng.spawn("waiter", [&] {
    argosim::delay(1'000);
    got = m.try_lock_for(10'000'000);
    returned_at = argosim::now();
  });
  eng.run();
  EXPECT_FALSE(got);  // a dead holder can never hand over
  // Noticed within the owner poll granularity, nowhere near the deadline.
  EXPECT_LT(returned_at, 50'000 + 3 * argosim::SimMutex::kOwnerPoll);
}

TEST(CrashTimeouts, McsTryAcquireFailsFastWhenTailNodeDead) {
  ClusterConfig cfg = crash_cfg(101);
  cfg.threads_per_node = 1;
  cfg.faults.crashes.push_back(argonet::CrashEvent{.node = 1, .at = 300'000});
  Cluster cl(cfg);
  argosync::GlobalMcsLock lock(cl);
  bool got = true;
  Time returned_at = 0;
  cl.run([&](argo::Thread& t) {
    if (t.node() == 1) {
      lock.acquire(t);
      for (;;) t.compute(10'000);  // die holding the lock
    }
    if (t.node() == 0) {
      t.compute(100'000);  // let node 1 take the lock first
      got = lock.try_acquire_for(t, 50'000'000);
      returned_at = t.now();
    }
  });
  EXPECT_FALSE(got);
  // Returned at the death declaration, far before the 50 ms deadline.
  EXPECT_LT(returned_at, 300'000 + detect_bound(cfg) + 100'000);
}

TEST(CrashTimeouts, DsmMutexTryLockFailsFastWhenHolderNodeDead) {
  ClusterConfig cfg = crash_cfg(202);
  cfg.threads_per_node = 1;
  cfg.faults.crashes.push_back(argonet::CrashEvent{.node = 1, .at = 300'000});
  Cluster cl(cfg);
  argosync::DsmMutex mtx(cl);
  bool got = true;
  Time returned_at = 0;
  cl.run([&](argo::Thread& t) {
    if (t.node() == 1) {
      mtx.lock(t);
      for (;;) t.compute(10'000);
    }
    if (t.node() == 0) {
      t.compute(100'000);
      got = mtx.try_lock_for(t, 50'000'000);
      returned_at = t.now();
    }
  });
  EXPECT_FALSE(got);
  EXPECT_LT(returned_at, 300'000 + detect_bound(cfg) + 100'000);
}

// ---------------------------------------------------------------------------
// Full mini-apps surviving one crash, with the epoch-aware validator on
// ---------------------------------------------------------------------------

TEST(CrashRecoveryApps, LuSurvivesOneCrash) {
  auto run_once = [] {
    ClusterConfig cfg = crash_cfg(101);
    // The fault-free run takes ~731k virtual ns; 400k lands mid-run.
    cfg.faults.crashes.push_back(
        argonet::CrashEvent{.node = 3, .at = 400'000});
    Cluster cl(cfg);
    ProtocolValidator validator(cl);
    validator.attach();
    argoapps::LuParams p;
    p.n = 128;
    p.block = 32;
    const auto r = argoapps::lu_run_argo(cl, p);
    EXPECT_GT(validator.checks_run(), 0u);
    EXPECT_TRUE(validator.violations().empty())
        << validator.violations().front();
    EXPECT_EQ(cl.membership().stats().deaths, 1u);
    return std::make_pair(r.elapsed, r.checksum);
  };
  const auto [e1, c1] = run_once();
  const auto [e2, c2] = run_once();
  EXPECT_EQ(e1, e2);  // degraded-mode runs replay bit-identically
  EXPECT_EQ(c1, c2);
}

TEST(CrashRecoveryApps, MmSurvivesOneCrash) {
  auto run_once = [] {
    ClusterConfig cfg = crash_cfg(202);
    // The fault-free run takes ~458k virtual ns; 250k lands mid-run.
    cfg.faults.crashes.push_back(
        argonet::CrashEvent{.node = 2, .at = 250'000});
    Cluster cl(cfg);
    ProtocolValidator validator(cl);
    validator.attach();
    argoapps::MmParams p;
    p.n = 96;
    p.iterations = 2;
    const auto r = argoapps::mm_run_argo(cl, p);
    EXPECT_GT(validator.checks_run(), 0u);
    EXPECT_TRUE(validator.violations().empty())
        << validator.violations().front();
    EXPECT_EQ(cl.membership().stats().deaths, 1u);
    return std::make_pair(r.elapsed, r.checksum);
  };
  const auto [e1, c1] = run_once();
  const auto [e2, c2] = run_once();
  EXPECT_EQ(e1, e2);
  EXPECT_EQ(c1, c2);
}

TEST(CrashRecoveryApps, EpSurvivesOneCrash) {
  auto run_once = [] {
    ClusterConfig cfg = crash_cfg(303);
    // The fault-free run takes ~142k virtual ns; the death is declared
    // while the survivors wait at the final barrier.
    cfg.faults.crashes.push_back(
        argonet::CrashEvent{.node = 1, .at = 70'000});
    Cluster cl(cfg);
    ProtocolValidator validator(cl);
    validator.attach();
    argoapps::EpParams p;
    p.log2_pairs = 14;
    p.chunks = 64;
    const auto r = argoapps::ep_run_argo(cl, p);
    EXPECT_GT(validator.checks_run(), 0u);
    EXPECT_TRUE(validator.violations().empty())
        << validator.violations().front();
    EXPECT_EQ(cl.membership().stats().deaths, 1u);
    return std::make_pair(r.elapsed, r.tally.sx);
  };
  const auto [e1, s1] = run_once();
  const auto [e2, s2] = run_once();
  EXPECT_EQ(e1, e2);
  EXPECT_EQ(s1, s2);
}

TEST(ProtocolValidator, QuiescentChecksPassMidRun) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.threads_per_node = 1;
  cfg.global_mem_bytes = 64 * kPageSize;
  Cluster cl(cfg);
  auto data = cl.alloc<std::uint64_t>(kPageSize / sizeof(std::uint64_t));
  cl.reset_classification();
  ProtocolValidator validator(cl);
  cl.run([&](argo::Thread& t) {
    if (t.node() == 1) {
      t.store(data, std::uint64_t{7});  // dirty page cached on node 1
      validator.check(1);  // anytime invariants hold with dirty data live
    }
    t.barrier();
  });
  EXPECT_GT(validator.checks_run(), 0u);
  EXPECT_TRUE(validator.violations().empty())
      << validator.violations().front();
}

}  // namespace
