// Unit tests for the simulated interconnect (src/net).
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "net/interconnect.hpp"
#include "sim/engine.hpp"

namespace argonet {
namespace {

using argosim::Engine;
using argosim::Time;

NetConfig test_cfg() {
  NetConfig c;
  c.rdma_latency = 1000;
  c.msg_latency = 1000;
  c.nic_overhead = 100;
  c.net_bytes_per_ns = 2.0;
  c.mem_latency = 50;
  c.mem_bytes_per_ns = 10.0;
  return c;
}

TEST(NetConfig, TransferArithmetic) {
  NetConfig c = test_cfg();
  EXPECT_EQ(c.net_transfer(4096), 2048u);
  EXPECT_EQ(c.net_transfer(0), 0u);
  EXPECT_EQ(c.mem_copy(4096), 409u);  // truncating division
}

TEST(NodeTopology, NumaGroupsAndTransferCosts) {
  NodeTopology t;
  EXPECT_EQ(t.numa_group_of(0), 0);
  EXPECT_EQ(t.numa_group_of(3), 0);
  EXPECT_EQ(t.numa_group_of(4), 1);
  EXPECT_EQ(t.numa_group_of(15), 3);
  EXPECT_EQ(t.cacheline_transfer(2, 2), t.l1_hit);
  EXPECT_EQ(t.cacheline_transfer(0, 3), t.cacheline_same_numa);
  EXPECT_EQ(t.cacheline_transfer(0, 12), t.cacheline_cross_numa);
}

TEST(Interconnect, RemoteReadCostAndData) {
  Engine eng;
  Interconnect net(2, test_cfg());
  std::uint64_t remote = 0xdeadbeef;
  eng.spawn("t", [&] {
    std::uint64_t local = 0;
    net.read(0, 1, &remote, &local, sizeof(local));
    EXPECT_EQ(local, 0xdeadbeefu);
    // nic_overhead + 8B/2.0 + rdma_latency = 100 + 4 + 1000
    EXPECT_EQ(argosim::now(), 1104u);
  });
  eng.run();
  EXPECT_EQ(net.stats(0).rdma_reads, 1u);
  EXPECT_EQ(net.stats(0).bytes_read, 8u);
  EXPECT_EQ(net.stats(1).rdma_reads, 0u);
}

TEST(Interconnect, RemoteWriteAppliesAtCompletion) {
  Engine eng;
  Interconnect net(2, test_cfg());
  std::uint64_t remote = 0;
  eng.spawn("writer", [&] {
    std::uint64_t v = 42;
    net.write(0, 1, &remote, &v, sizeof(v));
  });
  eng.spawn("observer", [&] {
    argosim::delay(500);  // mid-flight
    EXPECT_EQ(remote, 0u);
    argosim::delay(1000);  // past completion (1104)
    EXPECT_EQ(remote, 42u);
  });
  eng.run();
}

TEST(Interconnect, LocalOpsAreCheapAndBypassTheNic) {
  Engine eng;
  Interconnect net(1, test_cfg());
  std::uint64_t cell = 7;
  eng.spawn("t", [&] {
    std::uint64_t v = 0;
    net.read(0, 0, &cell, &v, sizeof(v));
    EXPECT_EQ(v, 7u);
    EXPECT_EQ(argosim::now(), 50u);  // mem_latency only for 8 bytes (50 + 0)
  });
  eng.run();
}

TEST(Interconnect, AtomicsReturnPreviousValue) {
  Engine eng;
  Interconnect net(2, test_cfg());
  std::uint64_t word = 0b0011;
  eng.spawn("t", [&] {
    EXPECT_EQ(net.fetch_or(0, 1, &word, 0b0110), 0b0011u);
    EXPECT_EQ(word, 0b0111u);
    EXPECT_EQ(net.fetch_add(0, 1, &word, 1), 0b0111u);
    EXPECT_EQ(word, 8u);
    EXPECT_EQ(net.cas(0, 1, &word, 8, 100), 8u);
    EXPECT_EQ(word, 100u);
    EXPECT_EQ(net.cas(0, 1, &word, 8, 200), 100u);  // fails
    EXPECT_EQ(word, 100u);
  });
  eng.run();
  EXPECT_EQ(net.stats(0).rdma_atomics, 4u);
}

TEST(Interconnect, NicSerializesOpsFromOneNode) {
  Engine eng;
  NetConfig cfg = test_cfg();
  Interconnect net(2, cfg);
  std::vector<std::byte> remote(4096);
  std::vector<std::byte> a(4096), b(4096);
  Time done_a = 0, done_b = 0;
  // Two threads on node 0 issue 4 KiB reads simultaneously: the second
  // holds off while the first streams through the NIC.
  eng.spawn("a", [&] {
    net.read(0, 1, remote.data(), a.data(), 4096);
    done_a = argosim::now();
  });
  eng.spawn("b", [&] {
    net.read(0, 1, remote.data(), b.data(), 4096);
    done_b = argosim::now();
  });
  eng.run();
  const Time busy = 100 + 4096 / 2;  // nic_overhead + streaming
  EXPECT_EQ(done_a, busy + 1000);
  EXPECT_EQ(done_b, 2 * busy + 1000);  // NIC held by a first
}

TEST(Interconnect, NicSerializationCanBeDisabled) {
  Engine eng;
  NetConfig cfg = test_cfg();
  cfg.serialize_nic = false;
  Interconnect net(2, cfg);
  std::vector<std::byte> remote(4096), a(4096), b(4096);
  Time done_a = 0, done_b = 0;
  eng.spawn("a", [&] {
    net.read(0, 1, remote.data(), a.data(), 4096);
    done_a = argosim::now();
  });
  eng.spawn("b", [&] {
    net.read(0, 1, remote.data(), b.data(), 4096);
    done_b = argosim::now();
  });
  eng.run();
  EXPECT_EQ(done_a, done_b);  // fully parallel
}

TEST(Interconnect, DifferentNodesNicsAreIndependent) {
  Engine eng;
  Interconnect net(3, test_cfg());
  std::vector<std::byte> remote(4096), a(4096), b(4096);
  Time done_a = 0, done_b = 0;
  eng.spawn("a", [&] {
    net.read(0, 2, remote.data(), a.data(), 4096);
    done_a = argosim::now();
  });
  eng.spawn("b", [&] {
    net.read(1, 2, remote.data(), b.data(), 4096);
    done_b = argosim::now();
  });
  eng.run();
  EXPECT_EQ(done_a, done_b);  // different source NICs
}

TEST(Interconnect, MessageDeliveryAfterLatency) {
  Engine eng;
  Interconnect net(2, test_cfg());
  Time received_at = 0;
  eng.spawn("rx", [&] {
    Message m = net.recv(1);
    received_at = argosim::now();
    EXPECT_EQ(m.src, 0);
    EXPECT_EQ(m.tag, 5);
    EXPECT_EQ(m.a, 99u);
  });
  eng.spawn("tx", [&] {
    Message m;
    m.src = 0;
    m.dst = 1;
    m.tag = 5;
    m.a = 99;
    net.send(std::move(m));
  });
  eng.run();
  // posting (100 + 40/2=20) then 1000 wire latency
  EXPECT_EQ(received_at, 1120u);
  EXPECT_EQ(net.stats(0).msgs_sent, 1u);
  EXPECT_EQ(net.stats(1).msgs_received, 1u);
}

TEST(Interconnect, MessagesFifoPerSender) {
  Engine eng;
  Interconnect net(2, test_cfg());
  std::vector<int> order;
  eng.spawn("rx", [&] {
    for (int i = 0; i < 6; ++i) order.push_back(net.recv(1).tag);
  });
  eng.spawn("tx", [&] {
    for (int i = 0; i < 6; ++i) {
      Message m;
      m.src = 0;
      m.dst = 1;
      m.tag = i;
      net.send(std::move(m));
    }
  });
  eng.run();
  std::vector<int> expect{0, 1, 2, 3, 4, 5};
  EXPECT_EQ(order, expect);
}

TEST(Interconnect, TryRecvAndPollRespectDeliveryTime) {
  Engine eng;
  Interconnect net(2, test_cfg());
  eng.spawn("t", [&] {
    Message m;
    m.src = 0;
    m.dst = 1;
    net.send(std::move(m));
    // Sent but not yet delivered (wire latency pending).
    EXPECT_FALSE(net.poll(1));
    EXPECT_FALSE(net.try_recv(1).has_value());
    argosim::delay(2000);
    EXPECT_TRUE(net.poll(1));
    EXPECT_TRUE(net.try_recv(1).has_value());
    EXPECT_FALSE(net.poll(1));
  });
  eng.run();
}

TEST(Interconnect, PayloadBytesAndStatReset) {
  Engine eng;
  Interconnect net(2, test_cfg());
  std::vector<std::byte> remote(123), local(123);
  eng.spawn("t", [&] {
    Message m;
    m.src = 0;
    m.dst = 1;
    m.payload.resize(1000);
    net.send(std::move(m));
    net.write(0, 1, remote.data(), local.data(), remote.size());
  });
  eng.run();
  EXPECT_EQ(net.stats(0).bytes_sent, 1000u);
  EXPECT_EQ(net.stats(0).bytes_written, 123u);
  EXPECT_EQ(net.total_stats().msgs_sent, 1u);
  net.reset_stats();
  EXPECT_EQ(net.total_stats().total_ops(), 0u);
}

TEST(WaitQueueTimed, TimeoutAndNotifyPaths) {
  Engine eng;
  argosim::WaitQueue q;
  bool notified_result = true, timeout_result = true;
  eng.spawn("timeout", [&] { timeout_result = q.wait_for(100); });
  eng.spawn("notified", [&] { notified_result = q.wait_for(1000); });
  eng.spawn("notifier", [&] {
    argosim::delay(500);
    q.notify_one();  // the timeout waiter is gone; wakes "notified"
  });
  eng.run();
  EXPECT_FALSE(timeout_result);
  EXPECT_TRUE(notified_result);
  EXPECT_EQ(q.waiters(), 0u);
}

TEST(Interconnect, SameTimestampMessagesDeliverInSendOrder) {
  // Two messages posted back-to-back with identical wire parameters land
  // at the same virtual instant; the (deliver_at, seq) tie-break must
  // hand them out in send order.
  Engine eng;
  NetConfig c = test_cfg();
  c.nic_overhead = 0;
  c.net_bytes_per_ns = 1e9;  // streaming time rounds to zero
  Interconnect net(2, c);
  eng.spawn("tx", [&] {
    for (int i = 1; i <= 3; ++i) {
      Message m;
      m.src = 0;
      m.dst = 1;
      m.tag = i;
      net.send(std::move(m));
    }
  });
  eng.spawn("rx", [&] {
    for (int i = 1; i <= 3; ++i) {
      Message m = net.recv(1);
      EXPECT_EQ(m.tag, i);
    }
  });
  eng.run();
  EXPECT_EQ(net.stats(1).msgs_received, 3u);
}

TEST(Interconnect, TryRecvDrainsQueueAndReportsEmpty) {
  Engine eng;
  Interconnect net(2, test_cfg());
  eng.spawn("t", [&] {
    Message m;
    m.src = 0;
    m.dst = 1;
    m.tag = 7;
    net.send(std::move(m));
    // The message is still in flight (msg_latency ahead of now).
    EXPECT_FALSE(net.poll(1));
    EXPECT_FALSE(net.try_recv(1).has_value());
    argosim::delay(test_cfg().msg_latency);
    EXPECT_TRUE(net.poll(1));
    auto got = net.try_recv(1);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->tag, 7);
    // Queue drained: poll and try_recv report empty again.
    EXPECT_FALSE(net.poll(1));
    EXPECT_FALSE(net.try_recv(1).has_value());
  });
  eng.run();
}

TEST(Interconnect, RecvForTimesOutAndReturnsEarlyArrivals) {
  Engine eng;
  Interconnect net(2, test_cfg());
  eng.spawn("rx", [&] {
    // Nothing in flight: times out at exactly the deadline.
    EXPECT_FALSE(net.recv_for(1, 300).has_value());
    EXPECT_EQ(argosim::now(), 300u);
    // A message arriving before the deadline is returned at delivery time.
    auto got = net.recv_for(1, 1u << 20);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->tag, 9);
  });
  eng.spawn("tx", [&] {
    argosim::delay(500);
    Message m;
    m.src = 0;
    m.dst = 1;
    m.tag = 9;
    net.send(std::move(m));
  });
  eng.run();
}

// --- Posted (asynchronous) verbs -------------------------------------------

TEST(PostedVerbs, DepthOneIsExactlyTheBlockingVerb) {
  Engine eng;
  Interconnect net(2, test_cfg());  // pipeline defaults to 1
  std::uint64_t remote = 0xabcd;
  eng.spawn("t", [&] {
    std::uint64_t local = 0;
    PostedHandle h = net.post_read(0, 1, &remote, &local, sizeof(local));
    // Degenerates to the blocking read: data landed and the full cost was
    // charged before post_read returned.
    EXPECT_EQ(local, 0xabcdu);
    EXPECT_EQ(argosim::now(), 1104u);
    net.wait(h);  // inert
    EXPECT_EQ(argosim::now(), 1104u);
  });
  eng.run();
  EXPECT_EQ(net.stats(0).rdma_reads, 1u);
  EXPECT_EQ(net.stats(0).posted_ops, 0u);  // depth 1 posts nothing
}

// Every remote verb, blocking and as a depth-1 post, on a one-shard engine
// and on a two-shard engine, fault-free and under one chaos seed: the two
// forms must charge, count and move exactly the same bytes, and so must
// both engine shapes.

struct VerbMem {
  std::array<std::uint64_t, 8> remote{};  // node 1's memory
  std::array<std::uint64_t, 8> local{};   // node 0's memory
  std::vector<std::uint64_t> values;      // what the verbs returned
  std::uint64_t notified = 0;             // on_remote callbacks (node 1)
};

// Issue verb op `i` from node 0 against node 1, blocking or posted.
using IssueFn = void (*)(Interconnect&, VerbMem&, int i, bool post);

struct VerbCase {
  const char* name;
  IssueFn issue;
};

const VerbCase kVerbCases[] = {
    {"read",
     [](Interconnect& net, VerbMem& m, int i, bool post) {
       const int k = i % 7;
       if (post)
         net.wait(net.post_read(0, 1, &m.remote[k], &m.local[k], 16));
       else
         net.read(0, 1, &m.remote[k], &m.local[k], 16);
     }},
    {"write",
     [](Interconnect& net, VerbMem& m, int i, bool post) {
       m.local[i % 8] = static_cast<std::uint64_t>(3 * i + 1);
       std::uint64_t* to = &m.remote[(i + 3) % 8];
       if (post)
         net.wait(net.post_write(0, 1, to, &m.local[i % 8], 8));
       else
         net.write(0, 1, to, &m.local[i % 8], 8);
     }},
    {"write_gather",
     [](Interconnect& net, VerbMem& m, int i, bool post) {
       m.local[0] = static_cast<std::uint64_t>(i);
       m.local[1] = static_cast<std::uint64_t>(10 * i);
       m.local[2] = static_cast<std::uint64_t>(100 * i);
       const std::vector<GatherRun> runs{
           {&m.remote[i % 8], &m.local[0], 8},
           {&m.remote[(i + 5) % 7], &m.local[1], 16}};
       if (post)
         net.wait(net.post_write_gather(0, 1, runs, 8));
       else
         net.write_gather(0, 1, runs, 8);
     }},
    {"fetch_or",
     [](Interconnect& net, VerbMem& m, int i, bool post) {
       const std::uint64_t bits = std::uint64_t{1} << (i % 64);
       m.values.push_back(
           post ? net.wait(net.post_fetch_or(0, 1, &m.remote[i % 8], bits))
                : net.fetch_or(0, 1, &m.remote[i % 8], bits));
     }},
    {"fetch_or_on_remote",
     [](Interconnect& net, VerbMem& m, int i, bool post) {
       const std::uint64_t bits = std::uint64_t{1} << (i % 64);
       auto on_remote = [&m](std::uint64_t old) { m.notified += old + 1; };
       m.values.push_back(
           post ? net.wait(net.post_fetch_or(0, 1, &m.remote[i % 8], bits,
                                             on_remote))
                : net.fetch_or(0, 1, &m.remote[i % 8], bits, on_remote));
     }},
    {"fetch_or_span",
     [](Interconnect& net, VerbMem& m, int i, bool post) {
       const std::uint64_t bits[3] = {std::uint64_t{1} << i,
                                      std::uint64_t{2} << i,
                                      std::uint64_t{4} << i};
       if (post) {
         m.values.push_back(net.wait(net.post_fetch_or_span(
             0, 1, &m.remote[i % 5], bits, 3, &m.local[0])));
       } else {
         net.fetch_or_span(0, 1, &m.remote[i % 5], bits, 3, &m.local[0]);
         m.values.push_back(m.local[0]);
       }
     }},
    {"fetch_add",
     [](Interconnect& net, VerbMem& m, int i, bool post) {
       const auto v = static_cast<std::uint64_t>(i + 1);
       m.values.push_back(
           post ? net.wait(net.post_fetch_add(0, 1, &m.remote[i % 8], v))
                : net.fetch_add(0, 1, &m.remote[i % 8], v));
     }},
    {"cas",
     [](Interconnect& net, VerbMem& m, int i, bool post) {
       // Every other op guesses the initial word right and swaps.
       const auto expected = static_cast<std::uint64_t>(i % 8 + 1);
       const auto desired = static_cast<std::uint64_t>(100 + i);
       m.values.push_back(
           post ? net.wait(net.post_cas(0, 1, &m.remote[i % 8], expected,
                                        desired))
                : net.cas(0, 1, &m.remote[i % 8], expected, desired));
     }},
    {"exchange",
     [](Interconnect& net, VerbMem& m, int i, bool) {
       // No posted form: the blocking verb is compared across engines.
       m.values.push_back(net.exchange(0, 1, &m.remote[i % 8],
                                       static_cast<std::uint64_t>(7 * i)));
     }},
};

struct VerbOutcome {
  Time done = 0;
  std::vector<std::uint64_t> stats;  // every NodeNetStats field, node 0
  VerbMem mem;
  int failures = 0;  // ops that threw NetworkError after their retry budget
};

std::vector<std::uint64_t> stat_fields(const NodeNetStats& s) {
  return {s.rdma_reads,      s.rdma_writes,
          s.rdma_atomics,    s.msgs_sent,
          s.msgs_received,   s.bytes_read,
          s.bytes_written,   s.bytes_sent,
          static_cast<std::uint64_t>(s.nic_busy),
          s.faults_injected, s.retries,
          static_cast<std::uint64_t>(s.backoff_time),
          s.posted_ops,      s.posted_inflight_hwm};
}

// `sharded` false: the default one-shard engine; true: two shards, one
// per node.
VerbOutcome run_verb_case(const VerbCase& vc, bool post, bool sharded,
                          bool chaos) {
  Engine eng;
  if (sharded) eng.enable_sharding(2, 1000);
  Interconnect net(2, test_cfg());
  if (chaos) {
    FaultConfig f;
    f.enabled = true;
    f.seed = 11;
    f.rdma_fail_prob = 0.25;
    f.jitter_prob = 0.3;
    f.jitter_max = 700;
    f.brownout_mean_interval = 20000;
    f.brownout_mean_duration = 6000;
    net.enable_faults(f);
  }
  VerbOutcome out;
  for (std::size_t k = 0; k < out.mem.remote.size(); ++k)
    out.mem.remote[k] = k + 1;
  auto body = [&] {
    for (int i = 0; i < 24; ++i) {
      try {
        vc.issue(net, out.mem, i, post);
      } catch (const NetworkError&) {
        ++out.failures;
      }
    }
    out.done = argosim::now();
  };
  eng.spawn_on(0, "issuer", body);
  eng.run();
  out.stats = stat_fields(net.stats(0));
  return out;
}

void expect_same_outcome(const VerbOutcome& a, const VerbOutcome& b,
                         const std::string& what) {
  EXPECT_EQ(a.done, b.done) << what;
  EXPECT_EQ(a.stats, b.stats) << what;
  EXPECT_EQ(a.mem.remote, b.mem.remote) << what;
  EXPECT_EQ(a.mem.local, b.mem.local) << what;
  EXPECT_EQ(a.mem.values, b.mem.values) << what;
  EXPECT_EQ(a.mem.notified, b.mem.notified) << what;
  EXPECT_EQ(a.failures, b.failures) << what;
}

TEST(PostedVerbs, EveryVerbAtDepthOneEqualsItsBlockingForm) {
  for (const VerbCase& vc : kVerbCases) {
    for (const bool chaos : {false, true}) {
      const VerbOutcome one_shard = run_verb_case(vc, false, false, chaos);
      for (const bool sharded : {false, true}) {
        const std::string what = std::string(vc.name) +
                                 (sharded ? " two shards" : " one shard") +
                                 (chaos ? " chaos" : " fault-free");
        const VerbOutcome blocking = run_verb_case(vc, false, sharded, chaos);
        expect_same_outcome(blocking, run_verb_case(vc, true, sharded, chaos),
                            what);
        // Fault draws come from per-node streams, so every engine shape
        // sees the same pattern, chaos included.
        expect_same_outcome(one_shard, blocking, what + " vs one shard");
        EXPECT_GT(blocking.done, 0u) << what;
        if (chaos) {
          EXPECT_GT(blocking.stats[9], 0u) << what << ": no faults injected";
        }
      }
    }
  }
}

TEST(PostedVerbs, WireLatencyOverlapsAcrossInFlightOps) {
  Engine eng;
  NetConfig cfg = test_cfg();
  cfg.pipeline = 4;
  Interconnect net(2, cfg);
  std::uint64_t remote[4] = {1, 2, 3, 4};
  std::uint64_t local[4] = {};
  eng.spawn("t", [&] {
    for (int i = 0; i < 4; ++i) {
      net.post_read(0, 1, &remote[i], &local[i], 8);
      // Each post returns after its NIC charge only (100 + 8/2 = 104).
      EXPECT_EQ(argosim::now(), 104u * static_cast<Time>(i + 1));
      EXPECT_EQ(local[i], 0u);  // still in flight
    }
    net.wait_all(0);
    // Completions: 104*i + 1000 for op i — the last retires at 1416,
    // versus 4*1104 = 4416 if issued blocking.
    EXPECT_EQ(argosim::now(), 1416u);
    for (int i = 0; i < 4; ++i)
      EXPECT_EQ(local[i], static_cast<std::uint64_t>(i + 1));
  });
  eng.run();
  EXPECT_EQ(net.stats(0).rdma_reads, 4u);
  EXPECT_EQ(net.stats(0).posted_ops, 4u);
  EXPECT_EQ(net.stats(0).posted_inflight_hwm, 4u);
}

TEST(PostedVerbs, FullQueueBlocksUntilHeadRetires) {
  Engine eng;
  NetConfig cfg = test_cfg();
  cfg.pipeline = 2;
  Interconnect net(2, cfg);
  std::uint64_t remote[3] = {7, 8, 9};
  std::uint64_t local[3] = {};
  eng.spawn("t", [&] {
    net.post_read(0, 1, &remote[0], &local[0], 8);  // completes 1104
    net.post_read(0, 1, &remote[1], &local[1], 8);  // completes 1208
    EXPECT_EQ(argosim::now(), 208u);
    // Queue is full: the third post parks until op 0 retires at 1104,
    // then charges its own 104 and completes at 1104 + 104 + 1000 = 2208.
    net.post_read(0, 1, &remote[2], &local[2], 8);
    EXPECT_EQ(argosim::now(), 1208u);
    EXPECT_EQ(local[0], 7u);  // head applied when reclaimed
    net.wait_all(0);
    EXPECT_EQ(argosim::now(), 2208u);
    EXPECT_EQ(local[2], 9u);
  });
  eng.run();
  EXPECT_EQ(net.stats(0).posted_inflight_hwm, 2u);
}

TEST(PostedVerbs, WaitRetiresPredecessorsInOrder) {
  Engine eng;
  NetConfig cfg = test_cfg();
  cfg.pipeline = 4;
  Interconnect net(2, cfg);
  std::uint64_t remote[3] = {1, 2, 3};
  std::uint64_t local[3] = {};
  eng.spawn("t", [&] {
    net.post_read(0, 1, &remote[0], &local[0], 8);
    net.post_read(0, 1, &remote[1], &local[1], 8);
    PostedHandle h = net.post_read(0, 1, &remote[2], &local[2], 8);
    net.wait(h);
    // Waiting on the tail retires everything before it too (RC ordering).
    EXPECT_EQ(argosim::now(), 1312u);  // 3*104 + 1000
    EXPECT_EQ(local[0], 1u);
    EXPECT_EQ(local[1], 2u);
    EXPECT_EQ(local[2], 3u);
    net.wait_all(0);  // empty: free
    EXPECT_EQ(argosim::now(), 1312u);
  });
  eng.run();
}

TEST(PostedVerbs, AtomicsBankThePreviousValue) {
  Engine eng;
  NetConfig cfg = test_cfg();
  cfg.pipeline = 4;
  Interconnect net(2, cfg);
  std::uint64_t word = 0b0011;
  eng.spawn("t", [&] {
    PostedHandle a = net.post_fetch_or(0, 1, &word, 0b0110);
    PostedHandle b = net.post_fetch_add(0, 1, &word, 1);
    PostedHandle c = net.post_cas(0, 1, &word, 8, 100);
    // Values redeemable in any order; each is the pre-op word in queue
    // (program) order because effects apply at in-order retirement.
    EXPECT_EQ(net.wait(c), 8u);
    EXPECT_EQ(net.wait(a), 0b0011u);
    EXPECT_EQ(net.wait(b), 0b0111u);
    EXPECT_EQ(word, 100u);
  });
  eng.run();
  EXPECT_EQ(net.stats(0).rdma_atomics, 3u);
}

TEST(PostedVerbs, WriteSnapshotsPayloadAtPostTime) {
  Engine eng;
  NetConfig cfg = test_cfg();
  cfg.pipeline = 4;
  Interconnect net(2, cfg);
  std::uint64_t remote = 0;
  std::uint64_t local = 42;
  eng.spawn("t", [&] {
    net.post_write(0, 1, &remote, &local, 8);
    local = 99;  // reused before the write retires
    net.wait_all(0);
    EXPECT_EQ(remote, 42u);  // the posted value, not the clobbered buffer
  });
  eng.run();
}

TEST(PostedVerbs, GatherWriteChargesOneOpWithHeaders) {
  Engine eng;
  NetConfig cfg = test_cfg();
  cfg.pipeline = 4;
  Interconnect net(2, cfg);
  std::vector<std::byte> remote(64), a(16), b(24);
  std::memset(a.data(), 0x11, a.size());
  std::memset(b.data(), 0x22, b.size());
  eng.spawn("t", [&] {
    std::vector<GatherRun> runs{{remote.data(), a.data(), 16},
                                {remote.data() + 32, b.data(), 24}};
    net.post_write_gather(0, 1, runs, 8);
    // One op: wire = (16+8) + (24+8) = 56, busy = 100 + 56/2 = 128.
    EXPECT_EQ(argosim::now(), 128u);
    net.wait_all(0);
    EXPECT_EQ(argosim::now(), 1128u);
    EXPECT_EQ(remote[0], std::byte{0x11});
    EXPECT_EQ(remote[33], std::byte{0x22});
  });
  eng.run();
  EXPECT_EQ(net.stats(0).rdma_writes, 1u);
  EXPECT_EQ(net.stats(0).bytes_written, 56u);
}

TEST(PostedVerbs, LocalPostsApplyImmediately) {
  Engine eng;
  NetConfig cfg = test_cfg();
  cfg.pipeline = 8;
  Interconnect net(2, cfg);
  std::uint64_t cell = 5;
  eng.spawn("t", [&] {
    PostedHandle h = net.post_fetch_or(0, 0, &cell, 2);
    EXPECT_EQ(cell, 7u);  // applied synchronously, charged mem_latency
    EXPECT_EQ(argosim::now(), 50u);
    EXPECT_EQ(net.wait(h), 5u);
    EXPECT_EQ(argosim::now(), 50u);  // value was banked; wait is free
  });
  eng.run();
  EXPECT_EQ(net.stats(0).posted_ops, 0u);  // never entered the send queue
}

TEST(NodeNetStats, AccumulationCoversEveryField) {
  NodeNetStats a, b;
  a.rdma_reads = 1;
  a.rdma_writes = 2;
  a.rdma_atomics = 3;
  a.msgs_sent = 4;
  a.msgs_received = 5;
  a.bytes_read = 6;
  a.bytes_written = 7;
  a.bytes_sent = 8;
  a.nic_busy = 9;
  a.faults_injected = 10;
  a.retries = 11;
  a.backoff_time = 12;
  a.posted_ops = 13;
  a.posted_inflight_hwm = 14;
  b = a;
  b += a;
  EXPECT_EQ(b.rdma_reads, 2u);
  EXPECT_EQ(b.rdma_writes, 4u);
  EXPECT_EQ(b.rdma_atomics, 6u);
  EXPECT_EQ(b.msgs_sent, 8u);
  EXPECT_EQ(b.msgs_received, 10u);
  EXPECT_EQ(b.bytes_read, 12u);
  EXPECT_EQ(b.bytes_written, 14u);
  EXPECT_EQ(b.bytes_sent, 16u);
  EXPECT_EQ(b.nic_busy, 18);
  EXPECT_EQ(b.faults_injected, 20u);
  EXPECT_EQ(b.retries, 22u);
  EXPECT_EQ(b.backoff_time, 24);
  EXPECT_EQ(b.posted_ops, 26u);
  EXPECT_EQ(b.posted_inflight_hwm, 14u);  // high-water marks merge via max
  EXPECT_EQ(b.total_ops(), 2u + 4u + 6u + 8u);
  EXPECT_EQ(b.total_bytes(), 12u + 14u + 16u);
}

}  // namespace
}  // namespace argonet
