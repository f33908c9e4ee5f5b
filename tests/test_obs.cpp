// Observability suite: LatencyHist bucket edges, the metrics registry,
// protocol event tracing, and the trace exporters.
//
// The two contracts under test:
//   1. Zero virtual-time cost — enabling tracing changes no virtual time
//      and no protocol statistic.
//   2. Determinism — the same (program, config, seed) yields a
//      byte-identical binary trace on every run, including pipelined
//      posted verbs and chaos fault injection.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/lu.hpp"
#include "core/cluster.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sim/slowpath.hpp"

namespace {

using argo::Cluster;
using argo::ClusterConfig;
using argo::ClusterStats;
using argomem::kPageSize;
using argoobs::decode_binary;
using argoobs::encode_binary;
using argoobs::encode_chrome_json;
using argoobs::Ev;
using argoobs::kUnknownState;
using argoobs::LatencyHist;
using argoobs::MetricsRegistry;
using argoobs::TraceConfig;
using argoobs::TraceEvent;
using argoobs::Tracer;
using argosim::Time;

// ---------------------------------------------------------------------------
// LatencyHist: the bucket edges are part of every histogram consumer's
// contract (bench/report.hpp prints "[<2^b:n]" labels), so pin them.
// ---------------------------------------------------------------------------

TEST(LatencyHist, BucketEdgesArePinned) {
  // Bucket 0 holds exactly-zero durations; bucket b >= 1 holds
  // [2^(b-1), 2^b); the last bucket saturates.
  EXPECT_EQ(LatencyHist::bucket_of(0), 0);
  EXPECT_EQ(LatencyHist::bucket_of(1), 1);
  EXPECT_EQ(LatencyHist::bucket_of(2), 2);
  EXPECT_EQ(LatencyHist::bucket_of(3), 2);
  EXPECT_EQ(LatencyHist::bucket_of(4), 3);
  EXPECT_EQ(LatencyHist::bucket_of(7), 3);
  EXPECT_EQ(LatencyHist::bucket_of(8), 4);
  EXPECT_EQ(LatencyHist::bucket_of(1u << 20), 21);
  EXPECT_EQ(LatencyHist::bucket_of(~0ull), LatencyHist::kBuckets - 1);
}

TEST(LatencyHist, BucketFloorsRoundTrip) {
  EXPECT_EQ(LatencyHist::bucket_floor_ns(0), 0u);
  for (int b = 1; b < LatencyHist::kBuckets - 1; ++b) {
    const std::uint64_t floor = LatencyHist::bucket_floor_ns(b);
    EXPECT_EQ(LatencyHist::bucket_of(floor), b) << "bucket " << b;
    EXPECT_EQ(LatencyHist::bucket_of(floor - 1), b - 1) << "bucket " << b;
    EXPECT_EQ(LatencyHist::bucket_of(2 * floor - 1), b) << "bucket " << b;
  }
}

TEST(LatencyHist, AddAndMerge) {
  LatencyHist a, b;
  a.add(0);
  a.add(1);
  a.add(1000);
  b.add(5);
  b += a;
  EXPECT_EQ(b.samples, 4u);
  EXPECT_EQ(b.total_ns, 1006u);
  EXPECT_EQ(b.max_ns, 1000u);
  EXPECT_EQ(b.bucket[0], 1u);  // the exact zero
  EXPECT_EQ(b.bucket[1], 1u);  // the 1
  EXPECT_EQ(b.bucket[3], 1u);  // the 5
  EXPECT_DOUBLE_EQ(b.mean_ns(), 1006.0 / 4.0);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, SamplesLiveStorage) {
  std::uint64_t hits = 0;
  LatencyHist lat;
  MetricsRegistry reg;
  reg.add_counter("test.hits", [&] { return hits; });
  reg.add_hist("test.lat", [&] { return lat; });

  auto counters = reg.sample_counters();
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters[0].name, "test.hits");
  EXPECT_EQ(counters[0].value, 0u);

  hits = 42;
  lat.add(7);
  counters = reg.sample_counters();
  EXPECT_EQ(counters[0].value, 42u);  // closures read live storage
  auto hists = reg.sample_hists();
  ASSERT_EQ(hists.size(), 1u);
  EXPECT_EQ(hists[0].name, "test.lat");
  EXPECT_EQ(hists[0].hist.samples, 1u);
}

// ---------------------------------------------------------------------------
// Tracer mechanics (no simulation: emit outside the engine stamps t = 0)
// ---------------------------------------------------------------------------

TraceConfig enabled_trace(std::size_t ring = 1u << 12) {
  TraceConfig t;
  t.enabled = true;
  t.ring_capacity = ring;
  return t;
}

TEST(Tracer, DisabledEmitsNothing) {
  Tracer tr;
  tr.configure(2, TraceConfig{});  // enabled defaults to false
  tr.emit(0, Ev::LineFill, 1, 0, 4096);
  EXPECT_FALSE(tr.enabled());
  EXPECT_EQ(tr.emitted(), 0u);
  EXPECT_TRUE(tr.snapshot().empty());
}

// snapshot() orders events by (virtual time, node, ring order) whatever
// order the per-node rings were filled in, and renumbers seq gap-free.
TEST(Tracer, SnapshotMergesByTimeNodeRingOrder) {
  Tracer tr;
  tr.configure(3, enabled_trace());
  argosim::Engine eng;
  eng.spawn("late", [&] {
    argosim::delay(20);
    tr.emit(1, Ev::LockHandover, 13, kUnknownState, 5);
  });
  eng.spawn("early", [&] {
    tr.emit(2, Ev::LineFill, 10, 0, 1);
    argosim::delay(10);
    tr.emit(2, Ev::Eviction, 12, 2, 0);
    tr.emit(0, Ev::Writeback, 11, 1, 2);
  });
  eng.run();
  const auto evs = tr.snapshot();
  ASSERT_EQ(evs.size(), 4u);
  for (std::size_t i = 0; i < evs.size(); ++i) EXPECT_EQ(evs[i].seq, i);
  EXPECT_EQ(evs[0].node, 2);  // t=0
  EXPECT_EQ(evs[1].node, 0);  // t=10: node 0 before node 2
  EXPECT_EQ(evs[2].node, 2);
  EXPECT_EQ(static_cast<Ev>(evs[2].kind), Ev::Eviction);
  EXPECT_EQ(evs[3].node, 1);  // t=20
  EXPECT_EQ(evs[3].t, 20u);
  EXPECT_EQ(static_cast<Ev>(evs[3].kind), Ev::LockHandover);
  EXPECT_EQ(evs[3].state, kUnknownState);
  EXPECT_EQ(evs[3].arg, 5u);
  EXPECT_EQ(tr.dropped(), 0u);
}

TEST(Tracer, RingWrapsAndCountsDropped) {
  Tracer tr;
  tr.configure(1, enabled_trace(/*ring=*/8));
  for (std::uint64_t i = 0; i < 20; ++i)
    tr.emit(0, Ev::LineFill, i, 0, 0);
  EXPECT_EQ(tr.emitted(), 20u);
  EXPECT_EQ(tr.dropped(), 12u);
  const auto evs = tr.node_events(0);
  ASSERT_EQ(evs.size(), 8u);
  // Oldest-first, and only the newest 8 survive.
  for (std::size_t i = 0; i < evs.size(); ++i) {
    EXPECT_EQ(evs[i].seq, 12 + i);
    EXPECT_EQ(evs[i].page, 12 + i);
  }
}

TEST(Tracer, EventNamesCoverAllKinds) {
  for (int k = 0; k <= static_cast<int>(Ev::PostedRetire); ++k) {
    const char* name = argoobs::to_string(static_cast<Ev>(k));
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "");
  }
  EXPECT_STREQ(argoobs::state_name(0), "P");
  EXPECT_STREQ(argoobs::state_name(kUnknownState), "-");
}

// ---------------------------------------------------------------------------
// Binary format
// ---------------------------------------------------------------------------

TEST(BinaryFormat, RoundTripsExactly) {
  std::vector<TraceEvent> in;
  for (std::uint64_t i = 0; i < 5; ++i) {
    TraceEvent e;
    e.seq = i;
    e.t = i * 1000 + 7;
    e.page = ~i;
    e.arg = i * i;
    e.thread = static_cast<std::uint32_t>(i + 100);
    e.node = static_cast<std::uint16_t>(i);
    e.kind = static_cast<std::uint8_t>(i % 11);
    e.state = (i % 2) ? kUnknownState : static_cast<std::uint8_t>(i % 4);
    in.push_back(e);
  }
  const auto bytes = encode_binary(in, /*dropped=*/3);
  EXPECT_EQ(bytes.size(), 32u + in.size() * argoobs::kBinaryRecordSize);
  std::uint64_t dropped = 0;
  const auto out = decode_binary(bytes, &dropped);
  EXPECT_EQ(dropped, 3u);
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].seq, in[i].seq);
    EXPECT_EQ(out[i].t, in[i].t);
    EXPECT_EQ(out[i].page, in[i].page);
    EXPECT_EQ(out[i].arg, in[i].arg);
    EXPECT_EQ(out[i].thread, in[i].thread);
    EXPECT_EQ(out[i].node, in[i].node);
    EXPECT_EQ(out[i].kind, in[i].kind);
    EXPECT_EQ(out[i].state, in[i].state);
  }
}

TEST(BinaryFormat, RejectsMalformedInput) {
  const auto good = encode_binary({}, 0);
  EXPECT_NO_THROW(decode_binary(good));

  auto bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_THROW(decode_binary(bad_magic), std::runtime_error);

  auto truncated = good;
  truncated.pop_back();
  EXPECT_THROW(decode_binary(truncated), std::runtime_error);

  TraceEvent e;
  auto short_body = encode_binary({e}, 0);
  short_body.resize(short_body.size() - 1);
  EXPECT_THROW(decode_binary(short_body), std::runtime_error);
}

// ---------------------------------------------------------------------------
// End-to-end: tracing a simulated cluster
// ---------------------------------------------------------------------------

ClusterConfig tiny_cfg(bool trace) {
  ClusterConfig c;
  c.nodes = 2;
  c.threads_per_node = 1;
  c.global_mem_bytes = 64 * kPageSize;
  c.trace.enabled = trace;
  return c;
}

/// The 2-node quickstart used by the golden and determinism tests: each
/// thread scales a slice of a shared array, then a barrier publishes it.
Time run_quickstart(Cluster& cl) {
  constexpr std::size_t kN = 1024;
  auto data = cl.alloc<double>(kN);
  for (std::size_t i = 0; i < kN; ++i)
    cl.host_ptr(data)[i] = static_cast<double>(i);
  cl.reset_classification();
  return cl.run([&](argo::Thread& self) {
    const std::size_t chunk = kN / static_cast<std::size_t>(self.nthreads());
    const std::size_t lo = chunk * static_cast<std::size_t>(self.gid());
    std::vector<double> buf(chunk);
    self.load_bulk(data + static_cast<std::ptrdiff_t>(lo), buf.data(), chunk);
    for (double& v : buf) v *= 2.0;
    self.store_bulk(data + static_cast<std::ptrdiff_t>(lo), buf.data(), chunk);
    self.barrier();
    double sum = 0;
    for (std::size_t i = 0; i < kN; ++i)
      sum += self.load(data + static_cast<std::ptrdiff_t>(i));
    (void)sum;
    self.barrier();
  });
}

TEST(ClusterTrace, EnablingTraceChangesNoVirtualTime) {
  Cluster off(tiny_cfg(false));
  const Time t_off = run_quickstart(off);
  Cluster on(tiny_cfg(true));
  const Time t_on = run_quickstart(on);
  EXPECT_EQ(t_off, t_on);

  // Every protocol statistic is identical too; only trace.* differ.
  const ClusterStats so = off.stats(), sn = on.stats();
  EXPECT_EQ(so.coherence.line_fetches, sn.coherence.line_fetches);
  EXPECT_EQ(so.coherence.writebacks, sn.coherence.writebacks);
  EXPECT_EQ(so.coherence.si_invalidations, sn.coherence.si_invalidations);
  EXPECT_EQ(so.net.rdma_reads, sn.net.rdma_reads);
  EXPECT_EQ(so.net.rdma_writes, sn.net.rdma_writes);
  EXPECT_EQ(so.counter("trace.emitted"), 0u);
  EXPECT_GT(sn.counter("trace.emitted"), 0u);
  EXPECT_EQ(sn.counter("trace.emitted"), on.tracer().emitted());
}

TEST(ClusterTrace, StatsSnapshotMatchesRegistryAndStructs) {
  Cluster cl(tiny_cfg(true));
  run_quickstart(cl);
  const ClusterStats s = cl.stats();
  EXPECT_EQ(s.counter("carina.writebacks"), s.coherence.writebacks);
  EXPECT_EQ(s.counter("carina.line_fetches"), s.coherence.line_fetches);
  EXPECT_EQ(s.counter("net.rdma_reads"), s.net.rdma_reads);
  EXPECT_EQ(s.hist("carina.sd_fence_ns").samples,
            s.coherence.sd_fence_ns.samples);
  EXPECT_EQ(s.counter("no.such.counter"), 0u);
  EXPECT_EQ(s.hist("no.such.hist").samples, 0u);
  ASSERT_EQ(s.per_node.size(), 2u);
  std::uint64_t wb = 0;
  for (const auto& n : s.per_node) wb += n.writebacks;
  EXPECT_EQ(wb, s.coherence.writebacks);
  EXPECT_GT(cl.metrics().counter_count(), 20u);
  EXPECT_GE(cl.metrics().hist_count(), 2u);
}

TEST(ClusterTrace, GoldenQuickstartTrace) {
  Cluster cl(tiny_cfg(true));
  run_quickstart(cl);
  const auto evs = cl.tracer().snapshot();
  ASSERT_FALSE(evs.empty());

  // Structural golden properties of the tiny quickstart's trace.
  std::uint64_t counts[11] = {};
  std::uint64_t last_seq = 0;
  bool first = true;
  for (const TraceEvent& e : evs) {
    ASSERT_LT(e.kind, 11u);
    ++counts[e.kind];
    if (!first) {
      EXPECT_GT(e.seq, last_seq);  // snapshot is seq-ordered
    }
    last_seq = e.seq;
    first = false;
    EXPECT_LT(e.node, 2u);
  }
  const ClusterStats s = cl.stats();
  // Fences emit balanced begin/end pairs, one pair per fence.
  EXPECT_EQ(counts[static_cast<int>(Ev::SiFenceBegin)],
            counts[static_cast<int>(Ev::SiFenceEnd)]);
  EXPECT_EQ(counts[static_cast<int>(Ev::SdFenceBegin)],
            counts[static_cast<int>(Ev::SdFenceEnd)]);
  EXPECT_EQ(counts[static_cast<int>(Ev::SiFenceBegin)],
            s.coherence.si_fences);
  EXPECT_EQ(counts[static_cast<int>(Ev::SdFenceBegin)],
            s.coherence.sd_fences);
  // Every writeback and every line fetch is traced.
  EXPECT_EQ(counts[static_cast<int>(Ev::Writeback)], s.coherence.writebacks);
  EXPECT_GT(counts[static_cast<int>(Ev::LineFill)], 0u);
  // The remote reads establish sharing: classification transitions fired.
  EXPECT_GT(counts[static_cast<int>(Ev::ClassTransition)], 0u);

  // The first event is thread 0's first SD fence (barrier entry) or line
  // fill; in either case virtual time stamps are monotone per node.
  for (int n = 0; n < 2; ++n) {
    const auto node_evs = cl.tracer().node_events(n);
    for (std::size_t i = 1; i < node_evs.size(); ++i)
      EXPECT_GE(node_evs[i].t, node_evs[i - 1].t);
  }
}

TEST(ClusterTrace, ReRunsProduceByteIdenticalBinaryTraces) {
  auto trace_once = [] {
    Cluster cl(tiny_cfg(true));
    run_quickstart(cl);
    return encode_binary(cl.tracer().snapshot(), cl.tracer().dropped());
  };
  const auto a = trace_once();
  const auto b = trace_once();
  ASSERT_GT(a.size(), 32u);
  EXPECT_EQ(a, b);
}

// The fig13a-style workload: LU factorization, traced, across posted-verb
// pipeline depths and under chaos fault injection. The bar is byte
// identity of the whole binary trace across reruns.
std::vector<std::uint8_t> traced_lu(int pipeline, bool chaos) {
  ClusterConfig c;
  c.nodes = 4;
  c.threads_per_node = 2;
  c.global_mem_bytes = 2048 * kPageSize;
  c.cache.cache_lines = 8192;
  c.cache.write_buffer_pages = 1024;
  c.net.pipeline = pipeline;
  c.trace.enabled = true;
  if (chaos) {
    c.faults.enabled = true;
    c.faults.seed = 1234;
    c.faults.rdma_fail_prob = 0.02;
    c.faults.jitter_prob = 0.1;
    c.faults.jitter_max = 500;
  }
  Cluster cl(c);
  argoapps::LuParams p;
  p.n = 64;
  p.block = 16;
  argoapps::lu_run_argo(cl, p);
  return encode_binary(cl.tracer().snapshot(), cl.tracer().dropped());
}

TEST(ClusterTrace, LuTraceDeterministicAcrossPipelineDepths) {
  for (const int pipeline : {1, 16}) {
    const auto a = traced_lu(pipeline, /*chaos=*/false);
    const auto b = traced_lu(pipeline, /*chaos=*/false);
    ASSERT_GT(a.size(), 32u) << "pipeline " << pipeline;
    EXPECT_EQ(a, b) << "pipeline " << pipeline;
  }
  // Depth changes scheduling, so the traces must actually differ.
  EXPECT_NE(traced_lu(1, false), traced_lu(16, false));
}

TEST(ClusterTrace, LuTraceDeterministicUnderChaos) {
  const auto a = traced_lu(/*pipeline=*/4, /*chaos=*/true);
  const auto b = traced_lu(/*pipeline=*/4, /*chaos=*/true);
  ASSERT_GT(a.size(), 32u);
  EXPECT_EQ(a, b);
}

// The host fast paths (buffer pooling, scheduler fast-forward, stack
// recycling) must be invisible in simulated behaviour. ARGO_SLOW_PATHS
// forces the seed's allocate/swapcontext paths;
// the whole binary trace — every event, state and virtual timestamp —
// must come out byte-identical either way, at pipeline depths 1 and 16
// and under chaos fault injection.
TEST(ClusterTrace, LuTraceIdenticalWithSlowPathsForced) {
  struct SlowGuard {
    bool prev = argosim::slow_paths();
    ~SlowGuard() { argosim::set_slow_paths(prev); }
  } guard;
  for (const int pipeline : {1, 16}) {
    argosim::set_slow_paths(false);
    const auto fast = traced_lu(pipeline, /*chaos=*/false);
    argosim::set_slow_paths(true);
    const auto slow = traced_lu(pipeline, /*chaos=*/false);
    ASSERT_GT(fast.size(), 32u) << "pipeline " << pipeline;
    EXPECT_EQ(fast, slow) << "pipeline " << pipeline;
  }
  argosim::set_slow_paths(false);
  const auto fast = traced_lu(/*pipeline=*/4, /*chaos=*/true);
  argosim::set_slow_paths(true);
  const auto slow = traced_lu(/*pipeline=*/4, /*chaos=*/true);
  EXPECT_EQ(fast, slow);
}

// One miss path at every depth: a miss that flips a private page to shared
// fills the line while its registration is on the wire, then applies the
// registration (the transition and its deferred invalidation of the old
// owner). Depth only decides whether the posts overlap, never the order.
TEST(ClusterTrace, PToSMissTracesTheSameEventsAtEveryDepth) {
  auto miss_events = [](int pipeline) {
    ClusterConfig c;
    c.nodes = 3;
    c.threads_per_node = 1;
    c.global_mem_bytes = 3 * 16 * kPageSize;
    c.net.pipeline = pipeline;
    c.trace.enabled = true;
    Cluster cl(c);
    auto p = argo::gptr<std::uint64_t>(40 * kPageSize);  // homed on node 2
    cl.run([&](argo::Thread& t) {
      if (t.node() == 0) (void)t.load(p);  // node 0 holds the page private
      t.barrier();
      if (t.node() == 1) (void)t.load(p);  // P→S
    });
    std::vector<Ev> kinds;
    for (const TraceEvent& e : cl.tracer().node_events(1)) {
      const auto k = static_cast<Ev>(e.kind);
      if (k == Ev::LineFill || k == Ev::ClassTransition ||
          k == Ev::DeferredInval)
        kinds.push_back(k);
    }
    return kinds;
  };
  const std::vector<Ev> expect = {Ev::LineFill, Ev::ClassTransition,
                                  Ev::DeferredInval};
  EXPECT_EQ(miss_events(1), expect);
  EXPECT_EQ(miss_events(16), expect);
}

// ---------------------------------------------------------------------------
// Sinks and the Chrome exporter
// ---------------------------------------------------------------------------

TEST(TraceSinks, CallbackAndBinaryFileSinks) {
  std::vector<TraceEvent> seen;
  std::uint64_t seen_dropped = ~0ull;
  const std::string path = ::testing::TempDir() + "argo_trace_test.bin";
  {
    Cluster cl(tiny_cfg(true));
    cl.trace_sink(argoobs::make_binary_trace_sink(path));
    cl.trace_sink(argoobs::make_callback_trace_sink(
        [&](const std::vector<TraceEvent>& evs, std::uint64_t dropped) {
          seen = evs;
          seen_dropped = dropped;
        }));
    run_quickstart(cl);
    cl.flush_trace();
    EXPECT_EQ(seen.size(), cl.tracer().snapshot().size());
    EXPECT_EQ(seen_dropped, cl.tracer().dropped());
  }  // ~Cluster flushes again; the file must still round-trip

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::vector<std::uint8_t> bytes;
  int ch;
  while ((ch = std::fgetc(f)) != EOF)
    bytes.push_back(static_cast<std::uint8_t>(ch));
  std::fclose(f);
  std::remove(path.c_str());

  const auto decoded = decode_binary(bytes);
  ASSERT_EQ(decoded.size(), seen.size());
  for (std::size_t i = 0; i < decoded.size(); ++i)
    EXPECT_EQ(decoded[i].seq, seen[i].seq);
}

TEST(TraceSinks, ChromeJsonIsWellFormed) {
  Cluster cl(tiny_cfg(true));
  run_quickstart(cl);
  const std::string json = encode_chrome_json(cl.tracer().snapshot());
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  // Balanced braces/brackets (no string in the output contains either).
  int depth = 0;
  for (char c : json) {
    if (c == '[' || c == '{') ++depth;
    if (c == ']' || c == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  // Fences appear as B/E pairs, instants carry the kind name.
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("sd_fence"), std::string::npos);
}

}  // namespace
