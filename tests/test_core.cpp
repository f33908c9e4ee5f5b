// Tests for the Carina coherence protocol and the argo::Cluster facade.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/cluster.hpp"
#include "dir/pyxis.hpp"
#include "mem/divider.hpp"
#include "sim/random.hpp"

namespace argo {
namespace {

using argomem::kPageSize;

ClusterConfig small_cfg(int nodes, int tpn, Mode mode,
                        std::size_t pages_per_line = 1,
                        std::size_t lines = 64, std::size_t wb = 64) {
  ClusterConfig c;
  c.nodes = nodes;
  c.threads_per_node = tpn;
  c.global_mem_bytes = static_cast<std::size_t>(nodes) * 16 * kPageSize;
  c.cache.classification = mode;
  c.cache.pages_per_line = pages_per_line;
  c.cache.cache_lines = lines;
  c.cache.write_buffer_pages = wb;
  return c;
}

gptr<std::uint8_t> page_addr(std::uint64_t page, std::size_t off = 0) {
  return gptr<std::uint8_t>(page * kPageSize + off);
}

// The cache's line geometry divides by a precomputed reciprocal: it must
// agree with / and % for every divisor the tests and benches configure
// (every pages_per_line and cache_lines up to 64, 3 from the chaos suite,
// fig07's 2 * 2048 / ppl + 16 lines, the stock and paper line counts) and
// for divisors up to the 2^32 bound, at small dividends exhaustively and
// at the top of the dividend range.
TEST(LineGeometry, DividerMatchesDivisionForEveryConfiguredGeometry) {
  using argomem::Divider;
  std::vector<std::uint64_t> divisors;
  for (std::uint64_t d = 1; d <= 64; ++d) divisors.push_back(d);
  for (std::uint64_t ppl = 1; ppl <= 128; ppl *= 2)
    divisors.push_back(2 * 2048 / ppl + 16);
  for (const std::uint64_t d :
       {1024ull, 4096ull, 8192ull, 16384ull, 1000003ull, (1ull << 31) - 1,
        1ull << 31, (1ull << 31) + 1, (1ull << 32) - 1, 1ull << 32})
    divisors.push_back(d);
  argosim::Rng rng(23);
  for (const std::uint64_t d : divisors) {
    const Divider div(d);
    auto check = [&](std::uint64_t x) {
      ASSERT_EQ(div.div(x), x / d) << x << " / " << d;
      ASSERT_EQ(div.mod(x), x % d) << x << " % " << d;
    };
    for (std::uint64_t x = 0; x < (1u << 16); ++x) check(x);
    for (std::uint64_t k = 0; k < (1u << 12); ++k)
      check(Divider::kMaxDividend - k);
    for (int i = 0; i < 4096; ++i)
      check(rng.next_u64() & Divider::kMaxDividend);
  }
}

TEST(Cluster, SingleNodeLoadStoreRoundTrip) {
  Cluster cl(small_cfg(1, 2, Mode::PS3));
  auto arr = cl.alloc<std::uint64_t>(128);
  cl.run([&](Thread& t) {
    for (int i = t.tid(); i < 128; i += t.threads_per_node())
      t.store(arr + i, static_cast<std::uint64_t>(i * 3));
    t.barrier();
    for (int i = 0; i < 128; ++i)
      EXPECT_EQ(t.load(arr + i), static_cast<std::uint64_t>(i * 3));
  });
  // Single node: every page is home — no caching, no misses, no traffic.
  EXPECT_EQ(cl.coherence_stats().read_misses, 0u);
  EXPECT_EQ(cl.coherence_stats().write_misses, 0u);
  EXPECT_GT(cl.coherence_stats().home_accesses, 0u);
  EXPECT_EQ(cl.net_stats().rdma_reads, 0u);
}

TEST(Cluster, HostInitVisibleEverywhere) {
  Cluster cl(small_cfg(4, 1, Mode::PS3));
  auto arr = cl.alloc<std::uint32_t>(4096);  // spans several pages/homes
  for (int i = 0; i < 4096; ++i) cl.host_ptr(arr)[i] = static_cast<std::uint32_t>(i ^ 0x5a5a);
  cl.reset_classification();
  cl.run([&](Thread& t) {
    for (int i = t.gid(); i < 4096; i += t.nthreads())
      EXPECT_EQ(t.load(arr + i), static_cast<std::uint32_t>(i ^ 0x5a5a));
  });
}

class AllModes : public ::testing::TestWithParam<Mode> {};
INSTANTIATE_TEST_SUITE_P(Carina, AllModes,
                         ::testing::Values(Mode::S, Mode::PSNaive, Mode::PS,
                                           Mode::PS3),
                         [](const auto& info) {
                           switch (info.param) {
                             case Mode::S: return "S";
                             case Mode::PSNaive: return "PSNaive";
                             case Mode::PS: return "PS";
                             case Mode::PS3: return "PS3";
                           }
                           return "unknown";
                         });

TEST_P(AllModes, RemoteWriteVisibleAfterBarrier) {
  Cluster cl(small_cfg(2, 1, GetParam()));
  // Page 20 is homed on node 1 (blocked mapping, 16 pages per node):
  // node 0 writes it remotely, node 1 reads it at home.
  auto p = page_addr(20).cast<std::uint64_t>();
  cl.run([&](Thread& t) {
    if (t.node() == 0) t.store(p, std::uint64_t{0xabcdef});
    t.barrier();
    EXPECT_EQ(t.load(p), 0xabcdefu);
    t.barrier();
    if (t.node() == 1) t.store(p, std::uint64_t{0x1234});
    t.barrier();
    EXPECT_EQ(t.load(p), 0x1234u);
  });
}

TEST_P(AllModes, ProducerConsumerOverManyRounds) {
  Cluster cl(small_cfg(2, 2, GetParam()));
  auto p = page_addr(18).cast<std::uint64_t>();  // homed on node 1
  const int rounds = 8;
  cl.run([&](Thread& t) {
    for (int r = 1; r <= rounds; ++r) {
      if (t.node() == 0 && t.tid() == 0) t.store(p, static_cast<std::uint64_t>(r));
      t.barrier();
      EXPECT_EQ(t.load(p), static_cast<std::uint64_t>(r));
      t.barrier();
    }
  });
}

TEST_P(AllModes, FalseSharingMergesThroughDiffs) {
  // Four nodes write disjoint quarters of the same (remote) page in the
  // same epoch; after the barrier everyone sees all four quarters.
  Cluster cl(small_cfg(4, 1, GetParam()));
  const std::uint64_t page = 17;  // homed on node 1
  cl.run([&](Thread& t) {
    const std::size_t quarter = kPageSize / 4;
    for (std::size_t i = 0; i < quarter; ++i)
      t.store(page_addr(page, static_cast<std::size_t>(t.node()) * quarter + i),
              static_cast<std::uint8_t>(t.node() + 1));
    t.barrier();
    for (int q = 0; q < 4; ++q)
      for (std::size_t i = 0; i < quarter; i += 97)
        EXPECT_EQ(t.load(page_addr(page, static_cast<std::size_t>(q) * quarter + i)),
                  static_cast<std::uint8_t>(q + 1));
  });
}

TEST(Carina, PrivatePagesSurviveBarriersUnderPS3) {
  // Node 0 reads+writes pages homed on node 1 that nobody else touches.
  // Under P/S3 they classify as Private: barriers must not evict them.
  Cluster cl(small_cfg(2, 1, Mode::PS3));
  cl.run([&](Thread& t) {
    if (t.node() == 0)
      for (std::uint64_t pg = 16; pg < 24; ++pg)
        t.store(page_addr(pg).cast<std::uint64_t>(), pg);
    t.barrier();
    if (t.node() == 0)
      for (std::uint64_t pg = 16; pg < 24; ++pg)
        EXPECT_EQ(t.load(page_addr(pg).cast<std::uint64_t>()), pg);
    t.barrier();
  });
  EXPECT_EQ(cl.node_cache(0).stats().si_invalidations, 0u);
  // The same workload under S invalidates everything at every barrier.
  Cluster cs(small_cfg(2, 1, Mode::S));
  cs.run([&](Thread& t) {
    if (t.node() == 0)
      for (std::uint64_t pg = 16; pg < 24; ++pg)
        t.store(page_addr(pg).cast<std::uint64_t>(), pg);
    t.barrier();
    t.barrier();
  });
  EXPECT_GE(cs.node_cache(0).stats().si_invalidations, 8u);
}

TEST(Carina, ReadOnlySharedPagesSurviveUnderPS3) {
  Cluster cl(small_cfg(4, 1, Mode::PS3));
  // Everyone reads pages homed on node 0; nobody writes. S,NW: exempt.
  for (std::uint64_t pg = 0; pg < 8; ++pg)
    *cl.host_ptr(page_addr(pg).cast<std::uint64_t>()) = pg * 7;
  cl.reset_classification();
  cl.run([&](Thread& t) {
    for (int round = 0; round < 4; ++round) {
      for (std::uint64_t pg = 0; pg < 8; ++pg)
        EXPECT_EQ(t.load(page_addr(pg).cast<std::uint64_t>()), pg * 7);
      t.barrier();
    }
  });
  // Nodes 1..3 cache the pages; their caches never invalidate them.
  for (int n = 1; n < 4; ++n) {
    EXPECT_EQ(cl.node_cache(n).stats().si_invalidations, 0u);
    EXPECT_LE(cl.node_cache(n).stats().read_misses, 8u);
  }
}

TEST(Carina, SingleWriterKeepsItsPageConsumersRefetch) {
  // §3.5's producer/consumer optimization: the single writer does not
  // self-invalidate; consumers do, and read fresh data from the home.
  Cluster cl(small_cfg(2, 1, Mode::PS3));
  // Page 17 is homed on node 1, so writer node 0 goes through the protocol.
  auto p = page_addr(17).cast<std::uint64_t>();
  const int rounds = 5;
  cl.run([&](Thread& t) {
    for (int r = 1; r <= rounds; ++r) {
      if (t.node() == 0) t.store(p, static_cast<std::uint64_t>(r * 11));
      t.barrier();
      EXPECT_EQ(t.load(p), static_cast<std::uint64_t>(r * 11));
      t.barrier();
    }
  });
  // Writer node 0: page stays valid across every fence.
  EXPECT_EQ(cl.node_cache(0).stats().si_invalidations, 0u);
  EXPECT_EQ(cl.node_cache(0).stats().read_misses, 0u);
  EXPECT_GE(cl.node_cache(0).stats().writebacks, static_cast<std::uint64_t>(rounds));
}

TEST(Carina, WriteBufferOverflowDrainsOldestFirst) {
  auto cfg = small_cfg(2, 1, Mode::PS3, 1, 64, /*wb=*/4);
  Cluster cl(cfg);
  cl.run([&](Thread& t) {
    if (t.node() == 0) {
      // Dirty 12 distinct remote pages: 8 must drain before any fence.
      for (std::uint64_t pg = 16; pg < 28; ++pg)
        t.store(page_addr(pg).cast<std::uint64_t>(), pg);
      EXPECT_GE(t.cache().stats().writebacks, 8u);
      EXPECT_LE(t.cache().dirty_pages(), 4u);
    }
    t.barrier();
    // After the barrier everything is flushed.
    EXPECT_EQ(t.cache().dirty_pages(), 0u);
  });
  for (std::uint64_t pg = 16; pg < 28; ++pg)
    EXPECT_EQ(*cl.host_ptr(page_addr(pg).cast<std::uint64_t>()), pg);
}

TEST(Carina, DirectMappedEvictionPreservesData) {
  // 4-line cache: pages 16..31 of node 1 all collide heavily.
  Cluster cl(small_cfg(2, 1, Mode::PS3, 1, /*lines=*/4, 64));
  cl.run([&](Thread& t) {
    if (t.node() == 0) {
      for (std::uint64_t pg = 16; pg < 32; ++pg)
        t.store(page_addr(pg).cast<std::uint64_t>(), pg * 13);
      for (std::uint64_t pg = 16; pg < 32; ++pg)
        EXPECT_EQ(t.load(page_addr(pg).cast<std::uint64_t>()), pg * 13);
    }
  });
  EXPECT_GT(cl.node_cache(0).stats().evictions, 0u);
}

TEST(Carina, PrefetchFetchesWholeLine) {
  Cluster cl(small_cfg(2, 1, Mode::PS3, /*pages_per_line=*/4, 16, 64));
  cl.run([&](Thread& t) {
    if (t.node() == 0) {
      // First touch fetches the whole 4-page line in one read...
      (void)t.load(page_addr(16).cast<std::uint64_t>());
      EXPECT_EQ(t.cache().stats().line_fetches, 1u);
      EXPECT_EQ(t.cache().stats().pages_fetched, 4u);
      // ...so touching the neighbours costs no further data transfer.
      for (std::uint64_t pg = 17; pg < 20; ++pg)
        (void)t.load(page_addr(pg).cast<std::uint64_t>());
      EXPECT_EQ(t.cache().stats().line_fetches, 1u);
      EXPECT_EQ(t.cache().stats().pages_fetched, 4u);
    }
  });
}

TEST(Carina, NaivePsServicesPToSFromCheckpoint) {
  // Naive P/S (§3.4.2 "Naive Solution"): the private owner does NOT
  // downgrade; the newcomer heals the home copy from the owner's
  // checkpoint taken at the owner's last sync.
  Cluster cl(small_cfg(3, 1, Mode::PSNaive));
  auto p = page_addr(40).cast<std::uint64_t>();  // homed on node 2
  cl.run([&](Thread& t) {
    if (t.node() == 0) t.store(p, std::uint64_t{777});
    t.barrier();  // node 0 checkpoints; home stays stale
  });
  EXPECT_NE(*cl.host_ptr(p), 777u) << "naive P/S must not downgrade private pages";
  cl.run([&](Thread& t) {
    if (t.node() == 1) {
      EXPECT_EQ(t.load(p), 777u);  // healed from node 0's checkpoint
    }
  });
  EXPECT_EQ(*cl.host_ptr(p), 777u);
  EXPECT_EQ(cl.node_cache(1).stats().heals, 1u);
  EXPECT_GT(cl.node_cache(0).stats().checkpoints, 0u);
}

TEST(Carina, SwDiffSuppressionWritesWholePages) {
  auto cfg = small_cfg(2, 1, Mode::PS3);
  cfg.cache.sw_diff_suppression = true;
  Cluster cl(cfg);
  auto p = page_addr(17).cast<std::uint64_t>();
  cl.run([&](Thread& t) {
    if (t.node() == 0) t.store(p, std::uint64_t{5});
    t.barrier();
    EXPECT_EQ(t.load(p), 5u);
  });
  EXPECT_GE(cl.node_cache(0).stats().full_page_writebacks, 1u);
  EXPECT_EQ(cl.node_cache(0).stats().diffs_built, 0u);
}

TEST(Carina, DiffsOnlyTransmitChangedBytes) {
  Cluster cl(small_cfg(2, 1, Mode::PS3));
  cl.run([&](Thread& t) {
    if (t.node() == 0) {
      // Touch 16 bytes of a remote page.
      for (int i = 0; i < 16; ++i)
        t.store(page_addr(20, static_cast<std::size_t>(i) * 100),
                static_cast<std::uint8_t>(i + 1));
    }
    t.barrier();
  });
  const auto& st = cl.node_cache(0).stats();
  EXPECT_EQ(st.diffs_built, 1u);
  EXPECT_LT(st.writeback_bytes, 1024u);  // 16 runs * (1 + 8) bytes, not 4096
}

// A sibling's store that lands while its page is being written back (after
// the diff scan, before the verb completes) must reach the home: the
// writeback closes the page's write window before it yields, so the store
// takes the latched write-miss path and re-twins instead of slipping into a
// copy that is about to be marked clean.
TEST(Carina, StoreDuringWritebackIsNotLost) {
  for (const int pipeline : {1, 16}) {
    auto cfg = small_cfg(2, 2, Mode::PS3);
    cfg.net.pipeline = pipeline;
    Cluster cl(cfg);
    auto p = page_addr(20).cast<std::uint64_t>();  // homed on node 1
    // Inside the release's writeback window: after the diff scan, before
    // the gather write completes (blocking) or its post returns (depth 16).
    const Time late_store = pipeline > 1 ? 101'000 : 101'500;
    cl.run([&](Thread& t) {
      if (t.node() == 0 && t.tid() == 0) {
        t.store(p, std::uint64_t{1});
        t.compute(100'000 - t.now());
        t.release();
      } else if (t.node() == 0) {
        t.compute(50'000);
        t.store(p + 1, std::uint64_t{2});
        t.compute(late_store - t.now());
        t.store(p + 2, std::uint64_t{3});
      }
      t.barrier();
    });
    const std::uint64_t* home = cl.host_ptr(p);
    const std::string what = "pipeline " + std::to_string(pipeline);
    EXPECT_EQ(home[0], 1u) << what;
    EXPECT_EQ(home[1], 2u) << what;
    EXPECT_EQ(home[2], 3u) << what;
  }
}

// A line slot holds its page buffer only while one of its pages is valid:
// the SI sweep hands the buffers of fully invalidated lines back to the
// node's pool, and the refill takes them from there.
TEST(Carina, SelfInvalidationReturnsLineBuffersToThePool) {
  constexpr std::size_t kPages = 8;
  Cluster cl(small_cfg(2, 1, Mode::S));
  cl.run([&](Thread& t) {
    if (t.node() == 0) {
      for (std::uint64_t pg = 16; pg < 16 + kPages; ++pg)  // homed on node 1
        (void)t.load(page_addr(pg).cast<std::uint64_t>());
    }
    const std::size_t pooled = t.cache().buffer_pool().pooled_buffers();
    t.barrier();
    if (t.node() != 0) return;
    const auto& pool = t.cache().buffer_pool();
    EXPECT_EQ(t.cache().resident_pages(), 0u);
    EXPECT_EQ(pool.pooled_buffers(), pooled + kPages);
    const std::uint64_t allocated = pool.allocations();
    for (std::uint64_t pg = 16; pg < 16 + kPages; ++pg)
      (void)t.load(page_addr(pg).cast<std::uint64_t>());
    EXPECT_EQ(t.cache().resident_pages(), kPages);
    EXPECT_EQ(pool.allocations(), allocated);
    EXPECT_EQ(pool.pooled_buffers(), pooled);
  });
}

TEST(Carina, LineWithOneValidPageKeepsItsBuffer) {
  // Naive P/S classifies per page: node 0's demand read registers page 16
  // alone, so the SI sweep keeps it (private) and drops the unregistered
  // pages 17..19 the line fill brought along.
  Cluster cl(small_cfg(2, 1, Mode::PSNaive, /*pages_per_line=*/4));
  *cl.host_ptr(page_addr(16).cast<std::uint64_t>()) = 1616;
  cl.reset_classification();
  cl.run([&](Thread& t) {
    if (t.node() == 0)
      EXPECT_EQ(t.load(page_addr(16).cast<std::uint64_t>()), 1616u);
    const std::size_t pooled = t.cache().buffer_pool().pooled_buffers();
    t.barrier();
    if (t.node() != 0) return;
    EXPECT_EQ(t.cache().resident_pages(), 1u);
    EXPECT_EQ(t.cache().stats().si_invalidations, 3u);
    EXPECT_EQ(t.cache().buffer_pool().pooled_buffers(), pooled);
    const std::uint64_t misses = t.cache().stats().read_misses;
    EXPECT_EQ(t.load(page_addr(16).cast<std::uint64_t>()), 1616u);
    EXPECT_EQ(t.cache().stats().read_misses, misses);  // still a hit
  });
}

// Line fills have no size limit: one miss on a 128-page line brings in
// every page, each with its own home content, and the rest are hits.
TEST(Carina, LineFillCoversMoreThanSixtyFourPages) {
  constexpr std::uint64_t kLine = 128;
  for (const int pipeline : {1, 16}) {
    auto cfg = small_cfg(2, 1, Mode::S, kLine, /*lines=*/2);
    cfg.global_mem_bytes = 2 * kLine * kPageSize;
    cfg.net.pipeline = pipeline;
    Cluster cl(cfg);
    for (std::uint64_t p = kLine; p < 2 * kLine; ++p)  // homed on node 1
      *cl.host_ptr(page_addr(p).cast<std::uint64_t>()) = p;
    cl.reset_classification();
    const std::string what = "pipeline " + std::to_string(pipeline);
    cl.run([&](Thread& t) {
      if (t.node() != 0) return;
      for (std::uint64_t p = kLine; p < 2 * kLine; ++p)
        EXPECT_EQ(t.load(page_addr(p).cast<std::uint64_t>()), p) << what;
      EXPECT_EQ(t.cache().stats().line_fetches, 1u) << what;
      EXPECT_EQ(t.cache().stats().pages_fetched, kLine) << what;
      EXPECT_EQ(t.cache().stats().read_misses, 1u) << what;
      EXPECT_EQ(t.cache().resident_pages(), kLine) << what;
    });
  }
}

// A soft-TLB translation into a line buffer must die with the pages it
// covers: after the fence releases the buffer and another line's fill
// reacquires it, re-reading the first page must miss and fetch, never
// serve the other page's bytes (2020) through the old translation.
TEST(Carina, StaleTranslationNeverReadsAReacquiredBuffer) {
  for (const int pipeline : {1, 16}) {
    auto cfg = small_cfg(2, 1, Mode::S);
    cfg.net.pipeline = pipeline;
    Cluster cl(cfg);
    auto a = page_addr(16).cast<std::uint64_t>();  // both homed on node 1
    auto b = page_addr(20).cast<std::uint64_t>();
    *cl.host_ptr(a) = 1616;
    *cl.host_ptr(b) = 2020;
    cl.reset_classification();
    const std::string what = "pipeline " + std::to_string(pipeline);
    cl.run([&](Thread& t) {
      if (t.node() == 0) EXPECT_EQ(t.load(a), 1616u) << what;  // translated
      t.barrier();
      if (t.node() != 0) return;
      const auto& pool = t.cache().buffer_pool();
      const std::uint64_t allocated = pool.allocations();
      EXPECT_EQ(t.load(b), 2020u) << what;  // refill reuses a's old buffer
      EXPECT_EQ(pool.allocations(), allocated) << what;
      const std::uint64_t misses = t.cache().stats().read_misses;
      EXPECT_EQ(t.load(a), 1616u) << what;
      EXPECT_EQ(t.cache().stats().read_misses, misses + 1) << what;
    });
  }
}

// All four threads of node 0 miss on one remote page at once, after
// registering as readers (the barrier's S-mode SI fence invalidated it).
// The first fills it; the other three wake from the fault delay while the
// line is latched and join the latch queue without being resumed (gated
// wake). The virtual time and statistics are the ones recorded before the
// gate existed.
TEST(Carina, SiblingMissesWaitOnTheFillUnresumed) {
  struct Want {
    int pipeline;
    Time elapsed;
  };
  for (const Want w : {Want{1, 16276}, Want{4, 14576}}) {
    auto cfg = small_cfg(2, 4, Mode::S);
    cfg.net.pipeline = w.pipeline;
    Cluster cl(cfg);
    auto y = page_addr(16).cast<std::uint64_t>();  // homed on node 1
    *cl.host_ptr(y) = 1616;
    cl.reset_classification();
    std::uint64_t sum = 0;
    const Time e = cl.run([&](Thread& t) {
      if (t.node() == 0 && t.tid() == 0) (void)t.load(y);
      t.barrier();
      if (t.node() == 0) sum += t.load(y);
      t.barrier();
    });
    const std::string what = "pipeline " + std::to_string(w.pipeline);
    EXPECT_EQ(e, w.elapsed) << what;
    EXPECT_EQ(sum, 4u * 1616u) << what;
    const auto& cs = cl.coherence_stats();
    EXPECT_EQ(cs.read_misses, 5u) << what;
    EXPECT_EQ(cs.read_hits, 0u) << what;
    EXPECT_EQ(cs.line_fetches, 2u) << what;
    EXPECT_EQ(cl.stats().counter("sim.gated_waits"), 3u) << what;
  }
}

// The SI sweep visits only live lines: those latched or holding a buffer
// (DESIGN.md, "SI live set"). The three cases below pin what the sweep
// does when liveness changes under it; each holds for the full sweep of
// every occupied line as much as for the live-set walk.

// A line latched mid-fill when the sweep reaches it is live: the sweep
// waits out the fill (a clean sweep under S costs no virtual time of its
// own) and then invalidates the page the fill brought in.
TEST(SiLiveSet, LineMidFillIsWaitedForAndSwept) {
  for (const int pipeline : {1, 16}) {
    auto cfg = small_cfg(2, 2, Mode::S);
    cfg.net.pipeline = pipeline;
    Cluster cl(cfg);
    auto y = page_addr(16).cast<std::uint64_t>();  // homed on node 1
    *cl.host_ptr(y) = 1616;
    cl.reset_classification();
    const std::string what = "pipeline " + std::to_string(pipeline);
    cl.run([&](Thread& t) {
      if (t.node() != 0) return;
      const auto& stats = t.cache().stats();
      if (t.tid() == 0) {
        EXPECT_EQ(t.load(y), 1616u) << what;
      } else {
        while (stats.line_fetches == 0) t.compute(10);  // fill on the wire
        const Time start = t.now();
        t.acquire();
        EXPECT_GT(t.now(), start) << what;
        EXPECT_EQ(stats.si_invalidations, 1u) << what;
        EXPECT_EQ(t.cache().resident_pages(), 0u) << what;
      }
    });
  }
}

// Line Y ranks below the fence's starting size but is empty when the
// fence starts. It turns live (a refill latches it) while the sweep is
// parked on X's writebacks, so the sweep must reach it and invalidate it.
TEST(SiLiveSet, LineTurningLiveMidSweepIsSwept) {
  auto cfg = small_cfg(2, 2, Mode::S, /*pages_per_line=*/4);
  cfg.net.pipeline = 1;  // each writeback parks the sweep
  Cluster cl(cfg);
  auto x = page_addr(16).cast<std::uint64_t>();  // lines X = 16..19 and
  auto y = page_addr(20).cast<std::uint64_t>();  // Y = 20..23, node 1's
  *cl.host_ptr(y) = 2020;
  cl.reset_classification();
  bool fencing = false;
  cl.run([&](Thread& t) {
    if (t.node() == 0 && t.tid() == 0) {
      t.store(x, std::uint64_t{1});  // X takes rank 0
      (void)t.load(y);               // Y takes rank 1
    }
    t.barrier();  // writes X back; the SI sweep empties both lines
    if (t.node() != 0) return;
    const auto& stats = t.cache().stats();
    if (t.tid() == 0) {
      for (std::ptrdiff_t pg = 0; pg < 4; ++pg)
        t.store(x + pg * static_cast<std::ptrdiff_t>(kPageSize / 8),
                std::uint64_t{2});
      const std::uint64_t before = stats.si_invalidations;
      fencing = true;
      t.acquire();
      EXPECT_EQ(stats.si_invalidations - before, 8u);  // X's 4 and Y's 4
    } else {
      while (!fencing) t.compute(10);
      const std::uint64_t fetches = stats.line_fetches;
      EXPECT_EQ(t.load(y), 2020u);
      EXPECT_EQ(stats.line_fetches, fetches + 1);
    }
  });
}

// Y is live when a second fence starts, but the first fence (ahead of it
// in the sweep order) empties Y while the second waits on X's latch. The
// second sweep then skips Y: every page is invalidated exactly once, and
// each line buffer (and X's twin) goes back to the pool once.
TEST(SiLiveSet, LineEmptiedMidSweepIsSkipped) {
  auto cfg = small_cfg(2, 2, Mode::S);
  cfg.net.pipeline = 1;
  Cluster cl(cfg);
  auto x = page_addr(16).cast<std::uint64_t>();  // both homed on node 1
  auto y = page_addr(20).cast<std::uint64_t>();
  *cl.host_ptr(y) = 2020;
  cl.reset_classification();
  bool fencing = false;
  cl.run([&](Thread& t) {
    if (t.node() != 0) return;
    const auto& stats = t.cache().stats();
    const auto& pool = t.cache().buffer_pool();
    if (t.tid() == 0) {
      t.store(x, std::uint64_t{1});  // X: rank 0, dirty
      EXPECT_EQ(t.load(y), 2020u);   // Y: rank 1, clean
      fencing = true;
      t.acquire();
    } else {
      while (!fencing) t.compute(10);
      const std::size_t pooled = pool.pooled_buffers();
      t.acquire();
      EXPECT_EQ(stats.si_fences, 2u);
      EXPECT_EQ(stats.si_invalidations, 2u);
      EXPECT_EQ(t.cache().resident_pages(), 0u);
      EXPECT_EQ(pool.pooled_buffers(), pooled + 3);
      EXPECT_EQ(t.load(y), 2020u);
      EXPECT_EQ(t.load(x), 1u);
    }
  });
}

TEST(Carina, AtomicsAccumulateAcrossNodes) {
  Cluster cl(small_cfg(4, 2, Mode::PS3));
  auto ctr = cl.alloc<std::uint64_t>(1);
  cl.run([&](Thread& t) {
    for (int i = 0; i < 100; ++i) t.atomic_fetch_add(ctr, 1);
  });
  EXPECT_EQ(*cl.host_ptr(ctr), 800u);
}

TEST(Carina, BulkTransfersSpanPages) {
  Cluster cl(small_cfg(2, 1, Mode::PS3));
  const std::size_t n = 3 * kPageSize / sizeof(std::uint32_t);  // 3 pages
  auto arr = gptr<std::uint32_t>(18 * kPageSize);  // homed on node 1
  std::vector<std::uint32_t> src(n), dst(n);
  for (std::size_t i = 0; i < n; ++i) src[i] = static_cast<std::uint32_t>(i * 7);
  cl.run([&](Thread& t) {
    if (t.node() == 0) t.store_bulk(arr, src.data(), n);
    t.barrier();
    if (t.node() == 1) {
      t.load_bulk(arr, dst.data(), n);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(dst[i], static_cast<std::uint32_t>(i * 7));
    }
  });
}

TEST(Carina, ResetClassificationDropsCaches) {
  Cluster cl(small_cfg(2, 1, Mode::PS3));
  cl.run([&](Thread& t) {
    if (t.node() == 0)
      for (std::uint64_t pg = 16; pg < 20; ++pg)
        (void)t.load(page_addr(pg).cast<std::uint64_t>());
    t.barrier();
  });
  EXPECT_GT(cl.node_cache(0).resident_pages(), 0u);
  cl.reset_classification();
  EXPECT_EQ(cl.node_cache(0).resident_pages(), 0u);
  EXPECT_FALSE(cl.dir().host_entry(16).any());
}

TEST(Carina, RunSubsetUsesFewerNodes) {
  Cluster cl(small_cfg(4, 4, Mode::PS3));
  int max_gid = -1;
  cl.run_subset(2, 3, [&](Thread& t) {
    EXPECT_LT(t.node(), 2);
    EXPECT_LT(t.tid(), 3);
    EXPECT_EQ(t.nthreads(), 6);
    max_gid = std::max(max_gid, t.gid());
    t.barrier();
  });
  EXPECT_EQ(max_gid, 5);
}

TEST(Carina, DeterministicReplayOfWholeCluster) {
  auto trace = [](std::uint64_t seed) {
    Cluster cl(small_cfg(3, 2, Mode::PS3, 2, 16, 8));
    auto arr = cl.alloc<std::uint64_t>(512);
    Time dur = cl.run([&](Thread& t) {
      argosim::Rng rng(seed + static_cast<std::uint64_t>(t.gid()));
      for (int i = 0; i < 200; ++i) {
        auto idx = rng.next_below(512);
        if (rng.next_bool(0.3))
          t.store(arr + static_cast<std::ptrdiff_t>(idx), rng.next_u64());
        else
          (void)t.load(arr + static_cast<std::ptrdiff_t>(idx));
        if (i % 50 == 49) t.barrier();
      }
      t.barrier();
    });
    auto st = cl.coherence_stats();
    return std::tuple(dur, st.read_misses, st.writebacks, st.bytes_fetched,
                      cl.net_stats().total_bytes());
  };
  EXPECT_EQ(trace(1), trace(1));
  EXPECT_NE(std::get<0>(trace(1)), std::get<0>(trace(2)));
}

TEST(Carina, AllModesComputeTheSameResult) {
  // The classification mode is a pure performance knob: identical DRF
  // programs must produce identical memory contents under every mode.
  auto run_mode = [](Mode m) {
    Cluster cl(small_cfg(4, 2, m, 2, 16, 8));
    auto arr = cl.alloc<std::uint64_t>(2048);
    cl.run([&](Thread& t) {
      for (int round = 0; round < 3; ++round) {
        for (std::size_t i = static_cast<std::size_t>(t.gid()); i < 2048;
             i += static_cast<std::size_t>(t.nthreads()))
          t.store(arr + static_cast<std::ptrdiff_t>(i),
                  static_cast<std::uint64_t>(round * 1000 + i));
        t.barrier();
        std::uint64_t sum = 0;
        for (std::size_t i = 0; i < 2048; i += 37)
          sum += t.load(arr + static_cast<std::ptrdiff_t>(i));
        t.store(arr + static_cast<std::ptrdiff_t>(2000 + t.gid()), sum);
        t.barrier();
      }
    });
    std::vector<std::uint64_t> out(2048);
    for (std::size_t i = 0; i < 2048; ++i) out[i] = cl.host_ptr(arr)[i];
    return out;
  };
  auto s = run_mode(Mode::S);
  EXPECT_EQ(s, run_mode(Mode::PS));
  EXPECT_EQ(s, run_mode(Mode::PS3));
}

TEST(ClusterConfig, ValidateRejectsOutOfRangeNodeCounts) {
  ClusterConfig cfg;
  cfg.nodes = argodir::max_nodes();  // the full multi-word range is legal
  EXPECT_NO_THROW(cfg.validate());
  cfg.nodes = argodir::max_nodes() + 1;
  try {
    cfg.validate();
    FAIL() << "expected std::invalid_argument for nodes past the ceiling";
  } catch (const std::invalid_argument& e) {
    // The message must name the offending value and the supported range.
    const std::string msg = e.what();
    EXPECT_NE(msg.find(std::to_string(argodir::max_nodes() + 1)),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find(std::to_string(argodir::max_nodes())),
              std::string::npos)
        << msg;
  }
  cfg.nodes = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.nodes = 4;
  cfg.threads_per_node = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  // The Cluster constructor applies the same validation.
  ClusterConfig bad = small_cfg(1, 1, Mode::PS3);
  bad.nodes = argodir::max_nodes() + 1;
  EXPECT_THROW(Cluster{bad}, std::invalid_argument);
}

}  // namespace
}  // namespace argo
