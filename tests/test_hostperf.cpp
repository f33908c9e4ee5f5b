// Host-path performance machinery: block-wise diff scanning, page-buffer
// pooling, and the scheduler fast paths. Everything here checks the same
// contract from a different angle: the fast implementations must be
// *observationally identical* to the seed behaviour — same diff runs as
// the reference scanner, same buffer contents, the virtual times the
// scheduler's (time, sequence) order defines, the traces and statistics
// the seed implementations recorded — differing only in host work.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <vector>

#include "core/carina.hpp"
#include "core/cluster.hpp"
#include "core/diff.hpp"
#include "core/tlb.hpp"
#include "fingerprint.hpp"
#include "mem/pool.hpp"
#include "obs/export.hpp"
#include "sim/engine.hpp"

namespace {

using argocore::DiffRun;
using argocore::diff_runs;
using argocore::diff_runs_reference;
using argocore::kDiffMergeGap;

// ---------------------------------------------------------------------------
// Block diff scanner vs the reference byte scanner

std::vector<DiffRun> scan_reference(const std::vector<std::byte>& cur,
                                    const std::vector<std::byte>& twin) {
  std::vector<DiffRun> out;
  diff_runs_reference(cur.data(), twin.data(), cur.size(), out);
  return out;
}

std::vector<DiffRun> scan_fast(const std::vector<std::byte>& cur,
                               const std::vector<std::byte>& twin) {
  std::vector<DiffRun> out;
  diff_runs(cur.data(), twin.data(), cur.size(), out);
  return out;
}

std::size_t wire_bytes(const std::vector<DiffRun>& runs) {
  std::size_t n = 0;
  for (const DiffRun& r : runs) n += r.len + 8;
  return n;
}

// The equivalence check every case below funnels through: identical run
// sequences (offsets and lengths) and hence identical wire-byte charges.
void expect_identical(const std::vector<std::byte>& cur,
                      const std::vector<std::byte>& twin) {
  ASSERT_EQ(cur.size(), twin.size());
  const auto ref = scan_reference(cur, twin);
  const auto fast = scan_fast(cur, twin);
  ASSERT_EQ(ref.size(), fast.size()) << "page size " << cur.size();
  for (std::size_t k = 0; k < ref.size(); ++k) {
    EXPECT_EQ(ref[k].off, fast[k].off) << "run " << k;
    EXPECT_EQ(ref[k].len, fast[k].len) << "run " << k;
  }
  EXPECT_EQ(wire_bytes(ref), wire_bytes(fast));
}

std::vector<std::byte> bytes(std::size_t n, std::uint8_t fill = 0xAA) {
  return std::vector<std::byte>(n, std::byte{fill});
}

TEST(DiffRuns, AllEqualAndAllDifferent) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{8}, std::size_t{63},
                              std::size_t{4096}}) {
    auto cur = bytes(n);
    auto twin = bytes(n);
    expect_identical(cur, twin);
    EXPECT_TRUE(scan_fast(cur, twin).empty());
    for (auto& b : cur) b = std::byte{0x55};
    expect_identical(cur, twin);
    if (n > 0) {
      const auto runs = scan_fast(cur, twin);
      ASSERT_EQ(runs.size(), 1u);
      EXPECT_EQ(runs[0].off, 0u);
      EXPECT_EQ(runs[0].len, n);
    }
  }
}

TEST(DiffRuns, SingleByteAtEveryOffsetOfASmallPage) {
  // Exhaustive over a three-word page: every position, including the first
  // and last byte of every word and of the buffer.
  constexpr std::size_t n = 24;
  for (std::size_t pos = 0; pos < n; ++pos) {
    auto cur = bytes(n);
    auto twin = bytes(n);
    cur[pos] = std::byte{0x00};
    expect_identical(cur, twin);
    const auto runs = scan_fast(cur, twin);
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0].off, pos);
    EXPECT_EQ(runs[0].len, 1u);
  }
}

TEST(DiffRuns, TrailingByteOfAFullPage) {
  auto cur = bytes(4096);
  auto twin = bytes(4096);
  cur[4095] = std::byte{0};
  expect_identical(cur, twin);
}

TEST(DiffRuns, TailShorterThanAWord) {
  // Sizes with a sub-8-byte tail, with changes confined to the tail.
  for (const std::size_t n : {std::size_t{9}, std::size_t{15}, std::size_t{37},
                              std::size_t{4093}}) {
    for (std::size_t back = 1; back <= 3 && back <= n; ++back) {
      auto cur = bytes(n);
      auto twin = bytes(n);
      cur[n - back] = std::byte{1};
      expect_identical(cur, twin);
    }
  }
}

TEST(DiffRuns, GapsAroundTheMergeThreshold) {
  // Two dirty bytes separated by every gap width around kDiffMergeGap, the
  // pair swept across word phases so the gap straddles 0, 1 or 2 word
  // boundaries. gap < 8 must merge into one run; gap >= 8 must split.
  for (std::size_t gap = kDiffMergeGap - 3; gap <= kDiffMergeGap + 3; ++gap) {
    for (std::size_t phase = 0; phase < 8; ++phase) {
      auto cur = bytes(64);
      auto twin = bytes(64);
      const std::size_t a = 8 + phase;
      const std::size_t b = a + 1 + gap;
      ASSERT_LT(b, cur.size());
      cur[a] = std::byte{1};
      cur[b] = std::byte{2};
      expect_identical(cur, twin);
      const auto runs = scan_fast(cur, twin);
      if (gap < kDiffMergeGap) {
        ASSERT_EQ(runs.size(), 1u) << "gap " << gap << " phase " << phase;
        EXPECT_EQ(runs[0].off, a);
        EXPECT_EQ(runs[0].len, b - a + 1);
      } else {
        ASSERT_EQ(runs.size(), 2u) << "gap " << gap << " phase " << phase;
        EXPECT_EQ(runs[0], (DiffRun{a, 1}));
        EXPECT_EQ(runs[1], (DiffRun{b, 1}));
      }
    }
  }
}

TEST(DiffRuns, RunsAlignedToWordBoundaries) {
  // Whole dirty words with whole equal words between them: the pure
  // word-stepping path on both sides of the threshold (8 equal bytes ends
  // the run exactly at the boundary; the next word starts the next run).
  auto cur = bytes(64);
  auto twin = bytes(64);
  for (std::size_t k = 0; k < 8; k += 2)
    for (std::size_t b = 0; b < 8; ++b) cur[k * 8 + b] = std::byte{7};
  expect_identical(cur, twin);
  const auto runs = scan_fast(cur, twin);
  ASSERT_EQ(runs.size(), 4u);
  for (std::size_t k = 0; k < 4; ++k)
    EXPECT_EQ(runs[k], (DiffRun{k * 16, 8})) << "run " << k;
}

TEST(DiffRuns, RunsAndGapsStraddlingBlockEdges) {
  // The block scanner builds one equal-byte mask per 64 bytes, so a run's
  // closing window can start in one block and end in the next. Sweep two
  // dirty runs and every gap of 1..9 equal bytes across each edge of a
  // 256-byte page (and its 250-byte truncation, whose last block is short).
  for (const std::size_t n : {std::size_t{256}, std::size_t{250}}) {
    for (std::size_t edge = 64; edge < n; edge += 64) {
      for (std::size_t gap = 1; gap <= kDiffMergeGap + 1; ++gap) {
        for (std::size_t len = 1; len <= 3; ++len) {
          for (std::size_t shift = 0; shift <= gap + len + 1; ++shift) {
            const std::size_t a = edge + shift - (gap + len + 1);
            const std::size_t b = a + len + gap;
            if (b + len > n) continue;
            auto cur = bytes(n);
            auto twin = bytes(n);
            for (std::size_t k = 0; k < len; ++k) {
              cur[a + k] = std::byte{1};
              cur[b + k] = std::byte{2};
            }
            expect_identical(cur, twin);
            const auto runs = scan_fast(cur, twin);
            if (gap < kDiffMergeGap) {
              ASSERT_EQ(runs.size(), 1u) << "edge " << edge << " gap " << gap;
              EXPECT_EQ(runs[0], (DiffRun{a, b + len - a}));
            } else {
              ASSERT_EQ(runs.size(), 2u) << "edge " << edge << " gap " << gap;
              EXPECT_EQ(runs[1], (DiffRun{b, len}));
            }
          }
        }
      }
    }
  }
}

TEST(DiffRuns, RunEndingExactlyAtABlockEdge) {
  // A run whose last dirty byte is the last byte of a block: followed by
  // a whole equal block, by fewer than 8 equal bytes and another run, and
  // by the end of the buffer.
  for (const std::size_t len : {std::size_t{1}, std::size_t{8},
                                std::size_t{64}}) {
    auto cur = bytes(192);
    auto twin = bytes(192);
    for (std::size_t k = 128 - len; k < 128; ++k) cur[k] = std::byte{3};
    expect_identical(cur, twin);
    EXPECT_EQ(scan_fast(cur, twin),
              (std::vector<DiffRun>{DiffRun{128 - len, len}}));
    cur[128 + 7] = std::byte{4};  // 7 equal bytes: one merged run
    expect_identical(cur, twin);
    EXPECT_EQ(scan_fast(cur, twin),
              (std::vector<DiffRun>{DiffRun{128 - len, len + 8}}));
    auto head = std::vector<std::byte>(cur.begin(), cur.begin() + 128);
    auto head_twin = std::vector<std::byte>(twin.begin(), twin.begin() + 128);
    expect_identical(head, head_twin);
    EXPECT_EQ(scan_fast(head, head_twin),
              (std::vector<DiffRun>{DiffRun{128 - len, len}}));
  }
}

TEST(DiffRuns, RandomizedAdversarialPages) {
  // Randomized property sweep: several mutation regimes over page-sized and
  // odd-sized buffers, fixed seed. Each case is checked run-for-run against
  // the reference scanner.
  std::mt19937 rng(20260805u);
  // Sizes on both sides of the scanner's 64-byte blocks: whole blocks,
  // and final blocks 1, 7, 36 and 63 bytes short.
  const std::size_t sizes[] = {24, 37, 64, 65, 127, 128, 135, 200,
                               512, 4033, 4095, 4096};
  for (int iter = 0; iter < 400; ++iter) {
    const std::size_t n = sizes[rng() % std::size(sizes)];
    std::vector<std::byte> twin(n);
    for (auto& b : twin) b = std::byte(rng() & 0xff);
    auto cur = twin;
    switch (iter % 4) {
      case 0: {  // sparse independent byte flips
        const int flips = 1 + static_cast<int>(rng() % 16);
        for (int f = 0; f < flips; ++f)
          cur[rng() % n] = std::byte(rng() & 0xff);
        break;
      }
      case 1: {  // dirty runs separated by gaps hovering around the threshold
        std::size_t pos = rng() % 8;
        while (pos < n) {
          const std::size_t len = 1 + rng() % 12;
          for (std::size_t b = pos; b < std::min(n, pos + len); ++b)
            cur[b] = std::byte(~static_cast<std::uint8_t>(twin[b]));
          pos += len + (kDiffMergeGap - 2 + rng() % 5);  // gaps 6..10
        }
        break;
      }
      case 2: {  // dense: every byte differs with p = 1/2
        for (std::size_t b = 0; b < n; ++b)
          if (rng() & 1) cur[b] = std::byte(~static_cast<std::uint8_t>(twin[b]));
        break;
      }
      default: {  // word-aligned dirty words, random selection
        for (std::size_t w = 0; w + 8 <= n; w += 8)
          if ((rng() & 3) == 0)
            for (std::size_t b = w; b < w + 8; ++b)
              cur[b] = std::byte(rng() & 0xff);
        break;
      }
    }
    expect_identical(cur, twin);
  }
}

// ---------------------------------------------------------------------------
// BufferPool / PageBuf

TEST(BufferPool, RecyclesBlocksPerSizeClass) {
  argomem::BufferPool pool;
  auto small = pool.acquire(4096);
  auto big = pool.acquire(8192);
  std::byte* const small_block = small.get();
  std::byte* const big_block = big.get();
  EXPECT_EQ(small.size(), 4096u);
  EXPECT_TRUE(static_cast<bool>(small));
  small.reset();
  big.reset();
  EXPECT_FALSE(static_cast<bool>(small));
  EXPECT_EQ(pool.pooled_buffers(), 2u);
  // Same sizes come back as the same blocks, most-recently-released first.
  auto small2 = pool.acquire(4096);
  auto big2 = pool.acquire(8192);
  EXPECT_EQ(small2.get(), small_block);
  EXPECT_EQ(big2.get(), big_block);
  EXPECT_EQ(pool.allocations(), 2u);
  EXPECT_EQ(pool.reuses(), 2u);
  EXPECT_EQ(pool.pooled_buffers(), 0u);
}

TEST(BufferPool, FreshAllocationsAreZeroed) {
  argomem::BufferPool pool;
  auto buf = pool.acquire(4096);
  for (std::size_t i = 0; i < 4096; ++i)
    ASSERT_EQ(buf.get()[i], std::byte{0}) << "byte " << i;
}

TEST(BufferPool, MoveTransfersOwnershipWithoutMovingBytes) {
  argomem::BufferPool pool;
  auto a = pool.acquire(64);
  a.get()[0] = std::byte{42};
  std::byte* const block = a.get();
  argomem::PageBuf b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_EQ(b.get(), block);
  EXPECT_EQ(b.get()[0], std::byte{42});
  b.reset();
  EXPECT_EQ(pool.pooled_buffers(), 1u);
}

TEST(BufferPool, CarinaReusesBuffersInSteadyState) {
  // End-to-end: a repeated shared-write workload must recycle twins and
  // line buffers instead of allocating fresh ones every round (each
  // barrier's SD drains the twins and its SI drops the lines, so every
  // round re-acquires both).
  argo::ClusterConfig c;
  c.nodes = 2;
  c.threads_per_node = 1;
  c.global_mem_bytes = 64 * argomem::kPageSize;
  argo::Cluster cl(c);
  auto arr = cl.alloc<std::uint64_t>(8 * (argomem::kPageSize / 8));
  const std::size_t per_page = argomem::kPageSize / 8;
  cl.reset_classification();
  cl.run([&](argo::Thread& th) {
    for (int round = 0; round < 10; ++round) {
      for (std::size_t p = 0; p < 8; ++p)
        th.store(arr.at(p * per_page + static_cast<std::size_t>(th.node())),
                 static_cast<std::uint64_t>(round));
      th.barrier();
    }
  });
  std::uint64_t reuses = 0;
  for (int n = 0; n < c.nodes; ++n)
    reuses += cl.node_cache(n).buffer_pool().reuses();
  EXPECT_GT(reuses, 0u);
}

// ---------------------------------------------------------------------------
// Scheduler fast paths

TEST(EngineFastForward, LoneFiberNeverRoundTripsThroughTheScheduler) {
  argosim::Engine eng;
  eng.spawn("solo", [] {
    for (int i = 0; i < 100; ++i) argosim::delay(10);
  });
  eng.run();
  EXPECT_EQ(eng.now(), 1000u);
  // The first delay may or may not fast-forward (spawn queues an entry);
  // once running alone, every subsequent delay must.
  EXPECT_GE(eng.delay_fast_forwards(), 99u);
}

TEST(EngineFastForward, VirtualTimesMatchSlowPathsExactly) {
  // Two fibers delaying by 7 and 11: every observed (virtual time, fiber)
  // pair must follow the scheduler's order whether or not a delay
  // fast-forwards. The model: fibers wake in (wake time, time the delay
  // was issued, spawn order) order — the run queue's (time, sequence) key.
  using Obs = std::vector<std::pair<argosim::Time, int>>;
  argosim::Engine eng;
  Obs obs;
  eng.spawn("a", [&] {
    for (int i = 0; i < 50; ++i) {
      argosim::delay(7);
      obs.emplace_back(argosim::now(), 0);
    }
  });
  eng.spawn("b", [&] {
    for (int i = 0; i < 50; ++i) {
      argosim::delay(11);
      obs.emplace_back(argosim::now(), 1);
    }
  });
  eng.run();
  obs.emplace_back(eng.now(), -1);

  struct Fiber {
    argosim::Time period, wake, issued;
    int left;
  };
  Fiber f[2] = {{7, 7, 0, 50}, {11, 11, 0, 50}};
  Obs model;
  while (f[0].left > 0 || f[1].left > 0) {
    int next = f[0].left > 0 ? 0 : 1;
    if (next == 0 && f[1].left > 0 &&
        std::pair(f[1].wake, f[1].issued) < std::pair(f[0].wake, f[0].issued))
      next = 1;
    model.emplace_back(f[next].wake, next);
    f[next].issued = f[next].wake;
    f[next].wake += f[next].period;
    --f[next].left;
  }
  model.emplace_back(550, -1);  // b's last wake ends the run
  EXPECT_EQ(obs, model);
  EXPECT_GT(eng.delay_fast_forwards(), 0u);
}

TEST(EngineFastForward, YieldFairnessSurvivesTies) {
  // Fibers that yield at the same instant must round-robin in spawn order
  // with the fast path on (ties must go through the scheduler).
  argosim::Engine eng;
  std::vector<int> order;
  for (int f = 0; f < 3; ++f) {
    eng.spawn("t" + std::to_string(f), [&order, f] {
      for (int i = 0; i < 5; ++i) {
        order.push_back(f);
        argosim::yield();
      }
    });
  }
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0,
                                     1, 2}));
}

TEST(EngineFastForward, StackPoolRecyclesSequentialSpawns) {
  argosim::Engine eng;
  // Spawn fibers from inside the simulation so earlier ones finish (and
  // donate their stacks) before later ones start.
  eng.spawn("spawner", [&eng] {
    for (int i = 0; i < 8; ++i) {
      eng.spawn("child" + std::to_string(i), [] { argosim::delay(1); });
      argosim::delay(10);
    }
  });
  eng.run();
  EXPECT_GT(eng.stacks_reused(), 0u);
}

// ---------------------------------------------------------------------------
// Fiber stacks: lazily committed mappings with a guard page

TEST(FiberStacks, SpawnedStacksCommitOnlyTouchedPages) {
  argosim::Engine eng;
  std::vector<argosim::SimThread*> fibers;
  for (int i = 0; i < 64; ++i)
    fibers.push_back(eng.spawn("f" + std::to_string(i), [] {
      volatile char frame[4096];  // with its callers, well under 8 KiB
      for (std::size_t k = 0; k < sizeof frame; k += 64) frame[k] = 1;
      argosim::delay(100);
    }));
  std::vector<std::size_t> resident;
  eng.spawn("probe", [&] {
    argosim::delay(10);  // every fiber above is parked inside its delay
    const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    for (const argosim::SimThread* f : fibers) {
      const argosim::FiberStack& st = f->stack();
      std::vector<unsigned char> vec(st.size() / page);
      ASSERT_EQ(mincore(st.base(), st.size(), vec.data()), 0);
      resident.push_back(static_cast<std::size_t>(std::count_if(
          vec.begin(), vec.end(), [](unsigned char v) { return v & 1; })));
    }
  });
  eng.run();
  ASSERT_EQ(resident.size(), fibers.size());
  for (const std::size_t pages : resident) EXPECT_LE(pages, 4u);
  EXPECT_EQ(eng.stacks_mapped(), 65u);
}

// Recurses through at least 128 KiB of stack and returns. Every frame is
// smaller than the guard page, so an overflow cannot jump over it.
int recurse_deep(int depth) {
  volatile char frame[512];
  frame[0] = static_cast<char>(depth);
  if (depth > 256) return frame[0];
  return recurse_deep(depth + 1) + frame[0];
}

// On a 64 KiB fiber stack the recursion must fault on the guard page; a
// heap-allocated stack lets it return after overwriting whatever lay below.
TEST(FiberStacksDeathTest, OverflowFaultsOnTheGuardPage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        argosim::Engine eng;
        eng.spawn("deep", [] { recurse_deep(0); }, false, 64 * 1024);
        eng.run();
      },
      "");
}

#if defined(__SANITIZE_ADDRESS__)
// Stores `v` at p[i]; out of line, so the store is checked against the
// caller's frame rather than folded away.
[[gnu::noinline]] void store_at(char* p, std::size_t i, char v) { p[i] = v; }

// The fiber-switch annotations keep ASan's view of a pooled stack right: a
// fiber on a stack that earlier fibers died on gets its overflow reported
// against the overflowed variable of its own frame. Without the
// annotations ASan still trips on the redzone, but cannot place the
// address in any known stack and calls it a wild pointer.
TEST(FiberStacksDeathTest, AsanReportsOverflowOnARecycledStack) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        argosim::Engine eng;
        for (int i = 0; i < 3; ++i) {
          eng.spawn("first", [] { argosim::delay(1); });
          eng.run();
        }
        if (eng.stacks_reused() == 0) std::abort();  // no pooled stack
        eng.spawn("overflow", [] {
          char buf[8] = {};
          volatile std::size_t i = sizeof buf;
          store_at(buf, i, 1);
        });
        eng.run();
      },
      "stack-buffer-overflow.*'buf' <== Memory access at offset [0-9]+ "
      "overflows this variable");
}
#endif

// ---------------------------------------------------------------------------
// Soft-TLB (core/tlb.hpp): the MMU-analogue hit path. Unit tests for the
// translation array itself, directed tests for every generation-bump site,
// and a randomized property suite against recorded seed results.

TEST(SoftTlb, HitNeedsPageAndGenerationMatch) {
  argocore::SoftTlb tlb;
  std::uint64_t counter = 0;
  std::byte page[8];
  tlb.insert_read(5, 1, page, &counter);
  EXPECT_EQ(tlb.lookup_read(5, 1), page);
  EXPECT_EQ(counter, 1u);  // a hit bumps exactly the slow path's counter
  EXPECT_EQ(tlb.host_hits, 1u);
  EXPECT_EQ(tlb.lookup_read(5, 2), nullptr);   // stale generation
  EXPECT_EQ(tlb.lookup_read(6, 1), nullptr);   // different page
  EXPECT_EQ(tlb.lookup_write(5, 1), nullptr);  // ways are independent
  EXPECT_EQ(counter, 1u);                      // misses bump nothing
  EXPECT_EQ(tlb.host_hits, 1u);
}

TEST(SoftTlb, ZeroInitializedEntriesNeverMatchLiveGenerations) {
  // NodeCache generations start at 1 precisely so a zero-filled entry
  // (page sentinel ~0, gen 0) can never satisfy a live lookup.
  argocore::SoftTlb tlb;
  for (const std::uint64_t pg :
       {std::uint64_t{0}, std::uint64_t{63}, std::uint64_t{1} << 40})
    EXPECT_EQ(tlb.lookup_read(pg, 1), nullptr) << "page " << pg;
  EXPECT_EQ(tlb.host_hits, 0u);
}

TEST(SoftTlb, DirectMappedInsertEvictsConflictingPage) {
  argocore::SoftTlb tlb;
  std::uint64_t c1 = 0, c2 = 0;
  std::byte a[8], b[8];
  const std::uint64_t p = 3, q = p + argocore::SoftTlb::kEntries;
  tlb.insert_read(p, 1, a, &c1);
  tlb.insert_read(q, 1, b, &c2);  // same slot: displaces p
  EXPECT_EQ(tlb.lookup_read(p, 1), nullptr);
  EXPECT_EQ(tlb.lookup_read(q, 1), b);
  EXPECT_EQ(c1, 0u);
  EXPECT_EQ(c2, 1u);
}

TEST(SoftTlb, FlushDropsBothWays) {
  argocore::SoftTlb tlb;
  std::uint64_t c = 0;
  std::byte page[8];
  tlb.insert_read(7, 1, page, &c);
  tlb.insert_write(9, 1, page, &c);
  tlb.flush();
  EXPECT_EQ(tlb.lookup_read(7, 1), nullptr);
  EXPECT_EQ(tlb.lookup_write(9, 1), nullptr);
}

// --- Directed generation-bump sites ----------------------------------------
//
// Each test provokes exactly one protocol event class on a small cluster
// and checks that (a) the event's stats counter fired and (b) the node's
// TLB generation advanced, so any translation a thread held across the
// event is revoked. The other node's thread idles through the body.

constexpr std::size_t kWordsPerPage = argomem::kPageSize / sizeof(std::uint64_t);

argo::ClusterConfig tlb_cfg(argo::Mode mode = argo::Mode::PS3) {
  argo::ClusterConfig c;
  c.nodes = 2;
  c.threads_per_node = 1;
  c.global_mem_bytes = 64 * argomem::kPageSize;
  c.cache.classification = mode;
  return c;
}

// With the blocked home mapping the upper half of global memory is homed
// on node 1, i.e. remote for node 0's thread.
constexpr std::size_t kRemotePg = 40, kRemotePg2 = 42;

TEST(SoftTlbGen, LineFillBumpsGeneration) {
  argo::Cluster cl(tlb_cfg());
  auto arr = cl.alloc<std::uint64_t>(64 * kWordsPerPage);
  cl.reset_classification();
  cl.run([&](argo::Thread& t) {
    if (t.node() != 0) return;
    const auto target = arr + static_cast<std::ptrdiff_t>(kRemotePg * kWordsPerPage);
    ASSERT_FALSE(t.is_home(target.raw()));
    const std::uint64_t before = t.cache().tlb_generation();
    (void)t.load(target);
    EXPECT_GT(t.cache().tlb_generation(), before);
  });
  EXPECT_GT(cl.node_cache(0).stats().line_fetches, 0u);
}

TEST(SoftTlbGen, ConflictEvictionBumpsGeneration) {
  auto c = tlb_cfg();
  c.cache.cache_lines = 1;  // every group maps to the same slot
  argo::Cluster cl(c);
  auto arr = cl.alloc<std::uint64_t>(64 * kWordsPerPage);
  cl.reset_classification();
  cl.run([&](argo::Thread& t) {
    if (t.node() != 0) return;
    (void)t.load(arr + static_cast<std::ptrdiff_t>(kRemotePg * kWordsPerPage));
    const std::uint64_t before = t.cache().tlb_generation();
    (void)t.load(arr + static_cast<std::ptrdiff_t>(kRemotePg2 * kWordsPerPage));
    EXPECT_GT(t.cache().tlb_generation(), before);
  });
  EXPECT_GT(cl.node_cache(0).stats().evictions, 0u);
}

TEST(SoftTlbGen, WriteBufferOverflowWritebackBumpsGeneration) {
  auto c = tlb_cfg();
  c.cache.write_buffer_pages = 1;  // second dirty page forces a drain
  argo::Cluster cl(c);
  auto arr = cl.alloc<std::uint64_t>(64 * kWordsPerPage);
  cl.reset_classification();
  cl.run([&](argo::Thread& t) {
    if (t.node() != 0) return;
    t.store(arr + static_cast<std::ptrdiff_t>(kRemotePg * kWordsPerPage),
            std::uint64_t{1});
    const std::uint64_t before = t.cache().tlb_generation();
    t.store(arr + static_cast<std::ptrdiff_t>(kRemotePg2 * kWordsPerPage),
            std::uint64_t{2});
    EXPECT_GT(t.cache().tlb_generation(), before);
  });
  EXPECT_GT(cl.node_cache(0).stats().writebacks, 0u);
}

TEST(SoftTlbGen, SdFenceDrainBumpsGeneration) {
  argo::Cluster cl(tlb_cfg());
  auto arr = cl.alloc<std::uint64_t>(64 * kWordsPerPage);
  cl.reset_classification();
  cl.run([&](argo::Thread& t) {
    if (t.node() != 0) return;
    t.store(arr + static_cast<std::ptrdiff_t>(kRemotePg * kWordsPerPage),
            std::uint64_t{7});
    const std::uint64_t before = t.cache().tlb_generation();
    t.release();  // SD fence: drains the write buffer, retiring the dirty page
    EXPECT_GT(t.cache().tlb_generation(), before);
  });
  EXPECT_GT(cl.node_cache(0).stats().writebacks, 0u);
  EXPECT_GT(cl.node_cache(0).stats().sd_fences, 0u);
}

TEST(SoftTlbGen, SiFenceInvalidationBumpsGeneration) {
  argo::Cluster cl(tlb_cfg());
  auto arr = cl.alloc<std::uint64_t>(64 * kWordsPerPage);
  cl.reset_classification();
  const auto shared =
      arr + static_cast<std::ptrdiff_t>(kRemotePg * kWordsPerPage);
  cl.run([&](argo::Thread& t) {
    if (t.node() == 0) (void)t.load(shared);  // node 0 caches the page
    t.barrier();
    if (t.node() == 1) t.store(shared, std::uint64_t{99});  // home write
    std::uint64_t before = 0;
    if (t.node() == 0) before = t.cache().tlb_generation();
    t.barrier();  // node 0's SI must now drop its stale copy
    if (t.node() == 0) {
      EXPECT_GT(t.cache().tlb_generation(), before);
      EXPECT_EQ(t.load(shared), 99u);
    }
    t.barrier();
  });
  EXPECT_GT(cl.node_cache(0).stats().si_invalidations, 0u);
}

TEST(SoftTlbGen, NaiveCheckpointBumpsGeneration) {
  argo::Cluster cl(tlb_cfg(argo::Mode::PSNaive));
  auto arr = cl.alloc<std::uint64_t>(64 * kWordsPerPage);
  cl.reset_classification();
  cl.run([&](argo::Thread& t) {
    if (t.node() != 0) return;
    t.store(arr + static_cast<std::ptrdiff_t>(kRemotePg * kWordsPerPage),
            std::uint64_t{5});
    const std::uint64_t before = t.cache().tlb_generation();
    t.release();  // naive P/S checkpoints the private page instead of draining
    EXPECT_GT(t.cache().tlb_generation(), before);
  });
  EXPECT_GT(cl.node_cache(0).stats().checkpoints, 0u);
}

TEST(SoftTlbGen, NaiveHealBumpsGeneration) {
  argo::Cluster cl(tlb_cfg(argo::Mode::PSNaive));
  auto arr = cl.alloc<std::uint64_t>(64 * kWordsPerPage);
  cl.reset_classification();
  const auto priv = arr + static_cast<std::ptrdiff_t>(kRemotePg * kWordsPerPage);
  cl.run([&](argo::Thread& t) {
    if (t.node() == 0) t.store(priv, std::uint64_t{42});  // page goes private
    t.barrier();  // checkpoint at node 0's SD; home memory stays stale
    if (t.node() == 1) {
      const std::uint64_t before = t.cache().tlb_generation();
      // First foreign access: P→S transition serviced from the owner's
      // checkpoint (the §5.1 strawman's heal).
      EXPECT_EQ(t.load(priv), 42u);
      EXPECT_GT(t.cache().tlb_generation(), before);
    }
    t.barrier();
  });
  std::uint64_t heals = 0;
  for (int n = 0; n < 2; ++n) heals += cl.node_cache(n).stats().heals;
  EXPECT_GT(heals, 0u);
}

// --- Randomized property suite against recorded seed results --------------

// The curated comparable footprint of one node's CoherenceStats (every
// counter plus histogram sample counts).
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

struct RunObs {
  std::vector<std::uint8_t> trace;
  argosim::Time elapsed = 0;
  std::vector<std::vector<std::uint64_t>> stats;
  std::uint64_t mem_hash = 0;
  std::uint64_t tlb_hits = 0;
};

// A DRF torture workload: alternating owner-write / read-anywhere phases
// separated by barriers, on a cache small enough to force conflict
// evictions and a write buffer small enough to force overflow drains.
RunObs run_random_workload(unsigned seed, bool chaos, argo::Mode mode) {
  argo::ClusterConfig c;
  c.nodes = 2;
  c.threads_per_node = 2;
  c.global_mem_bytes = 128 * argomem::kPageSize;
  c.cache.cache_lines = 8;
  c.cache.pages_per_line = 2;
  c.cache.write_buffer_pages = 4;
  c.cache.classification = mode;
  c.trace.enabled = true;
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
    obs.tlb_hits += cl.node_cache(n).tlb_host_hits();
  }
  obs.mem_hash = argotest::fnv1a(cl.gmem().home_ptr(0), cl.gmem().size());
  return obs;
}

TEST(SoftTlbProperty, FastAndSlowRunsAreObservationallyIdentical) {
  // Every case must reproduce the trace bytes, virtual time, statistics
  // and home-memory image that the seed access path (every access through
  // the full protocol walk, no TLB) recorded — while actually hitting the
  // TLB.
  struct Case {
    unsigned seed;
    bool chaos;
    argo::Mode mode;
    std::uint64_t trace_hash;
    argosim::Time elapsed;
    std::uint64_t stats_hash;
    std::uint64_t mem_hash;
  };
  const Case cases[] = {
      {11, false, argo::Mode::PS3, 6605600504360741264ull, 2802500,
       5851523636892835573ull, 15809008420869403481ull},
      {22, false, argo::Mode::PSNaive, 6307022494029687802ull, 3564038,
       11260902253898139594ull, 1108876300358479837ull},
      {33, true, argo::Mode::PS3, 5720383367780776062ull, 2890458,
       6234733779000035948ull, 16127835379076788570ull},
  };
  for (const Case& cs : cases) {
    const RunObs obs = run_random_workload(cs.seed, cs.chaos, cs.mode);
    std::uint64_t stats_hash = argotest::kFnvBasis;
    for (const auto& node : obs.stats)
      stats_hash = argotest::fnv1a(node.data(),
                                   node.size() * sizeof(std::uint64_t),
                                   stats_hash);
    ASSERT_GT(obs.trace.size(), 32u) << "seed " << cs.seed;
    EXPECT_EQ(argotest::fnv1a(obs.trace.data(), obs.trace.size()),
              cs.trace_hash)
        << "seed " << cs.seed;
    EXPECT_EQ(obs.elapsed, cs.elapsed) << "seed " << cs.seed;
    EXPECT_EQ(stats_hash, cs.stats_hash) << "seed " << cs.seed;
    EXPECT_EQ(obs.mem_hash, cs.mem_hash) << "seed " << cs.seed;
    EXPECT_GT(obs.tlb_hits, 0u) << "seed " << cs.seed;
  }
}

// --- Span API ---------------------------------------------------------------

// load_span/store_span promise protocol behavior identical to
// load_bulk/store_bulk over the same ranges: same trace, same virtual
// time, same stats, same memory image.
constexpr std::size_t kCount = 24 * kWordsPerPage;

RunObs run_span_or_bulk(bool use_spans) {
  argo::ClusterConfig c;
  c.nodes = 2;
  c.threads_per_node = 2;
  c.global_mem_bytes = 64 * argomem::kPageSize;
  c.trace.enabled = true;
  argo::Cluster cl(c);
  auto arr = cl.alloc<std::uint64_t>(kCount);
  cl.reset_classification();
  RunObs obs;
  obs.elapsed = cl.run([&](argo::Thread& t) {
    const std::size_t nt = static_cast<std::size_t>(t.nthreads());
    const std::size_t gid = static_cast<std::size_t>(t.gid());
    const std::size_t lo = kCount * gid / nt, hi = kCount * (gid + 1) / nt;
    if (use_spans) {
      auto p = arr + static_cast<std::ptrdiff_t>(lo);
      std::size_t left = hi - lo, base = lo;
      while (left > 0) {
        auto sp = t.store_span(p, left);
        for (std::size_t i = 0; i < sp.size(); ++i)
          sp[i] = (base + i) * 3 + 1;
        p += static_cast<std::ptrdiff_t>(sp.size());
        base += sp.size();
        left -= sp.size();
      }
    } else {
      std::vector<std::uint64_t> buf(hi - lo);
      for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = (lo + i) * 3 + 1;
      t.store_bulk(arr + static_cast<std::ptrdiff_t>(lo), buf.data(),
                   buf.size());
    }
    t.barrier();
    std::uint64_t sum = 0;
    if (use_spans) {
      auto p = arr;
      std::size_t left = kCount;
      while (left > 0) {
        const auto sp = t.load_span(p, left);
        for (const std::uint64_t v : sp) sum += v;
        p += static_cast<std::ptrdiff_t>(sp.size());
        left -= sp.size();
      }
    } else {
      std::vector<std::uint64_t> buf(kCount);
      t.load_bulk(arr, buf.data(), kCount);
      for (const std::uint64_t v : buf) sum += v;
    }
    EXPECT_EQ(sum, [] {
      std::uint64_t s = 0;
      for (std::size_t i = 0; i < kCount; ++i) s += i * 3 + 1;
      return s;
    }());
    t.barrier();
  });
  obs.trace = argoobs::encode_binary(cl.tracer().snapshot(),
                                     cl.tracer().dropped());
  for (int n = 0; n < c.nodes; ++n) {
    obs.stats.push_back(stat_fields(cl.node_cache(n).stats()));
    obs.tlb_hits += cl.node_cache(n).tlb_host_hits();
  }
  return obs;
}

TEST(SoftTlbSpans, SpanAndBulkAccessesAreProtocolIdentical) {
  const RunObs spans = run_span_or_bulk(true);
  const RunObs bulk = run_span_or_bulk(false);
  ASSERT_GT(spans.trace.size(), 32u);
  EXPECT_EQ(spans.trace, bulk.trace);
  EXPECT_EQ(spans.elapsed, bulk.elapsed);
  EXPECT_EQ(spans.stats, bulk.stats);
}

}  // namespace
