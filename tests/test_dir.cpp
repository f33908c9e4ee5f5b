// Unit tests for the Pyxis passive classification directory (src/dir),
// including the multi-word (> 32 nodes) entry encoding and the randomized
// property suite comparing it against a scalar reference model.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include "dir/pyxis.hpp"
#include "core/policy.hpp"
#include "sim/engine.hpp"

namespace argodir {
namespace {

using argocore::classify;
using argocore::Mode;
using argocore::PageState;
using argocore::SdAction;
using argocore::sd_action;
using argocore::si_required;
using argomem::GlobalMemory;
using argomem::kPageSize;
using argonet::Interconnect;
using argonet::NetConfig;
using argosim::Engine;

TEST(DirEntry, BitEncodingAndDecoding) {
  DirEntry w = DirEntry::reader(0).add_reader(5).add_writer(5);
  EXPECT_TRUE(w.is_reader(0));
  EXPECT_TRUE(w.is_reader(5));
  EXPECT_FALSE(w.is_reader(1));
  EXPECT_TRUE(w.is_writer(5));
  EXPECT_FALSE(w.is_writer(0));
  EXPECT_EQ(w.reader_count(), 2);
  EXPECT_EQ(w.writer_count(), 1);
  EXPECT_EQ(w.single_writer(), 5);
  EXPECT_EQ(w.accessors(0), 0b100001u);
}

TEST(DirEntry, PrivateClassification) {
  DirEntry empty;
  EXPECT_TRUE(empty.private_to(3));  // untouched: trivially private
  EXPECT_FALSE(empty.self_only(3));  // ...but not yet its accessor
  DirEntry mine = DirEntry::accessor(3);
  EXPECT_TRUE(mine.private_to(3));
  EXPECT_TRUE(mine.self_only(3));
  EXPECT_FALSE(mine.private_to(2));
  DirEntry shared = DirEntry::reader(3).add_reader(4);
  EXPECT_FALSE(shared.private_to(3));
  EXPECT_FALSE(shared.self_only(3));
}

TEST(DirEntry, MultiWordEncodingPastNode31) {
  // Nodes past 31 land in higher words; cross-word queries must see them.
  DirEntry w = DirEntry::reader(1).add_reader(33).add_writer(90);
  EXPECT_EQ(DirEntry::word_of(33), 1);
  EXPECT_EQ(DirEntry::word_of(90), 2);
  EXPECT_TRUE(w.is_reader(33));
  EXPECT_FALSE(w.is_reader(32));
  EXPECT_TRUE(w.is_writer(90));
  EXPECT_EQ(w.reader_count(), 2);
  EXPECT_EQ(w.writer_count(), 1);
  EXPECT_EQ(w.single_writer(), 90);
  EXPECT_FALSE(w.private_to(1));

  // Collect readers across words, in ascending order.
  std::vector<int> readers;
  w.for_each_reader([&](int n) { readers.push_back(n); });
  EXPECT_EQ(readers, (std::vector<int>{1, 33}));
}

TEST(DirEntry, SoleWriterChecksEveryWord) {
  // The single-word idiom `writers() == 1u << node` is blind to writers in
  // other words — the bug the satellite audit targets. sole_writer must
  // reject a second writer wherever it lives.
  DirEntry only_me = DirEntry::reader(5).add_writer(5);
  EXPECT_TRUE(only_me.sole_writer(5));
  DirEntry far_writer = DirEntry::reader(5).add_writer(5).add_writer(100);
  EXPECT_FALSE(far_writer.sole_writer(5));
  EXPECT_EQ(far_writer.writer_count(), 2);
  // And the high-word node's own view.
  DirEntry high = DirEntry::accessor(100);
  EXPECT_TRUE(high.sole_writer(100));
  EXPECT_TRUE(high.self_only(100));
  EXPECT_FALSE(high.self_only(5));
  EXPECT_EQ(high.single_accessor(), 100);
}

TEST(Policy, ClassifyMatchesPaperStates) {
  const int me = 0;
  DirEntry p = DirEntry::accessor(0);
  EXPECT_EQ(classify(p, me), PageState::Private);
  DirEntry nw = DirEntry::reader(0).add_reader(1);
  EXPECT_EQ(classify(nw, me), PageState::SharedNW);
  DirEntry sw = nw | DirEntry::writer(1);
  EXPECT_EQ(classify(sw, me), PageState::SharedSW);
  DirEntry mw = sw | DirEntry::writer(0);
  EXPECT_EQ(classify(mw, me), PageState::SharedMW);
}

TEST(Policy, ClassifySpansWords) {
  // The same states with the peer past node 31: classification must be
  // identical to the low-node layout.
  const int me = 0, peer = 77;
  DirEntry nw = DirEntry::reader(me).add_reader(peer);
  EXPECT_EQ(classify(nw, me), PageState::SharedNW);
  EXPECT_EQ(classify(nw | DirEntry::writer(peer), me), PageState::SharedSW);
  EXPECT_EQ(classify(nw | DirEntry::writer(peer) | DirEntry::writer(me), me),
            PageState::SharedMW);
  EXPECT_EQ(classify(DirEntry::accessor(peer), peer), PageState::Private);
}

// Table 1 of the paper, row by row.
TEST(Policy, Table1SelfInvalidationMatrix) {
  const int me = 0;
  DirEntry P = DirEntry::accessor(0);
  DirEntry S_NW = DirEntry::reader(0).add_reader(1);
  DirEntry S_SW_me = S_NW | DirEntry::writer(0);
  DirEntry S_SW_other = S_NW | DirEntry::writer(1);
  DirEntry S_MW = S_NW | DirEntry::writer(0) | DirEntry::writer(1);

  // S classification: everything self-invalidates.
  for (const auto& w : {P, S_NW, S_SW_me, S_SW_other, S_MW})
    EXPECT_TRUE(si_required(Mode::S, w, me));

  // P/S: only private pages are exempt.
  EXPECT_FALSE(si_required(Mode::PS, P, me));
  for (const auto& w : {S_NW, S_SW_me, S_SW_other, S_MW})
    EXPECT_TRUE(si_required(Mode::PS, w, me));

  // P/S3: P, S.NW, and S.SW-where-I-am-the-writer are exempt.
  EXPECT_FALSE(si_required(Mode::PS3, P, me));
  EXPECT_FALSE(si_required(Mode::PS3, S_NW, me));
  EXPECT_FALSE(si_required(Mode::PS3, S_SW_me, me));
  EXPECT_TRUE(si_required(Mode::PS3, S_SW_other, me));
  EXPECT_TRUE(si_required(Mode::PS3, S_MW, me));
}

TEST(Policy, SdActionOnlyCheckpointsNaivePrivate) {
  const int me = 0;
  DirEntry P = DirEntry::accessor(0);
  DirEntry S_MW = P | DirEntry::accessor(1);
  EXPECT_EQ(sd_action(Mode::PSNaive, P, me), SdAction::Checkpoint);
  EXPECT_EQ(sd_action(Mode::PSNaive, S_MW, me), SdAction::WriteBack);
  EXPECT_EQ(sd_action(Mode::PS, P, me), SdAction::WriteBack);
  EXPECT_EQ(sd_action(Mode::PS3, P, me), SdAction::WriteBack);
  EXPECT_EQ(sd_action(Mode::S, P, me), SdAction::WriteBack);
}

struct DirFixture {
  Engine eng;
  GlobalMemory gmem{4, 64 * kPageSize};
  Interconnect net{4, NetConfig{}};
  PyxisDirectory dir{gmem, net};
};

TEST(PyxisDirectory, FetchOrRegistersAndReturnsPrevious) {
  DirFixture f;
  f.eng.spawn("t", [&] {
    DirEntry prev = f.dir.fetch_or(1, 7, DirEntry::reader(1));
    EXPECT_FALSE(prev.any());
    DirEntry prev2 = f.dir.fetch_or(2, 7, DirEntry::accessor(2));
    EXPECT_TRUE(prev2.is_reader(1));
    EXPECT_FALSE(prev2.is_reader(2));
    DirEntry now = f.dir.read(0, 7);
    EXPECT_TRUE(now.is_reader(1));
    EXPECT_TRUE(now.is_reader(2));
    EXPECT_TRUE(now.is_writer(2));
  });
  f.eng.run();
  // Registration is charged to the requesting node as remote atomics
  // (page 7 is homed on node 0 in the blocked mapping).
  EXPECT_EQ(f.net.stats(1).rdma_atomics, 1u);
  EXPECT_EQ(f.net.stats(2).rdma_atomics, 1u);
}

TEST(PyxisDirectory, DirectoryCachesMergeMonotonically) {
  DirFixture f;
  f.eng.spawn("t", [&] {
    EXPECT_FALSE(f.dir.cache_get(1, 3).any());
    f.dir.cache_merge_local(1, 3, DirEntry::reader(1));
    f.dir.cache_merge_local(1, 3, DirEntry::reader(0));
    EXPECT_EQ(f.dir.cache_get(1, 3), DirEntry::reader(0).add_reader(1));
    // Remote notification from node 2 into node 1's cache.
    f.dir.cache_merge_remote(2, {DirNotify{1, 3, DirEntry::writer(2)}});
    DirEntry w = f.dir.cache_get(1, 3);
    EXPECT_TRUE(w.is_reader(0));
    EXPECT_TRUE(w.is_reader(1));
    EXPECT_TRUE(w.is_writer(2));
  });
  f.eng.run();
  EXPECT_EQ(f.dir.notifications(1), 1u);
  EXPECT_EQ(f.net.stats(2).rdma_atomics, 1u);  // notification charged to 2
}

TEST(PyxisDirectory, ResetClearsEverything) {
  DirFixture f;
  f.eng.spawn("t", [&] {
    f.dir.fetch_or(1, 5, DirEntry::reader(1));
    f.dir.cache_merge_local(1, 5, DirEntry::reader(1));
    f.dir.reset_all();
    EXPECT_FALSE(f.dir.read(1, 5).any());
    EXPECT_FALSE(f.dir.cache_get(1, 5).any());
  });
  f.eng.run();
}

TEST(PyxisDirectory, MultiWordFetchOrSpansTheEntry) {
  // 64 nodes: two-word entries registered with one extended atomic each.
  Engine eng;
  GlobalMemory gmem{64, 256 * kPageSize};
  Interconnect net{64, NetConfig{}};
  PyxisDirectory dir{gmem, net};
  ASSERT_EQ(dir.entry_words(), 2);
  eng.spawn("t", [&] {
    DirEntry prev = dir.fetch_or(40, 7, DirEntry::accessor(40));
    EXPECT_FALSE(prev.any());
    // The second registrant's snapshot covers both words at once.
    DirEntry prev2 = dir.fetch_or(3, 7, DirEntry::reader(3));
    EXPECT_TRUE(prev2.is_reader(40));
    EXPECT_TRUE(prev2.is_writer(40));
    EXPECT_TRUE(prev2.self_only(40));
    DirEntry now = dir.read(0, 7);
    EXPECT_TRUE(now.is_reader(3));
    EXPECT_TRUE(now.is_writer(40));
    EXPECT_EQ(now.accessor_count(), 2);
  });
  eng.run();
  // Still exactly one remote atomic per registration.
  EXPECT_EQ(net.stats(40).rdma_atomics, 1u);
  EXPECT_EQ(net.stats(3).rdma_atomics, 1u);
}

TEST(PyxisDirectory, PostedMultiWordRegistrationMatchesBlocking) {
  Engine eng;
  GlobalMemory gmem{33, 66 * kPageSize};
  Interconnect net{33, NetConfig{}};
  PyxisDirectory dir{gmem, net};
  ASSERT_EQ(dir.entry_words(), 2);
  eng.spawn("t", [&] {
    dir.fetch_or(32, 9, DirEntry::accessor(32));
    RegTicket t;
    EXPECT_FALSE(static_cast<bool>(t));
    dir.post_fetch_or(1, 9, DirEntry::reader(1), t);
    EXPECT_TRUE(static_cast<bool>(t));
    DirEntry prev = dir.wait_entry(t);
    EXPECT_FALSE(static_cast<bool>(t));
    EXPECT_TRUE(prev.self_only(32));
    EXPECT_TRUE(prev.is_writer(32));
    EXPECT_FALSE(prev.is_reader(1));
  });
  eng.run();
}

// ---------------------------------------------------------------------------
// Randomized property suite: the multi-word directory against a scalar
// per-node reference model, at N in {2, 32, 33, 64, 128} x 3 seeds.
// Classification, merge coalescing, and gen-slot invalidation must be
// identical to what the reference predicts.
// ---------------------------------------------------------------------------

struct RefModel {
  // Reference truth: per page, the set of readers and writers.
  std::vector<std::set<int>> readers, writers;
  explicit RefModel(std::uint64_t pages) : readers(pages), writers(pages) {}

  DirEntry entry(std::uint64_t page) const {
    DirEntry e;
    for (int r : readers[page]) e.add_reader(r);
    for (int w : writers[page]) e.add_writer(w);
    return e;
  }
};

PageState ref_classify(const RefModel& m, std::uint64_t page, int me) {
  std::set<int> acc = m.readers[page];
  acc.insert(m.writers[page].begin(), m.writers[page].end());
  acc.erase(me);
  if (acc.empty()) return PageState::Private;
  switch (m.writers[page].size()) {
    case 0:
      return PageState::SharedNW;
    case 1:
      return PageState::SharedSW;
    default:
      return PageState::SharedMW;
  }
}

void run_property_suite(int nodes, unsigned seed) {
  SCOPED_TRACE("nodes=" + std::to_string(nodes) +
               " seed=" + std::to_string(seed));
  const std::uint64_t pages = 16;
  Engine eng;
  GlobalMemory gmem{nodes, pages * kPageSize};
  Interconnect net{nodes, NetConfig{}};
  PyxisDirectory dir{gmem, net};
  ASSERT_EQ(dir.entry_words(), dir_words_for(nodes));

  RefModel ref(pages);
  std::vector<std::uint64_t> gens(static_cast<std::size_t>(nodes), 0);
  for (int n = 0; n < nodes; ++n) dir.set_gen_slot(n, &gens[n]);

  std::mt19937 rng(seed);
  eng.spawn("t", [&] {
    for (int step = 0; step < 400; ++step) {
      const int node = static_cast<int>(rng() % static_cast<unsigned>(nodes));
      const std::uint64_t page = rng() % pages;
      const bool write = (rng() & 3) == 0;

      // Registration: fetch_or must return exactly the reference's
      // pre-registration maps, whatever words they span.
      DirEntry bits = DirEntry::reader(node);
      if (write) bits.add_writer(node);
      const DirEntry prev = dir.fetch_or(node, page, bits);
      ASSERT_EQ(prev, ref.entry(page));

      ref.readers[page].insert(node);
      if (write) ref.writers[page].insert(node);
      const DirEntry updated = prev | bits;
      ASSERT_EQ(updated, ref.entry(page));
      dir.cache_merge_local(node, page, updated);

      // Classification parity, from the updated entry and the home copy.
      ASSERT_EQ(classify(updated, node), ref_classify(ref, page, node));
      ASSERT_EQ(dir.host_entry(page), ref.entry(page));
      ASSERT_EQ(updated.private_to(node),
                ref_classify(ref, page, node) == PageState::Private);
      ASSERT_EQ(updated.sole_writer(node),
                ref.writers[page].size() == 1 &&
                    ref.writers[page].count(node) == 1);

      // Merge coalescing: notify one random other node with a two-entry
      // batch; its cache must afterwards contain the merged entry, and its
      // gen slot must have been bumped once per touched (nonzero) word.
      if (nodes > 1 && (rng() & 7) == 0) {
        int dst = static_cast<int>(rng() % static_cast<unsigned>(nodes));
        if (dst == node) dst = (dst + 1) % nodes;
        const DirEntry before = dir.cache_get(dst, page);
        const std::uint64_t gen_before = gens[static_cast<std::size_t>(dst)];
        const std::uint64_t notif_before = dir.notifications(dst);
        // Two entries for the same (dst, page): must coalesce into the
        // word-wise OR, transmitted once per touched word.
        std::vector<DirNotify> batch;
        batch.push_back(DirNotify{dst, page, updated});
        batch.push_back(DirNotify{dst, page, bits});
        dir.cache_merge_remote(node, std::move(batch));
        ASSERT_EQ(dir.cache_get(dst, page), before | updated);
        int touched = 0;
        for (int i = 0; i < kMaxDirWords; ++i)
          if (updated.w[static_cast<std::size_t>(i)] != 0) ++touched;
        ASSERT_EQ(gens[static_cast<std::size_t>(dst)] - gen_before,
                  static_cast<std::uint64_t>(touched));
        ASSERT_EQ(dir.notifications(dst) - notif_before,
                  static_cast<std::uint64_t>(touched));
      }
    }
  });
  eng.run();
}

TEST(DirProperty, MultiWordMatchesScalarReference) {
  for (int nodes : {2, 32, 33, 64, 128})
    for (unsigned seed : {1u, 2u, 3u}) run_property_suite(nodes, seed);
}

}  // namespace
}  // namespace argodir
