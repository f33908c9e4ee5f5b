// Pyxis: the passive classification directory (paper §3.3–3.5).
//
// For every page the home node holds a *full map* of readers and writers.
// The directory is pure metadata: it is only ever read and written by RDMA
// issued from requesting nodes — there is no directory agent, no message
// handler, no state machine running at the home. Classification
// (Private/Shared, No-Writer/Single-Writer/Multiple-Writers) is *inferred*
// by the accessing nodes from the maps.
//
// Encoding: each page's entry is ceil(N/32) consecutive 64-bit words. Word
// i covers nodes [32i, 32i+32): within it, bit r (r < 32) = node 32i+r has
// read the page, bit 32+w = node 32i+w has written it. A single extended
// fetch-or spanning the entry therefore registers the caller and returns
// both full maps in one network atomic — the paper's "Fetch&Add [that]
// returns the updated reader and writer full maps". One word (N <= 32)
// uses the plain 8-byte fetch-or; larger clusters (up to kMaxNodes = 128)
// use the masked extended atomic, whose 32-byte operand cap on
// ConnectX-class HCAs sets the build-time ceiling.
//
// Every node also keeps a *directory cache*: a local copy of the entry for
// every page it has ever looked up. Nodes that cause a classification
// transition (P→S, NW→SW, SW→MW) notify the displaced owner by remotely
// writing the updated entry into the owner's directory cache (one RDMA
// atomic per touched word, no handler). The owner observes the change at
// its next fence or miss — the paper's *deferred invalidation*, valid
// under DRF semantics.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <functional>
#include <vector>

#include "mem/global_memory.hpp"
#include "net/interconnect.hpp"

namespace argodir {

using argomem::GAddr;
using argomem::GlobalMemory;

/// Build-time cluster-size ceiling: kMaxDirWords extended-atomic words of
/// kNodesPerWord paired reader/writer bits each.
inline constexpr int kNodesPerWord = 32;
inline constexpr int kMaxDirWords = argonet::Interconnect::kMaxAtomicSpan;
inline constexpr int kMaxNodes = kNodesPerWord * kMaxDirWords;

/// Public accessor for the ceiling. Code outside src/dir/ must use this
/// (or ClusterConfig::validate()) instead of naming kMaxNodes directly —
/// scripts/check.sh gates on it.
inline constexpr int max_nodes() { return kMaxNodes; }

/// Directory words needed to encode `nodes` reader/writer maps.
inline constexpr int dir_words_for(int nodes) {
  return (nodes + kNodesPerWord - 1) / kNodesPerWord;
}

/// Reader/writer full maps for one page, viewed over the entry's word
/// span. Unused high words are always zero, so every query scans the full
/// kMaxDirWords array unconditionally; with one live word that degenerates
/// to the old single-uint64_t accessors.
struct DirEntry {
  std::array<std::uint64_t, kMaxDirWords> w{};

  static constexpr int word_of(int node) { return node / kNodesPerWord; }
  static constexpr std::uint64_t reader_bit(int node) {
    return std::uint64_t{1} << (node % kNodesPerWord);
  }
  static constexpr std::uint64_t writer_bit(int node) {
    return std::uint64_t{1} << (kNodesPerWord + node % kNodesPerWord);
  }

  static DirEntry reader(int node) { return DirEntry{}.add_reader(node); }
  static DirEntry writer(int node) { return DirEntry{}.add_writer(node); }
  static DirEntry accessor(int node) {
    return DirEntry{}.add_reader(node).add_writer(node);
  }

  /// Per-word 32-bit maps: readers/writers among nodes
  /// [32*word, 32*word + 32).
  std::uint32_t readers(int word = 0) const {
    return static_cast<std::uint32_t>(w[static_cast<std::size_t>(word)]);
  }
  std::uint32_t writers(int word = 0) const {
    return static_cast<std::uint32_t>(w[static_cast<std::size_t>(word)] >>
                                      kNodesPerWord);
  }
  /// Nodes in `word`'s range that have touched the page (read or write).
  std::uint32_t accessors(int word = 0) const {
    return readers(word) | writers(word);
  }

  bool is_reader(int node) const {
    return readers(word_of(node)) >> (node % kNodesPerWord) & 1;
  }
  bool is_writer(int node) const {
    return writers(word_of(node)) >> (node % kNodesPerWord) & 1;
  }
  bool is_accessor(int node) const {
    return accessors(word_of(node)) >> (node % kNodesPerWord) & 1;
  }

  int reader_count() const {
    int c = 0;
    for (int i = 0; i < kMaxDirWords; ++i) c += __builtin_popcount(readers(i));
    return c;
  }
  int writer_count() const {
    int c = 0;
    for (int i = 0; i < kMaxDirWords; ++i) c += __builtin_popcount(writers(i));
    return c;
  }
  int accessor_count() const {
    int c = 0;
    for (int i = 0; i < kMaxDirWords; ++i)
      c += __builtin_popcount(accessors(i));
    return c;
  }

  /// Any bit set in any word.
  bool any() const {
    std::uint64_t acc = 0;
    for (std::uint64_t x : w) acc |= x;
    return acc != 0;
  }

  /// Private: at most one node — `node` — has ever accessed the page.
  bool private_to(int node) const {
    for (int i = 0; i < kMaxDirWords; ++i) {
      std::uint32_t a = accessors(i);
      if (i == word_of(node)) a &= ~(std::uint32_t{1} << (node % kNodesPerWord));
      if (a != 0) return false;
    }
    return true;
  }

  /// `node` has touched the page and nobody else has.
  bool self_only(int node) const {
    return is_accessor(node) && private_to(node);
  }

  /// `node` is the page's one and only writer — checked across every
  /// word, not just node's own (the 32-bit `writers() == 1u << node`
  /// idiom this replaces was wrong past one word).
  bool sole_writer(int node) const {
    for (int i = 0; i < kMaxDirWords; ++i) {
      const std::uint32_t ws = writers(i);
      if (i == word_of(node)) {
        if (ws != std::uint32_t{1} << (node % kNodesPerWord)) return false;
      } else if (ws != 0) {
        return false;
      }
    }
    return true;
  }

  /// Index of the single reader/writer/accessor (precondition: the
  /// respective count is exactly 1).
  int single_reader() const {
    for (int i = 0; i < kMaxDirWords; ++i)
      if (readers(i)) return i * kNodesPerWord + __builtin_ctz(readers(i));
    return -1;
  }
  int single_writer() const {
    for (int i = 0; i < kMaxDirWords; ++i)
      if (writers(i)) return i * kNodesPerWord + __builtin_ctz(writers(i));
    return -1;
  }
  int single_accessor() const {
    for (int i = 0; i < kMaxDirWords; ++i)
      if (accessors(i)) return i * kNodesPerWord + __builtin_ctz(accessors(i));
    return -1;
  }

  DirEntry& add_reader(int node) {
    w[static_cast<std::size_t>(word_of(node))] |= reader_bit(node);
    return *this;
  }
  DirEntry& add_writer(int node) {
    w[static_cast<std::size_t>(word_of(node))] |= writer_bit(node);
    return *this;
  }

  DirEntry& operator|=(const DirEntry& o) {
    for (std::size_t i = 0; i < w.size(); ++i) w[i] |= o.w[i];
    return *this;
  }
  friend DirEntry operator|(DirEntry a, const DirEntry& b) { return a |= b; }
  friend bool operator==(const DirEntry& a, const DirEntry& b) {
    return a.w == b.w;
  }
  friend bool operator!=(const DirEntry& a, const DirEntry& b) {
    return !(a == b);
  }

  /// Call `f(node)` for every reader, in ascending node order.
  template <typename F>
  void for_each_reader(F&& f) const {
    for (int i = 0; i < kMaxDirWords; ++i)
      for (std::uint32_t m = readers(i); m; m &= m - 1)
        f(i * kNodesPerWord + __builtin_ctz(m));
  }
};

// Directory-cache entries start at 0 ("no knowledge"). Because maps are
// monotonic (bits are only ever set between resets), every update — the
// node's own lookups and remote transition notifications alike — is an OR,
// so concurrent updates commute word-wise and no versioning is needed. A
// node with a page in its page cache always has at least its own reader
// bit cached.

/// One pending transition notification: OR `entry` into `dst`'s directory
/// cache slot for `page`. Batches of these are coalesced and posted by
/// cache_merge_remote.
struct DirNotify {
  int dst;
  std::uint64_t page;
  DirEntry entry;
};

/// An in-flight posted registration: the posted handle plus the pre-OR
/// snapshot buffer the extended atomic fills by retirement time. The
/// ticket must stay alive and in place (no moves) between post_fetch_or
/// and wait_entry — the NIC effect holds a pointer into `prev`.
struct RegTicket {
  argonet::PostedHandle h{};
  std::array<std::uint64_t, kMaxDirWords> prev{};
  bool pending = false;
  bool multi = false;

  explicit operator bool() const { return pending; }
};

/// The home-side directory plus each node's directory cache.
class PyxisDirectory {
 public:
  PyxisDirectory(GlobalMemory& gmem, argonet::Interconnect& net);

  /// Attach a protocol tracer (not owned; may be null). Emits DeferredInval
  /// events for transition notifications toward displaced owners.
  void set_tracer(argoobs::Tracer* tracer) { tracer_ = tracer; }

  /// Words per directory entry for this cluster size (1 up to N = 32
  /// nodes — the old single-word layout — through kMaxDirWords at 128).
  int entry_words() const { return nwords_; }

  // --- Home-side directory, accessed only via RDMA ----------------------

  /// Register bits (reader and/or writer) for `page` at its home directory.
  /// Issued by node `src`; returns the entry *before* the OR (the caller
  /// derives the updated maps locally). Charged as one remote atomic: the
  /// plain 8-byte fetch-or at one word, the masked extended atomic above.
  DirEntry fetch_or(int src, std::uint64_t page, const DirEntry& bits);

  /// Posted variant of fetch_or: returns immediately after the NIC charge
  /// so the caller can overlap the registration with the line's data
  /// fetch; redeem the previous entry with wait_entry. At pipeline depth 1
  /// this is exactly fetch_or. The ticket must outlive the op in place.
  void post_fetch_or(int src, std::uint64_t page, const DirEntry& bits,
                     RegTicket& t);

  /// Retire a post_fetch_or and return the entry before the OR.
  DirEntry wait_entry(RegTicket& t);

  /// Read the home directory entry without modifying it (one RDMA read of
  /// entry_words() * 8 bytes).
  DirEntry read(int src, std::uint64_t page);

  /// Host-side (zero-cost) view of a home directory entry, for tests and
  /// benchmark reporting outside the simulation.
  DirEntry host_entry(std::uint64_t page) const {
    return load_entry(&words_[page * static_cast<std::size_t>(nwords_)]);
  }

  /// Zero every map and every directory cache. Models the paper's reset of
  /// reader/writer maps at the end of the (sequential) initialization phase
  /// (§3.4: "initialization writes do not count"). Collective; free.
  void reset_all();

  // --- Crash-recovery host-side mutators ---------------------------------
  // The recovery pass (core/membership.cpp) rebuilds dead-homed directory
  // entries from survivors' caches and scrubs a dead node's bits
  // everywhere. These are host-side (zero virtual cost): the network
  // charges for the reconstruction are accounted once by the recovery pass
  // itself.

  /// Overwrite the home entry of `page` (recovery reconstruction only).
  void host_set_entry(std::uint64_t page, const DirEntry& e) {
    store_entry(&words_[page * static_cast<std::size_t>(nwords_)], e);
  }

  /// Clear `victim`'s reader and writer bits from every home directory
  /// entry — used to retire a dead node's bits cluster-wide. Survivor
  /// caches may transiently keep stale copies of the victim's bits
  /// (in-flight notifications); the validator masks departed nodes
  /// accordingly.
  void host_scrub_node(int victim);

  // --- Per-node directory caches -----------------------------------------

  /// Local lookup in `node`'s directory cache (free: node-local memory).
  /// Returns the zero entry if the node has no knowledge of the page.
  DirEntry cache_get(int node, std::uint64_t page) const {
    return load_entry(&caches_[static_cast<std::size_t>(node)]
                              [page * static_cast<std::size_t>(nwords_)]);
  }

  /// One word of `node`'s cached entry for `page` (word < entry_words()):
  /// the bit tests of the access fast paths read just the word holding
  /// their node's bits.
  std::uint64_t cache_word(int node, std::uint64_t page, int word) const {
    return caches_[static_cast<std::size_t>(node)]
                  [page * static_cast<std::size_t>(nwords_) +
                   static_cast<std::size_t>(word)];
  }

  /// Merge new knowledge into `node`'s own cache (free: node-local).
  void cache_merge_local(int node, std::uint64_t page, const DirEntry& e) {
    std::uint64_t* slot = cache_slot(node, page);
    for (int i = 0; i < nwords_; ++i)
      slot[i] |= e.w[static_cast<std::size_t>(i)];
  }

  /// Deferred invalidation: remotely OR each entry into its destination's
  /// directory cache — the RDMA notifications a transition-causing node
  /// uses to tell displaced private owners or single writers. Entries that
  /// target the same (destination, directory entry) coalesce into one
  /// merged entry first — several pages of one line share an entry, so a
  /// transition touching many of them needs one OR, not one per page. The
  /// distinct atomics (one per touched word) are posted back to back and
  /// waited for together; ORs land at completion time, so they commute
  /// with the owner's own lookups and with racing notifications.
  /// Notification counts reflect the coalesced (actually transmitted)
  /// atomics. An empty batch costs nothing.
  void cache_merge_remote(int src, std::vector<DirNotify> batch);

  /// Number of transition notifications delivered to each node (stats).
  std::uint64_t notifications(int node) const {
    return notify_count_[static_cast<std::size_t>(node)];
  }

  /// Register `node`'s soft-TLB generation counter (see core/tlb.hpp). A
  /// deferred invalidation merged into that node's directory cache bumps
  /// it, so thread-held translations re-validate against the new entry.
  /// (Merges only OR bits in, which cannot clear the owner's own hit
  /// conditions — the bump is conservative, matching the invalidation
  /// event list.) Null slots (tests constructing a bare directory) are
  /// ignored.
  void set_gen_slot(int node, std::uint64_t* slot) {
    if (gen_slots_.size() < static_cast<std::size_t>(node) + 1)
      gen_slots_.resize(static_cast<std::size_t>(node) + 1, nullptr);
    gen_slots_[static_cast<std::size_t>(node)] = slot;
  }

 private:
  void bump_gen(int node) {
    if (static_cast<std::size_t>(node) < gen_slots_.size() &&
        gen_slots_[static_cast<std::size_t>(node)])
      ++*gen_slots_[static_cast<std::size_t>(node)];
  }

  /// on_remote for a notification OR into `dst`'s directory cache.
  std::function<void(std::uint64_t)> delivered(int dst);

  std::uint64_t* cache_slot(int node, std::uint64_t page) {
    return &caches_[static_cast<std::size_t>(node)]
                   [page * static_cast<std::size_t>(nwords_)];
  }

  // Constant trip counts: the loops unroll into kMaxDirWords guarded moves
  // instead of a variable-length copy (a libc memcpy call per lookup).
  DirEntry load_entry(const std::uint64_t* p) const {
    DirEntry e;
    for (int i = 0; i < kMaxDirWords; ++i)
      if (i < nwords_) e.w[static_cast<std::size_t>(i)] = p[i];
    return e;
  }
  void store_entry(std::uint64_t* p, const DirEntry& e) {
    for (int i = 0; i < kMaxDirWords; ++i)
      if (i < nwords_) p[i] = e.w[static_cast<std::size_t>(i)];
  }

  GlobalMemory& gmem_;
  argonet::Interconnect& net_;
  argoobs::Tracer* tracer_ = nullptr;
  int nwords_ = 1;                    // words per entry for this cluster
  std::vector<std::uint64_t> words_;  // home dir, nwords_ per page
  std::vector<std::uint64_t> notify_count_;
  std::vector<std::vector<std::uint64_t>> caches_;  // [node][page * nwords_]
  std::vector<std::uint64_t*> gen_slots_;  // per-node soft-TLB generations
};

}  // namespace argodir
