// Carina: Argo's coherence protocol (paper §3).
//
// One NodeCache per node implements the node-side protocol engine:
//
//  * a direct-mapped page cache whose "lines" are runs of consecutive pages
//    fetched with one RDMA read (prefetching, §3.6.2); all threads of a
//    node share it;
//  * self-invalidation (SI) and self-downgrade (SD) fences (§3.1) filtered
//    by the Pyxis classification (§3.4–3.5, src/core/policy.hpp);
//  * a FIFO write buffer bounding SD-fence latency (§3.6.1);
//  * twins + diffs for multiple-writer pages, optional single-writer diff
//    suppression;
//  * the naive P/S checkpointing variant evaluated in §5.1.
//
// Everything here is initiated by the *requesting* node's threads; the home
// side is passive memory. No handler runs anywhere on this path.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/adapt.hpp"
#include "core/config.hpp"
#include "core/diff.hpp"
#include "core/policy.hpp"
#include "core/stats.hpp"
#include "core/tlb.hpp"
#include "dir/nodeset.hpp"
#include "dir/pyxis.hpp"
#include "mem/divider.hpp"
#include "mem/global_memory.hpp"
#include "mem/pool.hpp"
#include "net/interconnect.hpp"
#include "obs/trace.hpp"
#include "sim/sync.hpp"

namespace argocore {

using argodir::PyxisDirectory;
using argomem::GAddr;
using argomem::GlobalMemory;
using argomem::kPageSize;

class NodeCache {
 public:
  NodeCache(int node, GlobalMemory& gmem, argonet::Interconnect& net,
            PyxisDirectory& dir, CacheConfig cfg, AdaptConfig adapt = {});

  int node() const { return node_; }
  const CacheConfig& config() const { return cfg_; }

  /// Readable span [a, a+len) (must not cross a page boundary). Home pages
  /// are served from home memory; remote pages from the page cache,
  /// faulting the line in on a miss. The pointer is valid only until the
  /// next protocol operation — callers copy out immediately. When `tlb` is
  /// non-null the resulting translation is cached there for MMU-analogue
  /// reuse (src/core/tlb.hpp); passing null changes nothing observable.
  const std::byte* read_ptr(GAddr a, std::size_t len, SoftTlb* tlb = nullptr);

  /// Writable span [a, a+len) (must not cross a page boundary). Remote
  /// pages get write-allocated: twin created, marked dirty, queued in the
  /// write buffer; registration and classification transitions happen here.
  /// A cached write translation stays valid only while the page remains
  /// dirty + write-buffered — every event that ends that (writeback, drain,
  /// fence, checkpoint) bumps the TLB generation.
  std::byte* write_ptr(GAddr a, std::size_t len, SoftTlb* tlb = nullptr);

  /// SI fence: drop every cached page the classification says may be stale
  /// (flushing it first if dirty). Acquire-side of every synchronization.
  void si_fence();

  /// SD fence: make all this node's writes globally visible (drain the
  /// write buffer; checkpoint instead under naive P/S). Release-side of
  /// every synchronization.
  void sd_fence();

  /// Peers, for the naive-P/S P→S healing path (reading a private owner's
  /// checkpoint is an RDMA read of its registered checkpoint region).
  void set_peers(const std::vector<NodeCache*>* peers) { peers_ = peers; }

  /// Crash-recovery wiring (core/membership.hpp). Cluster sets this only
  /// when membership is enabled; null (the default) keeps every access and
  /// fence path byte-identical to the pre-recovery code — the failover
  /// catch blocks rethrow immediately.
  void set_membership(MembershipService* m) { membership_ = m; }

  /// Host-side view of a cached page image, for the crash-recovery
  /// harvest: returns the page bytes (stamping *dirty) when the page is
  /// valid and its line is not mid-mutation, else null. Zero virtual cost;
  /// the recovery pass charges the reconstruction transfer itself.
  const std::byte* host_page_image(std::uint64_t page, bool* dirty);

  /// Crash recovery: drop a *clean* cached copy of `page` — the home copy
  /// rebuilt on the successor is now authoritative, and a clean copy
  /// fetched from the dead home may be staler. Dirty copies are kept: their
  /// eventual twin-based diff writebacks apply exactly this node's own
  /// words to the new home. Latched (mid-fetch/evict) lines are skipped —
  /// the in-flight operation re-resolves against the new home. Returns
  /// true if a copy was dropped.
  bool host_drop_page(std::uint64_t page);

  /// Crash recovery, successor only: drop this node's cached copy of a
  /// page it just inherited as home — dirty included. The harvest already
  /// folded the copy's bytes into the (new) home, own-home pages are never
  /// cached, and a kept dirty copy's later diff writeback would clobber
  /// fresher post-recovery home-path stores with pre-crash bytes. Releases
  /// the write-buffer slot of a dirty copy (waking parked writers); the
  /// stale queue entry is skipped by the drains' liveness check. Returns
  /// true if a copy was dropped.
  bool host_adopt_page(std::uint64_t page);

  /// Drop all cached pages without cost. Only valid when nothing is dirty;
  /// used by Cluster::reset_classification() at the end of initialization.
  void invalidate_all_free();

  const CoherenceStats& stats() const { return stats_; }
  void reset_stats() {
    stats_ = CoherenceStats{};
    adapt_.reset_stats();
  }

  /// The adaptive policy engine (core/adapt.hpp) — decision counters,
  /// current write-buffer capacity and its trajectory.
  const AdaptEngine& adapt() const { return adapt_; }

  /// Effective write-buffer page capacity right now: the configured knob
  /// when the sizing policy is inert, the adapted value otherwise.
  std::size_t wb_capacity() const { return adapt_.wb_capacity(); }

  /// Attach a protocol tracer (not owned; may be null). Emits fence,
  /// fill, writeback, transition and eviction events for this node.
  void set_tracer(argoobs::Tracer* tracer) { tracer_ = tracer; }

  /// Pages currently valid in the cache (for tests/diagnostics).
  std::size_t resident_pages() const;
  /// Pages currently dirty.
  std::size_t dirty_pages() const;

  /// Snapshot of every valid cached page, for the ProtocolValidator.
  struct CachedPage {
    std::uint64_t page;
    bool dirty;
    bool in_wb;
  };
  std::vector<CachedPage> cached_pages() const;

  /// Live (non-stale) write-buffer entries; bounded by wb_capacity() —
  /// the configured CacheConfig::write_buffer_pages unless the adaptive
  /// sizing policy has moved it — at all times.
  std::size_t write_buffer_live() const { return wb_live_; }

  /// The node's page-buffer pool (twins, checkpoints, line buffers), for
  /// tests and diagnostics.
  const argomem::BufferPool& buffer_pool() const { return pool_; }

  /// The page whose directory word governs `page` (classification follows
  /// the fetch granularity; see dir_page below). For the validator.
  std::uint64_t dir_key(std::uint64_t page) const { return dir_page(page); }

  /// Current soft-TLB generation. Thread-held translations stamped with an
  /// older value are stale and must re-walk the slow path. Bumped adjacent
  /// to every mutation that can change a page's contents, residency or
  /// write permission (see the ++tlb_gen_ sites in carina.cpp).
  std::uint64_t tlb_generation() const { return tlb_gen_; }

  /// Address of the generation counter, for external invalidation sources
  /// (PyxisDirectory bumps it when a deferred invalidation is merged into
  /// this node's directory cache).
  std::uint64_t* tlb_gen_slot() { return &tlb_gen_; }

  /// Host-only diagnostics: accumulate a retiring thread's TLB hit count.
  /// Deliberately NOT part of CoherenceStats — those must be identical
  /// with the TLB disabled.
  void note_tlb_hits(std::uint64_t n) { tlb_host_hits_ += n; }
  std::uint64_t tlb_host_hits() const { return tlb_host_hits_; }

 private:
  static constexpr std::uint64_t kNoGroup = ~std::uint64_t{0};

  struct PageSlot {
    bool valid = false;
    bool dirty = false;  // write window open: stores land without a latch
    bool in_wb = false;  // holds a write-buffer slot (unflushed data); stays
                         // set mid-writeback, after dirty closes
    argomem::PageBuf twin;  // pool-backed; reset() recycles the block
  };

  static constexpr std::uint32_t kNoRank = ~std::uint32_t{0};

  struct Line {
    std::uint64_t group = kNoGroup;
    bool fetching = false;
    // Position of this slot in occ_idx_ (kNoRank until first claimed); it
    // indexes live_. Sits in the padding after `fetching`.
    std::uint32_t rank = kNoRank;
    // pages_per_line * kPageSize, pool-backed. Held only while some page
    // is valid or mid-fill: fetch_line_locked acquires it, and every path
    // that leaves the whole line invalid returns it to the pool after that
    // path's ++tlb_gen_, so no live translation can point into a buffer
    // another line reuses.
    argomem::PageBuf data;
    std::vector<PageSlot> pages;
    argosim::WaitQueue waiters;
  };

  // Line geometry, by precomputed reciprocals (no lookup divides): every
  // page and group index is below gmem_.pages(), within their range.
  std::uint64_t group_of(std::uint64_t page) const {
    return per_line_.div(page);
  }
  std::uint64_t slot_index(std::uint64_t group) const {
    return lines_div_.mod(group);
  }
  Line& line_of_group(std::uint64_t group) {
    return lines_[slot_index(group)];
  }
  std::byte* page_data(Line& l, std::uint64_t page) {
    return l.data.get() + per_line_.mod(page) * kPageSize;
  }
  PageSlot& slot_of(Line& l, std::uint64_t page) {
    return l.pages[per_line_.mod(page)];
  }

  /// Classification granularity: like the original system, classification
  /// follows the fetch granularity — one directory word per cache *line*
  /// (keyed by the line's first page), so a line fill costs one directory
  /// atomic, not one per page. Maps become unions over the line's pages,
  /// which only ever makes self-invalidation more conservative, never
  /// unsound. Naive P/S classifies per page (its checkpoints/heals are
  /// per-page).
  std::uint64_t dir_page(std::uint64_t page) const {
    if (cfg_.classification == Mode::PSNaive) return page;
    return page - per_line_.mod(page);
  }

  bool my_reader_bit_set(std::uint64_t page) const;
  bool my_writer_bit_set(std::uint64_t page) const;

  /// Per-line latch excluding concurrent mutators (fetch/evict/writeback)
  /// across their virtual-time delays. Read fast paths do not take it.
  /// Both keep the line's live_ bit (see live_ below).
  void lock_line(Line& l);
  void unlock_line(Line& l);

  /// Fault `page` into the cache. Returns with the page valid and this
  /// node registered as reader (and writer if `for_write`). The one miss
  /// path of every mode: the directory fetch_or is posted, the line is
  /// filled while it is on the wire, then the registration is applied. The
  /// send queue is FIFO, so the home sees the registration before the
  /// reads; at pipeline depth 1 each post is simply the blocking verb.
  /// Naive P/S applies the registration before the fill instead, since its
  /// heal must land in the home copy before any data moves. A fill that
  /// throws still applies a registration that landed, so a crash-failover
  /// retry never loses its transition notifications.
  void ensure_cached(std::uint64_t page, bool for_write);

  /// Register access bits at the home directory with one blocking
  /// fetch_or and apply the result (see apply_registration). Used outside
  /// the miss path, by home-page accesses, which fill nothing. Returns
  /// true if the naive-P/S path healed the home copy.
  bool register_access(std::uint64_t page, bool for_write);

  /// Post-fetch_or half of a registration: merge the updated entry into
  /// our directory cache and post the transition notifications `prev`
  /// implies as one coalesced batch (Pyxis' cache_merge_remote). Under
  /// naive P/S it also heals the home copy from a single other writer's
  /// checkpoint, before the batch goes out; returns true if it did (the
  /// caller must then drop any copy fetched before the heal).
  bool apply_registration(std::uint64_t page, std::uint64_t dp,
                          const argodir::DirEntry& prev,
                          const argodir::DirEntry& bits, bool for_write);

  /// Evict the current contents of `l` (flushing dirty pages) and release
  /// its buffer. Latch held.
  void evict_line_locked(Line& l);

  /// Make the (evicted or unclaimed) line `l` hold `group`, every slot
  /// invalid. Latch held.
  void claim_line(Line& l, std::uint64_t group);

  /// Return `l`'s buffer to the pool if none of its pages is valid (and
  /// drop its live_ bit unless it is latched). Call only after the
  /// ++tlb_gen_ that invalidated the last page, and never on a line that
  /// is mid-fill.
  void release_if_invalid(Line& l);

  /// Fetch every invalid page of `group` into `l`, one posted RDMA read per
  /// contiguous same-home segment (prefetching), acquiring the line's
  /// buffer if it holds none. The pages turn valid once every read has
  /// retired. Latch held.
  void fetch_line_locked(Line& l, std::uint64_t group);

  /// Write one dirty cached page back to its home (diff or whole page).
  /// The transfer is *posted* (payload snapshotted) and the slot is
  /// released immediately — fences retire the queue with wait_all.
  void writeback_locked(Line& l, std::uint64_t page);
  void writeback(std::uint64_t page);  // latches, re-validates, delegates

  /// Clear a page's dirty/write-buffer state after its writeback has been
  /// issued, waking any writer parked on a full write buffer.
  void release_wb_slot(PageSlot& s);

  /// Trace helpers: recording is free of virtual time, so these may be
  /// called anywhere on the protocol paths without perturbing timings.
  void trace(argoobs::Ev kind, std::uint64_t page, std::uint8_t state,
             std::uint64_t arg) {
    if (tracer_) tracer_->emit(node_, kind, page, state, arg);
  }
  /// This node's current classification of `page`, as a trace state byte.
  std::uint8_t traced_state(std::uint64_t page);

  /// Naive P/S: refresh the page's checkpoint from its current contents
  /// (charged local copy). Latch held by caller.
  void refresh_checkpoint(Line& l, std::uint64_t page);

  /// Drain the oldest live write-buffer entry (write-buffer overflow).
  /// Under naive P/S prefers the oldest non-private entry. Returns false
  /// if no entry could be drained.
  bool drain_oldest();

  /// Naive P/S: service a P→S transition from the private owner's
  /// checkpoint (RDMA read from owner + RDMA write to home).
  void heal_from_checkpoint(int owner, std::uint64_t page);

  /// Crash failover: wait out the recovery of the dead node an operation
  /// just tripped over, account ops the crash aborted, and report that the
  /// caller should retry. Returns false — callers rethrow — when no
  /// membership service is attached (the feature is disabled).
  bool crash_failover(const argonet::NodeFailedError& e);

  /// Re-queue valid+in_wb pages missing from the write buffer deque:
  /// an SD fence that threw between popping an entry and finishing its
  /// writeback strands the page, and FIFO drains must be able to find it.
  void requeue_stranded_wb();

  /// Fence bodies; the public si_fence/sd_fence wrap them in the crash
  /// failover retry loop.
  void si_fence_impl();
  void sd_fence_impl();

  /// Bucket sizing for checkpoints_ (naive P/S), derived from CacheConfig.
  std::size_t checkpoint_reserve() const;

  int node_;
  GlobalMemory& gmem_;
  argonet::Interconnect& net_;
  PyxisDirectory& dir_;
  CacheConfig cfg_;
  argomem::Divider per_line_;   // by cfg_.pages_per_line
  argomem::Divider lines_div_;  // by cfg_.cache_lines
  AdaptEngine adapt_;
  // Backs every twin, checkpoint and line buffer; declared before them so
  // it outlives the PageBufs it issued (members destroy in reverse order).
  argomem::BufferPool pool_;
  std::vector<Line> lines_;
  // Line slots that currently hold a group — fences and stats iterate
  // occ_idx_ (insertion order, which is protocol order and therefore
  // deterministic) instead of scanning every slot of a large cache. The
  // flat bitmap dedupes insertions without hashing.
  std::vector<std::uint64_t> occ_bits_;
  std::vector<std::size_t> occ_idx_;
  // Live set over ranks: bit r is set exactly while line occ_idx_[r] is
  // latched (`fetching`) or holds its buffer (`data`). A line that is
  // neither has no valid page and no latch waiters, so the SI sweep skips
  // it exactly as if it had latched, found nothing and unlatched.
  std::vector<std::uint64_t> live_;
  std::deque<std::uint64_t> write_buffer_;
  std::size_t wb_live_ = 0;
  // Writers parked on a full write buffer whose every live entry is
  // mid-writeback in another fiber; release_wb_slot wakes them.
  argosim::WaitQueue wb_slot_waiters_;
  // Naive P/S: per-page checkpoint taken at each sync (page image as of the
  // owner's last synchronization point). Heap blocks are stable across
  // rehashes (PageBuf moves the handle, never the bytes).
  std::unordered_map<std::uint64_t, argomem::PageBuf> checkpoints_;
  // Diff-run scratch, stolen/returned around each writeback's scan so the
  // steady state never reallocates. Writebacks on distinct lines can
  // interleave across their wire delays, so the vector is moved out for
  // the duration of a scan rather than used in place.
  std::vector<DiffRun> diff_scratch_;
  // The same for each writeback's gather list and each fill's runs of
  // same-home pages.
  std::vector<argonet::GatherRun> gather_scratch_;
  struct FillRun {
    std::uint64_t begin, end;
  };
  std::vector<FillRun> fill_scratch_;
  const std::vector<NodeCache*>* peers_ = nullptr;
  MembershipService* membership_ = nullptr;  // non-null only when enabled
  argoobs::Tracer* tracer_ = nullptr;
  CoherenceStats stats_;
  // Soft-TLB generation shared by all of this node's threads. Starts at 1
  // so a zero-initialized TlbEntry can never match. Monotonic; wrap is
  // unreachable (2^64 protocol events).
  std::uint64_t tlb_gen_ = 1;
  std::uint64_t tlb_host_hits_ = 0;

  /// Record that line slot `idx` holds a group (idempotent). Called with
  /// the slot latched, so a first claim enters the live set too.
  void occupy(std::size_t idx) {
    if (occ_bits_[idx >> 6] & (std::uint64_t{1} << (idx & 63))) return;
    occ_bits_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
    lines_[idx].rank = static_cast<std::uint32_t>(occ_idx_.size());
    occ_idx_.push_back(idx);
    set_live(lines_[idx], true);
  }

  void set_live(const Line& l, bool on) {
    if (l.rank == kNoRank) return;
    const std::uint64_t bit = std::uint64_t{1} << (l.rank & 63);
    if (on)
      live_[l.rank >> 6] |= bit;
    else
      live_[l.rank >> 6] &= ~bit;
  }

  /// First live rank in [r, end), or end.
  std::size_t next_live(std::size_t r, std::size_t end) const {
    while (r < end) {
      const std::uint64_t w = live_[r >> 6] >> (r & 63);
      if (w != 0) return std::min(end, r + std::countr_zero(w));
      r = (r | 63) + 1;
    }
    return end;
  }
};

}  // namespace argocore
