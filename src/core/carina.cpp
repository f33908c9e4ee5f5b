#include "core/carina.hpp"

#include <cassert>
#include <cstring>

#include "sim/engine.hpp"

namespace argocore {

using argodir::DirEntry;
using argodir::NodeSet;
using argomem::page_of;
using argomem::page_offset;

const char* to_string(Mode m) {
  switch (m) {
    case Mode::S: return "S";
    case Mode::PSNaive: return "P/S(naive)";
    case Mode::PS: return "P/S";
    case Mode::PS3: return "P/S3";
  }
  return "?";
}

const char* to_string(PageState s) {
  switch (s) {
    case PageState::Private: return "P";
    case PageState::SharedNW: return "S,NW";
    case PageState::SharedSW: return "S,SW";
    case PageState::SharedMW: return "S,MW";
  }
  return "?";
}

// The trace format records PageState as a raw byte (argoobs has no view of
// this enum); pin the encoding the exporters and trace_query document.
static_assert(static_cast<int>(PageState::Private) == 0);
static_assert(static_cast<int>(PageState::SharedNW) == 1);
static_assert(static_cast<int>(PageState::SharedSW) == 2);
static_assert(static_cast<int>(PageState::SharedMW) == 3);

std::uint8_t NodeCache::traced_state(std::uint64_t page) {
  return static_cast<std::uint8_t>(
      classify(dir_.cache_get(node_, dir_page(page)), node_));
}

NodeCache::NodeCache(int node, GlobalMemory& gmem, argonet::Interconnect& net,
                     PyxisDirectory& dir, CacheConfig cfg, AdaptConfig adapt)
    : node_(node),
      gmem_(gmem),
      net_(net),
      dir_(dir),
      cfg_(cfg),
      per_line_(cfg.pages_per_line),
      lines_div_(cfg.cache_lines),
      // Naive P/S checkpoints instead of diffing and keeps private pages
      // dirty across fences — none of the adaptive policies' signals mean
      // what they assume there, so the engine is inert in that mode.
      adapt_(adapt, cfg.write_buffer_pages,
             cfg.classification != Mode::PSNaive) {
  assert(cfg_.cache_lines >= 1);
  assert(cfg_.pages_per_line >= 1);
  assert(cfg_.write_buffer_pages >= 1);
  // Page and group indices stay below gmem_.pages(), which GlobalMemory
  // bounds by the dividers' range.
  assert(gmem_.pages() <= argomem::Divider::kMaxDividend + 1);
  // Per-line PageSlot vectors are sized lazily when a line first holds a
  // group: a paper-scale cache (16384 lines × 4 pages) would otherwise pay
  // tens of thousands of allocations per node at construction for slots
  // most benchmarks never touch.
  lines_.resize(cfg_.cache_lines);
  occ_bits_.assign((cfg_.cache_lines + 63) / 64, 0);
  live_.assign((cfg_.cache_lines + 63) / 64, 0);
  if (cfg_.classification == Mode::PSNaive)
    checkpoints_.reserve(checkpoint_reserve());
}

std::size_t NodeCache::checkpoint_reserve() const {
  // Naive P/S checkpoints every page that is dirty at a sync point; the
  // working set of those is bounded by what the cache can hold dirty —
  // the write buffer — with headroom for entries that outlive their buffer
  // residency. Sizing the table up front keeps the measured phase free of
  // rehashing.
  return 2 * cfg_.write_buffer_pages;
}

bool NodeCache::my_reader_bit_set(std::uint64_t page) const {
  return dir_.cache_word(node_, dir_page(page), DirEntry::word_of(node_)) &
         DirEntry::reader_bit(node_);
}

bool NodeCache::my_writer_bit_set(std::uint64_t page) const {
  return dir_.cache_word(node_, dir_page(page), DirEntry::word_of(node_)) &
         DirEntry::writer_bit(node_);
}

void NodeCache::lock_line(Line& l) {
  while (l.fetching) l.waiters.wait();
  l.fetching = true;
  set_live(l, true);
}

void NodeCache::unlock_line(Line& l) {
  assert(l.fetching);
  l.fetching = false;
  if (!l.data) set_live(l, false);
  l.waiters.notify_all();
}

// ---------------------------------------------------------------------------
// Access paths
// ---------------------------------------------------------------------------

const std::byte* NodeCache::read_ptr(GAddr a, std::size_t len,
                                     SoftTlb* tlb) {
  assert(page_offset(a) + len <= kPageSize && "access must not straddle pages");
  (void)len;
  const std::uint64_t page = page_of(a);
  if (gmem_.home_of_page(page) == node_) {
    // Home pages are served from home memory and never cached (§3).
    ++stats_.home_accesses;
    if (!my_reader_bit_set(page)) register_access(page, /*for_write=*/false);
    // Home translations never go stale semantically (the reader bit is
    // monotonic and home bytes live at a fixed address); the generation
    // stamp just makes them re-validate harmlessly after protocol events.
    if (tlb)
      tlb->insert_read(page, tlb_gen_, gmem_.home_ptr(page * kPageSize),
                       &stats_.home_accesses);
    return gmem_.home_ptr(a);
  }
  const std::uint64_t group = group_of(page);
  Line& l = line_of_group(group);
  // Fast path: resident, valid, and registered. No latch needed — the
  // caller copies the bytes out before any other fiber can run.
  if (l.group == group) {
    PageSlot& s = slot_of(l, page);
    if (s.valid && my_reader_bit_set(page)) {
      ++stats_.read_hits;
      if (tlb)
        tlb->insert_read(page, tlb_gen_, page_data(l, page),
                         &stats_.read_hits);
      return page_data(l, page) + page_offset(a);
    }
  }
  ++stats_.read_misses;
  // A sibling thread's fill in progress: when the path from the fault delay
  // to ensure_cached's lock_line has no side effect (already registered as
  // reader, which stays set; no naive-P/S heal; no membership re-homing),
  // a miss whose wake finds the line latched would only wait on the latch,
  // so the engine queues it there without resuming it (gated wake).
  if (cfg_.classification != Mode::PSNaive && membership_ == nullptr &&
      my_reader_bit_set(page))
    argosim::Engine::current()->delay_then_wait(cfg_.fault_overhead,
                                                l.waiters, l.fetching);
  else
    argosim::delay(cfg_.fault_overhead);
  for (;;) {
    try {
      ensure_cached(page, /*for_write=*/false);
      // ensure_cached returns without a valid copy in exactly one case: a
      // crash recovery re-homed the page onto *this* node mid-miss (we may
      // have been parked inside it across the recovery). Own-home pages
      // are never cached — re-dispatch for the home fast path.
      if (gmem_.home_of_page(page) == node_) return read_ptr(a, len, tlb);
      break;
    } catch (const argonet::NodeFailedError& e) {
      // The page's home (or an owner we had to contact) crash-stopped
      // mid-miss: wait out its recovery, then retry against the successor.
      if (!crash_failover(e)) throw;
      // If *we* are that successor, the page is now our own home: it can
      // never be cached (fills skip own-home pages), so re-dispatch from
      // the top for the home fast path instead of retrying the miss.
      if (gmem_.home_of_page(page) == node_) return read_ptr(a, len, tlb);
    }
  }
  // ensure_cached returned with the page valid + reader bit set; the next
  // slow-path access would be a read hit, so that is the counter a TLB hit
  // must bump. Stamped with the post-fill generation.
  if (tlb)
    tlb->insert_read(page, tlb_gen_, page_data(l, page), &stats_.read_hits);
  return page_data(l, page) + page_offset(a);
}

std::byte* NodeCache::write_ptr(GAddr a, std::size_t len, SoftTlb* tlb) {
  assert(page_offset(a) + len <= kPageSize && "access must not straddle pages");
  (void)len;
  const std::uint64_t page = page_of(a);
  if (gmem_.home_of_page(page) == node_) {
    // Home writes go straight to the authoritative copy; only the
    // classification registration matters.
    ++stats_.home_accesses;
    if (!my_writer_bit_set(page)) register_access(page, /*for_write=*/true);
    if (tlb)
      tlb->insert_write(page, tlb_gen_, gmem_.home_ptr(page * kPageSize),
                        &stats_.home_accesses);
    return gmem_.home_ptr(a);
  }
  const std::uint64_t group = group_of(page);
  Line& l = line_of_group(group);
  // Fast path: resident, already dirty (twin exists, queued for SD).
  if (l.group == group) {
    PageSlot& s = slot_of(l, page);
    if (s.valid && s.dirty && my_writer_bit_set(page)) {
      ++stats_.write_hits;
      if (tlb)
        tlb->insert_write(page, tlb_gen_, page_data(l, page),
                          &stats_.write_hits);
      return page_data(l, page) + page_offset(a);
    }
  }
  ++stats_.write_misses;
  argosim::delay(cfg_.fault_overhead);
  for (;;) {
    try {
      ensure_cached(page, /*for_write=*/true);
    } catch (const argonet::NodeFailedError& e) {
      if (!crash_failover(e)) throw;
      // If *we* are the successor, the page is now our own home and can
      // never be cached (fills skip own-home pages): re-dispatch from the
      // top for the home fast path instead of retrying the miss forever.
      if (gmem_.home_of_page(page) == node_) return write_ptr(a, len, tlb);
      continue;  // home recovered on a successor; redo the whole miss
    }
    // ensure_cached bails without a copy when a recovery re-homed the page
    // onto this node mid-miss (e.g. while we were parked on the write
    // buffer below): re-dispatch for the home fast path.
    if (gmem_.home_of_page(page) == node_) return write_ptr(a, len, tlb);
    lock_line(l);
    PageSlot& s = slot_of(l, page);
    if (!(l.group == group && s.valid && my_writer_bit_set(page))) {
      unlock_line(l);
      continue;  // displaced while we were away; retry
    }
    if (!s.dirty) {
      // Admission control BEFORE dirtying: when the buffer is full, drain
      // the oldest entry and retry. A store never waits for the global
      // occupancy to fall after its page is admitted — gating on that
      // livelocks as soon as concurrent writers outnumber buffer slots
      // (each drain victim simply re-dirties its page).
      if (wb_live_ >= adapt_.wb_capacity()) {
        unlock_line(l);
        // If nothing was drainable (every live entry is mid-writeback in
        // another fiber), park until one of those writebacks completes and
        // releases its slot. No lost wakeup: drain_oldest's failure path
        // never yields, so the occupancy cannot drop between the re-check
        // and the wait.
        const argosim::Time stall_start = argosim::now();
        try {
          if (!drain_oldest() && wb_live_ >= adapt_.wb_capacity())
            wb_slot_waiters_.wait();
        } catch (const argonet::NodeFailedError& e) {
          if (!crash_failover(e)) throw;
          // drain_oldest pops its victim before writing it back; a crashed
          // home aborts the writeback with the entry out of the queue (but
          // still marked in_wb). Requeue such strays or the slot leaks and
          // every writer parks here forever.
          requeue_stranded_wb();
        }
        // Feed the sizing policy the virtual time this store lost to the
        // full buffer (a no-op, like the admit note below, while inert).
        adapt_.note_drain_stall(argosim::now() - stall_start);
        continue;
      }
      // Write-allocate: twin for later diffing (checkpoint of the fetched
      // content), mark dirty, queue for self-downgrade. The twin copy may
      // let the occupancy transiently overshoot by the number of
      // concurrent writers; that is bounded and harmless.
      s.twin = pool_.acquire(kPageSize);
      std::memcpy(s.twin.get(), page_data(l, page), kPageSize);
      argosim::delay(net_.config().mem_copy(kPageSize));
      if (l.group == group && s.valid && !s.dirty) {
        s.dirty = true;
        if (!s.in_wb) {
          s.in_wb = true;
          write_buffer_.push_back(page);
          ++wb_live_;
          adapt_.note_wb_admit(wb_live_, page);
        }
      } else {
        unlock_line(l);
        continue;  // displaced during the twin copy; retry
      }
    }
    unlock_line(l);
    // The page is now valid + dirty + write-buffered — exactly the window
    // a write translation may live in. release_wb_slot (writeback, drain,
    // fence) bumps the generation, ending it.
    if (tlb)
      tlb->insert_write(page, tlb_gen_, page_data(l, page),
                        &stats_.write_hits);
    return page_data(l, page) + page_offset(a);
  }
}

void NodeCache::ensure_cached(std::uint64_t page, bool for_write) {
  const std::uint64_t group = group_of(page);
  Line& l = line_of_group(group);
  const bool naive = cfg_.classification == Mode::PSNaive;
  bool registered_this_call = false;
  for (;;) {
    // A crash recovery can re-home the page onto *this* node while we are
    // mid-miss (parked on the latch, the write buffer, or a posted op).
    // Own-home pages are never cached — fills skip them — so this loop can
    // no longer terminate with a valid copy. Bail; the caller re-checks the
    // home and re-dispatches through its home fast path.
    if (gmem_.home_of_page(page) == node_) return;
    // Post the directory registration (deposit our ID, learn the maps),
    // then run the fill while it is on the wire. The send queue is FIFO,
    // so the home-side fetch_or precedes the data reads.
    argodir::RegTicket reg;
    DirEntry bits;
    const std::uint64_t dp = dir_page(page);
    bool healed = false;
    if ((for_write && !my_writer_bit_set(page)) || !my_reader_bit_set(page)) {
      bits.add_reader(node_);
      if (for_write) bits.add_writer(node_);
      ++stats_.dir_ops;
      dir_.post_fetch_or(node_, dp, bits, reg);
      registered_this_call = true;
      // Naive P/S decides whether to heal from the registration's result,
      // and the heal must reach the home copy before the fill reads it.
      if (naive)
        healed = apply_registration(page, dp, dir_.wait_entry(reg), bits,
                                    for_write);
    } else if (naive && !registered_this_call) {
      // Naive P/S: about to (re)fetch a page we registered for long ago — a
      // page whose sole writer is another node may be stale at the home
      // (the writer checkpoints instead of downgrading), so heal it from
      // that writer's checkpoint first (§3.4.2). The heal decision must NOT
      // use the cached word: SW→MW transitions only notify the previous
      // single writer, so our cached word can claim "single writer X" long
      // after more writers appeared — healing on that stale claim would
      // rewind the home copy to X's old checkpoint. Re-read the word from
      // the home directory (one more RDMA read naive P/S pays that Carina's
      // private self-downgrade avoids). Skipped if we registered within
      // this miss: registration already healed on fresh information.
      const DirEntry stale = dir_.cache_get(node_, page);
      const bool resident =
          l.group == group && slot_of(l, page).valid && !l.fetching;
      if (!resident && stale.writer_count() == 1 &&
          stale.single_writer() != node_) {
        ++stats_.dir_ops;
        const DirEntry fresh = dir_.read(node_, page);
        dir_.cache_merge_local(node_, page, fresh);
        if (fresh.writer_count() == 1 && fresh.single_writer() != node_)
          heal_from_checkpoint(fresh.single_writer(), page);
      }
    }
    lock_line(l);
    // Evicts and fills issue network ops that can throw (a crashed home);
    // the latch must release on that path or the line wedges forever.
    try {
      if (l.group != group) {
        evict_line_locked(l);
        claim_line(l, group);
        fetch_line_locked(l, group);
      } else {
        PageSlot& s = slot_of(l, page);
        if (healed && s.valid && !s.dirty) {
          // A copy prefetched before the heal (as part of a neighbouring
          // page's line fill) predates the healed home content: refetch.
          s.valid = false;
          ++tlb_gen_;
        }
        if (!s.valid) fetch_line_locked(l, group);
      }
    } catch (...) {
      unlock_line(l);
      // The registration may have landed although the fill failed (another
      // page of the line is homed on a crashed node). Apply it now: the
      // retry's fetch_or would find this node's bits already set, displace
      // nobody, and the owners' deferred invalidations would be lost. Not
      // if the directory's own home is dead — the ticket may have failed
      // with it, and recovery rebuilds that entry from the caches, so the
      // retry registers afresh.
      if (reg) {
        const DirEntry prev = dir_.wait_entry(reg);
        if (!net_.node_dead(gmem_.home_of_page(dp)))
          apply_registration(page, dp, prev, bits, for_write);
      }
      throw;
    }
    unlock_line(l);
    if (reg) apply_registration(page, dp, dir_.wait_entry(reg), bits, for_write);
    // Re-validate with no intervening delays.
    if (l.group == group && slot_of(l, page).valid && my_reader_bit_set(page) &&
        (!for_write || my_writer_bit_set(page)))
      return;
  }
}

// ---------------------------------------------------------------------------
// Directory registration and classification transitions (§3.4–3.5)
// ---------------------------------------------------------------------------

bool NodeCache::register_access(std::uint64_t page, bool for_write) {
  const std::uint64_t dp = dir_page(page);
  DirEntry bits = DirEntry::reader(node_);
  if (for_write) bits.add_writer(node_);
  ++stats_.dir_ops;
  const DirEntry prev = dir_.fetch_or(node_, dp, bits);
  return apply_registration(page, dp, prev, bits, for_write);
}

bool NodeCache::apply_registration(std::uint64_t page, std::uint64_t dp,
                                   const DirEntry& prev, const DirEntry& bits,
                                   bool for_write) {
  const DirEntry updated = prev | bits;
  dir_.cache_merge_local(node_, dp, updated);

  // Traced transitions carry the updated word covering this node's own
  // map slice — at 32 nodes or fewer that is the whole (single-word)
  // entry, bit-identical to the historical single-uint64_t payload.
  const std::uint64_t traced_word =
      updated.w[static_cast<std::size_t>(DirEntry::word_of(node_))];
  NodeSet notified;

  // Notifications are collected and posted as one coalesced batch, so the
  // multi-reader NW→SW case overlaps its atomics.
  std::vector<argodir::DirNotify> batch;
  auto notify = [&](int dst) {
    // A displaced owner that crash-stopped needs no deferred invalidation;
    // notifying it would only throw. (Un-detected deaths still throw from
    // the merge itself — the caller's failover retry handles those, and
    // the re-run skips the node once it is declared.)
    if (membership_ != nullptr && !membership_->is_live(dst)) return;
    batch.push_back(argodir::DirNotify{dst, dp, updated});
  };

  // P→S: before us, exactly one *other* node had accessed the page. The
  // displaced private owner learns of the transition via one RDMA update
  // of its directory cache (deferred invalidation, §3.4.1).
  if (!prev.is_accessor(node_) && prev.accessor_count() == 1) {
    const int owner = prev.single_accessor();
    ++stats_.transitions_caused;
    trace(argoobs::Ev::ClassTransition, dp,
          static_cast<std::uint8_t>(classify(updated, node_)), traced_word);
    notify(owner);
    notified.set(owner);
  }
  // Naive P/S: if — per the *fresh* word we just fetched — the page has a
  // single writer that is not us, the home copy may lag that writer's last
  // synchronization point; heal it from the writer's checkpoint before
  // using home data. This must happen at registration time: a second
  // writer joining makes the count 2, after which nobody would ever heal
  // the first writer's checkpoint-only bytes into the home copy. Healing
  // is idempotent, so concurrent newcomers may each heal without
  // coordination.
  bool healed = false;
  if (cfg_.classification == Mode::PSNaive && prev.writer_count() == 1 &&
      prev.single_writer() != node_) {
    heal_from_checkpoint(prev.single_writer(), page);
    healed = true;
  }

  if (for_write && !prev.is_writer(node_)) {
    switch (prev.writer_count()) {
      case 0: {
        // NW→SW: every other node caching the page must learn there is now
        // a writer (they can no longer treat it as read-only).
        bool traced = false;
        prev.for_each_reader([&](int r) {
          if (r == node_ || notified.test(r)) return;
          if (!traced) {
            ++stats_.transitions_caused;
            trace(argoobs::Ev::ClassTransition, dp,
                  static_cast<std::uint8_t>(classify(updated, node_)),
                  traced_word);
            traced = true;
          }
          notify(r);
        });
        break;
      }
      case 1: {
        // SW→MW: only the previous single writer needs to know (§3.5) —
        // for everyone else SW-other and MW mean the same thing.
        const int w = prev.single_writer();
        if (w != node_ && !notified.test(w)) {
          ++stats_.transitions_caused;
          trace(argoobs::Ev::ClassTransition, dp,
                static_cast<std::uint8_t>(classify(updated, node_)),
                traced_word);
          notify(w);
        }
        break;
      }
      default:
        break;  // already MW: no action needed
    }
  }
  dir_.cache_merge_remote(node_, std::move(batch));
  return healed;
}

void NodeCache::heal_from_checkpoint(int owner, std::uint64_t page) {
  assert(peers_ && "naive P/S healing requires peer registration");
  // A crashed owner's checkpoint is gone with it; whatever it never wrote
  // back is lost (the same conservative semantics as lost pages).
  if (membership_ != nullptr && !membership_->is_live(owner)) return;
  NodeCache& oc = *(*peers_)[static_cast<std::size_t>(owner)];
  auto it = oc.checkpoints_.find(page);
  if (it == oc.checkpoints_.end())
    return;  // owner never synced a dirty copy: home already holds all the
             // data DRF entitles us to
  const std::byte* ckpt = it->second.get();  // stable across rehash/refresh
  ++stats_.heals;
  std::byte scratch[kPageSize];
  net_.read(node_, owner, ckpt, scratch, kPageSize);
  const GAddr base = page * kPageSize;
  net_.write(node_, gmem_.home_of_page(page), gmem_.home_ptr(base), scratch,
             kPageSize);
  // A heal rewrites home *content*; translations are pointers, so none can
  // actually dangle — but the event is on the invalidation list (tlb.hpp),
  // and over-bumping costs one extra miss at most.
  ++tlb_gen_;
}

// ---------------------------------------------------------------------------
// Fills, evictions, writebacks
// ---------------------------------------------------------------------------

void NodeCache::fetch_line_locked(Line& l, std::uint64_t group) {
  const std::uint64_t first = group * cfg_.pages_per_line;
  const std::uint64_t last =
      std::min<std::uint64_t>(first + cfg_.pages_per_line, gmem_.pages());
  ++stats_.line_fetches;
  ++tlb_gen_;  // a fill changes residency: conservative, see tlb.hpp
  if (!l.data) l.data = pool_.acquire(cfg_.pages_per_line * kPageSize);
  // Fetch contiguous runs of invalid pages that share a home node with one
  // posted RDMA read each (own-home pages are never cached; they stay
  // invalid). The runs' wire latencies overlap, and the pages turn valid
  // together once every read has retired. The latch is held throughout, so
  // the slots and line buffer are stable until the posted memcpys have
  // landed. The run list is stolen from fill_scratch_ for the fill's
  // duration (fills of distinct lines interleave across wait_all).
  std::vector<FillRun> runs = std::move(fill_scratch_);
  runs.clear();
  std::uint64_t p = first;
  while (p < last) {
    PageSlot& s = slot_of(l, p);
    const int home = gmem_.home_of_page(p);
    if (s.valid || home == node_) {
      ++p;
      continue;
    }
    std::uint64_t end = p + 1;
    while (end < last && !slot_of(l, end).valid &&
           gmem_.home_of_page(end) == home)
      ++end;
    const std::size_t bytes = (end - p) * kPageSize;
    stats_.pages_fetched += end - p;
    stats_.bytes_fetched += bytes;
    if (tracer_) trace(argoobs::Ev::LineFill, p, traced_state(p), bytes);
    net_.post_read(node_, home, gmem_.home_ptr(p * kPageSize), page_data(l, p),
                   bytes);
    runs.push_back(FillRun{p, end});
    p = end;
  }
  if (!runs.empty()) {
    net_.wait_all(node_);
    for (const FillRun& r : runs)
      for (std::uint64_t q = r.begin; q < r.end; ++q) {
        PageSlot& s = slot_of(l, q);
        s.valid = true;
        s.dirty = false;
        s.in_wb = false;
        s.twin.reset();
      }
  }
  fill_scratch_ = std::move(runs);
}

void NodeCache::evict_line_locked(Line& l) {
  if (l.group == kNoGroup) return;
  for (std::size_t i = 0; i < cfg_.pages_per_line; ++i) {
    PageSlot& s = l.pages[i];
    if (!s.valid) continue;
    const std::uint64_t page = l.group * cfg_.pages_per_line + i;
    const bool was_dirty = s.dirty;
    if (s.dirty) {
      writeback_locked(l, page);
      // Keep the naive-P/S checkpoint in sync with what we just flushed so
      // a later heal can never rewind the home copy behind this flush.
      if (cfg_.classification == Mode::PSNaive) refresh_checkpoint(l, page);
    }
    s.valid = false;
    // Bumped adjacent to the residency change, NOT once per eviction: the
    // dirty-page writebacks above yield, and a translation inserted by
    // another fiber during that window must still be revoked here.
    ++tlb_gen_;
    s.twin.reset();
    ++stats_.evictions;
    if (tracer_)
      trace(argoobs::Ev::Eviction, page, traced_state(page),
            was_dirty ? 1 : 0);
  }
  l.group = kNoGroup;
  l.data.reset();  // every page is invalid, each after its ++tlb_gen_
}

void NodeCache::claim_line(Line& l, std::uint64_t group) {
  l.group = group;
  occupy(slot_index(group));
  if (l.pages.size() != cfg_.pages_per_line)
    l.pages.resize(cfg_.pages_per_line);  // first claim of this slot
  for (auto& s : l.pages) {
    s.valid = false;
    s.dirty = false;
    s.in_wb = false;
    s.twin.reset();
  }
}

void NodeCache::release_if_invalid(Line& l) {
  for (const PageSlot& s : l.pages)
    if (s.valid) return;
  l.data.reset();
  if (!l.fetching) set_live(l, false);
}

void NodeCache::refresh_checkpoint(Line& l, std::uint64_t page) {
  auto& buf = checkpoints_[page];
  if (!buf) buf = pool_.acquire(kPageSize);
  std::memcpy(buf.get(), page_data(l, page), kPageSize);
  argosim::delay(net_.config().mem_copy(kPageSize));
  ++stats_.checkpoints;
  stats_.checkpoint_bytes += kPageSize;
  ++tlb_gen_;  // checkpoint/diff-base refresh is on the invalidation list
  // The diff base must advance to the synchronization point: once this page
  // turns shared, "any further writes must be self-downgraded ... as a diff"
  // (§3.4.2) — a diff of the writes since the last sync, not since the
  // original write-allocate. Otherwise a late downgrade would re-transmit
  // pre-checkpoint bytes and could overwrite writes other nodes made in
  // later, properly synchronized epochs.
  PageSlot& s = slot_of(l, page);
  if (s.dirty) {
    if (!s.twin) s.twin = pool_.acquire(kPageSize);
    std::memcpy(s.twin.get(), page_data(l, page), kPageSize);
  }
}

void NodeCache::release_wb_slot(PageSlot& s) {
  s.dirty = false;
  // The page left the dirty + write-buffered window, so any thread-held
  // write translation for it must die: the next store has to re-twin and
  // re-queue. Covers writeback retire, capacity drains and fence drains.
  ++tlb_gen_;
  if (s.in_wb) {
    s.in_wb = false;
    --wb_live_;
    wb_slot_waiters_.notify_all();
  }
  s.twin.reset();
}

void NodeCache::writeback_locked(Line& l, std::uint64_t page) {
  PageSlot& s = slot_of(l, page);
  assert(s.valid && s.dirty);
  std::byte* cur = page_data(l, page);
  const GAddr base = page * kPageSize;
  std::byte* home = gmem_.home_ptr(base);
  const int home_node = gmem_.home_of_page(page);
  const DirEntry w = dir_.cache_get(node_, dir_page(page));

  const bool sole_writer = w.sole_writer(node_);
  std::size_t wire = 0;
  bool full = !s.twin || (cfg_.sw_diff_suppression && sole_writer);
  if (!full && sole_writer && adapt_.diff_active()) {
    // Density policy (b): when this page's diff history says its diffs are
    // dense, a single full-page write beats the twin scan + run headers.
    // Gated on sole_writer — the same DRF disjointness argument that makes
    // sw_diff_suppression safe; multi-writer pages always diff.
    bool flipped = false;
    if (adapt_.prefer_full_page(page, flipped)) full = true;
    if (flipped)
      trace(argoobs::Ev::AdaptDiffMode, page, traced_state(page),
            full ? 1 : 0);
  }
  // The page's write window closes before the writeback first yields (in
  // the verb): from then on a sibling store takes the latched write-miss
  // path and re-twins after this writeback, instead of landing in a copy
  // whose payload is already captured and that completion marks clean.
  // The write-buffer slot is released at completion (release_wb_slot). An
  // aborted verb (crashed home, exhausted retries) leaves the page
  // unflushed: reopen it so recovery requeues it.
  const auto flush = [&](auto&& issue) {
    s.dirty = false;
    ++tlb_gen_;
    try {
      issue();
    } catch (...) {
      s.dirty = true;
      throw;
    }
  };
  if (full) {
    // Whole-page downgrade: no diff scan, more wire bytes (§3.2's
    // bandwidth-for-latency trade). Safe: either nobody else writes this
    // page, or (defensively, missing twin) the values we'd "clobber" are
    // bytes no other node has flushed — DRF guarantees disjointness.
    wire = kPageSize;
    flush([&] { net_.post_write(node_, home_node, home, cur, kPageSize); });
    ++stats_.full_page_writebacks;
  } else {
    // Diff against the twin: scan both copies (charged as local memory
    // traffic), transmit only changed runs, apply them at the home. The
    // scan itself is host work only — the charge covers it whatever the
    // scanner — so the block scanner must (and does, by construction
    // and by property test against diff_runs_reference) emit exactly the
    // reference runs. The scratch vector is stolen from the member for the
    // duration: the gather write yields, and a concurrent writeback on
    // another line must not clobber the runs while this one is mid-flight.
    argosim::delay(net_.config().mem_copy(2 * kPageSize));
    std::vector<DiffRun> runs = std::move(diff_scratch_);
    runs.clear();
    diff_runs(cur, s.twin.get(), kPageSize, runs);
    ++stats_.diffs_built;
    if (runs.empty()) {
      // Nothing actually changed; no transmission needed.
      adapt_.note_diff(page, 0);
      diff_scratch_ = std::move(runs);
      release_wb_slot(s);
      return;
    }
    std::vector<argonet::GatherRun> gather = std::move(gather_scratch_);
    gather.clear();
    for (const DiffRun& r : runs) {
      wire += r.len + 8;
      gather.push_back(argonet::GatherRun{home + r.off, cur + r.off, r.len});
    }
    adapt_.note_diff(page, wire);
    // One scatter-gather writeback for the whole page. Pipelined, the
    // payload is snapshotted at post time, so the diff for the *next*
    // buffer entry is computed while this one is on the wire; at depth 1
    // the post is the blocking write, its runs applied at the home at
    // completion time.
    flush([&] { net_.post_write_gather(node_, home_node, gather, 8); });
    diff_scratch_ = std::move(runs);
    gather_scratch_ = std::move(gather);
  }
  release_wb_slot(s);
  ++stats_.writebacks;
  stats_.writeback_bytes += wire;
  if (tracer_) trace(argoobs::Ev::Writeback, page, traced_state(page), wire);
}

void NodeCache::writeback(std::uint64_t page) {
  const std::uint64_t group = group_of(page);
  Line& l = line_of_group(group);
  lock_line(l);
  if (l.group == group) {  // group first: unclaimed lines have no slots
    PageSlot& s = slot_of(l, page);
    if (s.valid && s.dirty) {
      try {
        writeback_locked(l, page);
      } catch (...) {
        unlock_line(l);  // crashed home: release the latch before unwinding
        throw;
      }
    }
  }
  unlock_line(l);
}

bool NodeCache::drain_oldest() {
  const bool naive = cfg_.classification == Mode::PSNaive;
  auto is_live = [&](std::uint64_t page) {
    const std::uint64_t group = group_of(page);
    Line& l = line_of_group(group);
    if (l.group != group) return false;
    const PageSlot& s = slot_of(l, page);
    return s.valid && s.in_wb;  // mid-writeback pages count (dirty clear)
  };
  if (!naive) {
    // FIFO: stale leading entries (already written back or evicted) are
    // popped eagerly so the deque cannot grow without bound.
    while (!write_buffer_.empty()) {
      const std::uint64_t page = write_buffer_.front();
      write_buffer_.pop_front();
      if (!is_live(page)) continue;
      adapt_.note_capacity_drain(page);
      writeback(page);  // latches and re-validates internally
      return true;
    }
    return false;
  }
  // Naive P/S: prefer the oldest non-private entry (private pages are not
  // supposed to downgrade); fall back to a forced flush if all-private.
  // One compacting pass per attempt: stale entries ahead of the selection
  // point are dropped by a single rewrite (the seed erased them one
  // mid-deque erase at a time — O(n) per erase, quadratic per drain);
  // entries behind the selection point are left untouched, exactly like
  // the historical scan, so the buffer contents stay bit-identical.
  for (std::size_t attempt = 0; attempt < 2; ++attempt) {
    const bool allow_private = attempt == 1;
    const std::size_t n = write_buffer_.size();
    bool found = false;
    std::uint64_t sel = 0;
    std::size_t w = 0;
    std::size_t r = 0;
    for (; r < n; ++r) {
      const std::uint64_t page = write_buffer_[r];
      if (!is_live(page)) continue;  // drop stale entries as we scan
      if (!allow_private &&
          dir_.cache_get(node_, dir_page(page)).private_to(node_)) {
        write_buffer_[w++] = page;
        continue;
      }
      found = true;
      sel = page;
      ++r;  // the selected entry leaves the buffer too
      break;
    }
    if (w != r || r != n) {
      for (; r < n; ++r) write_buffer_[w++] = write_buffer_[r];
      write_buffer_.resize(w);
    }
    if (found) {
      const std::uint64_t group = group_of(sel);
      Line& l = line_of_group(group);
      lock_line(l);
      if (l.group == group && slot_of(l, sel).valid && slot_of(l, sel).dirty) {
        try {
          writeback_locked(l, sel);
          refresh_checkpoint(l, sel);
        } catch (...) {
          unlock_line(l);
          throw;
        }
      }
      unlock_line(l);
      return true;
    }
    if (write_buffer_.empty()) return false;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Fences (§3.1)
// ---------------------------------------------------------------------------

void NodeCache::si_fence() {
  for (;;) {
    try {
      si_fence_impl();
      return;
    } catch (const argonet::NodeFailedError& e) {
      // A dirty page's home crashed mid-sweep. Wait out the recovery and
      // re-run the fence against the successor homes; pages already
      // invalidated stay invalidated, so the re-run only finishes the job.
      if (!crash_failover(e)) throw;
    }
  }
}

void NodeCache::sd_fence() {
  for (;;) {
    try {
      sd_fence_impl();
      return;
    } catch (const argonet::NodeFailedError& e) {
      if (!crash_failover(e)) throw;
      // The throwing drain may have popped entries whose writebacks never
      // finished; put every still-dirty in_wb page back in the queue so
      // the re-run (and later capacity drains) can find them.
      requeue_stranded_wb();
    }
  }
}

void NodeCache::requeue_stranded_wb() {
  for (const std::size_t idx : occ_idx_) {
    Line& l = lines_[idx];
    if (l.group == kNoGroup) continue;
    for (std::size_t i = 0; i < l.pages.size(); ++i) {
      const PageSlot& s = l.pages[i];
      if (!(s.valid && s.in_wb)) continue;
      const std::uint64_t page = l.group * cfg_.pages_per_line + i;
      bool queued = false;
      for (const std::uint64_t q : write_buffer_) queued = queued || q == page;
      if (!queued) write_buffer_.push_back(page);
    }
  }
}

void NodeCache::si_fence_impl() {
  ++stats_.si_fences;
  const argosim::Time fence_start = argosim::now();
  const std::uint64_t inval_before = stats_.si_invalidations;
  trace(argoobs::Ev::SiFenceBegin, 0, argoobs::kUnknownState, 0);
  // Visit the live lines among those occupied when the fence began, in
  // occupation order. occ_idx_ only grows, and the sweep yields at latches
  // and writebacks, so each step re-reads live_: a line that turns live
  // mid-sweep is swept, one emptied mid-sweep is skipped.
  const std::size_t occupied = occ_idx_.size();
  for (std::size_t r = next_live(0, occupied); r < occupied;
       r = next_live(r + 1, occupied)) {
    Line& l = lines_[occ_idx_[r]];
    if (l.group == kNoGroup) continue;
    lock_line(l);
    if (l.group == kNoGroup) {  // evicted while we waited for the latch
      unlock_line(l);
      continue;
    }
    try {
      for (std::size_t i = 0; i < cfg_.pages_per_line; ++i) {
        PageSlot& s = l.pages[i];
        if (!s.valid) continue;
        const std::uint64_t page = l.group * cfg_.pages_per_line + i;
        const DirEntry w = dir_.cache_get(node_, dir_page(page));
        const bool registered = w.is_reader(node_) || w.is_writer(node_);
        if (registered && !si_required(cfg_.classification, w, node_)) continue;
        if (s.dirty) writeback_locked(l, page);
        s.valid = false;
        // Per-invalidation bump (not once per fence): the writeback above
        // yields, and translations inserted by other fibers mid-sweep for
        // pages this sweep has not reached yet must still be revoked when
        // their turn comes.
        ++tlb_gen_;
        s.twin.reset();
        ++stats_.si_invalidations;
      }
    } catch (...) {
      unlock_line(l);  // crashed home mid-writeback; see si_fence
      throw;
    }
    release_if_invalid(l);
    unlock_line(l);
  }
  // Retire any writebacks this sweep posted (free at pipeline depth 1:
  // the send queue is always empty there).
  net_.wait_all(node_);
  trace(argoobs::Ev::SiFenceEnd, 0, argoobs::kUnknownState,
        stats_.si_invalidations - inval_before);
  stats_.si_fence_ns.add(argosim::now() - fence_start);
  // Fence boundary = phase boundary for the sizing policy. Host work only;
  // charges no virtual time.
  if (const std::size_t cap = adapt_.sample_fence(
          argosim::now(), argosim::now() - fence_start, wb_live_))
    trace(argoobs::Ev::AdaptWbResize, 0, argoobs::kUnknownState, cap);
}

void NodeCache::sd_fence_impl() {
  ++stats_.sd_fences;
  if (cfg_.debug_skip_sd_fence) return;  // chaos knob: leave pages dirty
  const argosim::Time fence_start = argosim::now();
  const std::uint64_t wb_before = stats_.writebacks;
  trace(argoobs::Ev::SdFenceBegin, 0, argoobs::kUnknownState, wb_live_);
  const bool naive = cfg_.classification == Mode::PSNaive;
  // Drain in place: entries must stay visible to concurrent capacity
  // drains (hiding them in a local queue can starve a writer spinning for
  // a free buffer slot, which never yields in the cooperative simulator).
  // Naive P/S keeps its private pages dirty: they go to a side list that
  // is re-attached afterwards.
  std::deque<std::uint64_t> keep;
  std::size_t budget = write_buffer_.size() + wb_live_ + 1;
  while (!write_buffer_.empty() && budget-- > 0) {
    const std::uint64_t page = write_buffer_.front();
    write_buffer_.pop_front();
    const std::uint64_t group = group_of(page);
    Line& l = line_of_group(group);
    lock_line(l);
    PageSlot& s = slot_of(l, page);
    if (!(l.group == group && s.valid && s.dirty && s.in_wb)) {
      unlock_line(l);
      continue;  // stale entry
    }
    try {
      if (naive) {
        const DirEntry w = dir_.cache_get(node_, page);
        if (w.private_to(node_)) {
          // Naive P/S: private pages are not downgraded; instead the node
          // checkpoints them at every synchronization point so a later P→S
          // can be serviced (§3.4.2 "Naive Solution"). The page stays
          // dirty, so the checkpoint is re-taken at every future sync —
          // this is the accumulating overhead Figure 8 charges against
          // naive P/S.
          refresh_checkpoint(l, page);
          keep.push_back(page);  // keep tracking it
        } else {
          writeback_locked(l, page);
          // While we remain the page's sole writer, newcomers heal from
          // our checkpoint — keep it as fresh as what we just flushed.
          if (w.sole_writer(node_)) refresh_checkpoint(l, page);
        }
      } else {
        writeback_locked(l, page);
      }
    } catch (...) {
      unlock_line(l);  // crashed home mid-writeback; see sd_fence
      throw;
    }
    unlock_line(l);
  }
  for (std::uint64_t page : keep) write_buffer_.push_back(page);
  // Re-attached private entries are drainable again: wake writers that
  // parked on a full buffer while the fence had them popped.
  if (!keep.empty()) wb_slot_waiters_.notify_all();
  // Retire the posted writebacks — the whole drain's diffs were computed
  // back to back while earlier pages were on the wire; the fence ends when
  // the last one lands. Free at pipeline depth 1.
  net_.wait_all(node_);
  trace(argoobs::Ev::SdFenceEnd, 0, argoobs::kUnknownState,
        stats_.writebacks - wb_before);
  stats_.sd_fence_ns.add(argosim::now() - fence_start);
  // Fence boundary = phase boundary for the sizing policy. Host work only;
  // charges no virtual time.
  if (const std::size_t cap = adapt_.sample_fence(
          argosim::now(), argosim::now() - fence_start, wb_live_))
    trace(argoobs::Ev::AdaptWbResize, 0, argoobs::kUnknownState, cap);
}

// ---------------------------------------------------------------------------
// Crash recovery (core/membership.hpp)
// ---------------------------------------------------------------------------

bool NodeCache::crash_failover(const argonet::NodeFailedError& e) {
  if (membership_ == nullptr) return false;
  // Block until the first detector finishes re-homing the dead node's
  // pages; every retried access then routes to the successor. The op that
  // observed the crash was aborted mid-flight (it is retried against the
  // successor), and posted ops the crash aborted are banked in the
  // interconnect — account both.
  membership_->await_recovery(e.dst());
  membership_->note_aborted(net_.take_aborted_posted(node_) + 1);
  return true;
}

const std::byte* NodeCache::host_page_image(std::uint64_t page, bool* dirty) {
  const std::uint64_t group = group_of(page);
  Line& l = line_of_group(group);
  if (l.group != group || l.fetching) return nullptr;
  PageSlot& s = slot_of(l, page);
  if (!s.valid) return nullptr;
  *dirty = s.dirty || s.in_wb;  // a page mid-writeback is still unflushed
  return page_data(l, page);
}

bool NodeCache::host_drop_page(std::uint64_t page) {
  const std::uint64_t group = group_of(page);
  Line& l = line_of_group(group);
  if (l.group != group || l.fetching) return false;
  PageSlot& s = slot_of(l, page);
  // Dirty copies survive (see .hpp), including one mid-writeback.
  if (!s.valid || s.dirty || s.in_wb) return false;
  s.valid = false;
  s.twin.reset();
  ++tlb_gen_;  // residency changed under the threads' feet
  release_if_invalid(l);
  return true;
}

bool NodeCache::host_adopt_page(std::uint64_t page) {
  const std::uint64_t group = group_of(page);
  Line& l = line_of_group(group);
  if (l.group != group || l.fetching) return false;
  PageSlot& s = slot_of(l, page);
  if (!s.valid) return false;
  // Also wakes writers parked on the buffer.
  if (s.dirty || s.in_wb) release_wb_slot(s);
  s.valid = false;
  s.twin.reset();
  ++tlb_gen_;  // residency changed under the threads' feet
  release_if_invalid(l);
  return true;
}

// ---------------------------------------------------------------------------
// Maintenance
// ---------------------------------------------------------------------------

void NodeCache::invalidate_all_free() {
  assert(dirty_pages() == 0 &&
         "reset_classification requires a clean cache (barrier first)");
  for (const std::size_t idx : occ_idx_) {
    Line& l = lines_[idx];
    assert(!l.fetching);
    l.group = kNoGroup;
    for (auto& s : l.pages) {
      s.valid = false;
      s.dirty = false;
      s.in_wb = false;
      s.twin.reset();
    }
    occ_bits_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
    l.rank = kNoRank;
  }
  ++tlb_gen_;  // every translation any thread holds is now invalid
  for (const std::size_t idx : occ_idx_) lines_[idx].data.reset();
  occ_idx_.clear();
  std::fill(live_.begin(), live_.end(), 0);
  write_buffer_.clear();
  wb_live_ = 0;
  // Adaptive runtime state (capacity, density history, phase accumulators)
  // starts over with the cache: the pages it described are gone.
  adapt_.reset_runtime();
  // Shrink: drop the page images AND any oversized bucket table a long
  // initialization phase grew, then re-reserve the steady-state sizing so
  // the measured phase starts rehash-free.
  checkpoints_.clear();
  if (cfg_.classification == Mode::PSNaive) {
    const std::size_t want = checkpoint_reserve();
    if (checkpoints_.bucket_count() >
        2 * want / checkpoints_.max_load_factor()) {
      std::unordered_map<std::uint64_t, argomem::PageBuf>{}.swap(checkpoints_);
      checkpoints_.reserve(want);
    }
  }
}

std::size_t NodeCache::resident_pages() const {
  std::size_t n = 0;
  for (const std::size_t idx : occ_idx_)
    for (const auto& s : lines_[idx].pages) n += s.valid ? 1 : 0;
  return n;
}

std::size_t NodeCache::dirty_pages() const {
  std::size_t n = 0;
  for (const std::size_t idx : occ_idx_)
    for (const auto& s : lines_[idx].pages) n += (s.valid && s.dirty) ? 1 : 0;
  return n;
}

std::vector<NodeCache::CachedPage> NodeCache::cached_pages() const {
  std::vector<CachedPage> out;
  for (const std::size_t idx : occ_idx_) {
    const Line& l = lines_[idx];
    if (l.group == kNoGroup) continue;
    for (std::size_t i = 0; i < l.pages.size(); ++i) {
      const PageSlot& s = l.pages[i];
      if (s.valid)
        out.push_back({l.group * cfg_.pages_per_line + i, s.dirty, s.in_wb});
    }
  }
  return out;
}

}  // namespace argocore
