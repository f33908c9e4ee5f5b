// Soft-TLB: the MMU analogue for the simulator's explicit access API.
//
// In the original Argo a *cached hit* costs nothing: the page is mapped
// with the right protection, the MMU translates, no handler runs. Only
// misses and permission faults trap into the protocol (paper §4). Our
// Thread::load/store substitution routed every access through the full
// NodeCache::read_ptr/write_ptr path — group hash, line lookup, directory
// cache probe, stats, trace branch — making hits the dominant *host* cost.
//
// SoftTlb restores the MMU cost model. Each Thread keeps two small
// direct-mapped translation arrays (reads and writes) caching
// page → (host pointer, stats counter) mappings. A lookup is a bounds
// check and a pointer add; a hit bumps exactly the CoherenceStats counter
// the slow path would have bumped and returns the same pointer the slow
// path would have returned — nothing else. Hits charge no virtual time
// (slow-path hits charge none either), emit no trace events (hits never
// did), and leave the protocol state untouched, so the fast path is
// observationally invisible: the recorded-result suites in
// tests/test_hostperf.cpp and the golden gate (bench/golden_quick.json)
// pin traces, statistics and virtual times to the seed's TLB-less walk.
//
// Invalidation is generation-based. Every NodeCache keeps one monotonic
// generation counter; TLB entries are stamped with it at insertion and
// match only while it is unchanged. Any protocol event that can change a
// page's contents, residency or write permission — line fill, eviction,
// writeback post/retire, SI/SD fence invalidation, naive-P/S checkpoint
// and heal, a deferred invalidation delivered into our directory cache —
// bumps the generation (see the ++tlb_gen_ sites in carina.cpp and the
// gen-slot hook in dir/pyxis.cpp), so stale entries miss and fall back to
// the slow path. Over-invalidation is always safe: a miss re-runs the
// exact seed path. The analogue of the real system's mprotect() is the
// generation bump: both revoke translations wholesale and let the next
// access re-fault.
//
// Entry rules mirror the slow-path hit conditions they replace:
//  * read entry: page resident + valid + our reader bit set (or homed
//    here + reader bit set). Reader/writer map bits are monotonic between
//    resets (dir/pyxis.hpp), so only residency events — all generation
//    bumps — can end a read translation's validity.
//  * write entry: additionally the page must stay dirty and queued in the
//    write buffer (a store to a clean page must re-twin and re-queue).
//    Writebacks and fences clear dirty state and bump the generation, so
//    a stale write translation can never skip a required write-allocate.
#pragma once

#include <cstddef>
#include <cstdint>

namespace argocore {

/// One cached page translation. `counter` points at the CoherenceStats
/// field a slow-path hit on this page would increment (read_hits,
/// write_hits or home_accesses); `base` is the page's host base pointer.
struct TlbEntry {
  std::uint64_t page = ~std::uint64_t{0};
  std::uint64_t gen = 0;  // matches NodeCache::tlb_generation() when live
  std::byte* base = nullptr;
  std::uint64_t* counter = nullptr;
};

/// Per-thread software TLB: two direct-mapped ways of kEntries slots.
/// Thread objects live on fiber stacks and are private to one fiber, so
/// no synchronization is needed; all threads of a node share the node's
/// generation counter.
class SoftTlb {
 public:
  static constexpr std::size_t kEntries = 64;  // power of two

  /// Translate a read of `page`; returns the page base pointer on a hit
  /// (after bumping the slow path's counter) or nullptr on a miss.
  std::byte* lookup_read(std::uint64_t page, std::uint64_t gen) {
    return lookup(read_, page, gen);
  }

  /// Translate a write of `page` (valid only while the page stays dirty
  /// and write-buffered — insertion sites guarantee that, generation
  /// bumps revoke it).
  std::byte* lookup_write(std::uint64_t page, std::uint64_t gen) {
    return lookup(write_, page, gen);
  }

  void insert_read(std::uint64_t page, std::uint64_t gen, std::byte* base,
                   std::uint64_t* counter) {
    read_[page & (kEntries - 1)] = TlbEntry{page, gen, base, counter};
  }

  void insert_write(std::uint64_t page, std::uint64_t gen, std::byte* base,
                    std::uint64_t* counter) {
    write_[page & (kEntries - 1)] = TlbEntry{page, gen, base, counter};
  }

  /// Drop every entry (tests; generation bumps make this unnecessary in
  /// normal operation).
  void flush() {
    for (auto& e : read_) e = TlbEntry{};
    for (auto& e : write_) e = TlbEntry{};
  }

  /// Host-only diagnostics: hits served by this TLB. Never part of
  /// CoherenceStats (those must be identical with the TLB disabled);
  /// aggregated per node via NodeCache::note_tlb_hits for tests that
  /// assert the fast path actually engages.
  std::uint64_t host_hits = 0;

 private:
  std::byte* lookup(TlbEntry* way, std::uint64_t page, std::uint64_t gen) {
    TlbEntry& e = way[page & (kEntries - 1)];
    if (e.page == page && e.gen == gen) {
      ++*e.counter;  // exactly what the slow-path hit would have done
      ++host_hits;
      return e.base;
    }
    return nullptr;
  }

  TlbEntry read_[kEntries];
  TlbEntry write_[kEntries];
};

}  // namespace argocore
