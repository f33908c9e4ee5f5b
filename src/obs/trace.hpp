// Protocol event tracing: a per-node ring of fixed-size coherence events
// stamped with virtual time, node, simulated thread, page and page state.
//
// Recording is free in *virtual* time: emit() never calls delay() or
// touches the scheduler, so a traced run's virtual timings are bit-
// identical to an untraced one. When tracing is disabled (the default)
// every emit site reduces to one predicted branch; no ring memory is
// allocated. A node's events are emitted on its own engine shard, which
// runs one fiber at a time, so a plain per-node ring needs no
// synchronization; snapshot() merges the rings into one global order,
// numbered by `seq`.
//
// Event semantics (see docs/TRACING.md for the full schema):
//
//   SiFenceBegin/End   acquire-side fence; End.arg = pages invalidated
//   SdFenceBegin/End   release-side fence; Begin.arg = live write-buffer
//                      entries, End.arg = pages written back by the fence
//   LineFill           one RDMA read of a contiguous run; page = first
//                      page, arg = bytes fetched
//   Writeback          one page flushed home; arg = wire bytes
//   ClassTransition    this node caused P->S / NW->SW / SW->MW on a
//                      directory word; page = directory page, arg = the
//                      updated word, state = the *new* classification
//   DeferredInval      one coalesced notification atomic toward a
//                      displaced owner; arg = destination node
//   Eviction           page displaced by a conflict; arg = was dirty
//   LockHandover       a global MCS lock granted to a successor; page =
//                      the lock's tail-word global address, arg = grantee
//   PostedRetire       a posted verb retired from a send queue; page =
//                      the op id, arg = 1 if it hard-failed
//   AdaptWbResize      adaptive write-buffer sizing decision at a fence
//                      boundary; arg = the new capacity in pages
//   AdaptDiffMode      a page's diff-density classification flipped;
//                      arg = 1 entering full-page mode, 0 back to diffs
//
// Kind 13 is retired (it was the stride-prefetch event, removed with the
// policy); never reuse it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace argoobs {

/// Event kinds. Stable numeric values: they are part of the binary trace
/// format (docs/TRACING.md); append new kinds, never renumber.
enum class Ev : std::uint8_t {
  SiFenceBegin = 0,
  SiFenceEnd = 1,
  SdFenceBegin = 2,
  SdFenceEnd = 3,
  LineFill = 4,
  Writeback = 5,
  ClassTransition = 6,
  DeferredInval = 7,
  Eviction = 8,
  LockHandover = 9,
  PostedRetire = 10,
  AdaptWbResize = 11,
  AdaptDiffMode = 12,
  // 13: retired, never reuse.
};

const char* to_string(Ev kind);

/// Page state byte carried by events. Mirrors argocore::PageState's
/// enumerators (static_asserted in carina.cpp); kUnknownState for events
/// that have no page classification (locks, posted ops).
inline constexpr std::uint8_t kUnknownState = 0xff;

/// Printable name for a state byte ("P", "S,NW", "S,SW", "S,MW", "-").
const char* state_name(std::uint8_t state);

/// One fixed-size trace record (40 bytes in the binary format).
struct TraceEvent {
  std::uint64_t seq = 0;     ///< global (t, node, ring) order, gap-free
  argosim::Time t = 0;       ///< virtual time (ns)
  std::uint64_t page = 0;    ///< page / dir page / op id / lock address
  std::uint64_t arg = 0;     ///< kind-specific operand (see above)
  std::uint32_t thread = 0;  ///< simulated-thread id (engine fiber id)
  std::uint16_t node = 0;    ///< emitting node
  std::uint8_t kind = 0;     ///< Ev
  std::uint8_t state = kUnknownState;  ///< PageState or kUnknownState
};

/// Runtime tracing toggle, compile-time defaulted to off. With enabled ==
/// false the tracer allocates nothing and every emit is one branch.
struct TraceConfig {
  bool enabled = false;
  /// Per-node ring capacity in events (40 B each), rounded up to the next
  /// power of two so the ring index is a mask. When a ring wraps, the
  /// oldest events are overwritten and counted in dropped().
  std::size_t ring_capacity = 1u << 18;
};

/// Per-node event rings. Every emit site runs on the emitting node's
/// shard, so each ring is single-writer and events carry a ring-local seq;
/// snapshot() rebuilds the global order from (t, node, ring order) — a pure
/// function of the per-shard histories, identical for any worker count.
class Tracer {
 public:
  Tracer() = default;

  /// Size the per-node rings. Allocates only when cfg.enabled.
  void configure(int nodes, const TraceConfig& cfg);

  bool enabled() const { return enabled_; }

  /// Record one event. Free of virtual time; a no-op branch when disabled.
  void emit(int node, Ev kind, std::uint64_t page, std::uint8_t state,
            std::uint64_t arg) {
    if (!enabled_) return;
    emit_slow(node, kind, page, state, arg);
  }

  /// All retained events of every node, merged in emission (seq) order.
  std::vector<TraceEvent> snapshot() const;

  /// Retained events of one node, oldest first.
  std::vector<TraceEvent> node_events(int node) const;

  std::uint64_t emitted() const;                   ///< total ever emitted
  std::uint64_t dropped() const;                   ///< overwritten by wraps

  /// Drop all retained events; emitted() restarts from zero.
  void clear();

 private:
  void emit_slow(int node, Ev kind, std::uint64_t page, std::uint8_t state,
                 std::uint64_t arg);

  struct Ring {
    std::vector<TraceEvent> buf;  // pre-sized to capacity_ by configure();
                                  // circular once count >= capacity_
    std::uint64_t count = 0;      // total events pushed into this ring
  };

  bool enabled_ = false;
  std::size_t capacity_ = 0;
  std::vector<Ring> rings_;
};

}  // namespace argoobs
