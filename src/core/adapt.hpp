#pragma once
// Adaptive runtime tuning: deterministic policy engines that close the
// observability loop online. Every input is a virtual-time counter or a
// protocol event already present on the miss/fence/writeback paths —
// never a host clock and never a cache-hit fast path (the soft-TLB
// short-circuits hits, so a hit-path hook would break fast-vs-slow
// bit-identity). Policies only read state owned by their own NodeCache, so
// decisions are identical for any host worker count of the parallel engine.
//
// Two policies, individually gated by ClusterConfig::adapt (both off by
// default, which reproduces the fixed-knob behaviour bit-identically):
//
//  (a) phase-adaptive write-buffer sizing — a deterministic hill-climber
//      on measured phase time (fence-to-fence virtual time). Mid-phase
//      overflow drains overlap other workers' compute, while fence drains
//      serialize behind the barrier, so the common failure mode is an
//      oversized buffer: exploration defaults downward (halving, with a
//      fast jump to 4x peak occupancy when grossly oversized) and grows
//      only under measured admission-stall pressure. A move that makes the
//      next phase slower is reverted and the direction backed off
//      exponentially. Bounded to [kWbMinPages, kWbMaxPages] (adapt.cpp).
//  (b) density-driven diff granularity — a per-page EWMA of diff wire
//      bytes (runs from diff_runs, 8-byte headers included) selects a
//      single full-page write over run-coalesced scatter-gather when the
//      page's diffs are dense. Only consulted when the node is the page's
//      sole writer (same DRF argument as sw_diff_suppression); a periodic
//      probe re-runs the diff so the EWMA can observe sparsification.
//
// Fetch width is not adapted: prefetching is the paper's static multi-page
// line (CacheConfig::pages_per_line), and the 4-page line the benches use
// beat every adaptive alternative measured (EXPERIMENTS.md, "Adaptive
// policies vs the best static setting").

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mem/gaddr.hpp"

namespace argocore {

// ---------------------------------------------------------------------------

struct AdaptConfig {
  bool write_buffer = false;      // policy (a)
  bool diff_granularity = false;  // policy (b)

  bool any() const { return write_buffer || diff_granularity; }
};

// Decision counters, kept apart from CoherenceStats so the seed's stat
// footprint (and its metric enumeration) is untouched when adapt is off.
struct AdaptStats {
  std::uint64_t wb_grows = 0;
  std::uint64_t wb_shrinks = 0;
  std::uint64_t wb_reverts = 0;  // (a) moves undone by a slower next phase
  std::uint64_t full_page_selected = 0;  // (b) chose full page over diff
  std::uint64_t density_probes = 0;      // (b) dense page re-diffed anyway

  AdaptStats& operator+=(const AdaptStats& o) {
    wb_grows += o.wb_grows;
    wb_shrinks += o.wb_shrinks;
    wb_reverts += o.wb_reverts;
    full_page_selected += o.full_page_selected;
    density_probes += o.density_probes;
    return *this;
  }
};

// ---------------------------------------------------------------------------
// Per-NodeCache policy engine: write-buffer capacity + diff density.

class AdaptEngine {
 public:
  AdaptEngine(const AdaptConfig& cfg, std::size_t base_wb_pages,
              bool protocol_supported);

  // Policy activity: config flag AND the protocol supports it (naive P/S
  // checkpoints instead of diffing).
  bool wb_active() const { return cfg_.write_buffer && supported_; }
  bool diff_active() const { return cfg_.diff_granularity && supported_; }

  // Current write-buffer page capacity; the seed's fixed knob when the
  // policy is inert.
  std::size_t wb_capacity() const { return wb_active() ? wb_capacity_ : base_wb_; }

  // -- policy (a) hooks (all no-ops while inactive) -------------------------
  void note_drain_stall(std::uint64_t ns);  // virtual ns stalled on a full buffer
  // A full buffer drained `page` to admit another store.
  void note_capacity_drain(std::uint64_t page);
  // `page` entered the buffer, which now holds `live_after` entries (the
  // page feeds the re-dirty churn signal).
  void note_wb_admit(std::size_t live_after, std::uint64_t page);
  // Fence-boundary sampler: `now_ns` is the current virtual time (ends the
  // phase the climber judges), `fence_ns` the duration of the fence that
  // just ran (the capacity-dependent cost shrinking attacks), and `live`
  // the write-buffer entries still queued (capacity never moves below
  // them). Returns the new capacity when it changed, 0 when it held
  // (callers trace the change).
  std::size_t sample_fence(std::uint64_t now_ns, std::uint64_t fence_ns,
                           std::size_t live);

  // -- policy (b) hooks -----------------------------------------------------
  // Record the wire bytes a real diff of `page` produced (0 = clean diff).
  void note_diff(std::uint64_t page, std::size_t wire_bytes);
  // True when the page's diff density history says a full-page write is
  // cheaper. `flipped` reports a mode change vs the page's last decision
  // (for the AdaptDiffMode trace event). Mutates probe counters, so only
  // call when the full-page path is actually eligible.
  bool prefer_full_page(std::uint64_t page, bool& flipped);

  // -- shared ---------------------------------------------------------------
  AdaptStats& stats() { return stats_; }
  const AdaptStats& stats() const { return stats_; }
  void reset_stats() { stats_ = AdaptStats{}; }
  // Full protocol reset (invalidate_all_free): drop phase state, density
  // history, and return the capacity to its configured base.
  void reset_runtime();

  // Capacity trajectory since the last reset (bounded; for bench JSON).
  const std::vector<std::uint32_t>& wb_capacity_history() const {
    return history_;
  }

 private:
  static constexpr std::size_t kHistoryCap = 64;

  AdaptConfig cfg_;
  std::size_t base_wb_;
  bool supported_;

  // (a) phase accumulators + hill-climber state
  std::size_t wb_capacity_;
  std::uint64_t phase_stall_ns_ = 0;
  std::uint64_t phase_drains_ = 0;
  std::uint64_t phase_admits_ = 0;
  std::size_t phase_peak_ = 0;
  // Pages a full buffer drained this phase, and those of them a store
  // re-dirtied (and so re-twinned and re-queued) before the phase ended.
  std::unordered_set<std::uint64_t> phase_drained_;
  std::unordered_set<std::uint64_t> phase_redirtied_;
  std::uint64_t phase_start_ns_ = 0;  // virtual time the current phase began
  bool primed_ = false;               // first acting fence seen (clock valid)
  std::uint64_t ewma_stall_ = 0;      // per-admission stall pressure
  std::uint64_t prev_phase_ns_ = 0;   // last acting phase length (0 = none)
  std::uint64_t prev2_phase_ns_ = 0;  // the one before (alternation guard)
  std::uint32_t drift256_ = 256;      // natural same-parity phase ratio, /256
  std::size_t prev_cap_ = 0;          // capacity to restore on a revert
  bool moved_ = false;                // a move awaits judgment
  bool moved_was_jump_ = false;
  std::uint64_t moved_pre_stall_ = 0;  // stall/admit in the phase before a grow
  int moved_dir_ = 0;                 // direction of the pending move
  int dir_ = -1;                      // exploration direction (-1 = shrink)
  int hold_ = 0;                      // acting phases left in cooldown
  int backoff_ = 1;                   // next cooldown length
  // Direction vetoes: a capacity a grow/shrink must not be retried from,
  // expiring after kVetoPhases acting fences — workloads like LU change
  // regime mid-run (early phases want a bigger buffer, late phases a
  // smaller one), so a veto must not outlive the evidence behind it.
  static constexpr int kVetoPhases = 12;
  std::size_t bad_grow_from_ = 0;
  std::size_t bad_shrink_from_ = 0;
  int grow_veto_ttl_ = 0;
  int shrink_veto_ttl_ = 0;
  std::size_t last_grow_veto_cap_ = 0;    // second strike => long veto
  std::size_t last_shrink_veto_cap_ = 0;
  bool jump_blocked_ = false;         // a jump reverted: halve-only from now on
  std::size_t churn_floor_ = 0;  // capacity floor from re-dirty churn
  int churn_ttl_ = 0;            // churn-free phases until the floor lapses
  std::vector<std::uint32_t> history_;

  // (b) per-page density history
  struct Density {
    std::uint8_t ewma = 0;        // wire bytes in 256ths of a page
    std::uint8_t streak = 0;      // consecutive dense diffs observed
    std::uint16_t decisions = 0;  // full-page-eligible consultations
    bool seen = false;
    bool last_full = false;
  };
  std::unordered_map<std::uint64_t, Density> density_;

  AdaptStats stats_;
};

}  // namespace argocore
