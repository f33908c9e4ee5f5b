#pragma once
// Adaptive runtime tuning (ROADMAP item 5): deterministic policy engines
// that close the observability loop online. Every input is a virtual-time
// counter or a protocol event already present on the miss/fence/writeback
// paths — never a host clock and never a cache-hit fast path (the soft-TLB
// short-circuits hits, so a hit-path hook would break fast-vs-slow
// bit-identity). Policies only read state owned by their own NodeCache (or
// their own Thread, for the stride table), so decisions are identical for
// any host worker count of the parallel engine.
//
// Three policies, individually gated by ClusterConfig::adapt:
//
//  (a) phase-adaptive write-buffer sizing — a deterministic hill-climber
//      on measured phase time (fence-to-fence virtual time). Mid-phase
//      overflow drains overlap other workers' compute, while fence drains
//      serialize behind the barrier, so the common failure mode is an
//      oversized buffer: exploration defaults downward (halving, with a
//      fast jump to 4x peak occupancy when grossly oversized) and grows
//      only under measured admission-stall pressure. A move that makes the
//      next phase slower is reverted and the direction backed off
//      exponentially. Bounded to [wb_min_pages, wb_max_pages].
//  (b) density-driven diff granularity — a per-page EWMA of diff wire
//      bytes (runs from diff_runs, 8-byte headers included) selects a
//      single full-page write over run-coalesced scatter-gather when the
//      page's diffs are dense. Only consulted when the node is the page's
//      sole writer (same DRF argument as sw_diff_suppression); a periodic
//      probe re-runs the diff so the EWMA can observe sparsification.
//  (c) stride prefetch — a per-thread 2-entry stride table over the page
//      miss stream widens the demand fill with same-home neighbour pages
//      when a stride is confirmed, with round-robin replacement that
//      counts confident-entry evictions as misprediction resets.
//
// Reference mode: ARGO_NO_ADAPT=1 (or set_adapt_forced_off(true)) forces
// every policy inert, reproducing the fixed-knob seed behaviour
// bit-identically; tests/test_adapt.cpp pins this.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mem/gaddr.hpp"

namespace argocore {

// ---------------------------------------------------------------------------
// Reference-mode toggle, same idiom as ARGO_THREADS (sim/par.hpp):
// ARGO_NO_ADAPT set (and not "0") disables every adaptive policy
// regardless of config.

namespace detail {
inline bool g_no_adapt = [] {
  const char* e = std::getenv("ARGO_NO_ADAPT");
  return e != nullptr && e[0] != '\0' && !(e[0] == '0' && e[1] == '\0');
}();
}  // namespace detail

inline bool adapt_forced_off() { return detail::g_no_adapt; }
inline void set_adapt_forced_off(bool v) { detail::g_no_adapt = v; }

// ---------------------------------------------------------------------------

struct AdaptConfig {
  bool write_buffer = false;      // policy (a)
  bool diff_granularity = false;  // policy (b)
  bool stride_prefetch = false;   // policy (c)

  // (a) write-buffer sizing
  std::size_t wb_min_pages = 4;
  std::size_t wb_max_pages = 8192;
  // Per-admission stall EWMA (virtual ns a store loses to a full buffer,
  // averaged over every admission of the phase) past which the climber
  // probes growth instead of exploring downward.
  std::uint64_t wb_grow_stall_ns = 2000;
  // Ceiling of the exponential backoff (in acting phases) after a move is
  // reverted, bounding oscillation cost around a settled optimum.
  int wb_revert_backoff = 8;

  // (b) diff granularity: wire-byte EWMA threshold in 256ths of a page
  // (224/256 = 87.5% — past that the run headers cost more than the
  // bytes a full-page write would resend), the consecutive dense diffs a
  // page must show before full-page mode engages (pages that alternate
  // dense/clean writebacks must keep diffing: a full-page write of an
  // unchanged page ships 4 KiB for nothing), and the probe cadence that
  // keeps sampling real diffs on full-page pages.
  unsigned dense_frac256 = 224;
  unsigned dense_streak = 3;
  unsigned density_probe_interval = 8;

  // (c) stride prefetch. Confidence 6 means a stream must survive six
  // same-stride misses before predictions fire: short streams (a few
  // cache lines per array slice, the common shape at small problem sizes)
  // end before that, so they never trigger the end-of-slice overfetch
  // that would make prefetch a net loss. Long streams — the only place
  // prefetch has real upside — clear the bar within their first few lines.
  int stride_confidence = 6;  // confirmations before predictions fire
  int prefetch_degree = 2;    // pages fetched ahead per prediction

  bool any() const { return write_buffer || diff_granularity || stride_prefetch; }
};

// Decision counters, kept apart from CoherenceStats so the seed's stat
// footprint (and its metric enumeration) is untouched when adapt is off.
struct AdaptStats {
  std::uint64_t wb_grows = 0;
  std::uint64_t wb_shrinks = 0;
  std::uint64_t wb_reverts = 0;  // (a) moves undone by a slower next phase
  std::uint64_t full_page_selected = 0;  // (b) chose full page over diff
  std::uint64_t density_probes = 0;      // (b) dense page re-diffed anyway
  std::uint64_t prefetch_issued = 0;     // (c) predictions acted on
  std::uint64_t prefetched_pages = 0;    // (c) pages actually pulled in
  std::uint64_t prefetch_useful = 0;     // (c) prefetched pages later touched
  std::uint64_t prefetch_suppressed = 0;  // (c) predictions the governor vetoed
  std::uint64_t stride_resets = 0;       // (c) confident entry evicted

  AdaptStats& operator+=(const AdaptStats& o) {
    wb_grows += o.wb_grows;
    wb_shrinks += o.wb_shrinks;
    wb_reverts += o.wb_reverts;
    full_page_selected += o.full_page_selected;
    density_probes += o.density_probes;
    prefetch_issued += o.prefetch_issued;
    prefetched_pages += o.prefetched_pages;
    prefetch_useful += o.prefetch_useful;
    prefetch_suppressed += o.prefetch_suppressed;
    stride_resets += o.stride_resets;
    return *this;
  }
};

// ---------------------------------------------------------------------------
// Per-thread 2-entry stride table over the demand page-miss stream.
// Purely thread-local state updated only on misses, so it is deterministic
// under the parallel engine and invisible to TLB-hit fast paths.

class StrideTable {
 public:
  struct Prediction {
    std::int64_t stride = 0;
    int degree = 0;  // 0 = no prediction
  };

  // Record a demand miss on `page`; returns the prefetch to issue (if any).
  // A confirmed stride predicts `degree` pages ahead; jumps of up to
  // degree+1 strides count as continuations because prefetched pages
  // absorb the intermediate misses.
  Prediction note_miss(std::uint64_t page, const AdaptConfig& cfg,
                       AdaptStats& stats) {
    ++tick_;
    const std::int64_t p = static_cast<std::int64_t>(page);
    for (Entry& e : e_) {
      if (e.last == kNone || e.stride == 0) continue;
      const std::int64_t d = p - static_cast<std::int64_t>(e.last);
      if (d == 0) return {};  // repeat page: no new information
      if (d % e.stride == 0) {
        const std::int64_t k = d / e.stride;
        if (k >= 1 && k <= cfg.prefetch_degree + 1) {
          e.last = page;
          e.conf = std::min(e.conf + 1, 8);
          e.used = tick_;
          if (e.conf >= cfg.stride_confidence)
            return {e.stride, cfg.prefetch_degree};
          return {};
        }
      }
    }
    for (Entry& e : e_) {  // adopt a stride on a candidate entry
      if (e.last == kNone || e.stride != 0) continue;
      const std::int64_t d = p - static_cast<std::int64_t>(e.last);
      if (d == 0) return {};
      e.stride = d;
      e.conf = 1;
      e.last = page;
      e.used = tick_;
      return {};
    }
    Entry* victim = &e_[0];  // allocate over the least-recently-used entry
    for (Entry& e : e_) {
      if (e.last == kNone) {
        victim = &e;
        break;
      }
      if (e.used < victim->used) victim = &e;
    }
    if (victim->last != kNone && victim->conf >= cfg.stride_confidence)
      ++stats.stride_resets;  // misprediction: a live stream got evicted
    *victim = Entry{page, 0, 0, tick_};
    return {};
  }

  void reset() { *this = StrideTable{}; }

 private:
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};
  struct Entry {
    std::uint64_t last = kNone;
    std::int64_t stride = 0;
    int conf = 0;
    std::uint64_t used = 0;
  };
  Entry e_[2];
  std::uint64_t tick_ = 0;
};

// ---------------------------------------------------------------------------
// Per-NodeCache policy engine: write-buffer capacity + diff density.
// (Stride state lives in the threads; the cache only executes predictions.)

class AdaptEngine {
 public:
  AdaptEngine(const AdaptConfig& cfg, std::size_t base_wb_pages,
              bool protocol_supported);

  // Policy activity: config flag AND the protocol supports it (naive P/S
  // checkpoints instead of diffing) AND the reference mode isn't forced.
  bool wb_active() const {
    return cfg_.write_buffer && supported_ && !adapt_forced_off();
  }
  bool diff_active() const {
    return cfg_.diff_granularity && supported_ && !adapt_forced_off();
  }
  bool stride_active() const {
    return cfg_.stride_prefetch && supported_ && !adapt_forced_off();
  }

  const AdaptConfig& config() const { return cfg_; }

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
