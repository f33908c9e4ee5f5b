#include "core/adapt.hpp"

namespace argocore {

namespace {

// (a) write-buffer sizing: the capacity bounds, the per-admission stall
// EWMA (virtual ns a store loses to a full buffer, averaged over every
// admission of the phase) past which the climber probes growth instead of
// exploring downward, and the ceiling of the exponential backoff (in
// acting phases) after a move is reverted, bounding oscillation cost
// around a settled optimum.
constexpr std::size_t kWbMinPages = 4;
constexpr std::size_t kWbMaxPages = 8192;
constexpr std::uint64_t kWbGrowStallNs = 2000;
constexpr int kWbRevertBackoff = 8;

// (b) diff granularity: wire-byte EWMA threshold in 256ths of a page
// (224/256 = 87.5% — past that the run headers cost more than the bytes a
// full-page write would resend), the consecutive dense diffs a page must
// show before full-page mode engages (pages that alternate dense/clean
// writebacks must keep diffing: a full-page write of an unchanged page
// ships 4 KiB for nothing), and the probe cadence that keeps sampling
// real diffs on full-page pages.
constexpr unsigned kDenseFrac256 = 224;
constexpr unsigned kDenseStreak = 3;
constexpr unsigned kDensityProbeInterval = 8;

std::size_t pow2_at_least(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

AdaptEngine::AdaptEngine(const AdaptConfig& cfg, std::size_t base_wb_pages,
                         bool protocol_supported)
    : cfg_(cfg), base_wb_(base_wb_pages), supported_(protocol_supported) {
  wb_capacity_ = std::clamp(base_wb_, kWbMinPages, kWbMaxPages);
  if (!cfg_.write_buffer) wb_capacity_ = base_wb_;
  history_.push_back(static_cast<std::uint32_t>(wb_capacity_));
}

void AdaptEngine::note_drain_stall(std::uint64_t ns) {
  if (!wb_active()) return;
  phase_stall_ns_ += ns;
  ++phase_drains_;
}

void AdaptEngine::note_capacity_drain(std::uint64_t page) {
  if (!wb_active()) return;
  phase_drained_.insert(page);
}

void AdaptEngine::note_wb_admit(std::size_t live_after, std::uint64_t page) {
  if (!wb_active()) return;
  ++phase_admits_;
  phase_peak_ = std::max(phase_peak_, live_after);
  if (phase_drained_.count(page) > 0) phase_redirtied_.insert(page);
}

// Hill-climb on the one quantity that folds every trade-off in: the phase
// length itself, measured fence-to-fence in virtual time. Mid-phase
// overflow drains overlap other fibers' compute while the SD fence drain
// serializes behind the barrier, so an oversized buffer is the common
// failure mode — exploration defaults downward and growth needs measured
// admission-stall pressure. Every move is judged against the next phase
// and reverted (with exponential backoff) when it made things slower.
std::size_t AdaptEngine::sample_fence(std::uint64_t now_ns,
                                      std::uint64_t fence_ns,
                                      std::size_t live) {
  if (!wb_active()) return 0;
  // A phase without admissions carries no write-buffer signal (typically
  // the second fence of a barrier). Keep accumulating into the next one.
  if (phase_admits_ == 0) return 0;
  const std::uint64_t phase_ns = now_ns - phase_start_ns_;
  const std::uint64_t stall = phase_stall_ns_;
  const std::uint64_t drains = phase_drains_;
  const std::uint64_t admits = phase_admits_;
  const std::size_t peak = phase_peak_;
  const std::size_t redirtied = phase_redirtied_.size();
  phase_stall_ns_ = 0;
  phase_drains_ = 0;
  phase_admits_ = 0;
  phase_peak_ = 0;
  phase_drained_.clear();
  phase_redirtied_.clear();
  phase_start_ns_ = now_ns;
  // The stretch before the first acting fence includes allocation and
  // first-touch — not a phase. Start the clock here and decide nothing.
  if (!primed_) {
    primed_ = true;
    return 0;
  }
  const std::size_t old = wb_capacity_;

  // Vetoes age out: the workload that produced the evidence may be gone
  // (LU's early phases want growth its late phases must undo).
  if (grow_veto_ttl_ > 0 && --grow_veto_ttl_ == 0) bad_grow_from_ = 0;
  if (shrink_veto_ttl_ > 0 && --shrink_veto_ttl_ == 0) bad_shrink_from_ = 0;

  // Re-dirty churn: a page a full buffer drained and a store then dirtied
  // again within the phase paid a second twin copy and a second writeback
  // only because the buffer was smaller than the phase's write set —
  // sibling threads were still storing to it. Stall time does not price
  // that, so it sets a floor of its own: the capacity never runs (or
  // shrinks) below the pages re-dirtied per phase, until that evidence
  // ages out like a veto.
  if (redirtied > 0) {
    churn_floor_ = std::min(std::max(churn_floor_, pow2_at_least(redirtied)),
                            kWbMaxPages);
    churn_ttl_ = kVetoPhases;
  } else if (churn_ttl_ > 0 && --churn_ttl_ == 0) {
    churn_floor_ = 0;
  }
  if (wb_capacity_ < churn_floor_) {
    // Restore at once rather than through the judge: the evidence is
    // direct, not inferred from phase lengths. Any pending move is moot,
    // and the baselines restart at the new capacity.
    wb_capacity_ = churn_floor_;
    moved_ = false;
    prev_phase_ns_ = 0;
    prev2_phase_ns_ = 0;
    ++stats_.wb_grows;
    if (history_.size() < kHistoryCap)
      history_.push_back(static_cast<std::uint32_t>(wb_capacity_));
    return wb_capacity_;
  }

  // Stall pressure: virtual ns lost to a full buffer per admitted store.
  // Half-weight on the newest phase: an undersized buffer (e.g. after a
  // shrink the judge let through on a quiet phase) must raise pressure
  // within a phase or two, not a dozen.
  ewma_stall_ = (ewma_stall_ + stall / admits) / 2;

  // Judge the move made at the previous acting fence. The baseline is the
  // phase two samples back — the same-parity phase, because apps like LU
  // alternate long and short phases and a consecutive-phase baseline
  // would misjudge every move at a parity boundary, in both directions —
  // scaled by the workload's natural phase-to-phase drift (LU's phases
  // shorten as the trailing matrix shrinks; without drift compensation
  // that downward trend masks the damage of a bad grow). "Worse" means
  // the post-move phase ran >1/64 (~1.6%) over that expectation. A
  // shrink's only harm channel is overflow stalls, so a slower phase with
  // zero stall time is workload noise, not the shrink's fault: keep it.
  // A grow is the mirror image: its only benefit channel is stall relief
  // while its fence cost is certain, so a grow that did not strictly
  // improve the phase is reverted — "no worse" is not good enough when
  // the move has a guaranteed downside.
  // A reverted halve/grow vetoes retrying the same direction from the
  // same capacity — one failed probe per (capacity, direction), not a
  // probe tax every backoff phases; a reverted jump only disables jumping
  // (the cautious halve from the same capacity may still pay off). A move
  // that strictly improved vetoes the opposite direction from the new
  // capacity, so judgment noise can't cycle the capacity back and forth
  // across a boundary one side of which is proven better.
  //
  // The judged score is phase + 3x fence: the fence runs inside the
  // barrier, so its cost lands on the OTHER nodes' next phases, not the
  // mover's own — judged on its own phase alone, a grow whose fence bloat
  // stalls the rest of the cluster still "strictly improves" and gets
  // kept. The weight stands in for the peers made to wait.
  const std::uint64_t score = phase_ns + 3 * fence_ns;
  const std::uint64_t base =
      prev2_phase_ns_ > 0 ? prev2_phase_ns_ : prev_phase_ns_;
  if (!moved_ && prev2_phase_ns_ > 0) {
    const std::uint64_t inst = std::clamp<std::uint64_t>(
        score * 256 / prev2_phase_ns_, 128, 512);
    drift256_ = static_cast<std::uint32_t>((3 * drift256_ + inst) / 4);
  }
  bool reverted = false;
  if (moved_) {
    moved_ = false;
    const std::uint64_t expected = base * drift256_ / 256;
    bool worse;
    if (moved_dir_ > 0) {
      worse = expected > 0 && score + expected / 64 >= expected;
      // A grow's only benefit channel is overflow-stall relief. If the
      // post-grow stall rate did not at least halve, the capacity was not
      // what throttled the phase — whatever sped it up was the workload's
      // own trend, and keeping the grow would bank phantom credit.
      if (!worse && stall / admits * 2 > moved_pre_stall_) worse = true;
    } else {
      worse = expected > 0 && score > expected + expected / 64;
      if (worse && stall == 0) worse = false;
    }
    if (worse) {
      wb_capacity_ = prev_cap_;
      // A second failed probe of the same (capacity, direction) pair after
      // the first veto aged out settles the question for the rest of the
      // run — re-probing a proven boundary every TTL is a steady tax.
      if (moved_dir_ > 0) {
        bad_grow_from_ = prev_cap_;
        grow_veto_ttl_ =
            prev_cap_ == last_grow_veto_cap_ ? kVetoPhases * 64 : kVetoPhases;
        last_grow_veto_cap_ = prev_cap_;
      } else if (moved_was_jump_) {
        jump_blocked_ = true;
      } else {
        bad_shrink_from_ = prev_cap_;
        shrink_veto_ttl_ = prev_cap_ == last_shrink_veto_cap_ ? kVetoPhases * 64
                                                              : kVetoPhases;
        last_shrink_veto_cap_ = prev_cap_;
      }
      dir_ = -moved_dir_;
      hold_ = backoff_;
      backoff_ = std::min(backoff_ * 2, kWbRevertBackoff);
      prev_phase_ns_ = 0;  // the baseline is stale once we jump back
      prev2_phase_ns_ = 0;
      ++stats_.wb_reverts;
      reverted = true;
    } else {
      if (expected > 0 && score + expected / 64 < expected) {
        if (moved_dir_ < 0) {
          bad_grow_from_ = wb_capacity_;
          grow_veto_ttl_ = kVetoPhases;
        } else {
          bad_shrink_from_ = wb_capacity_;
          shrink_veto_ttl_ = kVetoPhases;
        }
      }
      backoff_ = 1;  // the move held: future reverts start cheap again
      // Settle for one phase after a kept grow: drift only learns on
      // no-move phases, and a chain of back-to-back kept grows would be
      // judged against an ever-staler trend estimate — on workloads whose
      // phases naturally shorten (LU) that credits every grow with the
      // workload's own improvement. Shrinks walk at full speed: their
      // failure mode (overflow stall) is observed directly, not inferred
      // from the trend.
      if (moved_dir_ > 0) hold_ = std::max(hold_, 1);
    }
  }
  if (!reverted) {
    prev2_phase_ns_ = prev_phase_ns_;
    prev_phase_ns_ = score;
  }

  const bool pressure = ewma_stall_ >= kWbGrowStallNs;
  if (pressure && wb_capacity_ != bad_grow_from_) dir_ = +1;

  // Shrinking attacks the fence drain; when this fence cost under ~3% of
  // the phase there is nothing worth probing for (and a probe could only
  // add noise-driven churn).
  const bool fence_matters = fence_ns * 32 >= phase_ns;

  // Moves need a trustworthy baseline to be judged against: a jump can
  // fire after one real phase (its evidence is occupancy, not the phase
  // comparison), but hill-climb steps wait for two (the same-parity
  // baseline). Reverts clear the baselines, so this doubles as a
  // measurement pause after every revert.
  const bool can_jump = prev_phase_ns_ > 0;
  const bool can_climb = prev2_phase_ns_ > 0;

  if (reverted) {
    // fall through to report the restored capacity
  } else if (hold_ > 0) {
    --hold_;
  } else if (dir_ < 0) {
    // Capacity never moves below what is still queued (SI fences don't
    // drain), the re-dirty churn floor, nor the configured floor.
    const std::size_t floor_pages =
        std::max({kWbMinPages, churn_floor_,
                  pow2_at_least(std::max<std::size_t>(live, 1))});
    std::size_t next = wb_capacity_;
    bool jumped = false;
    // Grossly oversized (buffers sized for a different phase, or a sweep
    // starting point far above need): jump straight to 4x the observed
    // occupancy instead of halving once per fence. The jump is a move
    // like any other — a slower, stalling next phase reverts it.
    if (can_jump && !jump_blocked_) {
      const std::size_t target =
          std::clamp(pow2_at_least(4 * std::max(peak, live)), floor_pages,
                     kWbMaxPages);
      if (target < wb_capacity_ / 2) {
        next = target;
        jumped = true;
      }
    }
    if (!jumped && can_climb) next = std::max(wb_capacity_ / 2, floor_pages);
    if (fence_matters && next < wb_capacity_ && next >= floor_pages &&
        wb_capacity_ != bad_shrink_from_) {
      prev_cap_ = old;
      wb_capacity_ = next;
      moved_ = true;
      moved_dir_ = -1;
      moved_was_jump_ = jumped;
      ++stats_.wb_shrinks;
    } else if (drains > 0 && wb_capacity_ != bad_grow_from_) {
      dir_ = +1;  // at the floor and still overflowing: probe up next fence
    }
  } else {
    if (pressure && can_climb && wb_capacity_ != bad_grow_from_ &&
        wb_capacity_ < kWbMaxPages) {
      prev_cap_ = old;
      wb_capacity_ = std::min(wb_capacity_ * 2, kWbMaxPages);
      moved_ = true;
      moved_dir_ = +1;
      moved_was_jump_ = false;
      moved_pre_stall_ = stall / admits;
      ++stats_.wb_grows;
    } else if (!pressure || wb_capacity_ == bad_grow_from_) {
      dir_ = -1;  // nothing (allowed) pushing up: resume downward search
    }
  }

  if (wb_capacity_ == old) return 0;
  if (history_.size() < kHistoryCap)
    history_.push_back(static_cast<std::uint32_t>(wb_capacity_));
  return wb_capacity_;
}

void AdaptEngine::note_diff(std::uint64_t page, std::size_t wire_bytes) {
  if (!diff_active()) return;
  const unsigned frac = static_cast<unsigned>(
      std::min<std::size_t>(255, wire_bytes * 256 / argomem::kPageSize));
  Density& d = density_[page];
  d.ewma = static_cast<std::uint8_t>(d.seen ? (3u * d.ewma + frac) / 4u : frac);
  d.streak = frac >= kDenseFrac256
                 ? static_cast<std::uint8_t>(std::min(255u, d.streak + 1u))
                 : std::uint8_t{0};
  d.seen = true;
}

bool AdaptEngine::prefer_full_page(std::uint64_t page, bool& flipped) {
  flipped = false;
  if (!diff_active()) return false;
  auto it = density_.find(page);
  if (it == density_.end() || !it->second.seen) return false;
  Density& d = it->second;
  // Dense needs both a dense EWMA and a run of consecutive dense diffs:
  // the streak keeps alternating dense/clean pages on the diff path, and
  // the EWMA (knocked below threshold by a single sparse probe) flips a
  // sparsified page back after at most one probe interval.
  const bool dense =
      d.ewma >= kDenseFrac256 && d.streak >= kDenseStreak;
  flipped = dense != d.last_full;  // classification change, not probe noise
  d.last_full = dense;
  if (!dense) return false;
  if (++d.decisions % kDensityProbeInterval == 0) {
    // Periodic probe: diff a dense page anyway so the EWMA keeps seeing
    // real wire bytes and can flip back when the page sparsifies.
    ++stats_.density_probes;
    return false;
  }
  ++stats_.full_page_selected;
  return true;
}

void AdaptEngine::reset_runtime() {
  wb_capacity_ = std::clamp(base_wb_, kWbMinPages, kWbMaxPages);
  if (!cfg_.write_buffer) wb_capacity_ = base_wb_;
  phase_stall_ns_ = 0;
  phase_drains_ = 0;
  phase_admits_ = 0;
  phase_peak_ = 0;
  phase_drained_.clear();
  phase_redirtied_.clear();
  phase_start_ns_ = 0;
  primed_ = false;
  ewma_stall_ = 0;
  prev_phase_ns_ = 0;
  prev2_phase_ns_ = 0;
  drift256_ = 256;
  prev_cap_ = 0;
  moved_ = false;
  moved_was_jump_ = false;
  moved_pre_stall_ = 0;
  moved_dir_ = 0;
  dir_ = -1;
  hold_ = 0;
  backoff_ = 1;
  bad_grow_from_ = 0;
  bad_shrink_from_ = 0;
  grow_veto_ttl_ = 0;
  shrink_veto_ttl_ = 0;
  last_grow_veto_cap_ = 0;
  last_shrink_veto_cap_ = 0;
  jump_blocked_ = false;
  churn_floor_ = 0;
  churn_ttl_ = 0;
  history_.clear();
  history_.push_back(static_cast<std::uint32_t>(wb_capacity_));
  density_.clear();
}

}  // namespace argocore
