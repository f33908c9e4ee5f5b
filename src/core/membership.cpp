#include "core/membership.hpp"

#include <cassert>
#include <cstring>

#include "core/carina.hpp"
#include "dir/pyxis.hpp"
#include "mem/global_memory.hpp"
#include "net/faults.hpp"
#include "net/interconnect.hpp"
#include "sim/engine.hpp"

namespace argocore {

using argosim::Time;

MembershipService::MembershipService(argosim::Engine& eng,
                                     argonet::Interconnect& net,
                                     argomem::GlobalMemory& gmem,
                                     argodir::PyxisDirectory& dir,
                                     MembershipConfig cfg, int nodes)
    : eng_(eng),
      net_(net),
      gmem_(gmem),
      dir_(dir),
      cfg_(cfg),
      nodes_(nodes),
      views_(static_cast<std::size_t>(nodes)),
      detect_time_(static_cast<std::size_t>(nodes), 0),
      workers_(static_cast<std::size_t>(nodes)),
      reaped_(static_cast<std::size_t>(nodes), false) {}

void MembershipService::begin_run(int active_nodes) {
  active_nodes_ = active_nodes;
  if (!cfg_.enabled) return;

  // Liveness persists across runs: a node that crashed in a previous run
  // stays dead (and its fresh worker fibers are reaped at t=run-start).
  argodir::NodeSet alive;
  for (int n = 0; n < active_nodes_; ++n)
    if (is_live(n)) alive.set(n);
  for (int n = 0; n < active_nodes_; ++n) views_[n].live = alive;
  barrier_.configure(active_nodes_);
  for (int n = 0; n < active_nodes_; ++n)
    if (!is_live(n)) barrier_.on_node_departed(n);

  for (auto& w : workers_) w.clear();
  std::fill(reaped_.begin(), reaped_.end(), false);

  // One monitor per live node (daemons_[n]; nullptr for dead nodes) plus
  // the reaper at daemons_[active_nodes_]. Spawn order fixes the tie-break
  // when several monitors tick at the same virtual instant.
  daemons_.assign(static_cast<std::size_t>(active_nodes_) + 1, nullptr);
  for (int n = 0; n < active_nodes_; ++n) {
    if (!is_live(n)) continue;
    daemons_[n] = eng_.spawn("membership-monitor-" + std::to_string(n),
                             [this, n] { monitor_body(n); },
                             /*daemon=*/true);
  }
  daemons_[active_nodes_] =
      eng_.spawn("membership-reaper", [this] { reaper_body(); },
                 /*daemon=*/true);
}

void MembershipService::end_run() {
  if (!cfg_.enabled) return;
  for (argosim::SimThread* d : daemons_) eng_.kill(d);
  daemons_.clear();
  for (auto& w : workers_) w.clear();
}

void MembershipService::note_worker(int node, argosim::SimThread* t) {
  if (!cfg_.enabled) return;
  workers_[static_cast<std::size_t>(node)].push_back(t);
}

void MembershipService::await_recovery(int node) {
  assert(cfg_.enabled);
  while (!recovered_mask_.test(node)) recovery_waiters_.wait();
}

void MembershipService::register_lock(RecoverableLock* l) {
  locks_.push_back(l);
}

void MembershipService::deregister_lock(RecoverableLock* l) {
  for (auto it = locks_.begin(); it != locks_.end(); ++it) {
    if (*it == l) {
      locks_.erase(it);
      return;
    }
  }
}

void MembershipService::monitor_body(int self) {
  std::vector<int> misses(static_cast<std::size_t>(active_nodes_), 0);
  for (;;) {
    argosim::delay(cfg_.heartbeat_interval);
    // Our own crash ends the monitor (the reaper also kills it; whichever
    // scheduling point comes first). Being declared dead by peers cannot
    // happen while we actually answer probes, so no false-positive check.
    if (net_.node_dead(self)) return;
    const View& mine = views_[static_cast<std::size_t>(self)];
    for (int p = 0; p < active_nodes_; ++p) {
      if (p == self) continue;
      // Probe even currently-dead peers: a successful answer from one is
      // how a rejoin (CrashEvent::rejoin_at) is noticed.
      ++stats_.probes;
      if (net_.probe(self, p)) {
        misses[p] = 0;
        if (!mine.is_live(p)) declare_rejoin(self, p);
      } else {
        ++stats_.probe_misses;
        if (++misses[p] >= cfg_.miss_threshold && mine.is_live(p))
          declare_dead(self, p);
      }
    }
    // Lease sweep: once a victim has been *detected* dead for a full lease,
    // force-recover any lock its crash stranded. The swept mask makes the
    // sweep run exactly once per victim, from whichever monitor ticks first
    // past the expiry.
    if (resolved_mask_.any()) {
      const Time now = argosim::now();
      for (int v = 0; v < active_nodes_; ++v) {
        if (!resolved_mask_.test(v) || lock_swept_mask_.test(v)) continue;
        if (now >= detect_time_[static_cast<std::size_t>(v)] + cfg_.lease) {
          lock_swept_mask_.set(v);
          sweep_locks(v);
        }
      }
    }
  }
}

void MembershipService::reaper_body() {
  const argonet::FaultInjector* faults = net_.faults();
  if (faults == nullptr || !faults->has_crashes()) return;
  for (;;) {
    Time next_at = 0;
    const Time now = argosim::now();
    for (int n = 0; n < active_nodes_; ++n) {
      if (reaped_[static_cast<std::size_t>(n)]) continue;
      const Time at = faults->crash_time(n);
      if (at == 0) continue;  // no crash scheduled
      if (now >= at) {
        reaped_[static_cast<std::size_t>(n)] = true;
        // Crash-stop every fiber of the node: workers and its monitor.
        // They unwind via SimStopped at their next scheduling point, so
        // RAII state (NIC slots, latched cache lines) releases cleanly.
        for (argosim::SimThread* t : workers_[static_cast<std::size_t>(n)])
          eng_.kill(t);
        if (static_cast<std::size_t>(n) < daemons_.size())
          eng_.kill(daemons_[static_cast<std::size_t>(n)]);
      } else if (next_at == 0 || at < next_at) {
        next_at = at;
      }
    }
    if (next_at == 0) return;  // every crash reaped
    argosim::delay(next_at - now);
  }
}

void MembershipService::declare_dead(int detector, int victim) {
  View& v = views_[static_cast<std::size_t>(detector)];
  v.live.reset(victim);
  ++v.epoch;
  if (v.epoch > epoch_) epoch_ = v.epoch;

  if (resolved_mask_.test(victim)) return;  // someone else detected first
  resolved_mask_.set(victim);
  dead_mask_.set(victim);
  departed_mask_.set(victim);
  const Time now = argosim::now();
  detect_time_[static_cast<std::size_t>(victim)] = now;
  ++stats_.deaths;
  if (const argonet::FaultInjector* f = net_.faults()) {
    const Time crashed_at = f->crash_time(victim);
    if (crashed_at != 0 && now >= crashed_at)
      stats_.detect_ns.add(static_cast<std::uint64_t>(now - crashed_at));
  }

  // The first detector runs the whole recovery pass on its own fiber —
  // deterministic (first in virtual time, spawn order breaking ties) and
  // serialized (resolved_mask_ keeps every later detector out).
  recover(detector, victim);

  recovered_mask_.set(victim);
  ++stats_.recovery_events;
  stats_.recovery_ns.add(static_cast<std::uint64_t>(argosim::now() - now));
  recovery_waiters_.notify_all();
  // Release any collective the victim strands (it can never arrive again).
  barrier_.on_node_departed(victim);
}

void MembershipService::declare_rejoin(int detector, int node) {
  View& v = views_[static_cast<std::size_t>(detector)];
  v.live.set(node);
  ++v.epoch;
  if (v.epoch > epoch_) epoch_ = v.epoch;

  if (!dead_mask_.test(node)) return;  // already re-admitted
  // Rejoin as a *fresh* node: it answers probes and may serve new traffic,
  // but departed_mask_ keeps its old identity out of collectives and lock
  // queues, and its lost home pages stay redirected to the successor.
  dead_mask_.reset(node);
  ++stats_.rejoins;
}

void MembershipService::recover(int detector, int victim) {
  (void)detector;
  // Deterministic successor: the next live node on the ring after the
  // victim. dead_mask_ already contains the victim, so the scan can only
  // pick a survivor; at least one exists or nobody is left to run this.
  int succ = -1;
  for (int i = 1; i <= active_nodes_; ++i) {
    const int c = (victim + i) % active_nodes_;
    if (is_live(c)) {
      succ = c;
      break;
    }
  }
  if (succ < 0) return;  // whole cluster dead; nothing to recover for

  // Dead reader/writer bits to drop from every reconstructed entry —
  // accumulated word-wise, so a death past node 31 scrubs the right word
  // instead of aliasing into the first 32 nodes.
  argodir::DirEntry dead_bits;
  for (int d = 0; d < active_nodes_; ++d)
    if (!is_live(d)) dead_bits.add_reader(d).add_writer(d);

  const auto& netc = net_.config();
  const std::uint64_t pages = gmem_.pages();
  for (std::uint64_t p = 0; p < pages; ++p) {
    // Current home, i.e. after earlier redirects: a victim that inherited
    // pages from a previous death re-homes those too.
    if (gmem_.home_of_page(p) != victim) continue;

    // Harvest the best surviving copy: a dirty copy is the newest by DRF
    // (a racing second writer would be a data race), else any clean copy.
    const std::byte* best = nullptr;
    bool best_dirty = false;
    if (caches_ != nullptr) {
      for (int n = 0; n < active_nodes_ && !best_dirty; ++n) {
        if (!is_live(n) || (*caches_)[static_cast<std::size_t>(n)] == nullptr)
          continue;
        bool dirty = false;
        const std::byte* img = (*caches_)[static_cast<std::size_t>(n)]
                                   ->host_page_image(p, &dirty);
        if (img == nullptr) continue;
        if (best == nullptr || dirty) {
          best = img;
          best_dirty = dirty;
        }
      }
    }

    const argodir::DirEntry home_entry = dir_.host_entry(p);
    if (best != nullptr) {
      // Copy before charging: host_page_image points into a live cache
      // line that another fiber could evict across a delay().
      std::memcpy(gmem_.home_ptr(p * argomem::kPageSize), best,
                  argomem::kPageSize);
      argosim::delay(netc.rdma_latency + netc.net_transfer(argomem::kPageSize));
      ++stats_.pages_recovered;
    } else if (home_entry.any()) {
      // Someone touched the page but no survivor holds a copy: the
      // authoritative data died with its home. Conservatively zero it so
      // readers see defined (if lost) contents, and count it.
      std::memset(gmem_.home_ptr(p * argomem::kPageSize), 0,
                  argomem::kPageSize);
      ++stats_.pages_lost;
    }

    // Rebuild the directory entry from the survivors' caches (their own
    // bits are always present in their own cache), minus dead bits.
    argodir::DirEntry rebuilt;
    for (int n = 0; n < active_nodes_; ++n)
      if (is_live(n)) rebuilt |= dir_.cache_get(n, p);
    for (std::size_t i = 0; i < rebuilt.w.size(); ++i)
      rebuilt.w[i] &= ~dead_bits.w[i];
    if (rebuilt != home_entry) {
      dir_.host_set_entry(p, rebuilt);
      ++stats_.dir_words_rebuilt;
    }

    // Drop survivors' *clean* cached copies: the reconstructed home is now
    // authoritative and a clean copy fetched from the dead home may be
    // staler, so a refetch is the only safe continuation. Dirty copies are
    // kept — under MW classification several survivors may hold disjoint
    // un-written-back diffs, and their later twin-based diff writebacks
    // apply exactly their own words to the reconstructed home. Latched
    // (mid-fetch) lines are skipped — the in-flight op re-resolves. The
    // successor is the exception: its copy — dirty included — just became
    // a copy of its *own* home page (the harvest folded the bytes in), and
    // keeping a dirty one would let a later diff writeback clobber fresher
    // post-recovery home-path stores with pre-crash bytes.
    if (caches_ != nullptr)
      for (int n = 0; n < active_nodes_; ++n) {
        if (!is_live(n) || (*caches_)[static_cast<std::size_t>(n)] == nullptr)
          continue;
        if (n == succ)
          (*caches_)[static_cast<std::size_t>(n)]->host_adopt_page(p);
        else
          (*caches_)[static_cast<std::size_t>(n)]->host_drop_page(p);
      }
  }

  // Retire the victim's reader/writer bits everywhere (pages homed on
  // survivors included): it can never downgrade or be notified again.
  dir_.host_scrub_node(victim);

  // From here on the victim's pages are served — and charged — by the
  // successor. The flat home buffer means no bytes move.
  gmem_.set_home_redirect(victim, succ);
}

void MembershipService::sweep_locks(int victim) {
  for (RecoverableLock* l : locks_)
    if (l->holder_node() == victim && l->recover_after_crash(victim))
      ++stats_.locks_recovered;
}

}  // namespace argocore
