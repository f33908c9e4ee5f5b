// Crash-stop membership, lease-based recovery, and degraded-mode views.
//
// The paper assumes a fail-stop-free cluster; this service adds the
// machinery to survive crash-stop node failures in the simulator while
// keeping every fault-free run bit-identical to a build without it:
//
//  * Detection is decentralized and replayable: every live node runs a
//    monitor fiber that probes its peers each heartbeat interval over the
//    interconnect (sender-charged, RNG-free — see Interconnect::probe). A
//    peer missing `miss_threshold` consecutive probes is declared dead in
//    that node's *view* {epoch, live set}; views advance independently, so
//    nodes learn of a death at different virtual times, exactly like a
//    real timeout-based failure detector.
//
//  * Recovery runs once, on the fiber of the first detector (deterministic
//    in virtual time): pages homed on the dead node are reconstructed on a
//    deterministic successor from the surviving sharers' cached copies
//    (preferring a dirty copy — it is the newest by DRF — and conservatively
//    zeroing pages nobody holds: "lost"), the dead home's directory words
//    are rebuilt as the OR of the survivors' directory caches, and a home
//    redirect is installed so every later access is charged to the
//    successor. The bytes never move: GlobalMemory's flat buffer makes
//    re-homing a pure routing change.
//
//  * Leases bound how long a dead node can hold a lock: GlobalMcsLock
//    registers itself here; once a holder has been dead for `lease` ns the
//    sweep force-resets the whole queue and bumps the lock's epoch, which
//    live waiters observe and re-acquire.
//
// Everything is gated on MembershipConfig::enabled (no fibers, no probes,
// no metrics otherwise) and draws nothing from the fault-injection RNG
// streams, so chaos seeds replay identically with or without a crash
// schedule attached.
#pragma once

#include <cstdint>
#include <vector>

#include "dir/nodeset.hpp"
#include "obs/metrics.hpp"
#include "sim/sync.hpp"
#include "sim/time.hpp"

namespace argonet {
class Interconnect;
class FaultInjector;
}  // namespace argonet
namespace argomem {
class GlobalMemory;
}
namespace argodir {
class PyxisDirectory;
}

namespace argocore {

class NodeCache;

/// Crash-stop membership / recovery configuration.
struct MembershipConfig {
  /// Master switch. Off: no monitor/reaper fibers are spawned, no probe
  /// traffic is charged, no membership metrics registered — virtual times
  /// match a build without the feature exactly.
  bool enabled = false;

  /// Virtual ns between heartbeat probe rounds of each node's monitor.
  argosim::Time heartbeat_interval = 50'000;

  /// Consecutive missed probes before a peer is declared dead.
  int miss_threshold = 3;

  /// Lock lease: virtual ns after *detection* before a dead holder's locks
  /// are forcibly recovered (whole-queue reset + epoch bump).
  argosim::Time lease = 200'000;
};

/// One node's membership view. Epochs advance locally: each transition the
/// node itself observes (death it detects or learns of, rejoin it probes)
/// bumps its epoch, so two nodes' views may disagree transiently — the
/// defining property of a timeout-based detector.
struct View {
  std::uint64_t epoch = 0;
  argodir::NodeSet live;  ///< nodes believed live

  bool is_live(int node) const { return live.test(node); }
  int live_count() const { return live.count(); }
};

/// Counters and latency distributions for the recovery machinery. Sampled
/// through the cluster metrics registry as membership.* / recovery.*.
struct RecoveryStats {
  std::uint64_t deaths = 0;           ///< nodes declared dead (first detection)
  std::uint64_t rejoins = 0;          ///< nodes re-admitted after rejoin_at
  std::uint64_t probes = 0;           ///< heartbeat probes issued
  std::uint64_t probe_misses = 0;     ///< probes that found the peer dead
  std::uint64_t recovery_events = 0;  ///< completed recovery passes
  std::uint64_t pages_recovered = 0;  ///< dead-homed pages rebuilt from a copy
  std::uint64_t pages_lost = 0;       ///< dead-homed pages with no copy (zeroed)
  std::uint64_t dir_words_rebuilt = 0;  ///< directory words reconstructed
  std::uint64_t aborted_ops = 0;  ///< ops aborted by a crash (sync ops that
                                  ///< observed the dead peer + banked posted
                                  ///< failures), all retried post-recovery
  std::uint64_t locks_recovered = 0;    ///< lease-expired lock queue resets
  argoobs::LatencyHist detect_ns;       ///< crash → first detection
  argoobs::LatencyHist recovery_ns;     ///< detection → recovery complete
};

/// A distributed lock that can be forcibly recovered when its holder
/// crash-stops. GlobalMcsLock implements this and registers itself.
class RecoverableLock {
 public:
  virtual ~RecoverableLock() = default;
  /// Host-side mirror of the current holder node (-1 = free / in handoff).
  virtual int holder_node() const = 0;
  /// Force-release after `dead_node`'s lease expired. Returns true if the
  /// lock was actually held by the dead node and got reset.
  virtual bool recover_after_crash(int dead_node) = 0;
};

/// Barrier over the *surviving* view: completes as soon as every live
/// participant has arrived — departed nodes are counted as permanently
/// arrived, and a death that strands a round in progress releases it
/// retroactively (on_node_departed). Rejoined nodes do not re-enter
/// collectives: their worker fibers are gone for good.
class ViewBarrier {
 public:
  void configure(int parties) {
    participants_ = argodir::NodeSet::first_n(parties);
    arrived_ = argodir::NodeSet{};
  }

  void arrive_and_wait(int node) {
    const std::uint64_t gen = generation_;
    arrived_.set(node);
    if (try_release()) return;
    while (generation_ == gen) q_.wait();
  }

  /// Called by the recovery path when a node is declared dead: if that
  /// node was the only straggler of the current round, release it.
  void on_node_departed(int node) {
    departed_.set(node);
    try_release();
  }

 private:
  bool try_release() {
    if (((arrived_ | departed_) & participants_) != participants_)
      return false;
    arrived_ = argodir::NodeSet{};
    ++generation_;
    q_.notify_all();
    return true;
  }

  argodir::NodeSet participants_;
  argodir::NodeSet arrived_;
  argodir::NodeSet departed_;  // only ever grows: rejoiners stay out
  std::uint64_t generation_ = 0;
  argosim::WaitQueue q_;
};

/// The epoch/membership service owned by Cluster. See the file comment.
class MembershipService {
 public:
  MembershipService(argosim::Engine& eng, argonet::Interconnect& net,
                    argomem::GlobalMemory& gmem, argodir::PyxisDirectory& dir,
                    MembershipConfig cfg, int nodes);

  bool enabled() const { return cfg_.enabled; }
  const MembershipConfig& config() const { return cfg_; }

  /// Per-node caches, for recovery harvesting (not owned; set by Cluster).
  void set_caches(const std::vector<NodeCache*>* caches) { caches_ = caches; }

  // --- Run lifecycle (called by Cluster::run_subset) ----------------------

  /// Reset views to {epoch 0, all still-live active nodes} and spawn the
  /// monitor and reaper daemon fibers. Death/recovery state persists
  /// across runs: a node that crashed stays crashed.
  void begin_run(int active_nodes);

  /// Kill this run's daemon fibers (they unwind via SimStopped).
  void end_run();

  /// Record a worker fiber spawned on `node`, so the reaper can crash-stop
  /// it when the node's crash trigger fires.
  void note_worker(int node, argosim::SimThread* t);

  // --- Views and liveness -------------------------------------------------

  const View& view(int node) const {
    return views_[static_cast<std::size_t>(node)];
  }
  /// Highest epoch any view has reached (the cluster-wide epoch metric).
  std::uint64_t epoch() const { return epoch_; }
  /// Liveness per the *service's* knowledge (lags the injector by up to
  /// miss_threshold heartbeats — that is the point of a failure detector).
  bool is_live(int node) const { return !dead_mask_.test(node); }
  bool any_dead() const { return dead_mask_.any(); }
  const argodir::NodeSet& dead_set() const { return dead_mask_; }
  /// Nodes that have ever crashed (rejoin does not clear this; collectives
  /// and lock queues never re-admit a rejoined node's old identity).
  const argodir::NodeSet& departed_set() const { return departed_mask_; }
  /// Virtual time `node`'s death was first detected (0 if never declared).
  argosim::Time detect_time(int node) const {
    return detect_time_[static_cast<std::size_t>(node)];
  }
  /// True once `node`'s recovery pass (redirect, page and directory
  /// reconstruction) has completed. The validator keys its epoch-aware
  /// invariants off this: before it, survivor state is legitimately stale.
  bool recovered(int node) const { return recovered_mask_.test(node); }

  /// Block the calling fiber until `node`'s crash has been detected and
  /// its recovery pass (home redirect, page reconstruction) completed.
  /// Returns immediately if that already happened.
  void await_recovery(int node);

  /// The surviving-view barrier Cluster's global rendezvous uses.
  ViewBarrier& barrier() { return barrier_; }

  // --- Lock leases --------------------------------------------------------

  void register_lock(RecoverableLock* l);
  void deregister_lock(RecoverableLock* l);
  /// Global lock-recovery epoch: bumped on every forced queue reset. MCS
  /// waiters snapshot it and abandon their slot when it moves.
  std::uint64_t lock_epoch() const { return lock_epoch_; }
  void bump_lock_epoch() { ++lock_epoch_; }
  /// Registered recoverable locks (for the validator's lease invariant).
  const std::vector<RecoverableLock*>& locks() const { return locks_; }

  // --- Stats --------------------------------------------------------------

  void note_aborted(std::uint64_t n) { stats_.aborted_ops += n; }
  const RecoveryStats& stats() const { return stats_; }

 private:
  void monitor_body(int self);
  void reaper_body();
  /// `detector` observed `victim` missing miss_threshold probes.
  void declare_dead(int detector, int victim);
  /// `detector` got a successful probe from a previously-dead `node`.
  void declare_rejoin(int detector, int node);
  /// The first detector's recovery pass (runs on its monitor fiber).
  void recover(int detector, int victim);
  /// Reset every registered lock still held by `victim` (lease expired).
  void sweep_locks(int victim);

  argosim::Engine& eng_;
  argonet::Interconnect& net_;
  argomem::GlobalMemory& gmem_;
  argodir::PyxisDirectory& dir_;
  MembershipConfig cfg_;
  int nodes_;
  int active_nodes_ = 0;
  const std::vector<NodeCache*>* caches_ = nullptr;

  std::vector<View> views_;
  std::uint64_t epoch_ = 0;
  argodir::NodeSet dead_mask_;       // declared dead, not yet rejoined
  argodir::NodeSet departed_mask_;   // ever declared dead
  argodir::NodeSet resolved_mask_;   // recovery started (first detector won)
  argodir::NodeSet recovered_mask_;  // recovery finished
  argodir::NodeSet lock_swept_mask_;
  std::vector<argosim::Time> detect_time_;
  argosim::WaitQueue recovery_waiters_;
  ViewBarrier barrier_;

  std::vector<RecoverableLock*> locks_;
  std::uint64_t lock_epoch_ = 0;

  std::vector<std::vector<argosim::SimThread*>> workers_;  // [node]
  std::vector<argosim::SimThread*> daemons_;
  std::vector<bool> reaped_;

  RecoveryStats stats_;
};

}  // namespace argocore
