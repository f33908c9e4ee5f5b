// Vela: Argo's distributed synchronization (paper §4).
//
//  * GlobalMcsLock — the inter-node building block: an MCS queue lock over
//    RDMA whose per-node queue entries are homed on their own node, so
//    waiters spin on local memory and handoff is a single remote write.
//  * HqdLock — hierarchical queue delegation (§4.2): critical sections are
//    delegated only *within* a node; whichever thread becomes the node's
//    helper takes the global lock once, self-invalidates once, executes a
//    whole batch locally, self-downgrades once, and passes the global lock
//    on. One SI/SD pair per batch instead of per critical section.
//  * DsmCohortLock — the comparison point of Figure 12: a cohort lock over
//    the DSM with conventional lock semantics, i.e. every critical section
//    pays an SI fence at acquire and an SD fence at release.
//  * DsmMutex — plain distributed mutex with per-CS fences (the "Argo
//    Pthreads" lock for ported applications).
//  * DsmFlag — signal/wait via an RDMA word plus fences (spin-flag
//    synchronization exposed to Carina, §3.1).
#pragma once

#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "core/cluster.hpp"
#include "sync/numa.hpp"

namespace argosync {

using argo::Cluster;
using argo::Thread;
using argomem::gptr;

/// MCS queue lock across nodes, all protocol state accessed by RDMA.
/// One queue slot per node: a node's threads serialize locally before
/// contending globally (callers such as HqdLock guarantee this; DsmMutex
/// adds its own node-local serialization).
///
/// Crash recovery (only when Cluster membership is enabled): the lock
/// keeps a host-side mirror of the holding node and registers itself with
/// the MembershipService. When a holder has been dead past its lease the
/// sweep force-resets the whole queue: tail and links are zeroed and every
/// live node's grant flag is set to kRestart, which spinning waiters read
/// as "abandon your slot and re-contend". release() performs the same
/// reset itself when it would hand the lock to a declared-dead successor,
/// or when a contender that swapped into the tail died before linking.
class GlobalMcsLock : public argocore::RecoverableLock {
 public:
  explicit GlobalMcsLock(Cluster& cluster);
  ~GlobalMcsLock() override;

  void acquire(Thread& t);
  void release(Thread& t);

  /// Bounded acquire: give up after `timeout` virtual ns. To stay
  /// timeout-safe it never enters the MCS queue (a queued waiter cannot
  /// abandon its slot without racing the handoff); it polls the tail with
  /// CAS under exponentially growing intervals instead. Uncontended cost
  /// equals acquire(); on success release() works unchanged. When the
  /// observed tail belongs to a declared-dead node the call fails at once
  /// instead of burning the full timeout: the queue cannot drain until the
  /// lease sweep resets it.
  bool try_acquire_for(Thread& t, argosim::Time timeout);

  /// Poll interval while spinning on the (node-local) grant flag.
  static constexpr argosim::Time kPoll = 100;

  /// Grant-flag values. kRestart is written by a forced queue reset.
  static constexpr std::uint64_t kGranted = 1;
  static constexpr std::uint64_t kRestart = 2;

  /// Polls release() waits on a missing tail link (with a declared death
  /// outstanding) before concluding the linker died mid-handshake. Sized
  /// well past the worst-case in-flight remote store, retries included.
  static constexpr int kStuckPolls = 64;

  // RecoverableLock: lease sweep interface (host-side, no simulated ops).
  int holder_node() const override { return holder_; }
  bool recover_after_crash(int dead_node) override;

 private:
  /// Host-side whole-queue reset: zero tail and links, write kRestart into
  /// every live node's grant flag. Safe from the holder (release path) and
  /// from the lease sweep (the holder is dead) — both serialize the queue.
  void host_reset_queue();

  gptr<std::uint64_t> tail_;                    // 0 = free, else node id + 1
  std::vector<gptr<std::uint64_t>> flag_;       // grant flag, homed per node
  std::vector<gptr<std::uint64_t>> next_;       // successor link, per node
  argomem::GlobalMemory* gmem_ = nullptr;
  argocore::MembershipService* membership_ = nullptr;  // null = feature off
  // Host mirror: node holding (or being granted) the lock. Pure host
  // bookkeeping (lease sweep + diagnostics), never read by simulated code.
  int holder_ = -1;
};

/// Statistics for the delegation locks.
struct DelegationStats {
  std::uint64_t batches = 0;      ///< global lock acquisitions
  std::uint64_t executed = 0;     ///< critical sections executed
  std::uint64_t delegated = 0;    ///< sections executed on behalf of others
};

/// Hierarchical queue delegation lock (§4.2).
class HqdLock {
 public:
  /// `batch_limit`: max critical sections one node executes per global
  /// lock acquisition before handing over (the paper's "limit is reached").
  HqdLock(Cluster& cluster, std::size_t queue_capacity = 128,
          std::size_t batch_limit = 256);

  /// Run `cs` under global mutual exclusion. If `wait` is false, the call
  /// may return before `cs` executes (detached delegation). `cs` receives
  /// the *executing* thread — always one on the caller's node, sharing its
  /// page cache, which is what makes intra-node delegation fence-free.
  void execute(Thread& t, const std::function<void(Thread&)>& cs, bool wait);

  /// Like execute(wait = true), but bounded: false means `cs` did NOT run
  /// (and never will). A thread that becomes the helper keeps the queue
  /// closed until the global lock is actually held, so a timed-out
  /// acquisition can never strand other threads' delegated entries; a
  /// delegating thread whose wait times out withdraws its entry, unless
  /// the helper already claimed it — then the call rides out the (short)
  /// remaining execution and reports success.
  bool try_execute(Thread& t, const std::function<void(Thread&)>& cs,
                   argosim::Time timeout);

  /// Back-off before a thread retries a closed or full node queue.
  static constexpr argosim::Time kBackoff = 200;

  const DelegationStats& stats(int node) const { return stats_[node]; }
  DelegationStats total_stats() const;

 private:
  struct Entry {
    std::function<void(Thread&)> cs;
    argosim::SimEvent* done;
    int from_core;
    /// Where the helper deposits an exception thrown by `cs`, so a waiting
    /// delegator can rethrow it on its own stack (null for detached
    /// entries, whose errors have no one to report to).
    std::exception_ptr* err;
  };
  struct NodeQ {
    bool helper_active = false;
    bool open = false;
    std::deque<Entry> queue;
    CachelineSet word;
    CachelineSet qline;
    explicit NodeQ(const argonet::NodeTopology* t) : word(t), qline(t) {}
  };

  /// TATAS on the node-local lock word with backoff, shared by execute
  /// and try_execute: rmw the word and retry after kBackoff until the
  /// helper is gone, the queue is open with room, or `deadline` has
  /// passed. Returns at the instant of the check that leaves the loop;
  /// every phase after the first delay runs as a spin step in the
  /// scheduler, not in this fiber (Engine::delay_then_spin).
  void spin_on_word(Thread& t, NodeQ& nq, argosim::Time deadline);
  static constexpr argosim::Time kNoDeadline =
      std::numeric_limits<argosim::Time>::max();

  /// The helper's batch once the global lock is held: SI fence, its own
  /// section, the delegated entries, SD fence, global release, word
  /// handback; rethrows the own section's error once the locks are clean.
  void lead_batch(Thread& t, NodeQ& nq, DelegationStats& st,
                  const std::function<void(Thread&)>& cs);

  /// Helper-side batch drain: execute delegated entries until the queue
  /// empties or the batch limit closes it. `already` counts sections the
  /// helper ran before draining (its own).
  void run_batch(Thread& t, NodeQ& nq, DelegationStats& st,
                 std::size_t already);

  Cluster& cluster_;
  GlobalMcsLock global_;
  std::size_t queue_capacity_;
  std::size_t batch_limit_;
  std::deque<NodeQ> nodes_;
  std::vector<DelegationStats> stats_;
};

/// Cohort lock over the DSM with conventional acquire/release semantics:
/// node-local handoff keeps the *lock* nearby, but every critical section
/// still self-invalidates on acquire and self-downgrades on release —
/// which is exactly why Figure 12 shows it collapsing against HQDL.
class DsmCohortLock {
 public:
  DsmCohortLock(Cluster& cluster, int cohort_limit = 64);

  void lock(Thread& t);
  void unlock(Thread& t);
  void execute(Thread& t, const std::function<void(Thread&)>& cs);

  std::uint64_t global_acquisitions() const { return global_acqs_; }

 private:
  struct NodeState {
    bool held = false;
    bool owns_global = false;
    int batch = 0;
    argosim::WaitQueue q;
    CachelineSet word;
    explicit NodeState(const argonet::NodeTopology* t) : word(t) {}
  };

  Cluster& cluster_;
  GlobalMcsLock global_;
  int cohort_limit_;
  std::deque<NodeState> nodes_;
  std::uint64_t global_acqs_ = 0;
};

/// Plain distributed mutex: global MCS lock, SI on acquire, SD on release.
class DsmMutex {
 public:
  explicit DsmMutex(Cluster& cluster);

  void lock(Thread& t);
  void unlock(Thread& t);

  /// Bounded lock: SI fence runs only on success. False = not acquired.
  bool try_lock_for(Thread& t, argosim::Time timeout);

 private:
  Cluster& cluster_;
  GlobalMcsLock global_;
  std::vector<std::unique_ptr<argosim::SimMutex>> node_serial_;
};

/// One-word signal/wait flag ("synchronization via spin loops and flags",
/// §3.1): set() publishes all prior writes (SD) then raises the flag;
/// wait() spins on the flag then SI-fences before reading shared data.
class DsmFlag {
 public:
  explicit DsmFlag(Cluster& cluster);

  void set(Thread& t, std::uint64_t value = 1);
  std::uint64_t wait(Thread& t, std::uint64_t at_least = 1);
  std::uint64_t peek(Thread& t);  // no fence; raw RDMA read

  /// Poll interval while waiting on the flag word.
  static constexpr argosim::Time kPoll = 500;

 private:
  gptr<std::uint64_t> word_;
};

}  // namespace argosync
