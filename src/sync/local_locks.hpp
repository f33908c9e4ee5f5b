// Node-local lock algorithms (single simulated machine, Figure 11).
//
// All locks implement CriticalSectionExecutor: `execute(core, cs, wait)`
// runs `cs` under mutual exclusion. For classical locks this is
// lock-run-unlock; queue delegation (qd_lock.hpp) may instead ship the
// closure to a helper thread, in which case `wait=false` lets the caller
// detach (the paper's insert operations).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "net/netconfig.hpp"
#include "sim/sync.hpp"
#include "sync/numa.hpp"

namespace argosync {

/// Uniform interface for the priority-queue microbenchmark (§5.3).
class CriticalSectionExecutor {
 public:
  virtual ~CriticalSectionExecutor() = default;

  /// Run `cs` under the lock's mutual exclusion. `core` is the calling
  /// thread's core (for NUMA cost accounting). If `wait` is false the
  /// implementation may return before `cs` has executed (detached
  /// delegation); mutual exclusion and eventual execution are still
  /// guaranteed.
  virtual void execute(int core, const std::function<void(int)>& cs,
                       bool wait) = 0;

  /// Name for benchmark output.
  virtual const char* name() const = 0;
};

/// Pthreads-mutex stand-in: one lock cacheline, sleeping waiters woken via
/// futex (cost: NodeTopology::futex_wake). Degrades under contention from
/// wakeup latency and from the protected data migrating between cores.
class MutexLock : public CriticalSectionExecutor {
 public:
  explicit MutexLock(const NodeTopology* topo)
      : topo_(topo), word_(topo) {}

  void execute(int core, const std::function<void(int)>& cs, bool wait) override;
  const char* name() const override { return "pthreads-mutex"; }

  void lock(int core);
  void unlock(int core);

 private:
  const NodeTopology* topo_;
  CachelineSet word_;
  bool held_ = false;
  argosim::WaitQueue q_;
};

/// Classic ticket lock: FIFO, spinning on a shared "now serving" line.
class TicketLock : public CriticalSectionExecutor {
 public:
  explicit TicketLock(const NodeTopology* topo)
      : topo_(topo), word_(topo) {}

  void execute(int core, const std::function<void(int)>& cs, bool wait) override;
  const char* name() const override { return "ticket"; }

  void lock(int core);
  void unlock(int core);

 private:
  const NodeTopology* topo_;
  CachelineSet word_;
  std::uint64_t next_ticket_ = 0;
  std::uint64_t now_serving_ = 0;
  argosim::WaitQueue q_;
};

/// MCS queue lock: each waiter spins on its own cacheline; handoff is one
/// remote line write. FIFO without a global spin hotspot.
class McsLock : public CriticalSectionExecutor {
 public:
  explicit McsLock(const NodeTopology* topo) : cores_(topo), tail_(topo) {}

  void execute(int core, const std::function<void(int)>& cs, bool wait) override;
  const char* name() const override { return "mcs"; }

  void lock(int core);
  void unlock(int core);

 private:
  struct QNode {
    int core;
    bool ready = false;
    argosim::SimEvent ev;
    QNode* next = nullptr;
  };
  CoreMap cores_;
  CachelineSet tail_;
  QNode* tail_node_ = nullptr;
  QNode* owner_ = nullptr;
};

/// Cohort lock (Dice/Marathe/Shavit): a global ticket lock plus one local
/// lock per NUMA group; the group keeps the global lock across up to
/// `cohort_limit` local handoffs, so most handoffs stay NUMA-local.
class CohortLock : public CriticalSectionExecutor {
 public:
  explicit CohortLock(const NodeTopology* topo, int cohort_limit = 64);

  void execute(int core, const std::function<void(int)>& cs, bool wait) override;
  const char* name() const override { return "cohort"; }

  void lock(int core);
  void unlock(int core);

 private:
  struct Group {
    CachelineSet word;
    bool held = false;
    bool owns_global = false;
    int batch = 0;
    argosim::WaitQueue q;
    explicit Group(const NodeTopology* t) : word(t) {}
  };

  CoreMap cores_;
  int cohort_limit_;
  TicketLock global_;
  std::deque<Group> groups_;
};

}  // namespace argosync
