#include "sync/local_locks.hpp"

#include <cassert>

namespace argosync {

// ---------------------------------------------------------------------------
// MutexLock
// ---------------------------------------------------------------------------

void MutexLock::lock(int core) {
  word_.rmw(core);
  while (held_) {
    q_.wait();
    // Woken by unlock(): pay the futex wakeup and retry the CAS.
    argosim::delay(topo_->futex_wake);
    word_.rmw(core);
  }
  held_ = true;
}

void MutexLock::unlock(int core) {
  word_.rmw(core);
  held_ = false;
  q_.notify_one();
}

void MutexLock::execute(int core, const std::function<void(int)>& cs, bool) {
  lock(core);
  cs(core);
  unlock(core);
}

// ---------------------------------------------------------------------------
// TicketLock
// ---------------------------------------------------------------------------

void TicketLock::lock(int core) {
  word_.rmw(core);  // fetch-add on the ticket line
  const std::uint64_t my = next_ticket_++;
  while (now_serving_ != my) {
    q_.wait();
    // Spinners re-read the now-serving line after every release.
    word_.touch(core);
  }
}

void TicketLock::unlock(int core) {
  word_.touch(core);
  ++now_serving_;
  q_.notify_all();  // everyone re-checks; exactly one proceeds
}

void TicketLock::execute(int core, const std::function<void(int)>& cs, bool) {
  lock(core);
  cs(core);
  unlock(core);
}

// ---------------------------------------------------------------------------
// McsLock
// ---------------------------------------------------------------------------

void McsLock::lock(int core) {
  auto* me = new QNode{core};
  tail_.rmw(core);  // atomic swap of the tail pointer
  QNode* pred = tail_node_;
  tail_node_ = me;
  if (pred != nullptr) {
    // Link into the predecessor's node (one remote line write), then spin
    // on our own line until the predecessor hands over. The predecessor
    // frees its node right after the hand-over, so its core id must be
    // read before waiting.
    const int pred_core = pred->core;
    argosim::delay(cores_.cacheline_transfer(core, pred_core));
    pred->next = me;
    me->ev.wait();
    argosim::delay(cores_.cacheline_transfer(pred_core, core));
  }
  owner_ = me;
}

void McsLock::unlock(int core) {
  QNode* me = owner_;
  assert(me != nullptr);
  owner_ = nullptr;
  if (me->next == nullptr) {
    tail_.rmw(core);  // CAS tail back to null
    if (tail_node_ == me) {
      tail_node_ = nullptr;
      delete me;
      return;
    }
    // A successor swapped in but has not linked yet: poll in *time* (its
    // link write completes in the future; a zero-cost yield would spin at
    // the current virtual instant forever).
    while (me->next == nullptr)
      argosim::delay(cores_.topo().cacheline_same_numa);
  }
  argosim::delay(cores_.cacheline_transfer(core, me->next->core));
  me->next->ev.set();
  delete me;
}

void McsLock::execute(int core, const std::function<void(int)>& cs, bool) {
  lock(core);
  cs(core);
  unlock(core);
}

// ---------------------------------------------------------------------------
// CohortLock
// ---------------------------------------------------------------------------

CohortLock::CohortLock(const NodeTopology* topo, int cohort_limit)
    : cores_(topo), cohort_limit_(cohort_limit), global_(topo) {
  for (int g = 0; g < topo->numa_groups; ++g) groups_.emplace_back(topo);
}

void CohortLock::lock(int core) {
  Group& g = groups_[static_cast<std::size_t>(cores_.group_of(core))];
  g.word.rmw(core);
  if (g.held) {
    g.q.wait();  // ownership handed to us by unlock()
    g.word.touch(core);
  } else {
    g.held = true;
  }
  if (!g.owns_global) {
    global_.lock(core);
    g.owns_global = true;
    g.batch = 0;
  }
}

void CohortLock::unlock(int core) {
  Group& g = groups_[static_cast<std::size_t>(cores_.group_of(core))];
  g.word.touch(core);
  ++g.batch;
  const bool pass_local = g.q.waiters() > 0 && g.batch < cohort_limit_;
  if (!pass_local && g.owns_global) {
    global_.unlock(core);
    g.owns_global = false;
  }
  if (g.q.waiters() > 0)
    g.q.notify_one();  // local handoff (global re-acquired by them if needed)
  else
    g.held = false;
}

void CohortLock::execute(int core, const std::function<void(int)>& cs, bool) {
  lock(core);
  cs(core);
  unlock(core);
}

}  // namespace argosync
