#include "sync/dsm_locks.hpp"

#include <algorithm>
#include <cassert>

namespace argosync {

namespace {

// Vela's one spin loop: read `word`, and until done(value) holds, compute
// `interval` and read again; returns the value that satisfied `done`. A
// word homed on the caller's node changes only through its own node's
// shard, so until anything else happens there each further poll would
// reread the value just read: right after a read, such polls are skipped
// whole, in O(1) (Interconnect::skip_local_polls), at most cap() of them;
// took(m) learns how many were skipped, so a caller that counts polls
// counts those too. A remote word is polled for real: its reads hold the
// NIC and may draw faults.
template <class Done, class Cap, class Took>
std::uint64_t poll_until(Thread& t, gptr<std::uint64_t> word,
                         argosim::Time interval, Done done, Cap cap,
                         Took took) {
  for (;;) {
    const std::uint64_t v = t.atomic_load(word);
    if (done(v)) return v;
    if (t.is_home(word.raw()))
      took(t.cluster().net().skip_local_polls(t.node(), sizeof v, interval,
                                              cap()));
    t.compute(interval);
  }
}

template <class Done>
std::uint64_t poll_until(Thread& t, gptr<std::uint64_t> word,
                         argosim::Time interval, Done done) {
  return poll_until(
      t, word, interval, done, [] { return argosim::Engine::kNoCap; },
      [](std::uint64_t) {});
}

}  // namespace

// ---------------------------------------------------------------------------
// GlobalMcsLock
// ---------------------------------------------------------------------------

GlobalMcsLock::GlobalMcsLock(Cluster& cluster) {
  auto& g = cluster.gmem();
  gmem_ = &g;
  tail_ = g.alloc_on_node<std::uint64_t>(0, 1);
  *g.home_ptr(tail_) = 0;
  flag_.reserve(static_cast<std::size_t>(cluster.nodes()));
  next_.reserve(static_cast<std::size_t>(cluster.nodes()));
  for (int n = 0; n < cluster.nodes(); ++n) {
    flag_.push_back(g.alloc_on_node<std::uint64_t>(n, 1));
    next_.push_back(g.alloc_on_node<std::uint64_t>(n, 1));
    *g.home_ptr(flag_.back()) = 0;
    *g.home_ptr(next_.back()) = 0;
  }
  if (cluster.config().membership.enabled) {
    membership_ = &cluster.membership();
    membership_->register_lock(this);
  }
}

GlobalMcsLock::~GlobalMcsLock() {
  if (membership_ != nullptr) membership_->deregister_lock(this);
}

void GlobalMcsLock::host_reset_queue() {
  *gmem_->home_ptr(tail_) = 0;
  for (std::size_t n = 0; n < next_.size(); ++n) {
    *gmem_->home_ptr(next_[n]) = 0;
    // Live nodes' flags become restart markers (any spinning waiter reads
    // kRestart and re-contends from scratch); dead nodes' flags just clear.
    *gmem_->home_ptr(flag_[n]) =
        membership_ != nullptr && membership_->is_live(static_cast<int>(n))
            ? kRestart
            : 0;
  }
  if (membership_ != nullptr) membership_->bump_lock_epoch();
}

bool GlobalMcsLock::recover_after_crash(int dead_node) {
  if (holder_ != dead_node) return false;
  host_reset_queue();
  holder_ = -1;
  return true;
}

void GlobalMcsLock::acquire(Thread& t) {
  const auto me = static_cast<std::uint64_t>(t.node());
  for (;;) {
    // Reset our queue slot (local memory), then swap ourselves in as tail.
    t.atomic_store(flag_[me], 0);
    t.atomic_store(next_[me], 0);
    std::uint64_t prev;
    try {
      prev = t.atomic_exchange(tail_, me + 1);
    } catch (const argonet::NodeFailedError& e) {
      // The tail's home crashed: wait for the home redirect, then retry.
      if (membership_ == nullptr) throw;
      membership_->await_recovery(e.dst());
      continue;
    }
    if (prev == 0) {
      holder_ = static_cast<int>(me);
      return;
    }
    // Link into the predecessor's slot (one remote write), then spin on
    // our *own* node's flag — the predecessor will write it remotely.
    try {
      t.atomic_store(next_[prev - 1], me + 1);
    } catch (const argonet::NodeFailedError& e) {
      // The predecessor's node is down. Its death will force a queue reset
      // (lease sweep if it held the lock, release-side detection if it was
      // queued); wait the recovery out and re-contend.
      if (membership_ == nullptr) throw;
      membership_->await_recovery(e.dst());
      continue;
    }
    const std::uint64_t v = poll_until(
        t, flag_[me], kPoll,
        [](std::uint64_t f) { return f == kGranted || f == kRestart; });
    if (v == kGranted) {
      holder_ = static_cast<int>(me);
      return;
    }
    // kRestart: the queue was force-reset after a crash; re-contend.
  }
}

bool GlobalMcsLock::try_acquire_for(Thread& t, argosim::Time timeout) {
  const auto me = static_cast<std::uint64_t>(t.node());
  const argosim::Time deadline = t.now() + timeout;
  // Reset our slot before we can become visible as tail: once the CAS
  // succeeds a contender may immediately link into next_[me].
  t.atomic_store(flag_[me], 0);
  t.atomic_store(next_[me], 0);
  argosim::Time poll = kPoll;
  for (;;) {
    std::uint64_t cur;
    try {
      cur = t.atomic_cas(tail_, 0, me + 1);
    } catch (const argonet::NodeFailedError&) {
      // Tail's home is down. Giving up is always legal on the timed path.
      if (membership_ == nullptr) throw;
      return false;
    }
    if (cur == 0) {
      holder_ = static_cast<int>(me);
      return true;
    }
    // A declared-dead tail cannot drain until the lease sweep resets the
    // queue; fail fast instead of burning the remaining timeout.
    if (membership_ != nullptr &&
        !membership_->is_live(static_cast<int>(cur - 1)))
      return false;
    if (t.now() >= deadline) return false;
    // The last backoff ends at the deadline, where the final CAS goes out.
    t.compute(std::min(poll, deadline - t.now()));
    poll = std::min<argosim::Time>(poll * 2, kPoll * 64);
  }
}

void GlobalMcsLock::release(Thread& t) {
  const auto me = static_cast<std::uint64_t>(t.node());
  if (t.atomic_load(next_[me]) == 0) {
    // Appear to have no successor: try to swing the tail back to free.
    if (t.atomic_cas(tail_, me + 1, 0) == me + 1) {
      holder_ = -1;
      return;
    }
    // Someone swapped in concurrently; wait for the link to appear. A
    // contender that swapped into the tail and then crashed before linking
    // would strand this wait forever. Once a death has been declared, give
    // the link well past the worst in-flight store time, then reset the
    // queue — we still hold the lock, so this is the one place (besides
    // the lease sweep, whose holder is dead) that may. Skipped polls count
    // toward kStuckPolls, and a skip stops short of the poll reaching it:
    // with no event to end it, the capped skip stays in place and the
    // spin reaches the cap on its own.
    int stalled = 0;
    bool capped = false;  // the last skip counted toward kStuckPolls
    const auto watched = [this] {
      return membership_ != nullptr && membership_->any_dead();
    };
    const std::uint64_t link = poll_until(
        t, next_[me], kPoll,
        [&](std::uint64_t v) {
          return v != 0 || (watched() && ++stalled >= kStuckPolls);
        },
        [&] {
          capped = watched();
          return capped ? static_cast<std::uint64_t>(kStuckPolls - 1 - stalled)
                        : argosim::Engine::kNoCap;
        },
        [&](std::uint64_t m) {
          if (capped) stalled += static_cast<int>(m);
        });
    if (link == 0) {
      host_reset_queue();
      holder_ = -1;
      return;
    }
  }
  const std::uint64_t succ = t.atomic_load(next_[me]) - 1;
  if (membership_ != nullptr &&
      !membership_->is_live(static_cast<int>(succ))) {
    // Handing the lock to a declared-dead node would only park it until
    // the lease expires; reset the queue now instead. Live waiters queued
    // behind the dead successor see kRestart and re-contend.
    host_reset_queue();
    holder_ = -1;
    return;
  }
  t.atomic_store(flag_[succ], kGranted);  // grant: remote write to their node
  holder_ = static_cast<int>(succ);
  // All DSM locks (HQDL, cohort, mutex) funnel global handovers through
  // here; the lock's identity is its tail word's global address.
  t.cluster().tracer().emit(t.node(), argoobs::Ev::LockHandover, tail_.raw(),
                            argoobs::kUnknownState, succ);
}

// ---------------------------------------------------------------------------
// HqdLock
// ---------------------------------------------------------------------------

HqdLock::HqdLock(Cluster& cluster, std::size_t queue_capacity,
                 std::size_t batch_limit)
    : cluster_(cluster),
      global_(cluster),
      queue_capacity_(queue_capacity),
      batch_limit_(batch_limit),
      stats_(static_cast<std::size_t>(cluster.nodes())) {
  for (int n = 0; n < cluster.nodes(); ++n)
    nodes_.emplace_back(&cluster.config().topo);
}

void HqdLock::spin_on_word(Thread& t, NodeQ& nq, argosim::Time deadline) {
  // Each iteration's phases, in order: the word's transfer delay, its
  // ownership move, the atomic's delay, the check, the backoff delay. The
  // step runs every phase after the first delay; `next` is the one due at
  // the end of the current delay.
  struct Backoff final : argosim::SpinStep {
    enum class Phase { Own, Check, Fetch };
    NodeQ& nq;
    int core;
    argosim::Time atomic_rmw;
    std::size_t capacity;
    argosim::Time deadline;
    Phase next = Phase::Own;
    Backoff(NodeQ& q, int c, argosim::Time rmw, std::size_t cap,
            argosim::Time d)
        : nq(q), core(c), atomic_rmw(rmw), capacity(cap), deadline(d) {}
    argosim::Time step(argosim::Time now) override {
      switch (next) {
        case Phase::Own:
          nq.word.move_to(core);
          next = Phase::Check;
          return atomic_rmw;
        case Phase::Check:
          if (!nq.helper_active || (nq.open && nq.queue.size() < capacity) ||
              now >= deadline)
            return kResume;
          next = Phase::Fetch;
          return kBackoff;  // queue closed or full: back off, retry
        case Phase::Fetch:
          next = Phase::Own;
          return nq.word.cost(core);
      }
      return kResume;
    }
  } backoff(nq, t.core(), cluster_.config().topo.atomic_rmw, queue_capacity_,
            deadline);
  argosim::Engine::current()->delay_then_spin(nq.word.cost(t.core()), backoff);
}

void HqdLock::lead_batch(Thread& t, NodeQ& nq, DelegationStats& st,
                         const std::function<void(Thread&)>& cs) {
  t.acquire();  // SI fence — once per batch (§4.2)
  ++st.batches;
  // The helper's own section may throw (e.g. a crash aborts one of its
  // remote ops). The batch must still drain and the locks must still be
  // released — other threads' entries are queued behind us — so the
  // error is parked and rethrown once the lock state is clean.
  std::exception_ptr own_err;
  try {
    cs(t);
  } catch (const argosim::SimStopped&) {
    throw;  // this fiber is being killed: unwind, do not mask it
  } catch (...) {
    own_err = std::current_exception();
  }
  ++st.executed;
  run_batch(t, nq, st, 1);
  t.release();  // SD fence — once per batch
  global_.release(t);
  nq.helper_active = false;
  nq.word.touch(t.core());
  if (own_err) std::rethrow_exception(own_err);
}

void HqdLock::execute(Thread& t, const std::function<void(Thread&)>& cs,
                      bool wait) {
  NodeQ& nq = nodes_[static_cast<std::size_t>(t.node())];
  DelegationStats& st = stats_[static_cast<std::size_t>(t.node())];
  for (;;) {
    spin_on_word(t, nq, kNoDeadline);
    if (!nq.helper_active) {
      // Become this node's helper: take the global lock, self-invalidate
      // once to see earlier critical sections from other nodes, run a
      // whole batch locally, self-downgrade once, hand the lock on.
      nq.helper_active = true;
      nq.open = true;
      global_.acquire(t);
      lead_batch(t, nq, st, cs);
      return;
    }
    // The spin left with the queue open and not full.
    nq.qline.touch(t.core());
    // The helper may have closed the queue during the transfer delay;
    // re-validate before enqueueing or the entry would never run.
    if (!nq.open || nq.queue.size() >= queue_capacity_) continue;
    if (wait) {
      argosim::SimEvent done;
      std::exception_ptr err;
      nq.queue.push_back(Entry{cs, &done, t.core(), &err});
      done.wait();
      if (err) std::rethrow_exception(err);
    } else {
      nq.queue.push_back(Entry{cs, nullptr, t.core(), nullptr});
    }
    return;
  }
}

void HqdLock::run_batch(Thread& t, NodeQ& nq, DelegationStats& st,
                        std::size_t already) {
  std::size_t executed = already;
  for (;;) {
    if (executed >= batch_limit_) nq.open = false;
    if (nq.queue.empty()) {
      nq.open = false;
      break;
    }
    Entry e = std::move(nq.queue.front());
    nq.queue.pop_front();
    nq.qline.touch(t.core());
    try {
      e.cs(t);  // executed by the helper thread, same node = same cache
    } catch (const argosim::SimStopped&) {
      // The helper's node crash-stopped mid-batch. Do NOT signal the entry
      // as done (its section did not run to completion); the delegators
      // parked on this node die with it and unwind out of their waits.
      throw;
    } catch (...) {
      if (e.err != nullptr) *e.err = std::current_exception();
      // Detached entries (err == nullptr) have no one to report to.
    }
    if (e.done != nullptr) e.done->set();
    ++st.executed;
    ++st.delegated;
    ++executed;
  }
}

bool HqdLock::try_execute(Thread& t, const std::function<void(Thread&)>& cs,
                          argosim::Time timeout) {
  NodeQ& nq = nodes_[static_cast<std::size_t>(t.node())];
  DelegationStats& st = stats_[static_cast<std::size_t>(t.node())];
  const argosim::Time deadline = t.now() + timeout;
  for (;;) {
    spin_on_word(t, nq, deadline);
    if (!nq.helper_active) {
      nq.helper_active = true;
      // The queue stays closed until the global lock is actually held:
      // if the timed acquisition fails, no delegated entry is stranded.
      const argosim::Time left =
          deadline > t.now() ? deadline - t.now() : 0;
      if (!global_.try_acquire_for(t, left)) {
        nq.helper_active = false;
        nq.word.touch(t.core());
        return false;
      }
      nq.open = true;
      lead_batch(t, nq, st, cs);
      return true;
    }
    // The deadline passed with the queue closed or full.
    if (!nq.open || nq.queue.size() >= queue_capacity_) return false;
    nq.qline.touch(t.core());
    if (!nq.open || nq.queue.size() >= queue_capacity_) continue;
    argosim::SimEvent done;
    std::exception_ptr err;
    nq.queue.push_back(Entry{cs, &done, t.core(), &err});
    const argosim::Time left = deadline > t.now() ? deadline - t.now() : 0;
    if (done.wait_for(left)) {
      if (err) std::rethrow_exception(err);
      return true;
    }
    // Timed out. Withdraw the entry if the helper has not claimed it.
    for (auto it = nq.queue.begin(); it != nq.queue.end(); ++it) {
      if (it->done == &done) {
        nq.queue.erase(it);
        return false;
      }
    }
    // Already dequeued: it is executing (or about to). The event lives
    // on this stack, so ride out the completion — and report success.
    done.wait();
    if (err) std::rethrow_exception(err);
    return true;
  }
}

DelegationStats HqdLock::total_stats() const {
  DelegationStats total;
  for (const auto& s : stats_) {
    total.batches += s.batches;
    total.executed += s.executed;
    total.delegated += s.delegated;
  }
  return total;
}

// ---------------------------------------------------------------------------
// DsmCohortLock
// ---------------------------------------------------------------------------

DsmCohortLock::DsmCohortLock(Cluster& cluster, int cohort_limit)
    : cluster_(cluster), global_(cluster), cohort_limit_(cohort_limit) {
  for (int n = 0; n < cluster.nodes(); ++n)
    nodes_.emplace_back(&cluster.config().topo);
}

void DsmCohortLock::lock(Thread& t) {
  NodeState& ns = nodes_[static_cast<std::size_t>(t.node())];
  ns.word.rmw(t.core());
  if (ns.held) {
    ns.q.wait();  // local handoff: ownership passed to us
    ns.word.touch(t.core());
  } else {
    ns.held = true;
  }
  if (!ns.owns_global) {
    global_.acquire(t);
    ns.owns_global = true;
    ns.batch = 0;
    ++global_acqs_;
  }
  // Conventional lock semantics on Argo: SI fence at every acquire.
  t.acquire();
}

void DsmCohortLock::unlock(Thread& t) {
  // Conventional lock semantics on Argo: SD fence at every release.
  t.release();
  NodeState& ns = nodes_[static_cast<std::size_t>(t.node())];
  ns.word.touch(t.core());
  ++ns.batch;
  const bool pass_local = ns.q.waiters() > 0 && ns.batch < cohort_limit_;
  if (!pass_local && ns.owns_global) {
    global_.release(t);
    ns.owns_global = false;
  }
  if (ns.q.waiters() > 0)
    ns.q.notify_one();
  else
    ns.held = false;
}

void DsmCohortLock::execute(Thread& t,
                            const std::function<void(Thread&)>& cs) {
  lock(t);
  cs(t);
  unlock(t);
}

// ---------------------------------------------------------------------------
// DsmMutex
// ---------------------------------------------------------------------------

DsmMutex::DsmMutex(Cluster& cluster) : cluster_(cluster), global_(cluster) {
  for (int n = 0; n < cluster.nodes(); ++n)
    node_serial_.push_back(std::make_unique<argosim::SimMutex>());
}

void DsmMutex::lock(Thread& t) {
  node_serial_[static_cast<std::size_t>(t.node())]->lock();
  global_.acquire(t);
  t.acquire();
}

bool DsmMutex::try_lock_for(Thread& t, argosim::Time timeout) {
  const argosim::Time deadline = t.now() + timeout;
  auto& serial = *node_serial_[static_cast<std::size_t>(t.node())];
  if (!serial.try_lock_for(timeout)) return false;
  const argosim::Time left = deadline > t.now() ? deadline - t.now() : 0;
  if (!global_.try_acquire_for(t, left)) {
    serial.unlock();
    return false;
  }
  t.acquire();
  return true;
}

void DsmMutex::unlock(Thread& t) {
  t.release();
  global_.release(t);
  node_serial_[static_cast<std::size_t>(t.node())]->unlock();
}

// ---------------------------------------------------------------------------
// DsmFlag
// ---------------------------------------------------------------------------

DsmFlag::DsmFlag(Cluster& cluster) {
  word_ = cluster.gmem().alloc_on_node<std::uint64_t>(0, 1);
  *cluster.gmem().home_ptr(word_) = 0;
}

void DsmFlag::set(Thread& t, std::uint64_t value) {
  t.release();  // make everything written before the signal visible
  t.atomic_store(word_, value);
}

std::uint64_t DsmFlag::wait(Thread& t, std::uint64_t at_least) {
  const std::uint64_t v = poll_until(
      t, word_, kPoll, [at_least](std::uint64_t w) { return w >= at_least; });
  t.acquire();  // see everything the signaller published
  return v;
}

std::uint64_t DsmFlag::peek(Thread& t) { return t.atomic_load(word_); }

}  // namespace argosync
