// Cooperative synchronization primitives for simulated threads.
//
// These primitives order fibers in *virtual* time but are themselves free of
// cost: they model the semantics of blocking, not its price. Cost models
// (cacheline transfers, futex wakeups, network hops) are charged explicitly
// by the higher-level lock/interconnect code that uses them.
//
// All waits are FIFO and deterministic.
#pragma once

#include <cassert>
#include <cstddef>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "sim/engine.hpp"

namespace argosim {

/// FIFO parking lot for fibers. The building block for every other primitive.
///
/// Storage is a plain vector with a consumed-prefix cursor instead of a
/// deque: a never-used queue owns no heap block at all (NodeCache holds one
/// WaitQueue per cache line, and almost all of them never park anyone), and
/// popping is a cursor bump. The vector resets to empty whenever the live
/// region drains, so it never grows past the high-water mark of concurrent
/// waiters. FIFO order and determinism are unchanged.
class WaitQueue {
 public:
  WaitQueue() = default;
  WaitQueue(const WaitQueue&) = delete;
  WaitQueue& operator=(const WaitQueue&) = delete;
  // Movable so that containers of wait-queue-bearing structs can resize;
  // moving with parked waiters is a logic error.
  WaitQueue(WaitQueue&& o) noexcept
      : waiters_(std::move(o.waiters_)), head_(o.head_) {
    o.head_ = 0;
  }
  WaitQueue& operator=(WaitQueue&& o) noexcept {
    assert(waiters() == 0 && o.waiters() == 0);
    waiters_ = std::move(o.waiters_);
    head_ = o.head_;
    o.head_ = 0;
    return *this;
  }

  /// Park the calling fiber until a notify releases it.
  void wait() {
    Engine* eng = Engine::current();
    SimThread* self = Engine::current_thread();
    assert(eng && self && "WaitQueue::wait outside simulation");
    enqueue(self);
    eng->park();
  }

  /// Park the calling fiber until notified or until the virtual deadline.
  /// Returns true if notified, false on timeout.
  bool wait_until(Time deadline) {
    Engine* eng = Engine::current();
    SimThread* self = Engine::current_thread();
    assert(eng && self && "WaitQueue::wait_until outside simulation");
    enqueue(self);
    eng->make_runnable(self, deadline);  // timeout path
    eng->park();
    if (self->blocked_) {  // timeout fired before any notify reached us
      self->blocked_ = false;
      // Erase only within the live region [head_, end): slots before head_
      // are already-consumed garbage and may alias `self` from an earlier
      // park; touching them would corrupt the cursor accounting.
      for (std::size_t i = head_; i < waiters_.size(); ++i) {
        if (waiters_[i] == self) {
          waiters_.erase(waiters_.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
      if (head_ == waiters_.size()) reset();
      return false;
    }
    return true;
  }

  /// Like wait_until, with a relative timeout.
  bool wait_for(Time timeout) {
    return wait_until(Engine::current()->now() + timeout);
  }

  /// Wake the oldest waiter (runnable at the current virtual time).
  /// Returns the number of fibers woken (0 or 1).
  std::size_t notify_one() {
    Engine* eng = Engine::current();
    assert(eng && "WaitQueue::notify_one outside simulation");
    while (head_ < waiters_.size()) {
      SimThread* t = waiters_[head_++];
      if (head_ == waiters_.size()) reset();
      if (t->finished_) continue;  // unwound during shutdown
      t->blocked_ = false;
      eng->make_runnable(t, eng->now());
      return 1;
    }
    return 0;
  }

  /// Wake every waiter. Returns the number of fibers woken.
  std::size_t notify_all() {
    std::size_t n = 0;
    while (waiters() > 0) n += notify_one();
    return n;
  }

  std::size_t waiters() const { return waiters_.size() - head_; }

 private:
  friend class Engine;

  // Join the queue as a parked waiter, without parking: wait() parks right
  // after, and a closed gated wake (Engine::delay_then_wait) never resumes
  // the fiber at all.
  void enqueue(SimThread* t) {
    t->blocked_ = true;
    waiters_.push_back(t);
  }

  void reset() {
    waiters_.clear();
    head_ = 0;
  }

  std::vector<SimThread*> waiters_;
  std::size_t head_ = 0;  // index of the oldest live waiter
};

/// FIFO mutex with direct handoff: unlock passes ownership to the oldest
/// waiter, so acquisition order equals arrival order (deterministic).
class SimMutex {
 public:
  void lock() {
    if (!locked_) {
      locked_ = true;
      owner_ = Engine::current_thread();
      return;
    }
    q_.wait();  // ownership is handed to us by unlock()
    owner_ = Engine::current_thread();
  }

  bool try_lock() {
    if (locked_) return false;
    locked_ = true;
    owner_ = Engine::current_thread();
    return true;
  }

  /// Acquire, giving up after `timeout` virtual ns. Returns true if the
  /// lock was obtained. Handoff semantics make this exact: being notified
  /// IS ownership, so a timeout means no ownership was ever transferred.
  /// The wait is sliced so a holder that crash-stops (Engine::kill) while
  /// we are parked is noticed within kOwnerPoll instead of only at the
  /// deadline: a dead holder can never hand the lock over, so the wait
  /// fails fast rather than riding out the full timeout.
  bool try_lock_for(Time timeout) {
    Engine* eng = Engine::current();
    if (!locked_) {
      locked_ = true;
      owner_ = Engine::current_thread();
      return true;
    }
    const Time deadline = eng->now() + timeout;
    for (;;) {
      // Between slices we are not parked: an unlock in that window found an
      // empty queue and freed the lock instead of handing it to us.
      if (!locked_) {
        locked_ = true;
        owner_ = Engine::current_thread();
        return true;
      }
      if (owner_unwound()) return false;
      const Time now = eng->now();
      if (now >= deadline) return false;
      const Time slice = deadline - now < kOwnerPoll ? deadline - now
                                                     : kOwnerPoll;
      if (q_.wait_until(now + slice)) {
        owner_ = Engine::current_thread();
        return true;
      }
    }
  }

  void unlock() {
    assert(locked_);
    if (q_.notify_one() == 0) {
      locked_ = false;
      owner_ = nullptr;
    }
    // else: stays locked, ownership transferred to the woken fiber (which
    // stamps owner_ when it resumes inside lock()/try_lock_for()).
  }

  bool locked() const { return locked_; }

  /// Dead-holder poll granularity of try_lock_for.
  static constexpr Time kOwnerPoll = 2000;

 private:
  /// True if the recorded holder can never release: it finished or was
  /// crash-stopped while owning the lock. (During a handoff window the
  /// recorded holder is the releaser, which is live — so this only fires
  /// for genuinely orphaned locks.)
  bool owner_unwound() const {
    return owner_ != nullptr && (owner_->finished() || owner_->stop_requested());
  }

  bool locked_ = false;
  SimThread* owner_ = nullptr;  // last fiber to acquire (diagnostics/death)
  WaitQueue q_;
};

/// RAII lock guard for SimMutex.
class SimLockGuard {
 public:
  explicit SimLockGuard(SimMutex& m) : m_(m) { m_.lock(); }
  ~SimLockGuard() { m_.unlock(); }
  SimLockGuard(const SimLockGuard&) = delete;
  SimLockGuard& operator=(const SimLockGuard&) = delete;

 private:
  SimMutex& m_;
};

/// Condition variable over SimMutex. No spurious wakeups.
class SimCondVar {
 public:
  void wait(SimMutex& m) {
    m.unlock();
    q_.wait();
    m.lock();
  }

  template <typename Pred>
  void wait(SimMutex& m, Pred pred) {
    while (!pred()) wait(m);
  }

  void notify_one() { q_.notify_one(); }
  void notify_all() { q_.notify_all(); }

 private:
  WaitQueue q_;
};

/// Classic generation-counted barrier for a fixed party count.
class SimBarrier {
 public:
  explicit SimBarrier(std::size_t parties) : parties_(parties) {}

  void arrive_and_wait() {
    assert(parties_ > 0);
    std::uint64_t gen = generation_;
    if (++arrived_ == parties_) {
      arrived_ = 0;
      ++generation_;
      q_.notify_all();
      return;
    }
    while (generation_ == gen) q_.wait();
  }

  std::size_t parties() const { return parties_; }

 private:
  std::size_t parties_;
  std::size_t arrived_ = 0;
  std::uint64_t generation_ = 0;
  WaitQueue q_;
};

/// One-shot event: set() releases all current and future waiters.
class SimEvent {
 public:
  void wait() {
    while (!set_) q_.wait();
  }

  /// Wait with a virtual-time deadline; true if the event was set in time.
  bool wait_for(Time timeout) {
    const Time deadline = Engine::current()->now() + timeout;
    while (!set_) {
      if (!q_.wait_until(deadline) && !set_) return false;
    }
    return true;
  }
  void set() {
    set_ = true;
    q_.notify_all();
  }
  bool is_set() const { return set_; }
  void reset() { set_ = false; }

 private:
  bool set_ = false;
  WaitQueue q_;
};

/// Unbounded FIFO channel between fibers.
template <typename T>
class Channel {
 public:
  void send(T v) {
    items_.push_back(std::move(v));
    q_.notify_one();
  }

  T recv() {
    while (items_.empty()) q_.wait();
    T v = std::move(items_.front());
    items_.pop_front();
    return v;
  }

  std::optional<T> try_recv() {
    if (items_.empty()) return std::nullopt;
    T v = std::move(items_.front());
    items_.pop_front();
    return v;
  }

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

 private:
  std::deque<T> items_;
  WaitQueue q_;
};

}  // namespace argosim
