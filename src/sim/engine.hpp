// Deterministic virtual-time execution engine.
//
// The engine cooperatively schedules "simulated threads" (fibers) against
// virtual time. Every fiber lives on one event shard; a shard has its own
// run queue and local clock, and runs one fiber at a time, so simulated
// code needs no real synchronization. Logical concurrency is modeled by the
// interleaving of fibers at explicit scheduling points (delay/yield/wait).
// Within a shard the runnable fiber with the smallest (wake time, insertion
// sequence) pair always runs next, so the same program produces
// bit-identical virtual timings and statistics on every run.
//
// Shards advance in conservative lookahead windows [Tmin, Tmin + L): every
// shard may execute its events with when < Tmin + L independently, because
// any cross-shard interaction carries at least the interconnect's minimum
// verb latency L and therefore lands in a strictly later window. Cross-shard
// side effects travel as timestamped Effect closures executed on the
// destination shard in (when, klass, a, b) key order, before any fiber wake
// at the same time. N host workers run the same per-shard schedules
// concurrently and stay bit-identical to one worker, because no shard ever
// observes another shard's intra-window progress except through Effects
// (deterministic keys) and completion Records (deterministic values).
//
// A default-constructed engine has one shard. With nothing to cross, its
// window is unbounded: it runs as a single run queue and stops the moment
// its last non-daemon fiber finishes. enable_sharding() partitions it
// further (argo::Cluster uses one shard per node). Each shard recycles its
// finished fibers' stacks through its own pool, so the worker reaping them
// needs no lock.
//
// This is the substrate that stands in for the paper's physical cluster:
// nodes, cores, NICs and message handlers are all simulated threads whose
// costs are charged through delay().
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/smallfn.hpp"
#include "sim/time.hpp"

namespace argosim {

class Engine;
class SimGate;

/// Thrown inside blocked fibers when the engine shuts down (e.g. daemon
/// handler threads still waiting on a channel after all workers finished).
struct SimStopped {};

/// Thrown by Engine::run() when no fiber is runnable but non-daemon fibers
/// are still blocked.
class SimDeadlock : public std::runtime_error {
 public:
  explicit SimDeadlock(const std::string& what) : std::runtime_error(what) {}
};

/// Completion record for a cross-shard operation: the destination shard
/// fills value/bytes and calls complete(); the source fiber await()s it.
/// The record must outlive the effect that fills it even when its issuer
/// is killed first: a fiber's own record (SimThread::op_record()) lives as
/// long as the engine, and a shared one is held by the effect too.
struct SimRecord {
  std::uint64_t value = 0;
  /// When set, result bytes go straight here instead of into the record:
  /// the issuer's own buffer, for an op whose issuer stays parked until the
  /// record completes and reads nothing else of it. An issuer that unwinds
  /// first clears it.
  std::byte* direct = nullptr;
  /// Room for `n` result bytes (uninitialized; the filler overwrites them).
  std::byte* bytes(std::size_t n) {
    if (direct != nullptr) return direct;
    if (n > cap_) {
      buf_ = std::make_unique_for_overwrite<std::byte[]>(n);
      cap_ = n;
    }
    return buf_.get();
  }
  const std::byte* bytes() const { return buf_.get(); }
  void complete() { done_.store(true, std::memory_order_release); }
  bool ready() const { return done_.load(std::memory_order_acquire); }
  /// Return the record to its freshly-constructed state, keeping an
  /// operand-sized buffer but freeing a page-sized one: a pooled record
  /// must not pin the largest transfer it ever served. Only for a record
  /// whose filler has finished.
  void reset() {
    value = 0;
    direct = nullptr;
    if (cap_ > kKeptBytes) {
      buf_.reset();
      cap_ = 0;
    }
    done_.store(false, std::memory_order_relaxed);
  }
  static constexpr std::size_t kKeptBytes = 64;

 private:
  std::unique_ptr<std::byte[]> buf_;
  std::size_t cap_ = 0;
  std::atomic<bool> done_{false};
};

/// A fiber's stack: an anonymous private mapping of the usable bytes plus
/// one PROT_NONE guard page below them. Pages commit lazily on first touch
/// (nothing is zero-filled up front), and a fiber that runs off the bottom
/// faults on the guard page (SIGSEGV) instead of corrupting its neighbour.
class FiberStack {
 public:
  FiberStack() = default;
  /// Maps `size` usable bytes, rounded up to whole pages. Throws
  /// std::bad_alloc when the mapping fails.
  explicit FiberStack(std::size_t size);
  FiberStack(FiberStack&& o) noexcept { *this = std::move(o); }
  FiberStack& operator=(FiberStack&& o) noexcept;
  FiberStack(const FiberStack&) = delete;
  FiberStack& operator=(const FiberStack&) = delete;
  ~FiberStack() { unmap(); }

  /// Lowest usable byte (the guard page lies just below); the stack grows
  /// down from base() + size().
  void* base() const { return base_; }
  std::size_t size() const { return size_; }
  explicit operator bool() const { return base_ != nullptr; }

 private:
  void unmap();
  void* base_ = nullptr;
  std::size_t size_ = 0;
};

/// Cross-shard effect body. Inline capacity covers every closure the
/// engine and interconnect post (the largest is a posted fetch-or: its
/// target-side hook, its completion record and an empty write payload).
using EffectFn = SmallFn<void(), 128>;

/// A simulated thread. Created via Engine::spawn(); users interact with it
/// through the engine's static current()/delay()/now() interface and the
/// primitives in sim/sync.hpp.
class SimThread {
 public:
  const std::string& name() const { return name_; }
  std::uint64_t id() const { return id_; }
  bool daemon() const { return daemon_; }
  bool finished() const { return finished_; }
  /// Shard this fiber is pinned to.
  std::uint32_t shard() const { return shard_; }
  /// True once Engine::kill() (or shutdown) marked this fiber: it will
  /// unwind at its next scheduling point and can no longer make progress.
  bool stop_requested() const { return stop_requested_; }
  /// Completion record of this fiber's blocking cross-shard operation. A
  /// fiber has at most one in flight (it stays parked until the record
  /// completes, or unwinds for good), and the SimThread outlives every
  /// effect that may still fill it, so the record needs no pool.
  SimRecord& op_record() { return op_record_; }
  /// This fiber's stack (usable range; empty once the finished fiber's
  /// stack went back to the engine's pool).
  const FiberStack& stack() const;
  ~SimThread();

 private:
  friend class Engine;
  friend class WaitQueue;
  friend class SimGate;
  SimThread(Engine* eng, std::uint64_t id, std::string name,
            std::function<void()> body, FiberStack stack, bool daemon);
  SimThread(const SimThread&) = delete;
  SimThread& operator=(const SimThread&) = delete;

  struct Impl;
  std::unique_ptr<Impl> impl_;
  Engine* engine_;
  std::uint64_t id_;
  std::string name_;
  std::function<void()> body_;
  bool daemon_ = false;
  bool finished_ = false;
  bool blocked_ = false;   // parked on a WaitQueue or SimGate
  bool stop_requested_ = false;
  bool queued_ = false;    // a live (token-matching) run-queue entry exists
  std::uint32_t shard_ = 0;
  std::uint64_t wake_token_ = 0;  // invalidates stale run-queue entries
  SimRecord op_record_;
};

/// The virtual-time scheduler.
class Engine {
 public:
  Engine();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Create a simulated thread, runnable at the current virtual time.
  /// May be called from outside the simulation or from a running fiber.
  /// Daemon fibers do not keep run() alive and are stopped (by a SimStopped
  /// throw at their next scheduling point) when every non-daemon finished.
  SimThread* spawn(std::string name, std::function<void()> body,
                   bool daemon = false, std::size_t stack_size = default_stack_size);

  /// Spawn a fiber pinned to shard `unit`; a one-shard engine takes every
  /// unit, so callers may name shards by node. With more than one shard it
  /// must be called between runs; a fiber's whole life runs on one host
  /// worker, which is what makes ucontext/TLS state safe.
  SimThread* spawn_on(std::uint32_t unit, std::string name,
                      std::function<void()> body, bool daemon = false,
                      std::size_t stack_size = default_stack_size);

  /// Run the simulation until all non-daemon fibers have finished.
  /// Throws SimDeadlock if progress is impossible. May be called repeatedly;
  /// virtual time keeps advancing monotonically across calls.
  void run();

  /// Crash-stop a fiber: it unwinds (via SimStopped) at its next scheduling
  /// point instead of continuing its body — destructors run, so held NIC
  /// locks and RAII guards release cleanly. Parked fibers are made runnable
  /// now so the unwind is immediate. Killing a finished fiber is a no-op;
  /// a fiber must not kill itself (return and unwind instead).
  void kill(SimThread* t);

  /// Unwind every fiber that is still alive (typically daemon message
  /// handlers and monitors), running their destructors. The destructor
  /// calls this too, but an owner whose fibers hold locks on sibling
  /// objects must call it explicitly while those siblings still exist —
  /// the Engine member is usually declared (and thus destroyed) in the
  /// wrong order for the implicit unwind to be safe.
  void shutdown();

  /// Current virtual time: the executing shard's local clock inside a run,
  /// the committed clock between runs.
  Time now() const;

  /// The engine owning the currently executing fiber (nullptr outside one).
  static Engine* current();
  /// The currently executing fiber (nullptr outside the simulation).
  static SimThread* current_thread();

  /// Advance the calling fiber's clock by `ns` virtual nanoseconds.
  /// Other runnable fibers execute in the meantime. When no other fiber is
  /// due strictly before the new wake time, the clock is advanced in place
  /// (same-fiber fast-forward) instead of round-tripping through the
  /// scheduler — observationally identical, but skips two context
  /// switches. Bounded by the current lookahead window.
  void delay(Time ns);

  /// Host-path diagnostics: delays absorbed by the same-fiber fast-forward
  /// and fiber stacks recycled from the pool.
  std::uint64_t delay_fast_forwards() const {
    return sum(&Shard::fast_forwards);
  }
  std::uint64_t stacks_reused() const { return stacks_reused_; }
  /// Fiber stacks freshly mapped (spawns the pool could not serve).
  std::uint64_t stacks_mapped() const { return stacks_mapped_; }
  /// Stale (wake_token-invalidated) run-queue entries removed by heap
  /// compaction instead of being popped one by one.
  std::uint64_t runq_purged() const {
    return runq_purged_.load(std::memory_order_relaxed);
  }
  /// Scheduler-to-fiber context switches performed (each implies a matching
  /// fiber-to-scheduler switch; same-fiber fast-forwards skip both).
  std::uint64_t context_switches() const { return sum(&Shard::switches); }
  /// Run-queue traffic: live entries pushed / popped across every shard,
  /// stale pops excluded.
  std::uint64_t runq_pushes() const { return sum(&Shard::pushes); }
  std::uint64_t runq_pops() const { return sum(&Shard::pops); }
  /// Fiber-switch backend, fixed at build time: "fcontext" (hand-rolled
  /// assembly switch, sim/fcontext.S) on supported architectures,
  /// "ucontext" under sanitizers or on other architectures.
  static const char* context_backend();

  /// Reschedule the calling fiber at the current time, after every other
  /// fiber already runnable at this time (round-robin fairness point).
  void yield() { delay(0); }

  // --- shards ------------------------------------------------------------

  /// Partition the simulation into `shards` event shards advanced by
  /// `workers` host threads (1 = the sequential reference) under
  /// conservative lookahead `l` (the interconnect's minimum verb latency;
  /// ignored for one shard, whose window is unbounded). Must be called
  /// before any fiber is spawned.
  void enable_sharding(std::uint32_t shards, Time l, std::uint32_t workers);
  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  /// The lookahead bound L (minimum cross-shard latency; kUnbounded for one
  /// shard).
  Time lookahead() const { return lookahead_; }
  static constexpr Time kUnbounded = std::numeric_limits<Time>::max();

  /// Queue a closure to execute on shard `dst` (any `dst` on a one-shard
  /// engine) at virtual time `when`, ordered among same-time effects by
  /// (klass, a, b) and before any fiber wake at the same time. A
  /// cross-shard `when` must be at least one lookahead past the poster's
  /// clock (any ≥-L-latency interaction satisfies this by construction).
  void post_effect(std::uint32_t dst, Time when, std::uint32_t klass,
                   std::uint64_t a, std::uint64_t b, EffectFn&& fn);

  /// Block the calling fiber (without advancing virtual time) until the
  /// record is complete. The fiber's whole shard parks and its worker
  /// revisits it; the effect filling the record executes at the same
  /// virtual time on another shard within the same window, so the wait is
  /// always bounded. No-op when the record is already complete.
  void await(const SimRecord& rec);

  /// Features that need same-time wakeups across host-shared state
  /// (SimEvent-style delegation, shared mailboxes) need every fiber on one
  /// shard: throws std::logic_error naming `why` when there are more.
  void require_serial(const char* why) const;

 private:
  friend class SimThread;
  friend class WaitQueue;
  friend class SimGate;

  static constexpr std::size_t default_stack_size = 256 * 1024;

  struct QueueEntry {
    Time when;
    std::uint64_t seq;
    SimThread* thread;
    std::uint64_t token;
    bool operator>(const QueueEntry& o) const {
      return when != o.when ? when > o.when : seq > o.seq;
    }
  };

  // A shard's run queue: a binary min-heap on (when, seq) that exposes its
  // container, so compaction can drop stale entries in place.
  struct RunQueue
      : std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                            std::greater<>> {
    std::vector<QueueEntry>& entries() { return c; }
  };

  // An effect's place in its shard's queue: the (when, klass, a, b) key
  // plus the slot its body waits in. The heap moves only these keys.
  struct EffectKey {
    Time when;
    std::uint32_t klass;
    std::uint32_t slot;
    std::uint64_t a, b;
    bool operator>(const EffectKey& o) const {
      if (when != o.when) return when > o.when;
      if (klass != o.klass) return klass > o.klass;
      if (a != o.a) return a > o.a;
      return b > o.b;
    }
  };

  // An effect in transit between shards (an outbox entry).
  struct Effect {
    Time when;
    std::uint32_t klass;
    std::uint64_t a, b;
    EffectFn fn;
  };

  struct Shard {
    // Hot scheduling state first: a window visits every busy shard, so
    // what it reads each time sits together.
    Time clock = 0;
    Time next = 0;  // earliest pending event at window start (kUnbounded: none)
    bool touched = true;  // queues changed since `next` was computed
    std::uint64_t next_seq = 0;
    std::size_t dead = 0;  // stale runq entries awaiting compaction
    SimThread* stalled = nullptr;     // fiber parked in await()
    const SimRecord* stall_rec = nullptr;
    std::exception_ptr error;
    // Scheduler diagnostics, single-writer (the shard's worker); summed by
    // the Engine accessors between windows.
    std::uint64_t switches = 0;
    std::uint64_t fast_forwards = 0;
    std::uint64_t pushes = 0;
    std::uint64_t pops = 0;
    RunQueue runq;
    // A shard holds few effects at a time (about one per verb in flight
    // toward it): a binary heap of small keys, one contiguous array. Each
    // body stays in its slot from post until it runs.
    std::priority_queue<EffectKey, std::vector<EffectKey>, std::greater<>>
        effq;
    std::vector<EffectFn> bodies;
    std::vector<std::uint32_t> free_bodies;
    // Effects posted by fibers of this shard during the current window,
    // routed to their destination shards by the main thread at the next
    // window boundary (single-writer during the window, so no lock). Its
    // capacity survives clear(): steady state allocates nothing.
    std::vector<std::pair<std::uint32_t, Effect>> outbox;
    // Default-size stacks of this shard's finished fibers, handed to the
    // next spawn on the shard. Off under ASan (fake-stack bookkeeping
    // assumes fresh stacks).
    std::vector<FiberStack> stack_pool;
    alignas(64) char pad_[64] = {};
  };

  static void fiber_main(unsigned hi, unsigned lo);
  static void fiber_main_fctx(void* from, void* data);
  void make_runnable(SimThread* t, Time when);
  void push_entry(RunQueue& q, std::size_t& dead, QueueEntry e);
  void compact(RunQueue& q, std::size_t& dead);
  void switch_to(SimThread* t);
  void switch_to_scheduler();  // called from inside a fiber
  void reap_finished_one(SimThread* t);
  std::uint64_t sum(std::uint64_t Shard::* field) const {
    std::uint64_t n = 0;
    for (const auto& s : shards_) n += (*s).*field;
    return n;
  }

  void run_window(std::uint32_t worker, Time w1);
  // Execute shard events below w1; returns true when the shard is done for
  // the window (false = stalled on another shard's effect). Sets
  // `progressed` when anything ran.
  bool shard_step(Shard& s, Time w1, bool& progressed);
  void route_outboxes();
  // The shard's earliest live run-queue entry (stale heads are popped on
  // the way), or null.
  const QueueEntry* live_head(Shard& s);
  bool fast_forward(Shard& s, Time when, std::uint64_t seq);
  // Queue an effect on `s` (its own worker, or between windows).
  void push_effect(Shard& s, Effect&& e);
  // Pop and run the shard's earliest effect; false when it threw (the
  // error is parked in the shard).
  bool run_effect(Shard& s);
  void start_pool();
  void stop_pool();
  void worker_loop(std::uint32_t w);

  std::vector<std::unique_ptr<SimThread>> threads_;
  std::uint64_t stacks_reused_ = 0;
  std::uint64_t stacks_mapped_ = 0;
  std::atomic<std::uint64_t> runq_purged_{0};
  Time now_ = 0;  // committed clock between runs
  std::uint64_t next_id_ = 0;
  std::atomic<std::size_t> live_nondaemon_{0};
  bool in_run_ = false;

  std::uint32_t workers_ = 1;
  Time lookahead_ = kUnbounded;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<Time> window_end_{0};
  std::atomic<Time> finish_max_{0};  // latest non-daemon finish time
  bool in_window_ = false;
  std::uint64_t next_gate_id_ = 0;
  // persistent worker pool (workers 1..workers_-1; the main thread acts as
  // worker 0). Spin-then-sleep epoch barrier: windows are microseconds
  // apart, so workers spin briefly before falling back to the condvar.
  std::vector<std::thread> pool_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint32_t> done_count_{0};
  std::atomic<bool> pool_exit_{false};
  std::mutex pool_mu_;
  std::condition_variable pool_cv_;
};

/// A global barrier across shards: arrivers park; the last arriver computes
/// the release time R = max(arrival times) + cost (with several shards the
/// cost is clamped to at least the lookahead L) and posts one wake Effect
/// per waiter, keyed (R, 0, gate id, fiber id) — deterministic regardless
/// of which arrival happens to be last on the host. The timing of a
/// SimBarrier::arrive_and_wait() followed by delay(cost).
class SimGate {
 public:
  SimGate(Engine* eng, std::size_t parties, Time cost);
  void arrive_and_wait();

 private:
  Engine* eng_;
  std::size_t parties_;
  Time cost_;
  std::uint64_t id_;
  std::mutex mu_;
  std::size_t count_ = 0;
  Time tmax_ = 0;
  std::vector<SimThread*> waiters_;
};

/// Free-function shorthands, valid inside a simulated thread.
inline Time now() { return Engine::current()->now(); }
inline void delay(Time ns) { Engine::current()->delay(ns); }
inline void yield() { Engine::current()->yield(); }

}  // namespace argosim
