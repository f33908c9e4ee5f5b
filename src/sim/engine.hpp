// Deterministic virtual-time execution engine.
//
// The engine cooperatively schedules "simulated threads" (fibers) against a
// single virtual clock. Exactly one fiber runs at any moment, so simulated
// code needs no real synchronization; logical concurrency is modeled by the
// interleaving of fibers at explicit scheduling points (delay/yield/wait).
// Scheduling is fully deterministic: the runnable fiber with the smallest
// (wake time, insertion sequence) pair always runs next, so the same program
// produces bit-identical virtual timings and statistics on every run.
//
// This is the substrate that stands in for the paper's physical cluster:
// nodes, cores, NICs and message handlers are all simulated threads whose
// costs are charged through delay().
//
// Sharded mode (enable_sharding) partitions the simulation into per-node
// event shards, each with its own run queue and local clock, advanced in
// conservative lookahead windows [Tmin, Tmin + L): every shard may execute
// its events with when < Tmin + L independently, because any cross-shard
// interaction carries at least the interconnect's minimum verb latency L
// and therefore lands in a strictly later window. Cross-shard side effects
// travel as timestamped Effect closures executed on the destination shard
// in (when, klass, a, b) key order, before any fiber wake at the same time.
// With one worker this is the sequential reference (ARGO_SEQ_ENGINE=1);
// with N workers the same per-shard schedules run concurrently and remain
// bit-identical because no shard ever observes another shard's intra-window
// progress except through Effects (deterministic keys) and completion
// Records (deterministic values).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/calqueue.hpp"
#include "sim/smallfn.hpp"
#include "sim/smallvec.hpp"
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

///// Completion record for a cross-shard operation: the destination shard
/// fills value/bytes and calls complete(); the source fiber await()s it.
/// Held by shared_ptr on both sides so a killed fiber can never leave a
/// dangling reference.
struct SimRecord {
  std::uint64_t value = 0;
  std::vector<std::byte> bytes;
  void complete() { done_.store(true, std::memory_order_release); }
  bool ready() const { return done_.load(std::memory_order_acquire); }
  /// Return the record to its freshly-constructed state (`bytes` keeps its
  /// capacity). Only for pool reuse of a record nobody references anymore.
  void reset() {
    value = 0;
    bytes.clear();
    done_.store(false, std::memory_order_relaxed);
  }

 private:
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
/// engine and interconnect post (the largest is a posted verb's remote
/// apply — itself a SmallFn — plus its completion record).
using EffectFn = SmallFn<void(), 96>;

/// A simulated thread. Created via Engine::spawn(); users interact with it
/// through the engine's static current()/delay()/now() interface and the
/// primitives in sim/sync.hpp.
class SimThread {
 public:
  const std::string& name() const { return name_; }
  std::uint64_t id() const { return id_; }
  bool daemon() const { return daemon_; }
  bool finished() const { return finished_; }
  /// Shard this fiber is pinned to (0 in the legacy engine).
  std::uint32_t shard() const { return shard_; }
  /// True once Engine::kill() (or shutdown) marked this fiber: it will
  /// unwind at its next scheduling point and can no longer make progress.
  bool stop_requested() const { return stop_requested_; }
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

  /// Sharded mode: spawn a fiber pinned to the given shard. Must be called
  /// from outside the simulation (between runs); a fiber's whole life runs
  /// on one host worker, which is what makes ucontext/TLS state safe.
  SimThread* spawn_on(std::uint32_t shard, std::string name,
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

  /// Current virtual time: the executing shard's local clock in sharded
  /// mode, the global clock otherwise.
  Time now() const;

  /// Number of fibers that have ever been spawned / that are still live.
  std::size_t spawned_count() const { return spawned_; }
  std::size_t live_count() const {
    return live_nondaemon_.load(std::memory_order_relaxed) +
           live_daemon_.load(std::memory_order_relaxed);
  }

  /// The engine owning the currently executing fiber (nullptr outside one).
  static Engine* current();
  /// The currently executing fiber (nullptr outside the simulation).
  static SimThread* current_thread();
  /// Shard index of the executing context (fiber or effect); only
  /// meaningful in sharded mode.
  static std::uint32_t current_shard();

  /// Advance the calling fiber's clock by `ns` virtual nanoseconds.
  /// Other runnable fibers execute in the meantime. When no other fiber is
  /// due strictly before the new wake time, the clock is advanced in place
  /// (same-fiber fast-forward) instead of round-tripping through the
  /// scheduler — observationally identical, but skips two swapcontext
  /// calls (each carrying a sigprocmask syscall). Disabled by
  /// ARGO_SLOW_PATHS (sim/slowpath.hpp). In sharded mode the fast-forward
  /// is additionally bounded by the current lookahead window.
  void delay(Time ns);

  /// Host-path diagnostics: delays absorbed by the same-fiber fast-forward
  /// and fiber stacks recycled from the pool (both 0 under ARGO_SLOW_PATHS).
  std::uint64_t delay_fast_forwards() const {
    return fast_forwards_.load(std::memory_order_relaxed);
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
  std::uint64_t context_switches() const {
    std::uint64_t n = switches_;
    for (const auto& s : shards_) n += s->switches;
    return n;
  }
  /// Run-queue traffic: live entries pushed / popped across every queue
  /// (legacy plus per-shard), stale pops excluded.
  std::uint64_t runq_pushes() const {
    std::uint64_t n = runq_pushes_;
    for (const auto& s : shards_) n += s->pushes;
    return n;
  }
  std::uint64_t runq_pops() const {
    std::uint64_t n = runq_pops_;
    for (const auto& s : shards_) n += s->pops;
    return n;
  }
  /// Calendar-queue bucket-array rebuilds, summed over every queue
  /// (0 on the heap reference path).
  std::uint64_t calendar_resizes() const {
    std::uint64_t n = runq_.resizes();
    for (const auto& s : shards_) n += s->runq.resizes() + s->effq.resizes();
    return n;
  }
  /// Fiber-switch backend the engine would use for the next fiber started:
  /// "fcontext" (hand-rolled assembly switch, sim/fcontext.S) on supported
  /// architectures under the fast paths, "ucontext" under sanitizers,
  /// ARGO_SLOW_PATHS, or unsupported architectures.
  static const char* context_backend();

  /// Reschedule the calling fiber at the current time, after every other
  /// fiber already runnable at this time (round-robin fairness point).
  void yield() { delay(0); }

  // --- sharded mode ------------------------------------------------------

  /// Partition the simulation into `shards` per-node event shards advanced
  /// by `workers` host threads (1 = the sequential reference) under
  /// conservative lookahead `l` (the interconnect's minimum verb latency).
  /// Must be called before any fiber is spawned.
  void enable_sharding(std::uint32_t shards, Time l, std::uint32_t workers);
  bool sharded() const { return sharded_; }
  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  std::uint32_t worker_count() const { return workers_; }
  /// The lookahead bound L (minimum cross-shard latency).
  Time lookahead() const { return lookahead_; }

  /// Queue a closure to execute on shard `dst` at virtual time `when`,
  /// ordered among same-time effects by (klass, a, b) and before any fiber
  /// wake at the same time. `when` must be at least one lookahead past the
  /// current window start (any ≥-L-latency cross-shard interaction
  /// satisfies this by construction).
  void post_effect(std::uint32_t dst, Time when, std::uint32_t klass,
                   std::uint64_t a, std::uint64_t b, EffectFn fn);

  /// Block the calling fiber (without advancing virtual time) until the
  /// record is complete. In sharded mode the fiber's whole shard parks and
  /// its worker revisits it; the effect filling the record executes at the
  /// same virtual time on another shard within the same window, so the wait
  /// is always bounded. No-op when the record is already complete.
  void await(const std::shared_ptr<SimRecord>& rec);

  /// Features that need same-time cross-shard wakeups (SimEvent-style
  /// delegation, membership monitors) cannot run on the sharded engine:
  /// throws std::logic_error naming `why` when sharding is enabled.
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

  struct Effect {
    Time when;
    std::uint32_t klass;
    std::uint64_t a, b;
    EffectFn fn;
    bool operator>(const Effect& o) const {
      if (when != o.when) return when > o.when;
      if (klass != o.klass) return klass > o.klass;
      if (a != o.a) return a > o.a;
      return b > o.b;
    }
  };

  struct Shard {
    EventQueue<QueueEntry> runq;
    EventQueue<Effect> effq;
    // Effects posted by fibers of this shard during the current window,
    // routed to their destination shards by the main thread at the next
    // window boundary (single-writer during the window, so no lock).
    // Inline storage: a window rarely accumulates more than a few.
    SmallVec<std::pair<std::uint32_t, Effect>, 8> outbox;
    Time clock = 0;
    std::uint64_t next_seq = 0;
    std::size_t dead = 0;  // stale runq entries awaiting compaction
    // Scheduler diagnostics, single-writer (the shard's worker); summed by
    // the Engine accessors between windows.
    std::uint64_t switches = 0;
    std::uint64_t pushes = 0;
    std::uint64_t pops = 0;
    SimThread* stalled = nullptr;     // fiber parked in await()
    const SimRecord* stall_rec = nullptr;
    std::exception_ptr error;
    alignas(64) char pad_[64] = {};
  };

  static void fiber_main(unsigned hi, unsigned lo);
  static void fiber_main_fctx(void* from, void* data);
  void make_runnable(SimThread* t, Time when);
  void push_entry(EventQueue<QueueEntry>& q, std::size_t& dead, QueueEntry e);
  void compact(EventQueue<QueueEntry>& q, std::size_t& dead);
  void switch_to(SimThread* t);
  void switch_to_scheduler();  // called from inside a fiber
  void reap_finished_one(SimThread* t);

  // sharded internals
  void run_sharded();
  void run_window(std::uint32_t worker, Time w1);
  // Execute shard events below w1; returns true when the shard is done for
  // the window (false = stalled on another shard's effect). Sets
  // `progressed` when anything ran.
  bool shard_step(Shard& s, Time w1, bool& progressed);
  void route_outboxes();
  bool next_event_time(Shard& s, Time& t);  // pops stale heads
  void start_pool();
  void stop_pool();
  void worker_loop(std::uint32_t w);

  EventQueue<QueueEntry> runq_;
  std::size_t runq_dead_ = 0;
  std::vector<std::unique_ptr<SimThread>> threads_;
  // Recycled default-size fiber stacks: a finished fiber's stack is reused
  // by the next spawn instead of being unmapped and mapped again. Disabled
  // under ASan (fake-stack bookkeeping assumes fresh stacks) and
  // ARGO_SLOW_PATHS.
  std::vector<FiberStack> stack_pool_;
  std::atomic<std::uint64_t> fast_forwards_{0};
  std::uint64_t stacks_reused_ = 0;
  std::uint64_t stacks_mapped_ = 0;
  std::atomic<std::uint64_t> runq_purged_{0};
  std::uint64_t switches_ = 0;     // legacy-engine context switches
  std::uint64_t runq_pushes_ = 0;  // legacy-engine live pushes/pops
  std::uint64_t runq_pops_ = 0;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_id_ = 0;
  std::size_t spawned_ = 0;
  std::atomic<std::size_t> live_nondaemon_{0};
  std::atomic<std::size_t> live_daemon_{0};
  SimThread* running_ = nullptr;
  bool in_run_ = false;

  // sharded state
  bool sharded_ = false;
  std::uint32_t workers_ = 1;
  Time lookahead_ = 0;
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

/// A global barrier for the sharded engine: arrivers park; the last arriver
/// computes the release time R = max(arrival times) + cost (cost is clamped
/// to at least the lookahead L) and posts one wake Effect per waiter, keyed
/// (R, 0, gate id, fiber id) — deterministic regardless of which arrival
/// happens to be last on the host. Mirrors the legacy
/// SimBarrier::arrive_and_wait() + delay(cost) rendezvous timing.
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
