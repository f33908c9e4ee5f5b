// Deterministic virtual-time execution engine.
//
// The engine cooperatively schedules "simulated threads" (fibers) against
// virtual time. Every fiber lives on one event shard; a shard has its own
// run queue and local clock, and runs one fiber at a time, so simulated
// code needs no real synchronization. Logical concurrency is modeled by the
// interleaving of fibers at explicit scheduling points (delay/yield/wait).
// Within a shard the runnable fiber with the smallest (wake time, insertion
// sequence) pair always runs next, so the same program produces
// bit-identical virtual timings and statistics on every run. A fiber that
// parks makes that choice itself and jumps straight into the next fiber;
// the scheduler context regains control only when a fiber finishes or
// stalls in await(), or the shard has nothing left to run in the current
// window.
//
// The whole simulation runs on one host thread. Shards advance in
// conservative lookahead windows [Tmin, Tmin + L): every shard may execute
// its events with when < Tmin + L on its own, because any cross-shard
// interaction carries at least the interconnect's minimum verb latency L
// and therefore lands in a strictly later window. Cross-shard side effects
// travel as timestamped Effect closures, held in the poster's outbox until
// the window ends and executed on the destination shard in
// (when, klass, a, b) key order, before any fiber wake at the same time.
// The windows are what let a shard fast-forward a fiber, or float an idle
// spinner, past instants when other shards are busy: within a window no
// shard observes another's progress except through Effects (deterministic
// keys) and completion Records (deterministic values).
//
// A default-constructed engine has one shard. With nothing to cross, its
// window is unbounded: it runs as a single run queue and stops the moment
// its last non-daemon fiber finishes. enable_sharding() partitions it
// further (argo::Cluster uses one shard per node). Each shard recycles its
// finished fibers' stacks through its own pool.
//
// This is the substrate that stands in for the paper's physical cluster:
// nodes, cores, NICs and message handlers are all simulated threads whose
// costs are charged through delay().
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/smallfn.hpp"
#include "sim/time.hpp"

namespace argosim {

class Engine;
class SimGate;
class SimThread;
class WaitQueue;

namespace detail {
// The engine and fiber running right now (null outside one).
// Defined here so that Engine::current()/current_thread() inline to one
// TLS load.
inline constinit thread_local Engine* g_engine = nullptr;
inline constinit thread_local SimThread* g_thread = nullptr;
}  // namespace detail

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
  void complete() { done_ = true; }
  bool ready() const { return done_; }
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
    done_ = false;
  }
  static constexpr std::size_t kKeptBytes = 64;

 private:
  std::unique_ptr<std::byte[]> buf_;
  std::size_t cap_ = 0;
  bool done_ = false;
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
  /// must be called between runs.
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
  static Engine* current() { return detail::g_engine; }
  /// The currently executing fiber (nullptr outside the simulation).
  static SimThread* current_thread() { return detail::g_thread; }

  /// Advance the calling fiber's clock by `ns` virtual nanoseconds.
  /// Other runnable fibers execute in the meantime: the caller parks and
  /// jumps straight into its shard's next due fiber (direct handoff, no
  /// stop in the scheduler). When no other fiber is due strictly before
  /// the new wake time, the clock is advanced in place instead (same-fiber
  /// fast-forward): observationally identical, with no run-queue traffic
  /// and no resumption. Bounded by the current lookahead window.
  void delay(Time ns);

  /// Gated wake: delay(ns) followed by one `if (busy) q.wait()`, for a
  /// fiber whose path from the wake to that wait has no side effect. The
  /// sequence number and fast-forward are exactly delay()'s; when the
  /// fiber has to park, its run-queue entry carries the gate, and the pop
  /// that would resume it (next_fiber) checks `busy` instead: set, the
  /// fiber joins `q` unresumed, exactly where its own wait would have put
  /// it (counted in gated_waits(), not in context_switches()). A stopping
  /// fiber is always resumed, to unwind. Callers re-check `busy` on return,
  /// as after any wait.
  void delay_then_wait(Time ns, WaitQueue& q, const bool& busy);

  /// Idle-poll skip, for a fiber that has just read a word nothing but its
  /// own shard can change (one homed on its own node) and will keep
  /// polling it. Each poll is two delay() calls totalling `period` ns (the
  /// poll interval, then the next read). Until the shard's next event (an
  /// effect or another fiber's wake) no other code runs on the shard, so
  /// the word cannot change, and every poll that ends strictly before that
  /// event would be two successful same-fiber fast-forwards rereading the
  /// value just read. Skips up to `cap` such polls (kNoCap: no cap) and
  /// returns how many it skipped, leaving the clock, sequence numbers and
  /// fast-forward count exactly as those polls would:
  ///  - with an event due inside the current window, or a finite `cap`,
  ///    it skips in place up to the event, the window end or the cap;
  ///  - with nothing due inside the window (and no cap) the fiber floats:
  ///    it parks with no run-queue entry, the shard drops out of the
  ///    windows until its next event, and that event's next_fiber() first
  ///    catches the floater up to it in O(1) (catch_up()).
  /// Skips nothing for a stopping fiber, or with nothing else due at all
  /// on a one-shard engine (then nothing could ever end the spin).
  std::uint64_t skip_idle_polls(Time period, std::uint64_t cap);
  static constexpr std::uint64_t kNoCap =
      std::numeric_limits<std::uint64_t>::max();

  /// Host-path diagnostics: delays absorbed by the same-fiber fast-forward,
  /// poll iterations skipped whole, floats (each adds one run-queue push,
  /// the floater's catch-up entry, that polling would not make), and
  /// fiber stacks recycled from the pool.
  std::uint64_t delay_fast_forwards() const {
    return sum(&Shard::fast_forwards);
  }
  std::uint64_t polls_skipped() const { return sum(&Shard::polls_skipped); }
  std::uint64_t poll_floats() const { return sum(&Shard::poll_floats); }
  /// Gated wakes whose gate was closed at the pop: fibers that joined
  /// their wait queue without being resumed. context_switches() +
  /// gated_waits() is the resumption count the same program makes with
  /// plain delay() and its own wait.
  std::uint64_t gated_waits() const { return sum(&Shard::gated_waits); }
  std::uint64_t stacks_reused() const { return stacks_reused_; }
  /// Fiber stacks freshly mapped (spawns the pool could not serve).
  std::uint64_t stacks_mapped() const { return stacks_mapped_; }
  /// Fiber resumptions performed, one per fiber resumed, whether the
  /// scheduler or a parking fiber's direct handoff resumed it (same-fiber
  /// fast-forwards resume nothing). Equals runq_pops() plus the resumptions
  /// of fibers stalled in await().
  std::uint64_t context_switches() const { return sum(&Shard::switches); }
  /// Run-queue traffic: entries pushed (a re-queue replaces the fiber's
  /// entry and counts as a push) / popped across every shard.
  std::uint64_t runq_pushes() const { return sum(&Shard::pushes); }
  std::uint64_t runq_pops() const { return sum(&Shard::pops); }
  /// Entries queued right now across every shard: at most one per fiber.
  std::size_t runq_entries() const {
    std::size_t n = 0;
    for (const auto& s : shards_) n += s->runq.size();
    return n;
  }
  /// Fiber-switch backend, fixed at build time: "fcontext" (hand-rolled
  /// assembly switch, sim/fcontext.S) on supported architectures,
  /// "ucontext" under sanitizers or on other architectures.
  static const char* context_backend();

  /// Reschedule the calling fiber at the current time, after every other
  /// fiber already runnable at this time (round-robin fairness point).
  void yield() { delay(0); }

  // --- shards ------------------------------------------------------------

  /// Partition the simulation into `shards` event shards advanced under
  /// conservative lookahead `l` (the interconnect's minimum verb latency;
  /// ignored for one shard, whose window is unbounded). Must be called
  /// before any fiber is spawned.
  void enable_sharding(std::uint32_t shards, Time l);
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
  /// record is complete. The fiber's whole shard parks and the window loop
  /// revisits it; the effect filling the record executes at the same
  /// virtual time on another shard within the same window, so the wait is
  /// always bounded. No-op when the record is already complete.
  void await(const SimRecord& rec);

  /// Features that need same-time wakeups across shards (SimEvent-style
  /// delegation, shared mailboxes) need every fiber on one shard: throws
  /// std::logic_error naming `why` when there are more.
  void require_serial(const char* why) const;

 private:
  friend class SimThread;
  friend class WaitQueue;
  friend class SimGate;

  static constexpr std::size_t default_stack_size = 256 * 1024;

  // A shard's run queue: a binary min-heap on (when, seq) holding at most
  // one entry per fiber. Each queued fiber keeps its entry's index
  // (SimThread::runq_pos_), so re-queueing a fiber moves its entry and
  // reaping one erases it, both in O(log n); nothing stale is ever left
  // behind. (when, seq) is a total order: seq is unique per shard.
  class RunQueue {
   public:
    struct Entry {
      Time when;
      std::uint64_t seq;
      SimThread* thread;
      bool before(const Entry& o) const {
        return when != o.when ? when < o.when : seq < o.seq;
      }
    };
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};
    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }
    const Entry& top() const { return heap_.front(); }
    // Queue `t` at (when, seq), replacing its entry if it has one.
    void push(SimThread* t, Time when, std::uint64_t seq);
    void pop();
    // Drop `t`'s entry, if any.
    void erase(SimThread* t);

   private:
    // Move the hole at `i` toward the root / the leaves until `e` fits
    // there, then store `e` in it.
    void sift_up(std::size_t i, const Entry& e);
    void sift_down(std::size_t i, const Entry& e);
    void place(std::size_t i, const Entry& e);
    std::vector<Entry> heap_;
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
    // The fiber floating through idle polls (skip_idle_polls), if any: it
    // has no run-queue entry and the shard clock still reads its last
    // poll's read instant. float_period is its poll period.
    SimThread* floater = nullptr;
    Time float_period = 0;
    SimThread* stalled = nullptr;     // fiber parked in await()
    const SimRecord* stall_rec = nullptr;
    std::exception_ptr error;
    // Scheduler diagnostics, summed by the Engine accessors.
    std::uint64_t switches = 0;
    std::uint64_t fast_forwards = 0;
    std::uint64_t polls_skipped = 0;
    std::uint64_t poll_floats = 0;
    std::uint64_t gated_waits = 0;
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
    // Effects posted by fibers of this shard to other shards during the
    // current window, routed to their destinations at the next window
    // boundary. Its capacity survives clear(): steady state allocates
    // nothing.
    std::vector<std::pair<std::uint32_t, Effect>> outbox;
    // Default-size stacks of this shard's finished fibers, handed to the
    // next spawn on the shard. Off under ASan (fake-stack bookkeeping
    // assumes fresh stacks).
    std::vector<FiberStack> stack_pool;
    alignas(64) char pad_[64] = {};

    // Account `m` skipped polls (two fast-forwarded delays each) as if
    // they had run; the caller moves the clock.
    void skip_polls(std::uint64_t m) {
      next_seq += 2 * m;
      fast_forwards += 2 * m;
      polls_skipped += m;
    }
  };

  static void fiber_main();
  static void fiber_main_fctx(void* from, void* data);
  // fcontext: the resumed side of a jump stores the jumper's fresh handle
  // `from` (data = the jumper, null = the scheduler) and returns the jumper.
  static SimThread* resumed_by(void* from, void* data);
  void make_runnable(SimThread* t, Time when);
  // delay() and delay_then_wait(): park until clock + ns behind the gate
  // (q, busy), or with none when q is null.
  void delay_gated(Time ns, WaitQueue* q, const bool* busy);
  // Suspend `self` and resume `next` (null on either side: the scheduler
  // context), passing `self` as the jump's data word; sets
  // g_thread to `next` and counts its resumption. Returns, once something
  // resumes `self`, the context that did.
  SimThread* jump(SimThread* self, SimThread* next);
  // Scheduler side: resume `t`, then reap whichever fiber jumped back if
  // it finished.
  void switch_to(SimThread* t);
  // Fiber side (delay, WaitQueue, SimGate): the caller's wake, if any, is
  // already queued; hand the shard to its next fiber (direct handoff).
  void park();
  void reap_finished_one(SimThread* t);
  std::uint64_t sum(std::uint64_t Shard::* field) const {
    std::uint64_t n = 0;
    for (const auto& s : shards_) n += (*s).*field;
    return n;
  }

  void run_window(Time w1);
  // Execute shard events below w1; returns true when the shard is done for
  // the window (false = stalled on another shard's effect). Sets
  // `progressed` when anything ran.
  bool shard_step(Shard& s, Time w1, bool& progressed);
  // The shard's next event below w1, the one scheduling rule shared by
  // shard_step and park(): runs the effects due first (they precede fiber
  // wakes at the same instant), then pops the next due fiber's entry, sets
  // the clock to its wake and returns it; a popped fiber whose gate is
  // closed joins its wait queue instead. Null when nothing is due below
  // w1, an effect failed, or the one-shard run has no non-daemon fiber
  // left. Sets `progressed` when anything ran.
  SimThread* next_fiber(Shard& s, Time w1, bool& progressed);
  void route_outboxes();
  // The earliest instant anything but the running fiber is due on `s`:
  // the window end, the run-queue head or the effect-queue head. The one
  // definition of "nothing else is due" behind fast_forward and the
  // idle-poll skip.
  Time horizon(Shard& s);
  // Queue the shard's floater at the end of its last poll that ends
  // strictly before `h` (the shard's next event), accounting the polls
  // it skipped as skip_idle_polls would have in place.
  void catch_up(Shard& s, Time h);
  bool fast_forward(Shard& s, Time when, std::uint64_t seq);
  // Queue an effect on `s` (from its own shard, or between windows).
  void push_effect(Shard& s, Effect&& e);
  // Pop and run the shard's earliest effect; false when it threw (the
  // error is parked in the shard).
  bool run_effect(Shard& s);

  std::vector<std::unique_ptr<SimThread>> threads_;
  std::uint64_t stacks_reused_ = 0;
  std::uint64_t stacks_mapped_ = 0;
  Time now_ = 0;  // committed clock between runs
  std::uint64_t next_id_ = 0;
  std::size_t live_nondaemon_ = 0;
  bool in_run_ = false;

  Time lookahead_ = kUnbounded;
  std::vector<std::unique_ptr<Shard>> shards_;
  Time window_end_ = 0;
  Time finish_max_ = 0;  // latest non-daemon finish time
  bool in_window_ = false;
  std::uint64_t next_gate_id_ = 0;
};

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

  // Scheduling state first: a resumption and a park read these together.
  // The suspended fcontext (fcontext backend; unused on ucontext), so the
  // scheduler's prefetch of the saved frame is one load off the entry.
  void* fctx_ = nullptr;
  Engine::Shard* home_ = nullptr;  // shards_[shard_]
  std::uint32_t shard_ = 0;
  // Index of this fiber's run-queue entry (RunQueue::kNone: not queued).
  std::uint32_t runq_pos_ = Engine::RunQueue::kNone;
  bool daemon_ = false;
  bool finished_ = false;
  bool blocked_ = false;   // parked on a WaitQueue or SimGate
  bool stop_requested_ = false;
  // Gate of the queued entry (delay_then_wait), cleared at its pop.
  WaitQueue* gate_q_ = nullptr;
  const bool* gate_busy_ = nullptr;
  Engine* engine_;
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::uint64_t id_;
  std::string name_;
  std::function<void()> body_;
  SimRecord op_record_;
};

/// A global barrier across shards: arrivers park; the last arriver computes
/// the release time R = max(arrival times) + cost (with several shards the
/// cost is clamped to at least the lookahead L) and posts one wake Effect
/// per waiter, keyed (R, 0, gate id, fiber id) — deterministic regardless
/// of which shard's arrival the window loop happens to run last. The
/// timing of a SimBarrier::arrive_and_wait() followed by delay(cost).
class SimGate {
 public:
  SimGate(Engine* eng, std::size_t parties, Time cost);
  void arrive_and_wait();

 private:
  Engine* eng_;
  std::size_t parties_;
  Time cost_;
  std::uint64_t id_;
  std::size_t count_ = 0;
  Time tmax_ = 0;
  std::vector<SimThread*> waiters_;
};

/// Free-function shorthands, valid inside a simulated thread.
inline Time now() { return Engine::current()->now(); }
inline void delay(Time ns) { Engine::current()->delay(ns); }
inline void yield() { Engine::current()->yield(); }

}  // namespace argosim
