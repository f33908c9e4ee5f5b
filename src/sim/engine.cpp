#include "sim/engine.hpp"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <exception>
#include <limits>
#include <new>
#include <sstream>
#include <utility>

// AddressSanitizer needs to be told about stack switches, otherwise its
// stack bookkeeping (fake stacks, use-after-return detection) corrupts as
// fibers swap. Each swapcontext call site is bracketed with the
// start/finish pair; the annotations compile away in normal builds.
#if defined(__SANITIZE_ADDRESS__)
#define ARGO_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ARGO_ASAN_FIBERS 1
#endif
#endif
#if defined(ARGO_ASAN_FIBERS)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

#include "sim/fcontext.hpp"
#include "sim/sync.hpp"

// The hand-rolled assembly switch (sim/fcontext.S) is the fast path on
// supported architectures. ASan builds keep ucontext: ASan tracks fiber
// stacks through the annotations bracketing swapcontext, and does not
// understand a stack pointer that moves without them.
#if defined(ARGO_FCONTEXT_SUPPORTED) && !defined(ARGO_ASAN_FIBERS)
#define ARGO_USE_FCONTEXT 1
#endif

namespace argosim {

namespace {

using detail::g_engine;
using detail::g_thread;

constexpr std::uint32_t kNoShard = 0xffffffffu;
thread_local std::uint32_t g_shard_idx = kNoShard;

// The context the scheduler loop runs in.
#if defined(ARGO_USE_FCONTEXT)
// fcontext handles are one-shot (every jump re-captures the jumper): the
// resumed side stores the jumper's fresh handle here when the scheduler
// jumped, or in the jumping fiber's fctx_ otherwise.
thread_local fctx_t g_sched_fctx = nullptr;
#else
thread_local ucontext_t g_sched_ctx;
// swapcontext carries no data word, so the jumper (null = the scheduler)
// travels through this slot: written just before a switch, read just
// after resumption, on the same host thread.
thread_local SimThread* g_jumper = nullptr;
#endif

#if defined(ARGO_ASAN_FIBERS)
// Bounds of the scheduler's (OS thread's) stack, learned from ASan
// whenever the scheduler resumes a fiber; needed to annotate fiber ->
// scheduler switches.
thread_local const void* g_sched_stack_bottom = nullptr;
thread_local std::size_t g_sched_stack_size = 0;
#endif

#if !defined(ARGO_USE_FCONTEXT)
// The resumed side of a swapcontext: returns the jumper (null = the
// scheduler) and finishes the ASan switch into `self` (null = the
// scheduler). ASan reports the stack we came from; it is the scheduler's
// only when the scheduler jumped.
SimThread* finish_switch(SimThread* self, void* fake_stack) {
  SimThread* jumper = g_jumper;
#if defined(ARGO_ASAN_FIBERS)
  const void* bottom = nullptr;
  std::size_t size = 0;
  __sanitizer_finish_switch_fiber(fake_stack, &bottom, &size);
  if (self != nullptr && jumper == nullptr) {
    g_sched_stack_bottom = bottom;
    g_sched_stack_size = size;
  }
#else
  (void)self;
  (void)fake_stack;
#endif
  return jumper;
}
#endif

std::size_t page_size() {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

}  // namespace

FiberStack::FiberStack(std::size_t size) {
  const std::size_t page = page_size();
  size = (size + page - 1) / page * page;
  void* map = mmap(nullptr, size + page, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  if (map == MAP_FAILED) throw std::bad_alloc();
  if (mprotect(map, page, PROT_NONE) != 0) {
    munmap(map, size + page);
    throw std::bad_alloc();
  }
  base_ = static_cast<char*>(map) + page;
  size_ = size;
}

FiberStack& FiberStack::operator=(FiberStack&& o) noexcept {
  if (this != &o) {
    unmap();
    base_ = std::exchange(o.base_, nullptr);
    size_ = std::exchange(o.size_, 0);
  }
  return *this;
}

void FiberStack::unmap() {
  if (base_ == nullptr) return;
#if defined(ARGO_ASAN_FIBERS)
  // Frames of a fiber that exited by switching away never unwound: clear
  // their redzone poisoning before the range can be mapped again.
  ASAN_UNPOISON_MEMORY_REGION(base_, size_);
#endif
  const std::size_t page = page_size();
  munmap(static_cast<char*>(base_) - page, size_ + page);
  base_ = nullptr;
  size_ = 0;
}

struct SimThread::Impl {
#if !defined(ARGO_USE_FCONTEXT)
  ucontext_t ctx{};
#endif
  FiberStack stack;
  bool started = false;
  std::exception_ptr error;
};

SimThread::SimThread(Engine* eng, std::uint64_t id, std::string name,
                     std::function<void()> body, FiberStack stack, bool daemon)
    : daemon_(daemon),
      engine_(eng),
      impl_(std::make_unique<Impl>()),
      id_(id),
      name_(std::move(name)),
      body_(std::move(body)) {
  impl_->stack = std::move(stack);
}

SimThread::~SimThread() = default;

const FiberStack& SimThread::stack() const { return impl_->stack; }

Engine::Engine() { shards_.push_back(std::make_unique<Shard>()); }

Engine::~Engine() { shutdown(); }

Time Engine::now() const {
  if (g_engine == this && g_shard_idx != kNoShard)
    return shards_[g_shard_idx]->clock;
  return now_;
}

void Engine::enable_sharding(std::uint32_t shards, Time l) {
  assert(threads_.empty() && "enable_sharding must precede any spawn");
  assert(shards > 0);
  lookahead_ = shards == 1 ? kUnbounded : std::max<Time>(l, 1);
  shards_.clear();
  for (std::uint32_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->clock = now_;
  }
}

void Engine::require_serial(const char* why) const {
  if (shards_.size() == 1) return;
  throw std::logic_error(std::string("argosim: ") + why +
                         " needs same-time cross-shard wakeups and cannot "
                         "run on an engine with more than one shard");
}

void Engine::shutdown() {
  // Unwind any fibers that are still alive (typically daemon message
  // handlers) so their stacks and captures are destroyed properly.
  for (auto& t : threads_) {
    if (!t->finished_) {
      t->stop_requested_ = true;
      Shard& s = *t->home_;
      if (t->blocked_ || s.floater == t.get()) {
        t->blocked_ = false;
        if (s.floater == t.get()) s.floater = nullptr;
        make_runnable(t.get(), s.clock);
      }
    }
  }
  window_end_ = kUnbounded;
  route_outboxes();
  // Drain every shard, multiple passes until no progress (a shard can
  // stall on an effect a later shard still holds).
  bool progressed = true;
  bool pending = true;
  while (pending && progressed) {
    pending = false;
    progressed = false;
    for (std::uint32_t i = 0; i < shards_.size(); ++i) {
      g_shard_idx = i;
      if (!shard_step(*shards_[i], kUnbounded, progressed)) pending = true;
      shards_[i]->error = nullptr;  // errors during shutdown are dropped
    }
    g_shard_idx = kNoShard;
    route_outboxes();
  }
}

SimThread* Engine::spawn(std::string name, std::function<void()> body,
                         bool daemon, std::size_t stack_size) {
  std::uint32_t shard = 0;
  if (g_thread != nullptr && g_thread->engine_ == this)
    shard = g_thread->shard_;  // inherit the spawner's shard
  return spawn_on(shard, std::move(name), std::move(body), daemon,
                  stack_size);
}

SimThread* Engine::spawn_on(std::uint32_t unit, std::string name,
                            std::function<void()> body, bool daemon,
                            std::size_t stack_size) {
  if (shards_.size() > 1 && in_window_)
    throw std::logic_error(
        "argosim: spawn during a window of a sharded engine is not "
        "supported; spawn between runs instead");
  const std::uint32_t shard = shards_.size() == 1 ? 0 : unit;
  assert(shard < shards_.size());
  Shard& s = *shards_[shard];
  FiberStack stack;
#if !defined(ARGO_ASAN_FIBERS)
  // Recycle a finished fiber's stack rather than unmapping and mapping
  // one per spawn. Only default-size stacks are pooled (odd sizes are rare
  // enough not to matter). ASan builds always allocate fresh: its shadow
  // poisoning from a dead fiber's frames may outlive the fiber.
  if (stack_size == default_stack_size && !s.stack_pool.empty()) {
    stack = std::move(s.stack_pool.back());
    s.stack_pool.pop_back();
    ++stacks_reused_;
  }
#endif
  if (!stack) {
    stack = FiberStack(stack_size);
    ++stacks_mapped_;
  }
  auto t = std::unique_ptr<SimThread>(
      new SimThread(this, next_id_++, std::move(name), std::move(body),
                    std::move(stack), daemon));
  SimThread* raw = t.get();
  raw->shard_ = shard;
  raw->home_ = &s;
  threads_.push_back(std::move(t));
  if (!daemon) ++live_nondaemon_;
  // Between runs a shard's clock may sit ahead of the committed clock
  // (daemon events inside the final lookahead window); keep per-shard time
  // monotone by spawning no earlier than the shard clock.
  make_runnable(raw, std::max(now_, s.clock));
  return raw;
}

// --- run queue --------------------------------------------------------------

void Engine::RunQueue::place(std::size_t i, const Entry& e) {
  heap_[i] = e;
  e.thread->runq_pos_ = static_cast<std::uint32_t>(i);
}

void Engine::RunQueue::sift_up(std::size_t i, const Entry& e) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!e.before(heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, e);
}

void Engine::RunQueue::sift_down(std::size_t i, const Entry& e) {
  const std::size_t n = heap_.size();
  for (std::size_t c = 2 * i + 1; c < n; c = 2 * i + 1) {
    if (c + 1 < n && heap_[c + 1].before(heap_[c])) ++c;
    if (!heap_[c].before(e)) break;
    place(i, heap_[c]);
    i = c;
  }
  place(i, e);
}

void Engine::RunQueue::push(SimThread* t, Time when, std::uint64_t seq) {
  const Entry e{when, seq, t};
  const std::size_t i = t->runq_pos_;
  if (i == kNone) {
    heap_.emplace_back();
    sift_up(heap_.size() - 1, e);
  } else if (e.before(heap_[i])) {
    sift_up(i, e);
  } else {
    sift_down(i, e);
  }
}

void Engine::RunQueue::pop() {
  heap_.front().thread->runq_pos_ = kNone;
  const Entry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, last);
}

void Engine::RunQueue::erase(SimThread* t) {
  const std::size_t i = t->runq_pos_;
  if (i == kNone) return;
  t->runq_pos_ = kNone;
  const Entry last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;  // it was the last entry
  if (i > 0 && last.before(heap_[(i - 1) / 2]))
    sift_up(i, last);
  else
    sift_down(i, last);
}

void Engine::make_runnable(SimThread* t, Time when) {
  assert(!t->finished_);
  if (in_window_ && g_shard_idx != t->shard_)
    throw std::logic_error(
        "argosim: same-time cross-shard wakeup of fiber '" + t->name_ +
        "' is not supported under conservative lookahead; route it through "
        "the interconnect or keep both fibers on one shard");
  Shard& s = *t->home_;
  ++s.pushes;
  s.touched = true;
  // Replaces any entry already queued for this thread (e.g. the timeout
  // entry of a timed wait that got notified first).
  s.runq.push(t, when, s.next_seq++);
}

#if defined(ARGO_USE_FCONTEXT)
// The first jump into a made context lands here.
void Engine::fiber_main_fctx(void* from, void* data) {
  resumed_by(from, data);
  fiber_main();
}

SimThread* Engine::resumed_by(void* from, void* data) {
  auto* jumper = static_cast<SimThread*>(data);
  (jumper != nullptr ? jumper->fctx_ : g_sched_fctx) = from;
  return jumper;
}
#endif

// A fiber's base frame, on both backends. Whoever resumed the fiber set
// g_thread to it. It exits by jumping to the scheduler for good, which
// reaps its stack off-stack.
void Engine::fiber_main() {
  SimThread* t = g_thread;
#if !defined(ARGO_USE_FCONTEXT)
  finish_switch(t, nullptr);
#endif
  try {
    if (t->stop_requested_) throw SimStopped{};
    t->body_();
  } catch (const SimStopped&) {
    // clean shutdown of a parked fiber
  } catch (...) {
    t->impl_->error = std::current_exception();
  }
  t->finished_ = true;
  t->body_ = nullptr;
  t->engine_->jump(t, nullptr);
}

const char* Engine::context_backend() {
#if defined(ARGO_USE_FCONTEXT)
  return "fcontext";
#else
  return "ucontext";
#endif
}

SimThread* Engine::jump(SimThread* self, SimThread* next) {
  if (next != nullptr) {
    g_thread = next;
    ++next->home_->switches;
    SimThread::Impl& n = *next->impl_;
    if (!n.started) {
      n.started = true;
#if defined(ARGO_USE_FCONTEXT)
      // Stack colouring: every stack is a separate mapping, so without an
      // offset all fibers' hot top frames share one address mod 4 KiB and
      // pile into the same few L1d/L2 sets. Shift each fiber's top down by
      // one of 64 cache-line offsets within a page.
      next->fctx_ = argo_fctx_make(
          n.stack.base(), n.stack.size() - (next->id_ * 7 % 64) * 64,
          &Engine::fiber_main_fctx);
#else
      getcontext(&n.ctx);
      n.ctx.uc_stack.ss_sp = n.stack.base();
      n.ctx.uc_stack.ss_size = n.stack.size();
      n.ctx.uc_link = &g_sched_ctx;
      makecontext(&n.ctx, &Engine::fiber_main, 0);
#endif
    }
  }
  [[maybe_unused]] void* fake_stack = nullptr;
#if defined(ARGO_ASAN_FIBERS)
  // A finished fiber never resumes: the null fake-stack slot releases its
  // fake stack.
  __sanitizer_start_switch_fiber(
      self != nullptr && self->finished_ ? nullptr : &fake_stack,
      next != nullptr ? next->impl_->stack.base() : g_sched_stack_bottom,
      next != nullptr ? next->impl_->stack.size() : g_sched_stack_size);
#endif
#if defined(ARGO_USE_FCONTEXT)
  const FctxTransfer r =
      argo_fctx_jump(next != nullptr ? next->fctx_ : g_sched_fctx, self);
  return resumed_by(r.fctx, r.data);
#else
  g_jumper = self;
  swapcontext(self != nullptr ? &self->impl_->ctx : &g_sched_ctx,
              next != nullptr ? &next->impl_->ctx : &g_sched_ctx);
  return finish_switch(self, fake_stack);
#endif
}

void Engine::switch_to(SimThread* t) {
  Engine* prev_engine = g_engine;
  SimThread* prev_thread = g_thread;
  g_engine = this;
  // Control comes back from whichever fiber of the shard ends the handoff
  // chain `t` starts, not necessarily from `t`.
  SimThread* back = jump(nullptr, t);
  g_engine = prev_engine;
  g_thread = prev_thread;
  if (back->finished_) reap_finished_one(back);
}

void Engine::reap_finished_one(SimThread* t) {
  Shard& s = *t->home_;
  // A fiber killed while parked in await() finishes with its wake entry
  // still queued.
  s.runq.erase(t);
#if !defined(ARGO_ASAN_FIBERS)
  // The fiber has jumped to the scheduler for good — its stack is dead
  // and can serve the next spawn on this shard.
  if (t->impl_->stack.size() == default_stack_size)
    s.stack_pool.push_back(std::move(t->impl_->stack));
#endif
  if (!t->daemon_) {
    --live_nondaemon_;
    finish_max_ = std::max(finish_max_, s.clock);
  }
  if (t->impl_->error) {
    std::exception_ptr err = t->impl_->error;
    t->impl_->error = nullptr;
    std::rethrow_exception(err);
  }
}

// Direct handoff: the parking fiber makes the shard's next-event decision
// itself, on its own stack, with no current thread while effects run, and
// leaves the scheduler exactly the state its own decisions would have.
void Engine::park() {
  SimThread* self = g_thread;
  assert(self && "must be called from inside a simulated thread");
  Shard& s = *self->home_;
  g_thread = nullptr;
  bool progressed = false;
  SimThread* next = next_fiber(s, window_end_, progressed);
  if (next == self) {  // our own wake came first: resume in place
    g_thread = self;
    ++s.switches;
  } else {
    jump(self, next);
  }
  if (self->stop_requested_) throw SimStopped{};
}

void Engine::delay(Time ns) { delay_gated(ns, nullptr, nullptr); }

void Engine::delay_then_wait(Time ns, WaitQueue& q, const bool& busy) {
  delay_gated(ns, &q, &busy);
}

void Engine::delay_gated(Time ns, WaitQueue* q, const bool* busy) {
  SimThread* self = g_thread;
  assert(self && "delay() outside a simulated thread");
  Shard& s = *self->home_;
  const Time when = s.clock + ns;
  // Our run-queue entry is (when, seq); the seq is taken now, exactly as
  // the scheduler path would take it, so the fast path below cannot
  // reorder anything. A fast-forward never consults the gate: the caller
  // checks `busy` itself, at the same instant the pop would have.
  const std::uint64_t seq = s.next_seq++;
  // A stopping fiber must reach park() to unwind (SimStopped).
  if (!self->stop_requested_ && fast_forward(s, when, seq)) return;
  ++s.pushes;
  self->gate_q_ = q;
  self->gate_busy_ = busy;
  s.runq.push(self, when, seq);
  park();
}

// Same-fiber fast-forward. When no other fiber's entry precedes our own
// (when, seq), park() would run the effects due at or before `when` and
// then pop our own entry and resume us in place. Run those effects here
// instead (on this fiber's stack, with no current thread, as park() would),
// then advance the clock in place and keep running, skipping the run-queue
// push and pop and the resumption park() would count. A running fiber has
// no live run-queue entry, so skipping the push/pop leaves no state
// behind. Fails when another fiber's entry comes first (possibly one an
// effect run here just woke) or the window ends before `when`.
bool Engine::fast_forward(Shard& s, Time when, std::uint64_t seq) {
  while (when >= horizon(s)) {
    if (when >= window_end_) return false;
    if (!s.runq.empty() && s.runq.top().before({when, seq, nullptr}))
      return false;
    if (s.effq.empty() || s.effq.top().when > when) break;
    SimThread* self = g_thread;
    g_thread = nullptr;
    const bool ok = run_effect(s);
    g_thread = self;
    if (!ok) return false;
  }
  s.clock = when;
  ++s.fast_forwards;
  return true;
}

Time Engine::horizon(Shard& s) {
  Time h = window_end_;
  if (!s.runq.empty()) h = std::min(h, s.runq.top().when);
  if (!s.effq.empty()) h = std::min(h, s.effq.top().when);
  return h;
}

namespace {
// Whole polls of `period` ns, from `from`, that end strictly before `h`:
// poll k (from 0) ends at from + (k + 1) * period.
std::uint64_t polls_before(Time from, Time h, Time period) {
  return h > from ? (h - 1 - from) / period : 0;
}
}  // namespace

std::uint64_t Engine::skip_idle_polls(Time period, std::uint64_t cap) {
  SimThread* self = g_thread;
  assert(self && "skip_idle_polls() outside a simulated thread");
  if (self->stop_requested_ || period == 0 || cap == 0) return 0;
  Shard& s = *self->home_;
  const Time w1 = window_end_;
  const Time h = horizon(s);
  if (h == kUnbounded) return 0;
  const Time from = s.clock;
  if (h < w1 || cap != kNoCap) {
    const std::uint64_t m = std::min(cap, polls_before(from, h, period));
    s.clock += m * period;
    s.skip_polls(m);
    return m;
  }
  // Nothing is due inside the window: float until the shard's next event.
  s.floater = self;
  s.float_period = period;
  park();
  return (s.clock - from) / period;
}

void Engine::catch_up(Shard& s, Time h) {
  SimThread* t = std::exchange(s.floater, nullptr);
  const Time period = s.float_period;
  const std::uint64_t m = polls_before(s.clock, h, period);
  s.skip_polls(m);
  ++s.poll_floats;
  ++s.pushes;
  s.runq.push(t, s.clock + m * period, s.next_seq++);
}

void Engine::push_effect(Shard& s, Effect&& e) {
  std::uint32_t slot;
  if (!s.free_bodies.empty()) {
    slot = s.free_bodies.back();
    s.free_bodies.pop_back();
    s.bodies[slot] = std::move(e.fn);
  } else {
    slot = static_cast<std::uint32_t>(s.bodies.size());
    s.bodies.push_back(std::move(e.fn));
  }
  s.effq.push(EffectKey{e.when, e.klass, slot, e.a, e.b});
  s.touched = true;
}

bool Engine::run_effect(Shard& s) {
  const EffectKey k = s.effq.top();
  s.effq.pop();
  // Out of the slot before running: the body may post to this shard.
  EffectFn fn = std::move(s.bodies[k.slot]);
  s.free_bodies.push_back(k.slot);
  s.clock = k.when;
  Engine* prev = g_engine;
  g_engine = this;
  try {
    fn();
  } catch (...) {
    if (!s.error) s.error = std::current_exception();
  }
  g_engine = prev;
  return s.error == nullptr;
}

void Engine::kill(SimThread* t) {
  if (t == nullptr || t->finished_) return;
  assert(t != g_thread && "a fiber must not kill itself");
  t->stop_requested_ = true;
  // Wake it immediately wherever it is parked (WaitQueue, timed wait, a
  // future run-queue entry, which the wake replaces, or a float): park()
  // and await() throw SimStopped right after resumption, before any
  // primitive logic can act on the spurious wakeup.
  t->blocked_ = false;
  Shard& s = *t->home_;
  if (s.floater == t) s.floater = nullptr;
  make_runnable(t, s.clock);
}

// --- windows ----------------------------------------------------------------

void Engine::route_outboxes() {
  for (auto& sp : shards_) {
    for (auto& [dst, eff] : sp->outbox)
      push_effect(*shards_[dst], std::move(eff));
    sp->outbox.clear();
  }
}

void Engine::post_effect(std::uint32_t dst, Time when, std::uint32_t klass,
                         std::uint64_t a, std::uint64_t b, EffectFn&& fn) {
  if (shards_.size() == 1) dst = 0;
  assert(dst < shards_.size());
  if (in_window_ && g_shard_idx != dst) {
    assert(g_shard_idx != kNoShard && "posting inside a window off-shard");
    Shard& cur = *shards_[g_shard_idx];
    // Conservative-lookahead soundness: anything posted across shards
    // during a window must land at least one lookahead past the poster's
    // clock, i.e. in a strictly later window.
    assert(when >= cur.clock + lookahead_);
    cur.outbox.emplace_back(dst, Effect{when, klass, a, b, std::move(fn)});
    return;
  }
  // Our own shard (or between windows): key order decides when the
  // effect runs.
  assert(!in_window_ || when >= shards_[dst]->clock);
  push_effect(*shards_[dst], Effect{when, klass, a, b, std::move(fn)});
}

void Engine::await(const SimRecord& rec) {
  SimThread* self = g_thread;
  assert(self && "await() outside a simulated thread");
  while (!rec.ready()) {
    Shard& s = *self->home_;
    s.stalled = self;
    s.stall_rec = &rec;
    // The whole shard waits on another shard's effect: no handoff, the
    // window loop revisits the shard once the record completes.
    jump(self, nullptr);
    if (self->stop_requested_) throw SimStopped{};
  }
}

SimThread* Engine::next_fiber(Shard& s, Time w1, bool& progressed) {
  while (true) {
    // An effect may have failed (run here, or inside a fast-forward): stop
    // the shard at once.
    if (s.error) return nullptr;
    // Effects run before fiber wakes at the same instant.
    const RunQueue::Entry* f = s.runq.empty() ? nullptr : &s.runq.top();
    const bool effect_next =
        !s.effq.empty() && (f == nullptr || s.effq.top().when <= f->when);
    const Time t = effect_next ? s.effq.top().when
                              : f != nullptr ? f->when : kUnbounded;
    if (t >= w1) return nullptr;
    // An unbounded (one-shard) window ends, as a single run queue would,
    // the moment no non-daemon fiber is left.
    if (lookahead_ == kUnbounded && in_run_ && live_nondaemon_ == 0)
      return nullptr;
    // The shard's first event since a fiber floated: the floater's polls
    // resume first, from the last one that ends before the event.
    if (s.floater != nullptr) {
      catch_up(s, t);
      continue;
    }
    progressed = true;
    if (!effect_next) {
      SimThread* next = f->thread;
      s.clock = f->when;
#if defined(ARGO_USE_FCONTEXT)
      // The resumption's first loads read the fiber's saved frame (and the
      // frames just above it), a cold miss more often than not: start them
      // now, ahead of the heap's sift-down.
      const char* frame = static_cast<const char*>(next->fctx_);
      for (int line = 0; line < 4; ++line)
        __builtin_prefetch(frame + 64 * line);
#endif
      s.runq.pop();
      ++s.pops;
      // A closed gate: the fiber would resume only to find `busy` set and
      // wait on `q` at once, with nothing observable in between, so it
      // joins `q` here instead. A stopping fiber is always resumed.
      WaitQueue* gate = std::exchange(next->gate_q_, nullptr);
      if (gate != nullptr && *next->gate_busy_ && !next->stop_requested_) {
        gate->enqueue(next);
        ++s.gated_waits;
        continue;
      }
      return next;
    }
    run_effect(s);
  }
}

bool Engine::shard_step(Shard& s, Time w1, bool& progressed) {
  s.touched = true;
  if (s.error) return true;
  SimThread* f;
  if (s.stalled != nullptr) {
    if (!s.stall_rec->ready() && !s.stalled->stop_requested_) return false;
    f = std::exchange(s.stalled, nullptr);
    s.stall_rec = nullptr;
    progressed = true;
  } else {
    f = next_fiber(s, w1, progressed);
  }
  // Each fiber started here hands the shard on to the next one itself
  // (park()); control comes back when that chain ends.
  for (; f != nullptr; f = next_fiber(s, w1, progressed)) {
    try {
      switch_to(f);
    } catch (...) {
      if (!s.error) s.error = std::current_exception();
      return true;
    }
    if (s.stalled != nullptr) return false;
  }
  return true;
}

void Engine::run_window(Time w1) {
  while (true) {
    bool all = true;
    bool progressed = false;
    for (std::uint32_t s = 0; s < shards_.size(); ++s) {
      Shard& sh = *shards_[s];
      // Nothing of an idle shard is due this window, and nothing can
      // arrive during it: cross-shard effects wait in their outboxes.
      if (sh.next >= w1) continue;
      g_shard_idx = s;
      if (!shard_step(sh, w1, progressed)) all = false;
    }
    g_shard_idx = kNoShard;
    if (all) break;
    if (!progressed)
      throw std::logic_error(
          "argosim: await() stalled on an effect no shard can deliver");
  }
}

void Engine::run() {
  assert(!in_run_ && "Engine::run() is not reentrant");
  in_run_ = true;
  std::exception_ptr err;
  while (live_nondaemon_ > 0) {
    route_outboxes();
    Time tmin = kUnbounded;
    for (auto& sp : shards_) {
      // A shard that neither ran nor received anything keeps its `next`.
      if (sp->touched) {
        sp->next = sp->runq.empty() ? kUnbounded : sp->runq.top().when;
        if (!sp->effq.empty())
          sp->next = std::min(sp->next, sp->effq.top().when);
        sp->touched = false;
      }
      tmin = std::min(tmin, sp->next);
    }
    if (tmin == kUnbounded) {
      Time dl = now_;
      for (auto& sp : shards_) dl = std::max(dl, sp->clock);
      std::ostringstream os;
      os << "simulation deadlock at t=" << dl << "ns; blocked threads:";
      for (auto& t : threads_)
        if (!t->finished_ && t->blocked_) os << ' ' << t->name_;
      // A floater spins on a word only its own shard can change, and
      // nothing is left to run there.
      for (auto& sp : shards_)
        if (sp->floater != nullptr) os << ' ' << sp->floater->name_ << "(spinning)";
      in_run_ = false;
      throw SimDeadlock(os.str());
    }
    window_end_ =
        tmin > kUnbounded - lookahead_ ? kUnbounded : tmin + lookahead_;
    in_window_ = true;
    run_window(window_end_);
    in_window_ = false;
    for (auto& sp : shards_) {
      if (sp->error) {  // lowest shard id wins (deterministic)
        err = sp->error;
        sp->error = nullptr;
        break;
      }
    }
    if (err) break;
  }
  route_outboxes();
  now_ = std::max(now_, finish_max_);
  in_run_ = false;
  if (err) std::rethrow_exception(err);
}

// --- SimGate ---------------------------------------------------------------

SimGate::SimGate(Engine* eng, std::size_t parties, Time cost)
    : eng_(eng),
      parties_(parties),
      cost_(eng->shard_count() > 1 ? std::max(cost, eng->lookahead()) : cost),
      id_(eng->next_gate_id_++) {
  waiters_.reserve(parties);
}

void SimGate::arrive_and_wait() {
  SimThread* self = Engine::current_thread();
  assert(self != nullptr);
  Engine* eng = eng_;
  const Time t = eng->now();
  waiters_.push_back(self);
  if (t > tmax_) tmax_ = t;
  if (++count_ == parties_) {
    // Release time and wake keys depend only on the arrival *times*, not
    // on which shard's arrival the window loop runs last.
    const Time release = tmax_ + cost_;
    for (SimThread* w : waiters_)
      eng->post_effect(w->shard_, release, /*klass=*/0, id_, w->id_,
                       [eng, w, release] {
                         w->blocked_ = false;
                         eng->make_runnable(w, release);
                       });
    count_ = 0;
    tmax_ = 0;
    waiters_.clear();
  }
  self->blocked_ = true;
  eng->park();
}

}  // namespace argosim
