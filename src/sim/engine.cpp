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

// ThreadSanitizer likewise needs to be told about fiber switches: it keeps
// one shadow stack + vector clock per execution context, so every
// swapcontext must be preceded by __tsan_switch_to_fiber or TSan reports
// wild races between fibers that share an OS thread (ARGO_TSAN builds).
#if defined(__SANITIZE_THREAD__)
#define ARGO_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ARGO_TSAN_FIBERS 1
#endif
#endif
#if defined(ARGO_TSAN_FIBERS)
#include <sanitizer/tsan_interface.h>
#endif

#include "sim/fcontext.hpp"

// The hand-rolled assembly switch (sim/fcontext.S) is the fast path on
// supported architectures. Sanitizer builds keep ucontext: ASan and TSan
// track fiber stacks through the annotations bracketing swapcontext, and
// neither understands a stack pointer that moves without them.
#if defined(ARGO_FCONTEXT_SUPPORTED) && !defined(ARGO_ASAN_FIBERS) && \
    !defined(ARGO_TSAN_FIBERS)
#define ARGO_USE_FCONTEXT 1
#endif

namespace argosim {

namespace {

thread_local Engine* g_engine = nullptr;
thread_local SimThread* g_thread = nullptr;

constexpr std::uint32_t kNoShard = 0xffffffffu;
thread_local std::uint32_t g_shard_idx = kNoShard;

// The context the scheduler loop runs in. Each host worker owns its own
// scheduler context, so a thread_local slot is sufficient — and static
// shard-to-worker pinning guarantees a fiber only ever swaps with the one
// scheduler context it started against.
#if defined(ARGO_USE_FCONTEXT)
// fcontext handles are one-shot (every jump re-captures the jumper), so
// both sides refresh this slot on each switch.
thread_local fctx_t g_sched_fctx = nullptr;
#else
thread_local ucontext_t g_sched_ctx;
#endif

inline void cpu_pause() {
#if defined(__x86_64__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

#if !defined(ARGO_USE_FCONTEXT)
// makecontext() only passes ints; smuggle the SimThread* through two halves.
void pack_ptr(SimThread* t, unsigned& hi, unsigned& lo) {
  auto p = reinterpret_cast<std::uintptr_t>(t);
  hi = static_cast<unsigned>(p >> 32);
  lo = static_cast<unsigned>(p & 0xffffffffu);
}

SimThread* unpack_ptr(unsigned hi, unsigned lo) {
  auto p = (static_cast<std::uintptr_t>(hi) << 32) | lo;
  return reinterpret_cast<SimThread*>(p);
}
#endif

#if defined(ARGO_ASAN_FIBERS)
// Bounds of the scheduler's (OS thread's) stack, learned from ASan the
// first time a fiber runs; needed to annotate fiber -> scheduler switches.
thread_local const void* g_sched_stack_bottom = nullptr;
thread_local std::size_t g_sched_stack_size = 0;
#endif

#if defined(ARGO_TSAN_FIBERS)
// TSan context of the scheduler loop's own execution (one per host
// worker, captured on each scheduler -> fiber switch); fibers switch TSan
// back to it before swapping out. Shard-to-worker pinning guarantees a
// fiber always returns to the same worker's scheduler.
thread_local void* g_tsan_sched_fiber = nullptr;
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
#if defined(ARGO_USE_FCONTEXT)
  void* fctx = nullptr;  // the fiber's suspended context
#else
  ucontext_t ctx{};
#endif
  FiberStack stack;
  bool started = false;
  std::exception_ptr error;
#if defined(ARGO_TSAN_FIBERS)
  void* tsan_fiber = nullptr;
  ~Impl() {
    if (tsan_fiber != nullptr) __tsan_destroy_fiber(tsan_fiber);
  }
#endif
};

SimThread::SimThread(Engine* eng, std::uint64_t id, std::string name,
                     std::function<void()> body, FiberStack stack, bool daemon)
    : impl_(std::make_unique<Impl>()),
      engine_(eng),
      id_(id),
      name_(std::move(name)),
      body_(std::move(body)),
      daemon_(daemon) {
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

void Engine::enable_sharding(std::uint32_t shards, Time l,
                             std::uint32_t workers) {
  assert(threads_.empty() && "enable_sharding must precede any spawn");
  assert(shards > 0);
  lookahead_ = shards == 1 ? kUnbounded : std::max<Time>(l, 1);
  workers_ = std::clamp<std::uint32_t>(workers, 1, shards);
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
      if (t->blocked_) {
        t->blocked_ = false;
        make_runnable(t.get(), shards_[t->shard_]->clock);
      }
    }
  }
  window_end_.store(kUnbounded, std::memory_order_relaxed);
  route_outboxes();
  // Drain every shard on the main thread, multiple passes until no
  // progress (a shard can stall on an effect a later shard still holds).
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
  stop_pool();
}

Engine* Engine::current() { return g_engine; }
SimThread* Engine::current_thread() { return g_thread; }

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
        "argosim: spawn during a parallel window is not supported; spawn "
        "between runs instead");
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
  threads_.push_back(std::move(t));
  if (!daemon) live_nondaemon_.fetch_add(1, std::memory_order_relaxed);
  // Between runs a shard's clock may sit ahead of the committed clock
  // (daemon events inside the final lookahead window); keep per-shard time
  // monotone by spawning no earlier than the shard clock.
  make_runnable(raw, std::max(now_, s.clock));
  return raw;
}

void Engine::push_entry(RunQueue& q, std::size_t& dead, QueueEntry e) {
  // A fiber has at most one live entry: pushing a new one stales any
  // previous entry (its token no longer matches).
  if (e.thread->queued_) ++dead;
  e.thread->queued_ = true;
  q.push(e);
  if (dead > q.size() / 2 && q.size() > 64) compact(q, dead);
}

void Engine::compact(RunQueue& q, std::size_t& dead) {
  auto& c = q.entries();
  const std::size_t before = c.size();
  c.erase(std::remove_if(c.begin(), c.end(),
                         [](const QueueEntry& e) {
                           return e.thread->finished_ ||
                                  e.token != e.thread->wake_token_;
                         }),
          c.end());
  std::make_heap(c.begin(), c.end(), std::greater<>{});
  runq_purged_.fetch_add(before - c.size(), std::memory_order_relaxed);
  dead = 0;
}

void Engine::make_runnable(SimThread* t, Time when) {
  assert(!t->finished_);
  if (in_window_ && g_shard_idx != t->shard_)
    throw std::logic_error(
        "argosim: same-time cross-shard wakeup of fiber '" + t->name_ +
        "' is not supported under conservative lookahead; route it through "
        "the interconnect or keep both fibers on one shard");
  Shard& s = *shards_[t->shard_];
  ++s.pushes;
  s.touched = true;
  // Bumping the wake token invalidates any entry already queued for this
  // thread (e.g. the timeout entry of a timed wait that got notified first).
  push_entry(s.runq, s.dead,
             QueueEntry{when, s.next_seq++, t, ++t->wake_token_});
}

#if defined(ARGO_USE_FCONTEXT)
// The first jump into a made context lands here with the suspending
// scheduler as `from`. Exits by jumping to the scheduler for good — never
// returns.
void Engine::fiber_main_fctx(void* from, void* data) {
  g_sched_fctx = from;
  SimThread* t = static_cast<SimThread*>(data);
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
  argo_fctx_jump(g_sched_fctx, nullptr);
}
#else
void Engine::fiber_main(unsigned hi, unsigned lo) {
  SimThread* t = unpack_ptr(hi, lo);
#if defined(ARGO_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(nullptr, &g_sched_stack_bottom,
                                  &g_sched_stack_size);
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
  // Hand control back to the scheduler loop for good.
#if defined(ARGO_ASAN_FIBERS)
  // nullptr fake-stack slot: this fiber is exiting, release its fake stack.
  __sanitizer_start_switch_fiber(nullptr, g_sched_stack_bottom,
                                 g_sched_stack_size);
#endif
#if defined(ARGO_TSAN_FIBERS)
  __tsan_switch_to_fiber(g_tsan_sched_fiber, 0);
#endif
  swapcontext(&t->impl_->ctx, &g_sched_ctx);
}
#endif

const char* Engine::context_backend() {
#if defined(ARGO_USE_FCONTEXT)
  return "fcontext";
#else
  return "ucontext";
#endif
}

void Engine::switch_to(SimThread* t) {
  Engine* prev_engine = g_engine;
  SimThread* prev_thread = g_thread;
  g_engine = this;
  g_thread = t;
  ++shards_[t->shard_]->switches;

  if (!t->impl_->started) {
    t->impl_->started = true;
#if defined(ARGO_USE_FCONTEXT)
    t->impl_->fctx =
        argo_fctx_make(t->impl_->stack.base(), t->impl_->stack.size(),
                       &Engine::fiber_main_fctx);
#else
    getcontext(&t->impl_->ctx);
    t->impl_->ctx.uc_stack.ss_sp = t->impl_->stack.base();
    t->impl_->ctx.uc_stack.ss_size = t->impl_->stack.size();
    t->impl_->ctx.uc_link = &g_sched_ctx;
    unsigned hi, lo;
    pack_ptr(t, hi, lo);
    makecontext(&t->impl_->ctx,
                reinterpret_cast<void (*)()>(&Engine::fiber_main), 2, hi, lo);
#endif
  }
#if defined(ARGO_ASAN_FIBERS)
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&fake_stack, t->impl_->stack.base(),
                                 t->impl_->stack.size());
#endif
#if defined(ARGO_TSAN_FIBERS)
  if (t->impl_->tsan_fiber == nullptr)
    t->impl_->tsan_fiber = __tsan_create_fiber(0);
  g_tsan_sched_fiber = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(t->impl_->tsan_fiber, 0);
#endif
#if defined(ARGO_USE_FCONTEXT)
  // The jump returns once the fiber suspends (yield or exit); its handle
  // was re-captured by that suspending jump.
  t->impl_->fctx = argo_fctx_jump(t->impl_->fctx, t).fctx;
#else
  swapcontext(&g_sched_ctx, &t->impl_->ctx);
#endif
#if defined(ARGO_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif

  g_engine = prev_engine;
  g_thread = prev_thread;

  if (t->finished_) reap_finished_one(t);
}

void Engine::reap_finished_one(SimThread* t) {
  Shard& s = *shards_[t->shard_];
  // A fiber killed while parked in await() finishes with its wake entry
  // still queued: that entry is stale now.
  if (t->queued_) ++s.dead;
#if !defined(ARGO_ASAN_FIBERS)
  // The fiber has swapped back to the scheduler for good — its stack is
  // dead and can serve the next spawn on this shard. Only this shard's
  // worker touches its pool during a window.
  if (t->impl_->stack.size() == default_stack_size)
    s.stack_pool.push_back(std::move(t->impl_->stack));
#endif
  if (!t->daemon_) {
    live_nondaemon_.fetch_sub(1, std::memory_order_relaxed);
    Time cur = finish_max_.load(std::memory_order_relaxed);
    while (s.clock > cur && !finish_max_.compare_exchange_weak(
                                cur, s.clock, std::memory_order_relaxed)) {
    }
  }
  if (t->impl_->error) {
    std::exception_ptr err = t->impl_->error;
    t->impl_->error = nullptr;
    std::rethrow_exception(err);
  }
}

void Engine::switch_to_scheduler() {
  SimThread* self = g_thread;
  assert(self && "must be called from inside a simulated thread");
#if defined(ARGO_ASAN_FIBERS)
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&fake_stack, g_sched_stack_bottom,
                                 g_sched_stack_size);
#endif
#if defined(ARGO_TSAN_FIBERS)
  __tsan_switch_to_fiber(g_tsan_sched_fiber, 0);
#endif
#if defined(ARGO_USE_FCONTEXT)
  // On resumption the scheduler has just suspended into us again; refresh
  // its handle for the next yield.
  g_sched_fctx = argo_fctx_jump(g_sched_fctx, nullptr).fctx;
#else
  swapcontext(&self->impl_->ctx, &g_sched_ctx);
#endif
#if defined(ARGO_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(fake_stack, &g_sched_stack_bottom,
                                  &g_sched_stack_size);
#endif
  if (self->stop_requested_) throw SimStopped{};
}

void Engine::delay(Time ns) {
  SimThread* self = g_thread;
  assert(self && "delay() outside a simulated thread");
  Shard& s = *shards_[self->shard_];
  const Time when = s.clock + ns;
  // Our run-queue entry is (when, seq); the seq is taken now, exactly as
  // the scheduler path would take it, so the fast path below cannot
  // reorder anything.
  const std::uint64_t seq = s.next_seq++;
  // A stopping fiber must reach switch_to_scheduler to unwind (SimStopped).
  if (!self->stop_requested_ && fast_forward(s, when, seq)) return;
  ++s.pushes;
  push_entry(s.runq, s.dead, QueueEntry{when, seq, self, ++self->wake_token_});
  switch_to_scheduler();
}

// Same-fiber fast-forward. When no other fiber's entry precedes our own
// (when, seq), the scheduler would run the effects due at or before `when`
// and then hand control straight back to us. Run those effects here
// instead (on this fiber's stack, with no current thread, as the scheduler
// would), then advance the clock in place and keep running, skipping the
// two context switches. A running fiber has no live run-queue entry, so
// skipping the push/pop leaves no state behind. Fails when another fiber's
// entry comes first (possibly one an effect run here just woke) or the
// window ends before `when`.
bool Engine::fast_forward(Shard& s, Time when, std::uint64_t seq) {
  if (when >= window_end_.load(std::memory_order_relaxed)) return false;
  for (;;) {
    const QueueEntry* f = live_head(s);
    if (f != nullptr && (f->when < when || (f->when == when && f->seq < seq)))
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
  // Wake it immediately wherever it is parked (WaitQueue, timed wait, or a
  // future run-queue entry — the token bump invalidates stale entries):
  // switch_to_scheduler() throws SimStopped right after resumption, before
  // any primitive logic can act on the spurious wakeup.
  t->blocked_ = false;
  make_runnable(t, shards_[t->shard_]->clock);
}

// --- windows ----------------------------------------------------------------

void Engine::route_outboxes() {
  for (auto& sp : shards_) {
    for (auto& [dst, eff] : sp->outbox)
      push_effect(*shards_[dst], std::move(eff));
    sp->outbox.clear();
  }
}

const Engine::QueueEntry* Engine::live_head(Shard& s) {
  while (!s.runq.empty()) {
    const QueueEntry& top = s.runq.top();
    // With no stale entry queued the head is live (a finished fiber is
    // never made runnable), so the usual case reads no fiber state.
    if (s.dead == 0 ||
        (!top.thread->finished_ && top.token == top.thread->wake_token_))
      return &top;
    --s.dead;
    s.runq.pop();
  }
  return nullptr;
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
  // Our own shard (or between windows): no other worker can touch the
  // queue, and key order decides when the effect runs.
  assert(!in_window_ || when >= shards_[dst]->clock);
  push_effect(*shards_[dst], Effect{when, klass, a, b, std::move(fn)});
}

void Engine::await(const SimRecord& rec) {
  SimThread* self = g_thread;
  assert(self && "await() outside a simulated thread");
  while (!rec.ready()) {
    Shard& s = *shards_[self->shard_];
    s.stalled = self;
    s.stall_rec = &rec;
    switch_to_scheduler();  // worker revisits once the record completes
  }
}

bool Engine::shard_step(Shard& s, Time w1, bool& progressed) {
  s.touched = true;
  if (s.error) return true;
  if (s.stalled != nullptr) {
    if (!s.stall_rec->ready() && !s.stalled->stop_requested_) return false;
    SimThread* f = s.stalled;
    s.stalled = nullptr;
    s.stall_rec = nullptr;
    progressed = true;
    try {
      switch_to(f);
    } catch (...) {
      if (!s.error) s.error = std::current_exception();
      return true;
    }
    if (s.stalled != nullptr) return false;
  }
  while (true) {
    // An effect run inside a fiber's fast-forward may have failed: stop
    // the shard at once, as for any other error.
    if (s.error) return true;
    // Effects run before fiber wakes at the same instant.
    const QueueEntry* f = live_head(s);
    const bool effect_next =
        !s.effq.empty() && (f == nullptr || s.effq.top().when <= f->when);
    const Time t = effect_next ? s.effq.top().when
                              : f != nullptr ? f->when : kUnbounded;
    if (t >= w1) return true;
    // An unbounded (one-shard) window ends, as a single run queue would,
    // the moment no non-daemon fiber is left.
    if (lookahead_ == kUnbounded && in_run_ &&
        live_nondaemon_.load(std::memory_order_relaxed) == 0)
      return true;
    progressed = true;
    if (effect_next) {
      if (!run_effect(s)) return true;
    } else {
      QueueEntry e = *f;
      s.runq.pop();
      e.thread->queued_ = false;
      ++s.pops;
      s.clock = e.when;
      try {
        switch_to(e.thread);
      } catch (...) {
        if (!s.error) s.error = std::current_exception();
        return true;
      }
      if (s.stalled != nullptr) return false;
    }
  }
}

void Engine::run_window(std::uint32_t w, Time w1) {
  int idle = 0;
  while (true) {
    bool all = true;
    bool progressed = false;
    for (std::uint32_t s = w; s < shards_.size(); s += workers_) {
      Shard& sh = *shards_[s];
      // Nothing of an idle shard is due this window, and nothing can
      // arrive during it: cross-shard effects wait in their outboxes.
      if (sh.next >= w1) continue;
      g_shard_idx = s;
      if (!shard_step(sh, w1, progressed)) all = false;
    }
    g_shard_idx = kNoShard;
    if (all) break;
    if (!progressed) {
      if (workers_ == 1)
        throw std::logic_error(
            "argosim: await() stalled on an effect no shard can deliver");
      // Waiting on another worker's shard: spin briefly for the common
      // case where it is running right now, then hand the core back — on
      // an oversubscribed host the worker that can complete the record
      // may be preempted behind this very spin.
      if (++idle < 64)
        cpu_pause();
      else
        std::this_thread::yield();
    } else {
      idle = 0;
    }
  }
}

void Engine::run() {
  assert(!in_run_ && "Engine::run() is not reentrant");
  in_run_ = true;
  if (workers_ > 1) start_pool();
  std::exception_ptr err;
  while (live_nondaemon_.load(std::memory_order_relaxed) > 0) {
    route_outboxes();
    Time tmin = kUnbounded;
    for (auto& sp : shards_) {
      // A shard that neither ran nor received anything keeps its `next`.
      if (sp->touched) {
        const QueueEntry* f = live_head(*sp);
        sp->next = f != nullptr ? f->when : kUnbounded;
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
      in_run_ = false;
      throw SimDeadlock(os.str());
    }
    const Time w1 =
        tmin > kUnbounded - lookahead_ ? kUnbounded : tmin + lookahead_;
    window_end_.store(w1, std::memory_order_relaxed);
    in_window_ = true;
    if (workers_ > 1) {
      done_count_.store(0, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lk(pool_mu_);
        epoch_.fetch_add(1, std::memory_order_release);
      }
      pool_cv_.notify_all();
      run_window(0, w1);
      // Same spin-then-yield as run_window: windows are short, so the
      // stragglers usually finish within the spin, but when the host has
      // fewer cores than workers they need this one to run at all.
      for (int idle = 0;
           done_count_.load(std::memory_order_acquire) < workers_ - 1;) {
        if (++idle < 256)
          cpu_pause();
        else
          std::this_thread::yield();
      }
    } else {
      run_window(0, w1);
    }
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
  Time f = finish_max_.load(std::memory_order_relaxed);
  if (f > now_) now_ = f;
  in_run_ = false;
  if (err) std::rethrow_exception(err);
}

void Engine::start_pool() {
  if (!pool_.empty()) return;
  for (std::uint32_t w = 1; w < workers_; ++w)
    pool_.emplace_back([this, w] { worker_loop(w); });
}

void Engine::stop_pool() {
  if (pool_.empty()) return;
  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    pool_exit_.store(true, std::memory_order_release);
  }
  pool_cv_.notify_all();
  for (auto& th : pool_) th.join();
  pool_.clear();
  pool_exit_.store(false, std::memory_order_relaxed);
}

void Engine::worker_loop(std::uint32_t w) {
  std::uint64_t last = 0;
  while (true) {
    int spins = 0;
    while (epoch_.load(std::memory_order_acquire) == last &&
           !pool_exit_.load(std::memory_order_acquire)) {
      if (++spins < 4096) {
        cpu_pause();
      } else {
        std::unique_lock<std::mutex> lk(pool_mu_);
        pool_cv_.wait(lk, [&] {
          return epoch_.load(std::memory_order_acquire) != last ||
                 pool_exit_.load(std::memory_order_acquire);
        });
      }
    }
    if (pool_exit_.load(std::memory_order_acquire)) break;
    last = epoch_.load(std::memory_order_acquire);
    run_window(w, window_end_.load(std::memory_order_relaxed));
    done_count_.fetch_add(1, std::memory_order_release);
  }
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
  {
    std::lock_guard<std::mutex> lk(mu_);
    waiters_.push_back(self);
    if (t > tmax_) tmax_ = t;
    if (++count_ == parties_) {
      // Release time and wake keys depend only on the arrival *times*, not
      // on which arrival the host happens to schedule last — determinism.
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
  }
  self->blocked_ = true;
  eng->switch_to_scheduler();
}

}  // namespace argosim
