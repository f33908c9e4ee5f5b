// Unit tests for the deterministic virtual-time engine (src/sim).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/sync.hpp"

namespace argosim {
namespace {

TEST(Engine, SingleThreadAdvancesClock) {
  Engine eng;
  Time seen = 1;
  eng.spawn("t0", [&] {
    EXPECT_EQ(now(), 0u);
    delay(100);
    EXPECT_EQ(now(), 100u);
    delay(50);
    seen = now();
  });
  eng.run();
  EXPECT_EQ(seen, 150u);
  EXPECT_EQ(eng.now(), 150u);
}

TEST(Engine, ClockIsSharedAcrossThreads) {
  Engine eng;
  std::vector<Time> order;
  eng.spawn("a", [&] {
    delay(10);
    order.push_back(now());
    delay(30);  // wakes at 40
    order.push_back(now());
  });
  eng.spawn("b", [&] {
    delay(25);
    order.push_back(now());
  });
  eng.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 10u);
  EXPECT_EQ(order[1], 25u);
  EXPECT_EQ(order[2], 40u);
}

TEST(Engine, FifoOrderAmongEqualTimes) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i)
    eng.spawn("t" + std::to_string(i), [&order, i] {
      delay(100);
      order.push_back(i);
    });
  eng.run();
  std::vector<int> expect{0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(order, expect);
}

TEST(Engine, YieldIsRoundRobinFair) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 3; ++i)
    eng.spawn("t" + std::to_string(i), [&order, i] {
      for (int k = 0; k < 3; ++k) {
        order.push_back(i);
        yield();
      }
    });
  eng.run();
  std::vector<int> expect{0, 1, 2, 0, 1, 2, 0, 1, 2};
  EXPECT_EQ(order, expect);
  EXPECT_EQ(eng.now(), 0u);  // yields cost no virtual time
}

TEST(Engine, SpawnFromInsideFiber) {
  Engine eng;
  int children_done = 0;
  eng.spawn("parent", [&] {
    delay(5);
    for (int i = 0; i < 4; ++i)
      Engine::current()->spawn("child", [&] {
        delay(10);
        ++children_done;
      });
  });
  eng.run();
  EXPECT_EQ(children_done, 4);
  EXPECT_EQ(eng.now(), 15u);
}

TEST(Engine, RunIsRepeatableAndTimeMonotonic) {
  Engine eng;
  eng.spawn("a", [] { delay(100); });
  eng.run();
  EXPECT_EQ(eng.now(), 100u);
  eng.spawn("b", [] { delay(10); });
  eng.run();
  EXPECT_EQ(eng.now(), 110u);
}

TEST(Engine, ExceptionInFiberPropagatesFromRun) {
  Engine eng;
  eng.spawn("boom", [] {
    delay(1);
    throw std::logic_error("boom");
  });
  EXPECT_THROW(eng.run(), std::logic_error);
}

// An effect that fails inside a fiber's same-fiber fast-forward stops its
// shard at once: the effect due after it never runs, and run() reports the
// first error, not a later one.
TEST(Engine, EffectErrorInFastForwardStopsTheShard) {
  Engine eng;
  bool second_ran = false;
  eng.spawn("poster", [&] {
    Engine* e = Engine::current();
    e->post_effect(0, 10, 1, 0, 0, [] { throw std::runtime_error("first"); });
    e->post_effect(0, 20, 1, 0, 1, [&] {
      second_ran = true;
      throw std::runtime_error("second");
    });
    delay(100);  // fast-forwards through the effect due at 10
  });
  try {
    eng.run();
    FAIL() << "run() should rethrow the effect's error";
  } catch (const std::runtime_error& err) {
    EXPECT_STREQ(err.what(), "first");
  }
  EXPECT_FALSE(second_ran);
}

TEST(Engine, DeadlockIsDetected) {
  Engine eng;
  WaitQueue q;
  eng.spawn("stuck", [&] { q.wait(); });
  EXPECT_THROW(eng.run(), SimDeadlock);
}

TEST(Engine, DaemonsDoNotBlockCompletionAndAreUnwound) {
  bool daemon_unwound = false;
  // Declared before the engine: the parked daemon still references the
  // channel while the engine destructor unwinds it.
  auto ch = std::make_unique<Channel<int>>();
  {
    Engine eng;
    eng.spawn(
        "handler",
        [&, ch = ch.get()] {
          struct Sentinel {
            bool* flag;
            ~Sentinel() { *flag = true; }
          } s{&daemon_unwound};
          for (;;) ch->recv();  // parked forever
        },
        /*daemon=*/true);
    eng.spawn("worker", [] { delay(42); });
    eng.run();  // completes despite the parked daemon
    EXPECT_EQ(eng.now(), 42u);
    EXPECT_FALSE(daemon_unwound);
    // Engine destructor unwinds the daemon (running Sentinel's destructor).
  }
  EXPECT_TRUE(daemon_unwound);
}

TEST(Engine, ManyFibers) {
  Engine eng;
  int sum = 0;
  const int n = 2048;
  for (int i = 0; i < n; ++i)
    eng.spawn("w", [&sum] {
      delay(7);
      ++sum;
    });
  eng.run();
  EXPECT_EQ(sum, n);
  EXPECT_EQ(eng.now(), 7u);
}

TEST(SimMutex, MutualExclusionAndFifoHandoff) {
  Engine eng;
  SimMutex m;
  int inside = 0;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    eng.spawn("t" + std::to_string(i), [&, i] {
      m.lock();
      EXPECT_EQ(inside, 0);
      ++inside;
      order.push_back(i);
      delay(10);
      --inside;
      m.unlock();
    });
  eng.run();
  std::vector<int> expect{0, 1, 2, 3, 4};
  EXPECT_EQ(order, expect);
  EXPECT_EQ(eng.now(), 50u);
  EXPECT_FALSE(m.locked());
}

TEST(SimMutex, TryLock) {
  Engine eng;
  SimMutex m;
  eng.spawn("a", [&] {
    EXPECT_TRUE(m.try_lock());
    delay(10);
    m.unlock();
  });
  eng.spawn("b", [&] {
    delay(5);
    EXPECT_FALSE(m.try_lock());
    delay(10);  // now t=15, a released at t=10
    EXPECT_TRUE(m.try_lock());
    m.unlock();
  });
  eng.run();
}

TEST(SimCondVar, PredicateWait) {
  Engine eng;
  SimMutex m;
  SimCondVar cv;
  bool ready = false;
  Time consumer_woke = 0;
  eng.spawn("consumer", [&] {
    SimLockGuard g(m);
    cv.wait(m, [&] { return ready; });
    consumer_woke = now();
  });
  eng.spawn("producer", [&] {
    delay(77);
    SimLockGuard g(m);
    ready = true;
    cv.notify_all();
  });
  eng.run();
  EXPECT_EQ(consumer_woke, 77u);
}

TEST(SimBarrier, RendezvousAcrossGenerations) {
  Engine eng;
  const int n = 6, rounds = 4;
  SimBarrier bar(n);
  std::vector<int> phase(n, 0);
  for (int i = 0; i < n; ++i)
    eng.spawn("t" + std::to_string(i), [&, i] {
      for (int r = 0; r < rounds; ++r) {
        delay(static_cast<Time>(i + 1));  // arrive staggered
        // Nobody may be a full phase ahead before the barrier.
        for (int j = 0; j < n; ++j) EXPECT_LE(phase[j], r + 1);
        bar.arrive_and_wait();
        ++phase[i];
        for (int j = 0; j < n; ++j) EXPECT_GE(phase[j] + 1, phase[i]);
      }
    });
  eng.run();
  for (int j = 0; j < n; ++j) EXPECT_EQ(phase[j], rounds);
}

TEST(SimEvent, ReleasesCurrentAndFutureWaiters) {
  Engine eng;
  SimEvent ev;
  int released = 0;
  eng.spawn("early", [&] {
    ev.wait();
    ++released;
  });
  eng.spawn("setter", [&] {
    delay(10);
    ev.set();
  });
  eng.spawn("late", [&] {
    delay(20);
    ev.wait();  // already set: returns immediately
    ++released;
    EXPECT_EQ(now(), 20u);
  });
  eng.run();
  EXPECT_EQ(released, 2);
}

TEST(Channel, FifoDelivery) {
  Engine eng;
  Channel<int> ch;
  std::vector<int> got;
  eng.spawn("rx", [&] {
    for (int i = 0; i < 5; ++i) got.push_back(ch.recv());
  });
  eng.spawn("tx", [&] {
    for (int i = 0; i < 5; ++i) {
      delay(3);
      ch.send(i);
    }
  });
  eng.run();
  std::vector<int> expect{0, 1, 2, 3, 4};
  EXPECT_EQ(got, expect);
}

TEST(Channel, TryRecv) {
  Engine eng;
  Channel<std::string> ch;
  eng.spawn("t", [&] {
    EXPECT_FALSE(ch.try_recv().has_value());
    ch.send("x");
    auto v = ch.try_recv();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, "x");
  });
  eng.run();
}

// Determinism: identical programs produce identical traces.
std::vector<std::uint64_t> run_trace(std::uint64_t seed) {
  Engine eng;
  std::vector<std::uint64_t> trace;
  SimMutex m;
  for (int i = 0; i < 16; ++i)
    eng.spawn("t", [&, i] {
      Rng rng(seed + static_cast<std::uint64_t>(i));
      for (int k = 0; k < 50; ++k) {
        delay(rng.next_below(100));
        SimLockGuard g(m);
        trace.push_back(now() * 31 + static_cast<std::uint64_t>(i));
        delay(rng.next_below(10));
      }
    });
  eng.run();
  trace.push_back(eng.now());
  return trace;
}

TEST(Engine, DeterministicReplay) {
  auto a = run_trace(12345);
  auto b = run_trace(12345);
  EXPECT_EQ(a, b);
  auto c = run_trace(54321);
  EXPECT_NE(a, c);
}

// --- direct fiber-to-fiber handoff ------------------------------------------
//
// A parking fiber (delay, WaitQueue, SimMutex, SimGate) picks its shard's
// next event itself and jumps straight into the next fiber; the scheduler
// context sees control again only when the chain ends.

// Counts the calling fiber's resumptions: a delay resumes the fiber unless
// it fast-forwarded in place.
void counted_yield(Engine& eng, int& resumes) {
  const std::uint64_t ff = eng.delay_fast_forwards();
  yield();
  if (eng.delay_fast_forwards() == ff) ++resumes;
}

TEST(EngineHandoff, WaitQueueRingResumesInFifoOrder) {
  // A token passes round a ring of fibers: each waits on its own queue and
  // notifies its successor's, so every hop is a parking fiber handing off
  // to the next one directly.
  constexpr int kFibers = 4;
  constexpr int kRounds = 50;
  Engine eng;
  std::vector<WaitQueue> q(kFibers);
  std::vector<int> order;
  int resumes = 0;
  for (int i = 0; i < kFibers; ++i)
    eng.spawn("ring" + std::to_string(i), [&, i] {
      ++resumes;  // started
      // Fiber 0 holds the token; it lets the others park first.
      if (i == 0) counted_yield(eng, resumes);
      for (int r = 0; r < kRounds; ++r) {
        if (i != 0 || r != 0) {
          q[i].wait();
          ++resumes;
        }
        order.push_back(i);
        q[(i + 1) % kFibers].notify_one();
      }
    });
  eng.run();
  std::vector<int> fifo;
  for (int r = 0; r < kRounds; ++r)
    for (int i = 0; i < kFibers; ++i) fifo.push_back(i);
  EXPECT_EQ(order, fifo);
  EXPECT_EQ(resumes, kFibers + kFibers * kRounds);
  EXPECT_EQ(eng.context_switches(), static_cast<std::uint64_t>(resumes));
  EXPECT_EQ(eng.runq_pops(), eng.context_switches());
}

TEST(EngineHandoff, SimMutexHandoffChainIsFifo) {
  // Fibers contend for one SimMutex: unlock hands ownership to the oldest
  // waiter, and the unlocker's next lock() parks it and hands the shard on.
  constexpr int kFibers = 5;
  constexpr int kRounds = 20;
  Engine eng;
  SimMutex m;
  std::vector<int> order;
  int resumes = 0;
  for (int i = 0; i < kFibers; ++i)
    eng.spawn("m" + std::to_string(i), [&, i] {
      ++resumes;
      for (int r = 0; r < kRounds; ++r) {
        if (!m.try_lock()) {
          m.lock();  // held: this parks
          ++resumes;
        }
        order.push_back(i);
        counted_yield(eng, resumes);
        m.unlock();
      }
    });
  eng.run();
  std::vector<int> fifo;
  for (int r = 0; r < kRounds; ++r)
    for (int i = 0; i < kFibers; ++i) fifo.push_back(i);
  EXPECT_EQ(order, fifo);
  EXPECT_EQ(eng.context_switches(), static_cast<std::uint64_t>(resumes));
  EXPECT_EQ(eng.runq_pops(), eng.context_switches());
}

// Mirrors EffectErrorInFastForwardStopsTheShard for the parking path: the
// failing effect runs while a parking fiber picks the shard's next event.
TEST(EngineHandoff, EffectErrorWhileParkingStopsTheShard) {
  Engine eng;
  bool second_ran = false;
  bool first_on_parker_stack = false;
  bool a_resumed = false;
  bool b_resumed = false;
  SimThread* b = nullptr;
  eng.spawn("a", [&] {
    Engine* e = Engine::current();
    e->post_effect(0, 10, 1, 0, 0, [&] {
      // The frame address, not a local's: under ASan's use-after-return
      // mode locals live in a fake frame off the stack.
      const auto* here = static_cast<const char*>(__builtin_frame_address(0));
      const auto* lo = static_cast<const char*>(b->stack().base());
      first_on_parker_stack = here >= lo && here < lo + b->stack().size();
      throw std::runtime_error("first");
    });
    e->post_effect(0, 20, 1, 0, 1, [&] {
      second_ran = true;
      throw std::runtime_error("second");
    });
    delay(30);  // b is due first: a parks and hands off to b
    a_resumed = true;
  });
  b = eng.spawn("b", [&] {
    delay(5);    // nothing precedes 5: fast-forwards
    delay(100);  // a (30) precedes: parks, and b's pick runs the effect
    b_resumed = true;
  });
  try {
    eng.run();
    FAIL() << "run() should rethrow the effect's error";
  } catch (const std::runtime_error& err) {
    EXPECT_STREQ(err.what(), "first");
  }
  EXPECT_TRUE(first_on_parker_stack);
  EXPECT_FALSE(second_ran);
  EXPECT_FALSE(a_resumed);
  EXPECT_FALSE(b_resumed);
}

TEST(EngineHandoff, KilledFiberResumedByHandoffUnwinds) {
  Engine eng;
  WaitQueue q;
  bool unwound = false;
  bool ran_on = false;
  SimThread* victim = eng.spawn("victim", [&] {
    struct Sentinel {
      bool* flag;
      ~Sentinel() { *flag = true; }
    } s{&unwound};
    q.wait();  // never notified
    ran_on = true;
  });
  eng.spawn("killer", [&] {
    delay(10);
    eng.kill(victim);  // queues the victim's wake at 10
    delay(5);          // the victim is due first: hand off to it
    EXPECT_TRUE(unwound);
  });
  eng.run();
  EXPECT_TRUE(victim->finished());
  EXPECT_TRUE(unwound);
  EXPECT_FALSE(ran_on);
  EXPECT_EQ(eng.now(), 15u);
}

TEST(EngineHandoff, FinishedFiberIsReapedAndItsStackReused) {
  // The scheduler resumes `long`; `short` then runs only through handoffs
  // and finishes while `long` is parked, so the fiber that jumps back to
  // the scheduler is not the one it resumed.
  Engine eng;
  SimThread* shortf = nullptr;
  const void* short_stack = nullptr;
  const void* child_stack = nullptr;
  eng.spawn("long", [&] {
    for (int i = 0; i < 6; ++i) delay(2);
    EXPECT_TRUE(shortf->finished());
    SimThread* child = eng.spawn("child", [] { delay(1); });
    child_stack = child->stack().base();
    delay(2);
  });
  shortf = eng.spawn("short", [] {
    for (int i = 0; i < 3; ++i) delay(2);
  });
  short_stack = shortf->stack().base();
  eng.run();
  EXPECT_TRUE(shortf->finished());
  EXPECT_EQ(eng.now(), 14u);
  EXPECT_EQ(eng.runq_pops(), eng.context_switches());
  EXPECT_EQ(eng.stacks_reused(), 1u);
  EXPECT_EQ(child_stack, short_stack);
}

// Per-shard log of (virtual time, who, effect seen) on a sharded engine.
using ShardLog = std::vector<std::vector<std::tuple<Time, int, bool>>>;

ShardLog run_window_edge() {
  // Lookahead 100 and four shards: odd shard k+1 posts an effect to even
  // shard k at 100. On shard k, `a` parks at 10 with `b` due at 120, past
  // the first window's end: the handoff must return to the scheduler
  // instead of resuming `b` before the effect has been routed.
  constexpr std::uint32_t kShards = 4;
  Engine eng;
  eng.enable_sharding(kShards, 100);
  ShardLog log(kShards);
  std::vector<char> seen(kShards, 0);
  for (std::uint32_t k = 0; k < kShards; k += 2) {
    eng.spawn_on(k, "a", [&log, &seen, k] {
      delay(10);
      log[k].emplace_back(now(), 0, seen[k] != 0);
      delay(160);
      log[k].emplace_back(now(), 0, seen[k] != 0);
    });
    eng.spawn_on(k, "b", [&log, &seen, k] {
      delay(120);
      log[k].emplace_back(now(), 1, seen[k] != 0);
    });
    eng.spawn_on(k + 1, "poster", [&eng, &log, &seen, k] {
      eng.post_effect(k, now() + eng.lookahead(), 1, k, 0, [&log, &seen, k] {
        seen[k] = 1;
        log[k].emplace_back(now(), 2, true);
      });
    });
  }
  eng.run();
  return log;
}

TEST(EngineHandoff, NeverResumesAFiberPastTheWindowEnd) {
  const std::vector<std::tuple<Time, int, bool>> even = {
      {10, 0, false}, {100, 2, true}, {120, 1, true}, {170, 0, true}};
  const ShardLog want = {even, {}, even, {}};
  EXPECT_EQ(run_window_edge(), want);
  EXPECT_EQ(run_window_edge(), want);  // a fresh run repeats it
}

TEST(Rng, KnownSequencesAndRanges) {
  Rng a(7), b(7), c(8);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  bool differs = false;
  for (int i = 0; i < 100; ++i) differs |= (a.next_u64() != c.next_u64());
  EXPECT_TRUE(differs);
  Rng r(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
    double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    auto v = r.next_range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Time, LiteralsAndConversions) {
  EXPECT_EQ(3_us, 3000u);
  EXPECT_EQ(2_ms, 2000000u);
  EXPECT_DOUBLE_EQ(to_us(1500), 1.5);
  EXPECT_DOUBLE_EQ(to_s(2500000000ull), 2.5);
}

// ---------------------------------------------------------------------------
// Idle-poll skip: a fiber polling a word only its own shard can change
// skips whole polls while nothing else is due, and must leave exactly what
// polling them one by one would have. Each case puts the next event right
// on the boundary: the skip must stop exactly one poll short of it.
// ---------------------------------------------------------------------------

constexpr Time kRead = 50;       // a poll's read
constexpr Time kInterval = 100;  // the poll interval before the next read
constexpr Time kPeriod = kInterval + kRead;

struct SpinResult {
  Time seen = 0;                  // when the spinner read the word set
  std::uint64_t polls = 0;        // reads, skipped ones included
  std::uint64_t first_skip = 0;   // polls skipped after the first read
  std::uint64_t skipped = 0;      // Engine::polls_skipped()
  std::uint64_t fast_forwards = 0;
  std::uint64_t switches = 0;
  std::uint64_t pushes = 0;
  std::uint64_t floats = 0;       // Engine::poll_floats()
  // Everything an in-place skip must leave as the polls would have.
  auto observed() const {
    return std::tie(seen, polls, fast_forwards, switches, pushes);
  }
  // What a float must leave as the polls would have: the simulated values,
  // and every delay counted once, as a fast-forward or a push, with each
  // float's catch-up entry (the one push polling never makes) set aside.
  // Which delays fast-forward depends on where the windows fall, and a
  // floating shard no longer pins them.
  std::uint64_t delays() const { return fast_forwards + pushes - floats; }
  auto simulated() const { return std::make_tuple(seen, polls, delays()); }
};

// Vela's spin loop on a host word: read (kRead), and until the word is
// set, skip the idle polls (when `skip`, at most `cap` at a time) and wait
// kInterval.
void spin(const std::uint64_t& word, bool skip, SpinResult& r,
          std::uint64_t cap = Engine::kNoCap) {
  Engine& eng = *Engine::current();
  for (;;) {
    delay(kRead);
    ++r.polls;
    if (word != 0) {
      r.seen = now();
      return;
    }
    if (skip) {
      const std::uint64_t m = eng.skip_idle_polls(kPeriod, cap);
      if (r.polls == 1) r.first_skip = m;
      r.polls += m;
    }
    delay(kInterval);
  }
}

void finish(const Engine& eng, SpinResult& r) {
  r.skipped = eng.polls_skipped();
  r.fast_forwards = eng.delay_fast_forwards();
  r.switches = eng.context_switches();
  r.pushes = eng.runq_pushes();
  r.floats = eng.poll_floats();
}

// The read instant of poll k (from 0) of a spin started at 0.
constexpr Time read_at(Time k) { return kRead + k * kPeriod; }

TEST(IdlePollSkip, StopsOnePollShortOfAnEffectAtAReadInstant) {
  auto run = [](bool skip) {
    Engine eng;
    std::uint64_t word = 0;
    SpinResult r;
    eng.post_effect(0, read_at(10), 0, 0, 0, [&word] { word = 1; });
    eng.spawn("spinner", [&] { spin(word, skip, r); });
    eng.run();
    finish(eng, r);
    return r;
  };
  const SpinResult polled = run(false), skipped = run(true);
  EXPECT_EQ(polled.seen, read_at(10));
  EXPECT_EQ(skipped.observed(), polled.observed());
  // Polls 1..9 end before the effect; poll 10 reads right at it.
  EXPECT_EQ(skipped.first_skip, 9u);
  EXPECT_EQ(skipped.skipped, 9u);
  EXPECT_EQ(polled.skipped, 0u);
}

TEST(IdlePollSkip, StopsOnePollShortOfAWakeAtAReadInstant) {
  auto run = [](bool skip) {
    Engine eng;
    std::uint64_t word = 0;
    SpinResult r;
    eng.spawn("spinner", [&] { spin(word, skip, r); });
    eng.spawn("setter", [&] {
      delay(read_at(10));
      word = 1;
    });
    eng.run();
    finish(eng, r);
    return r;
  };
  const SpinResult polled = run(false), skipped = run(true);
  EXPECT_EQ(polled.seen, read_at(10));
  EXPECT_EQ(skipped.observed(), polled.observed());
  EXPECT_EQ(skipped.first_skip, 9u);
}

// Window [0, read_at(5)): poll 5 would end right at the window end, which
// no fast-forward may reach, so only polls 1..4 are skipped in it. A lone
// spinner would float past the window end instead (FloatsAcrossWindows...);
// a capped one skips in place, bounded by the window.
TEST(IdlePollSkip, StopsOnePollShortOfTheWindowEnd) {
  auto run = [](bool skip) {
    Engine eng;
    eng.enable_sharding(2, read_at(5));
    std::uint64_t word = 0;
    SpinResult r;
    eng.post_effect(0, 2000, 0, 0, 0, [&word] { word = 1; });
    eng.spawn_on(0, "spinner", [&] { spin(word, skip, r, 1000); });
    eng.run();
    finish(eng, r);
    return r;
  };
  const SpinResult polled = run(false), skipped = run(true);
  EXPECT_EQ(polled.seen, 2000u);
  EXPECT_EQ(skipped.observed(), polled.observed());
  EXPECT_EQ(skipped.first_skip, 4u);
  EXPECT_EQ(skipped.floats, 0u);
}

// A kill() due at a read instant: the skip stops one poll short of the
// killer's wake, and the spinner unwinds right at that instant.
TEST(IdlePollSkip, KilledSpinnerUnwindsAtOnce) {
  auto run = [](bool skip) {
    Engine eng;
    std::uint64_t word = 0;
    SpinResult r;
    Time unwound = 0;
    SimThread* spinner = eng.spawn("spinner", [&] {
      struct OnUnwind {
        Time& at;
        ~OnUnwind() { at = now(); }
      } guard{unwound};
      spin(word, skip, r);
    });
    eng.spawn("killer", [&] {
      delay(read_at(10));
      Engine::current()->kill(spinner);
    });
    eng.run();
    finish(eng, r);
    r.seen = unwound;
    return r;
  };
  const SpinResult polled = run(false), skipped = run(true);
  EXPECT_EQ(polled.seen, read_at(10));
  EXPECT_EQ(polled.polls, 10u);  // the poll at the kill never completes
  EXPECT_EQ(skipped.observed(), polled.observed());
  EXPECT_EQ(skipped.first_skip, 9u);
}

// ---------------------------------------------------------------------------
// Floating: with nothing due on its shard inside the window, a spinner
// parks with no run-queue entry, its shard drops out of the windows, and
// the shard's next event catches it up first. Lookahead kL is a fraction
// of the spins below, and a ticker on another shard keeps windows going
// meanwhile, so each float spans many windows.
// ---------------------------------------------------------------------------

constexpr Time kL = 2 * kPeriod;

// A fiber on `shard` that delays `step` ns `n` times.
void spawn_ticker(Engine& eng, std::uint32_t shard, Time step, int n) {
  eng.spawn_on(shard, "ticker", [step, n] {
    for (int i = 0; i < n; ++i) delay(step);
  });
}

TEST(PollFloat, FloatsAcrossWindowsAndStopsOnePollShortOfAnEffect) {
  auto run = [](bool skip) {
    Engine eng;
    eng.enable_sharding(2, kL);
    std::uint64_t word = 0;
    SpinResult r;
    eng.post_effect(0, read_at(10), 0, 0, 0, [&word] { word = 1; });
    eng.spawn_on(0, "spinner", [&] { spin(word, skip, r); });
    spawn_ticker(eng, 1, 70, 40);
    eng.run();
    finish(eng, r);
    return r;
  };
  const SpinResult polled = run(false), skipped = run(true);
  EXPECT_EQ(polled.seen, read_at(10));
  EXPECT_EQ(polled.polls, 11u);
  EXPECT_GE(read_at(10) - read_at(0), 3 * kL);  // the float spans 3+ windows
  EXPECT_EQ(skipped.simulated(), polled.simulated());
  // One float from the first read to the effect: polls 1..9 end before it.
  EXPECT_EQ(skipped.floats, 1u);
  EXPECT_EQ(skipped.first_skip, 9u);
  EXPECT_EQ(skipped.skipped, 9u);
  EXPECT_EQ(polled.floats, 0u);
}

// The killer sleeps on the spinner's own shard, far past the window: the
// spinner floats over its entry, and is caught up one poll short of the
// kill, so it unwinds right at the kill instant.
TEST(PollFloat, KilledFloaterUnwindsAtTheKillInstant) {
  auto run = [](bool skip) {
    Engine eng;
    eng.enable_sharding(2, kL);
    std::uint64_t word = 0;
    SpinResult r;
    Time unwound = 0;
    SimThread* spinner = eng.spawn_on(0, "spinner", [&] {
      struct OnUnwind {
        Time& at;
        ~OnUnwind() { at = now(); }
      } guard{unwound};
      spin(word, skip, r);
    });
    eng.spawn_on(0, "killer", [&] {
      delay(read_at(10));
      Engine::current()->kill(spinner);
    });
    spawn_ticker(eng, 1, 70, 40);
    eng.run();
    finish(eng, r);
    r.seen = unwound;
    return r;
  };
  const SpinResult polled = run(false), skipped = run(true);
  EXPECT_EQ(polled.seen, read_at(10));
  EXPECT_EQ(polled.polls, 10u);  // the poll at the kill never completes
  EXPECT_EQ(skipped.simulated(), polled.simulated());
  EXPECT_EQ(skipped.floats, 1u);
  EXPECT_EQ(skipped.first_skip, 9u);
}

// A daemon still floating when the run ends: a kill between runs (then
// the next run), and shutdown alone, clear the float and unwind it at its
// shard's clock, the read that started the float, with no catch-up.
TEST(PollFloat, FloaterIsUnwoundBetweenRuns) {
  for (const bool kill_first : {true, false}) {
    Engine eng;
    eng.enable_sharding(2, kL);
    std::uint64_t word = 0;
    SpinResult r;
    Time unwound = 0;
    SimThread* spinner = eng.spawn_on(
        0, "spinner",
        [&] {
          struct OnUnwind {
            Time& at;
            ~OnUnwind() { at = now(); }
          } guard{unwound};
          spin(word, true, r);
        },
        /*daemon=*/true);
    spawn_ticker(eng, 1, 100, 20);
    eng.run();
    EXPECT_EQ(eng.poll_floats(), 0u);  // still floating: not caught up
    EXPECT_FALSE(spinner->finished());
    if (kill_first) {
      eng.kill(spinner);
      spawn_ticker(eng, 1, 100, 20);
      eng.run();
    }
    eng.shutdown();
    EXPECT_TRUE(spinner->finished()) << kill_first;
    EXPECT_EQ(unwound, read_at(0)) << kill_first;
    EXPECT_EQ(r.polls, 1u) << kill_first;
    EXPECT_EQ(eng.poll_floats(), 0u) << kill_first;
  }
}

// Vela's release-side link wait in miniature: a spin that gives up after
// kStuck polls, with no event ever due on its shard. A capped skip never
// floats (nothing would wake it at the cap): it skips in place, window by
// window, and the spin still ends at its kStuck-th read.
TEST(PollFloat, CappedSpinReachesItsCapWithNoOtherEvent) {
  constexpr int kStuck = 40;
  auto run = [](bool skip) {
    Engine eng;
    eng.enable_sharding(2, kL);
    SpinResult r;
    eng.spawn_on(0, "link-wait", [&] {
      Engine& e = *Engine::current();
      int stalled = 0;
      for (;;) {
        delay(kRead);
        ++r.polls;
        if (++stalled >= kStuck) break;
        if (skip) {
          const std::uint64_t m = e.skip_idle_polls(
              kPeriod, static_cast<std::uint64_t>(kStuck - 1 - stalled));
          stalled += static_cast<int>(m);
          r.polls += m;
        }
        delay(kInterval);
      }
      r.seen = now();
    });
    eng.run();
    finish(eng, r);
    return r;
  };
  const SpinResult polled = run(false), skipped = run(true);
  EXPECT_EQ(polled.seen, read_at(kStuck - 1));
  EXPECT_EQ(polled.polls, static_cast<std::uint64_t>(kStuck));
  EXPECT_EQ(skipped.simulated(), polled.simulated());
  EXPECT_EQ(skipped.floats, 0u);
  EXPECT_GT(skipped.skipped, 0u);
}

// Four shards, a spinner on each, set by an effect its neighbour posts
// at a read instant (shard k's at read_at(10 + 3k)), plus a ticker: every
// float is caught up by a cross-shard effect.
std::vector<SpinResult> run_float_ring(bool skip) {
  constexpr std::uint32_t kShards = 4;
  Engine eng;
  eng.enable_sharding(kShards, kL);
  std::vector<std::uint64_t> word(kShards, 0);
  std::vector<SpinResult> r(kShards + 1);
  for (std::uint32_t k = 0; k < kShards; ++k) {
    eng.spawn_on(k, "spinner", [&word, &r, skip, k] {
      spin(word[k], skip, r[k]);
    });
    const std::uint32_t from = (k + 1) % kShards;
    const Time at = read_at(10 + 3 * k);
    eng.spawn_on(from, "setter", [&eng, &word, k, at] {
      delay(at - kL - 7 * k);
      eng.post_effect(k, at, 1, k, 0, [&word, k] { word[k] = 1; });
    });
  }
  spawn_ticker(eng, 1, 90, 30);
  eng.run();
  finish(eng, r[kShards]);
  return r;
}

TEST(PollFloat, SameResultsAtEveryWorkerCount) {
  const std::vector<SpinResult> polled = run_float_ring(false);
  const std::vector<SpinResult> skipped = run_float_ring(true);
  for (std::size_t k = 0; k + 1 < polled.size(); ++k) {
    EXPECT_EQ(polled[k].seen, read_at(10 + 3 * static_cast<Time>(k)));
    EXPECT_EQ(skipped[k].seen, polled[k].seen) << "shard " << k;
    EXPECT_EQ(skipped[k].polls, polled[k].polls) << "shard " << k;
  }
  EXPECT_EQ(skipped.back().delays(), polled.back().delays());
  EXPECT_GT(skipped.back().floats, 0u);
}

// ---------------------------------------------------------------------------
// Gated wake: delay_then_wait(ns, q, busy) must leave exactly what
// delay(ns) followed by the caller's own `while (busy) q.wait()` leaves:
// the same wake order and times and the same run-queue pops, with every
// resumption it saves counted as a gated wait instead of a switch.
// ---------------------------------------------------------------------------

// A line latch in the shape of Carina's lock_line/unlock_line.
struct Latch {
  bool busy = false;
  WaitQueue q;
  void lock() {
    while (busy) q.wait();
    busy = true;
  }
  void unlock() {
    busy = false;
    q.notify_all();
  }
};

struct GateResult {
  std::vector<std::pair<std::string, Time>> log;  // (fiber, time) events
  std::uint64_t pops = 0;
  std::uint64_t resumptions = 0;  // switches + gated waits
  std::uint64_t gated = 0;
  std::uint64_t fast_forwards = 0;
  auto observed() const {
    return std::tie(log, pops, resumptions, fast_forwards);
  }
};

// A page miss: the fault delay, then the latch (gated or plain).
void miss(Latch& l, Time ns, bool gated) {
  if (gated)
    Engine::current()->delay_then_wait(ns, l.q, l.busy);
  else
    delay(ns);
  l.lock();
}

void finish(const Engine& eng, GateResult& r) {
  r.pops = eng.runq_pops();
  r.gated = eng.gated_waits();
  r.resumptions = eng.context_switches() + r.gated;
  r.fast_forwards = eng.delay_fast_forwards();
}

// Misses whose wake finds the latch held (by a 100 ns fill, then by each
// other), interleaved with a plain waiter that queues between them: every
// gated miss must take its FIFO place at its pop, not at its resumption.
TEST(GatedWake, ClosedGateQueuesInPlaceWithoutResuming) {
  auto run = [](bool gated) {
    Engine eng;
    Latch l;
    GateResult r;
    eng.spawn("fill", [&] {
      l.lock();
      delay(100);
      r.log.emplace_back("fill", now());
      l.unlock();
    });
    auto missing = [&](std::string name, Time start) {
      eng.spawn(name, [&, name, start] {
        delay(start);
        miss(l, 10, gated);
        r.log.emplace_back(name, now());
        delay(7);
        l.unlock();
      });
    };
    missing("a", 0);
    missing("b", 0);
    eng.spawn("plain", [&] {
      delay(15);
      l.lock();
      r.log.emplace_back("plain", now());
      delay(7);
      l.unlock();
    });
    missing("c", 20);
    // Due between c's miss and its wake, so c's delay cannot fast-forward.
    eng.spawn("tick", [] { delay(25); });
    eng.run();
    finish(eng, r);
    return r;
  };
  const GateResult plain = run(false), gated = run(true);
  const std::vector<std::pair<std::string, Time>> want{
      {"fill", 100}, {"a", 100}, {"b", 107}, {"plain", 114}, {"c", 121}};
  EXPECT_EQ(plain.log, want);
  EXPECT_EQ(gated.observed(), plain.observed());
  EXPECT_EQ(gated.gated, 3u);  // a, b and c never resumed at their wake
  EXPECT_EQ(plain.gated, 0u);
}

// The latch is free again when the wake is popped: the fiber resumes and
// takes it itself.
TEST(GatedWake, OpenGateResumes) {
  auto run = [](bool gated) {
    Engine eng;
    Latch l;
    GateResult r;
    eng.spawn("fill", [&] {
      l.lock();
      delay(5);
      l.unlock();
      delay(20);
      r.log.emplace_back("fill", now());
    });
    eng.spawn("a", [&] {
      miss(l, 10, gated);
      r.log.emplace_back("a", now());
      l.unlock();
    });
    eng.run();
    finish(eng, r);
    return r;
  };
  const GateResult plain = run(false), gated = run(true);
  const std::vector<std::pair<std::string, Time>> want{{"a", 10},
                                                       {"fill", 25}};
  EXPECT_EQ(plain.log, want);
  EXPECT_EQ(gated.observed(), plain.observed());
  EXPECT_EQ(gated.gated, 0u);
}

// Nothing else is due before the wake, so the delay fast-forwards: no
// run-queue entry, no gate. The caller's own wait queues the fiber.
TEST(GatedWake, FastForwardNeverConsultsTheGate) {
  auto run = [](bool gated) {
    Engine eng;
    Latch l;
    GateResult r;
    eng.spawn("fill", [&] {
      l.lock();
      delay(100);
      l.unlock();
    });
    eng.spawn("a", [&] {
      miss(l, 10, gated);
      r.log.emplace_back("a", now());
      l.unlock();
    });
    eng.run();
    finish(eng, r);
    return r;
  };
  const GateResult plain = run(false), gated = run(true);
  const std::vector<std::pair<std::string, Time>> want{{"a", 100}};
  EXPECT_EQ(plain.log, want);
  EXPECT_EQ(gated.observed(), plain.observed());
  EXPECT_EQ(gated.fast_forwards, 1u);
  EXPECT_EQ(gated.gated, 0u);
}

// A fiber killed while its gated wake is queued unwinds at the kill
// instead of joining the latch queue (where it would sleep until the
// fill ends).
TEST(GatedWake, KilledFiberUnwindsInsteadOfQueuing) {
  auto run = [](bool gated) {
    Engine eng;
    Latch l;
    GateResult r;
    SimThread* victim = nullptr;
    eng.spawn("fill", [&] {
      l.lock();
      delay(5);
      Engine::current()->kill(victim);
      delay(95);
      l.unlock();
    });
    victim = eng.spawn("a", [&] {
      struct OnUnwind {
        GateResult& r;
        ~OnUnwind() { r.log.emplace_back("a unwound", now()); }
      } guard{r};
      miss(l, 10, gated);
      r.log.emplace_back("a locked", now());
    });
    eng.run();
    finish(eng, r);
    EXPECT_EQ(l.q.waiters(), 0u);
    return r;
  };
  const GateResult plain = run(false), gated = run(true);
  const std::vector<std::pair<std::string, Time>> want{{"a unwound", 5}};
  EXPECT_EQ(plain.log, want);
  EXPECT_EQ(gated.observed(), plain.observed());
  EXPECT_EQ(gated.gated, 0u);
}


// A gate belongs to one wake: once popped (open here), a later wake of the
// same fiber from an unrelated queue must resume it even though the old
// latch is held by then.
TEST(GatedWake, GateIsClearedAtEveryPop) {
  auto run = [](bool gated) {
    Engine eng;
    Latch l;
    WaitQueue other;
    GateResult r;
    eng.spawn("a", [&] {
      miss(l, 10, gated);  // open gate: resumes at 10
      l.unlock();
      other.wait();
      r.log.emplace_back("a", now());
    });
    eng.spawn("b", [&] {
      delay(5);
      delay(15);
      l.lock();  // held from 20 to 100
      delay(10);
      other.notify_one();
      delay(70);
      l.unlock();
    });
    eng.run();
    finish(eng, r);
    return r;
  };
  const GateResult plain = run(false), gated = run(true);
  const std::vector<std::pair<std::string, Time>> want{{"a", 30}};
  EXPECT_EQ(plain.log, want);
  EXPECT_EQ(gated.observed(), plain.observed());
}


// ---------------------------------------------------------------------------
// Spin steps: delay_then_spin(ns, step) must leave exactly what the same
// loop written with plain delay()s leaves: the same event order and times
// (a step runs at the instant its fiber would have resumed), the same
// run-queue pops and pushes and fast-forwards, and the same resumption
// count once the pops a step served in place count as spin steps.
// ---------------------------------------------------------------------------

using Log = std::vector<std::pair<std::string, Time>>;

struct StepResult {
  Log log;
  std::uint64_t pops = 0, pushes = 0, fast_forwards = 0;
  std::uint64_t resumptions = 0;  // switches + gated waits + spin steps
  std::uint64_t spin_steps = 0;
  auto observed() const {
    return std::tie(log, pops, pushes, fast_forwards, resumptions);
  }
};

void finish(const Engine& eng, StepResult& r) {
  r.pops = eng.runq_pops();
  r.pushes = eng.runq_pushes();
  r.fast_forwards = eng.delay_fast_forwards();
  r.spin_steps = eng.spin_steps();
  r.resumptions = eng.context_switches() + eng.gated_waits() + r.spin_steps;
}

// A poll loop on `flag`: `first` ns, then a check; while the flag is
// clear, `gap` ns, a tick, `first` ns and the next check.
struct PollStep final : SpinStep {
  std::string name;
  const bool& flag;
  Time first, gap;
  Log& log;
  bool check = true;
  PollStep(std::string n, const bool& f, Time a, Time b, Log& l)
      : name(std::move(n)), flag(f), first(a), gap(b), log(l) {}
  Time step(Time now) override {
    if (check) {
      log.emplace_back(name + " check", now);
      if (flag) return kResume;
      check = false;
      return gap;
    }
    log.emplace_back(name + " tick", now);
    check = true;
    return first;
  }
};

// The same loop as a spin step (`steps`) or with plain delays.
void poll(bool steps, const std::string& name, const bool& flag, Time first,
          Time gap, Log& log) {
  if (steps) {
    PollStep p(name, flag, first, gap, log);
    Engine::current()->delay_then_spin(first, p);
  } else {
    delay(first);
    for (;;) {
      log.emplace_back(name + " check", now());
      if (flag) break;
      delay(gap);
      log.emplace_back(name + " tick", now());
      delay(first);
    }
  }
  log.emplace_back(name + " resumed", now());
}

// Two spinners and a ticker share instants (every time is a multiple of
// 10), so steps tie with each other and with the ticker's wakes; (when,
// seq) must order them exactly as the fibers' own delays would.
TEST(SpinStep, SameInstantTiesFollowSequenceNumbers) {
  auto run = [](bool steps) {
    Engine eng;
    bool flag = false;
    StepResult r;
    eng.spawn("a", [&] { poll(steps, "a", flag, 10, 20, r.log); });
    eng.spawn("b", [&] { poll(steps, "b", flag, 20, 10, r.log); });
    eng.spawn("ticker", [&] {
      for (int k = 0; k < 12; ++k) {
        delay(10);
        r.log.emplace_back("tick", now());
      }
      flag = true;
    });
    eng.run();
    finish(eng, r);
    return r;
  };
  const StepResult plain = run(false), steps = run(true);
  EXPECT_EQ(steps.observed(), plain.observed());
  EXPECT_EQ(plain.log.back(), (std::pair<std::string, Time>{"b resumed", 140}));
  EXPECT_GT(steps.spin_steps, 0u);
  EXPECT_EQ(plain.spin_steps, 0u);
}

// An effect due exactly at a step's instant runs before it (effects
// precede fiber wakes at the same instant): at 10 the step is popped, and
// at 50 and 130 (once b has gone quiet) the fast-forward between two steps
// runs the effect inline.
TEST(SpinStep, EffectDueAtAStepInstantRunsFirst) {
  auto run = [](bool steps) {
    Engine eng;
    bool flag = false;
    StepResult r;
    // a's checks fall at 10, 50, 90, 130.
    eng.spawn("a", [&] { poll(steps, "a", flag, 10, 30, r.log); });
    eng.spawn("b", [&] {
      for (const Time at : {Time{10}, Time{50}})
        eng.post_effect(0, at, 0, at, 0, [&r, &eng, at] {
          r.log.emplace_back("effect " + std::to_string(at), eng.now());
        });
      eng.post_effect(0, 130, 0, 130, 0, [&] {
        r.log.emplace_back("set", eng.now());
        flag = true;
      });
      delay(12);  // due before a's first tick: a parks there
      r.log.emplace_back("b", now());
      delay(1000);
    });
    eng.run();
    finish(eng, r);
    return r;
  };
  const StepResult plain = run(false), steps = run(true);
  EXPECT_EQ(steps.observed(), plain.observed());
  const auto at = [&log = plain.log](const std::string& what, Time t) {
    const auto it = std::find(log.begin(), log.end(), std::pair{what, t});
    EXPECT_NE(it, log.end()) << what << " at " << t;
    return it - log.begin();
  };
  EXPECT_LT(at("effect 10", 10), at("a check", 10));
  EXPECT_LT(at("effect 50", 50), at("a check", 50));
  EXPECT_LT(at("set", 130), at("a check", 130));
  EXPECT_EQ(plain.log.back(), (std::pair<std::string, Time>{"a resumed", 130}));
  EXPECT_GT(steps.spin_steps, 0u);
}

// On a two-shard engine, the window ends between steps: a re-keyed entry
// past the window end waits for the next window, and the flag arrives
// from the other shard as an effect one lookahead later.
TEST(SpinStep, WindowEndsBetweenStepsOnTwoShards) {
  auto run = [](bool steps) {
    Engine eng;
    eng.enable_sharding(2, 50);
    bool flag = false;
    StepResult r;
    eng.spawn_on(0, "a", [&] { poll(steps, "a", flag, 7, 13, r.log); });
    eng.spawn_on(0, "b", [&] { poll(steps, "b", flag, 11, 17, r.log); });
    eng.spawn_on(1, "remote", [&] {
      delay(123);
      eng.post_effect(0, now() + 50, 0, 1, 0, [&] { flag = true; });
      delay(200);
    });
    eng.run();
    finish(eng, r);
    return r;
  };
  const StepResult plain = run(false), steps = run(true);
  EXPECT_EQ(steps.observed(), plain.observed());
  EXPECT_GT(steps.spin_steps, 0u);
}

// A fiber killed while spinning unwinds at the kill instant, not at its
// next step.
TEST(SpinStep, KilledSpinnerUnwindsAtTheKill) {
  auto run = [](bool steps) {
    Engine eng;
    bool flag = false;
    StepResult r;
    SimThread* victim = eng.spawn("a", [&] {
      struct OnUnwind {
        Log& log;
        ~OnUnwind() { log.emplace_back("a unwound", now()); }
      } guard{r.log};
      poll(steps, "a", flag, 10, 30, r.log);
    });
    eng.spawn("b", [&] { poll(steps, "b", flag, 15, 25, r.log); });
    eng.spawn("killer", [&] {
      delay(63);
      Engine::current()->kill(victim);
      delay(40);
      flag = true;
    });
    eng.run();
    finish(eng, r);
    return r;
  };
  const StepResult plain = run(false), steps = run(true);
  EXPECT_EQ(steps.observed(), plain.observed());
  const auto unwound = std::find(plain.log.begin(), plain.log.end(),
                                 std::pair<std::string, Time>{"a unwound", 63});
  EXPECT_NE(unwound, plain.log.end());
  EXPECT_GT(steps.spin_steps, 0u);
}

// shutdown() with a daemon spinner parked: it unwinds at its next wake,
// as the plain loop's parked delay would.
TEST(SpinStep, ShutdownUnwindsAParkedSpinner) {
  auto run = [](bool steps) {
    StepResult r;
    const bool flag = false;
    {
      Engine eng;
      eng.spawn("a", [&] {
        struct OnUnwind {
          Log& log;
          ~OnUnwind() { log.emplace_back("a unwound", now()); }
        } guard{r.log};
        poll(steps, "a", flag, 10, 30, r.log);
      }, /*daemon=*/true);
      eng.spawn("worker", [&] {
        delay(95);
        r.log.emplace_back("worker done", now());
      });
      eng.run();
      eng.shutdown();
      finish(eng, r);
    }
    return r;
  };
  const StepResult plain = run(false), steps = run(true);
  EXPECT_EQ(steps.observed(), plain.observed());
  EXPECT_EQ(plain.log.back(), (std::pair<std::string, Time>{"a unwound", 120}));
  EXPECT_GT(steps.spin_steps, 0u);
}

}  // namespace
}  // namespace argosim
