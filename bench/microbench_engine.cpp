// Engine microbenchmarks: the scheduler hot paths measured in isolation,
// in *wall-clock* time (everything else in bench/ reports virtual time).
// Three probes, one per tentpole axis of the host-performance work:
//
//   fiber_switch  ping-pong context switches between simulated threads —
//                 the fcontext vs ucontext cost, divided out per switch
//                 using the engine's own sim.context_switches counter
//   runq_hold     the classic "hold" model on the run queue's binary
//                 heap: a steady-state queue where every op pops the
//                 minimum and re-pushes it a random horizon ahead; swept
//                 across horizon spreads from dense ties to sparse keys
//   posted_rtt    post_read + wait round trips through the interconnect's
//                 posted send queue — the pooled-record / SmallFn path
//
// Every row stamps the build's context-switch backend ("fcontext" or
// "ucontext"); CI asserts which one each build leg compiled in.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <queue>
#include <vector>

#include "argo/net.hpp"
#include "argo/sim.hpp"
#include "bench/report.hpp"

namespace {

using argosim::Engine;
using argosim::Time;
using benchutil::BenchOpts;
using benchutil::JsonReport;
using benchutil::Table;

double wall_ns_since(std::chrono::steady_clock::time_point t0) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// Row prefix shared by the three probes: the figure id, the probe name,
/// and the context-switch backend stamp.
JsonReport::Row& mb_row(JsonReport& json, const char* probe,
                        const BenchOpts& opts, int nodes) {
  return benchutil::bench_row(json, "microbench", "bench", probe, opts, nodes)
      .str("context_backend", Engine::context_backend());
}

// --- fiber_switch -----------------------------------------------------------

/// F fibers, each yielding `iters` times via delay(1). Every delay parks
/// the caller and resumes another runnable fiber, so the engine's switch
/// counter divides the wall time into a cost per context switch.
void bench_fiber_switch(JsonReport& json, const BenchOpts& opts) {
  const int fibers = 4;
  const int iters = opts.quick ? 5000 : 50000;
  Engine eng;
  for (int f = 0; f < fibers; ++f)
    eng.spawn(Table::fmt("ping%d", f), [iters] {
      for (int i = 0; i < iters; ++i) argosim::delay(1);
    });
  const auto t0 = std::chrono::steady_clock::now();
  eng.run();
  const double wall = wall_ns_since(t0);
  const std::uint64_t switches = eng.context_switches();
  const double per = switches != 0 ? wall / static_cast<double>(switches) : 0.0;
  Table t({"fibers", "yields/fiber", "switches", "wall_ms", "ns/switch"});
  t.row({Table::fmt("%d", fibers), Table::fmt("%d", iters),
         Table::fmt("%llu", static_cast<unsigned long long>(switches)),
         Table::fmt("%.2f", wall / 1e6), Table::fmt("%.1f", per)});
  t.print();
  mb_row(json, "fiber_switch", opts, 0)
      .num("fibers", fibers)
      .num("iters", iters)
      .num("switches", switches)
      .num("wall_ms", wall / 1e6)
      .num("ns_per_switch", per);
}

// --- runq_hold --------------------------------------------------------------

struct HoldEntry {
  Time when = 0;
  std::uint64_t seq = 0;
  bool operator>(const HoldEntry& o) const {
    if (when != o.when) return when > o.when;
    return seq > o.seq;
  }
};

/// Steady-state hold: `qsize` entries live, each op pops the minimum and
/// re-pushes it a random horizon ahead, on the binary min-heap the engine's
/// shard run queues use. Narrow spreads produce many equal times (ties
/// broken by sequence); wide spreads leave keys sparse.
void bench_runq_hold(JsonReport& json, const BenchOpts& opts) {
  const std::size_t qsize = 4096;
  const int iters = opts.quick ? 20000 : 200000;
  const std::uint64_t spreads[] = {256, 64 * 1024, 16 * 1024 * 1024};
  Table t({"spread_ns", "qsize", "ops", "wall_ms", "ns/op"});
  for (std::uint64_t spread : spreads) {
    std::priority_queue<HoldEntry, std::vector<HoldEntry>, std::greater<>> q;
    argosim::Rng rng(0x9e3779b97f4a7c15ull ^ spread);
    std::uint64_t seq = 0;
    for (std::size_t i = 0; i < qsize; ++i)
      q.push({rng.next_below(spread), seq++});
    Time last = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      HoldEntry e = q.top();
      q.pop();
      if (e.when < last) std::abort();  // ordering violated: not a benchmark
      last = e.when;
      e.when += rng.next_below(spread) + 1;
      e.seq = seq++;
      q.push(std::move(e));
    }
    const double wall = wall_ns_since(t0);
    const double per = wall / static_cast<double>(iters);
    t.row({Table::fmt("%llu", static_cast<unsigned long long>(spread)),
           Table::fmt("%zu", qsize), Table::fmt("%d", iters),
           Table::fmt("%.2f", wall / 1e6), Table::fmt("%.1f", per)});
    mb_row(json, "runq_hold", opts, 0)
        .num("spread_ns", spread)
        .num("qsize", static_cast<std::uint64_t>(qsize))
        .num("ops", iters)
        .num("wall_ms", wall / 1e6)
        .num("ns_per_op", per);
  }
  t.print();
}

// --- posted_rtt -------------------------------------------------------------

/// post_read + wait round trips on a two-node interconnect. At pipeline
/// depth 1 the post *is* the blocking verb; at depth > 1 each trip runs
/// the full posted path: record acquisition (pool), effect closures
/// (SmallFn), the send-queue retire effect, and the completion wake.
void bench_posted_rtt(JsonReport& json, const BenchOpts& opts) {
  const int iters = opts.quick ? 2000 : 20000;
  argonet::NetConfig cfg;
  cfg.pipeline = opts.pipeline;
  Engine eng;
  argonet::Interconnect net(2, cfg);
  std::uint64_t remote = 0x5ca1ab1e;
  std::uint64_t local = 0;
  double wall = 0.0;
  eng.spawn("rtt", [&] {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      argonet::PostedHandle h = net.post_read(0, 1, &remote, &local, 8);
      net.wait(h);
    }
    wall = wall_ns_since(t0);
  });
  eng.run();
  const double per = wall / static_cast<double>(iters);
  Table t({"pipeline", "round_trips", "wall_ms", "ns/rtt", "posted_ops"});
  t.row({Table::fmt("%d", opts.pipeline), Table::fmt("%d", iters),
         Table::fmt("%.2f", wall / 1e6), Table::fmt("%.1f", per),
         Table::fmt("%llu",
                    static_cast<unsigned long long>(net.stats(0).posted_ops))});
  t.print();
  mb_row(json, "posted_rtt", opts, 2)
      .num("round_trips", iters)
      .num("wall_ms", wall / 1e6)
      .num("ns_per_rtt", per)
      .num("posted_ops", net.stats(0).posted_ops);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace benchutil;
  const BenchOpts opts = BenchOpts::parse(argc, argv);
  header("Engine microbench",
         "scheduler hot paths in wall-clock time (fiber switch, run-queue "
         "hold, posted round-trip)");
  note(Table::fmt("context backend: %s", Engine::context_backend()).c_str());
  if (opts.pipeline > 1)
    note(Table::fmt("pipeline depth %d (posted verbs)", opts.pipeline).c_str());

  JsonReport json;
  bench_fiber_switch(json, opts);
  bench_runq_hold(json, opts);
  bench_posted_rtt(json, opts);
  json.write(opts.json_path);
  return 0;
}
