// Benchmark driver: runs one workload once per process on the default
// engine and prints one JSON object on one line. perfbench/run.py spawns a
// fresh process for every sample, so nothing process-global (buffer pool,
// fiber-stack pool) is warm when a sample starts.
//
//   perfbench_driver run        --workload lu|cg|pq_hqdl --seed N
//                               [--size full|tiny] [--expect NAME=VALUE]...
//                               [--corrupt-reference] [--trace-file PATH]
//   perfbench_driver reference  --workload lu|cg --seed N [--size full|tiny]
//   perfbench_driver probe
//   perfbench_driver pq-compare --seed N [--size full|tiny]
//
// `run` times Cluster construction (setup_s) and the workload call
// (wall_s), then reads the program's counters through Cluster::stats() and
// checks the outputs: lu/cg against the --expect values `reference`
// printed, pq_hqdl by replaying its critical-section log against a
// std::multiset. `probe` times single calls into each layer's public
// functions while only one fiber is runnable. `pq-compare` runs the pq loop
// and pq_bench_dsm(Hqdl) at the same parameters.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "argo/apps.hpp"
#include "argo/argo.hpp"
#include "argo/sim.hpp"
#include "argo/sync.hpp"
#include "argo/trace.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using argosim::Time;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- output -----------------------------------------------------------------

/// Flat JSON object writer (keys in insertion order).
class Json {
 public:
  Json& num(const std::string& k, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return raw(k, buf);
  }
  Json& u64(const std::string& k, std::uint64_t v) {
    return raw(k, std::to_string(v));
  }
  Json& str(const std::string& k, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += (c == '\n') ? ' ' : c;
    }
    return raw(k, q + "\"");
  }
  Json& raw(const std::string& k, const std::string& json) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + k + "\":" + json;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Spans recorded around the driver's own calls into the program, flat
/// under one root ("run"), in seconds since the process started timing.
class Spans {
 public:
  void add(const char* name, Clock::time_point b, Clock::time_point e) {
    Json j;
    j.str("name", name).str("parent", "run")
        .num("start_s", seconds_between(origin_, b))
        .num("end_s", seconds_between(origin_, e));
    items_.push_back(j.text());
  }
  std::string text() const {
    std::string s = "[";
    for (std::size_t i = 0; i < items_.size(); ++i)
      s += (i ? "," : "") + items_[i];
    return s + "]";
  }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<std::string> items_;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Lower edge of the power-of-two bucket holding quantile q.
std::uint64_t hist_quantile(const argoobs::LatencyHist& h, double q) {
  if (h.samples == 0) return 0;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(h.samples)));
  std::uint64_t seen = 0;
  for (int b = 0; b < argoobs::LatencyHist::kBuckets; ++b) {
    seen += h.bucket[b];
    if (seen >= std::max<std::uint64_t>(rank, 1))
      return argoobs::LatencyHist::bucket_floor_ns(b);
  }
  return h.max_ns;
}

// --- arguments --------------------------------------------------------------

struct Args {
  std::string mode;
  std::map<std::string, std::string> opt;
  std::map<std::string, double> expect;
  bool corrupt = false;

  std::string get(const std::string& k, const std::string& dflt = "") const {
    auto it = opt.find(k);
    return it == opt.end() ? dflt : it->second;
  }
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing mode");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--corrupt-reference") {
      a.corrupt = true;
    } else if (k.rfind("--", 0) == 0 && i + 1 < argc) {
      const std::string v = argv[++i];
      if (k == "--expect") {
        const auto eq = v.find('=');
        if (eq == std::string::npos)
          throw std::invalid_argument("--expect wants NAME=VALUE");
        a.expect[v.substr(0, eq)] = std::stod(v.substr(eq + 1));
      } else {
        a.opt[k.substr(2)] = v;
      }
    } else {
      throw std::invalid_argument("bad argument: " + k);
    }
  }
  return a;
}

// --- workloads --------------------------------------------------------------

enum class Kind { Lu, Cg, Pq };

struct Workload {
  Kind kind = Kind::Lu;
  argo::ClusterConfig cfg;  // the default config, shaped below
  argoapps::LuParams lu;
  argoapps::CgParams cg;
  argoapps::PqParams pq;
};

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool tiny) {
  Workload w;
  if (name == "lu") {
    w.kind = Kind::Lu;
    w.cfg.nodes = tiny ? 2 : 32;
    w.cfg.threads_per_node = tiny ? 2 : 15;
    w.lu.n = tiny ? 128 : 1536;
    w.lu.block = tiny ? 16 : 32;
    w.lu.seed = seed;
    w.cfg.global_mem_bytes = std::max(w.cfg.global_mem_bytes,
                                      w.lu.n * w.lu.n * sizeof(double) * 2);
  } else if (name == "cg") {
    w.kind = Kind::Cg;
    w.cfg.nodes = tiny ? 2 : 32;
    w.cfg.threads_per_node = tiny ? 2 : 15;
    w.cg.n = tiny ? 1024 : 65536;
    w.cg.iterations = tiny ? 4 : 24;
    w.cg.seed = seed;
  } else if (name == "pq_hqdl") {
    w.kind = Kind::Pq;
    w.cfg.nodes = tiny ? 2 : 16;
    w.cfg.threads_per_node = tiny ? 2 : 15;
    w.pq.duration = tiny ? 200'000 : 40'000'000;
    if (tiny) w.pq.prefill = 64;
    w.pq.seed = seed;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

/// Block tasks of the blocked LU: per step one diagonal factorization, the
/// perimeter row and column solves, and the interior updates.
std::uint64_t lu_block_tasks(std::size_t nb) {
  std::uint64_t tasks = 0;
  for (std::size_t k = 0; k < nb; ++k) {
    const std::uint64_t r = nb - k - 1;
    tasks += 1 + 2 * r + r * r;
  }
  return tasks;
}

// The pq_hqdl loop: pq_bench_dsm(Hqdl)'s loop, plus a log of every critical
// section in execution order. The global lock serializes sections, and the
// engine runs one fiber at a time, so appending needs no host locking.
struct PqLogEntry {
  bool insert;
  bool empty;             // extract found the heap empty
  std::uint64_t value;    // inserted key or extracted minimum
};

struct PqOutcome {
  std::uint64_t ops = 0;  // critical sections issued in the window
  Time elapsed = 0;       // whole parallel phase: prefill, window and drain
  std::vector<PqLogEntry> log;
  argosync::DelegationStats hqdl;
};

PqOutcome run_pq(argo::Cluster& cl, const argoapps::PqParams& p) {
  argoapps::DsmPairingHeap heap(
      cl, p.prefill + 4096 + static_cast<std::size_t>(cl.nthreads()) * 64);
  argosync::HqdLock hqdl(cl);
  PqOutcome out;
  out.log.reserve(p.prefill + (1u << 17));
  out.elapsed = cl.run([&](argo::Thread& t) {
    if (t.gid() == 0) {
      argosim::Rng rng(p.seed);
      for (std::size_t i = 0; i < p.prefill; ++i) {
        const std::uint64_t key = rng.next_u64() >> 16;
        heap.insert(t, key);
        out.log.push_back({true, false, key});
      }
    }
    t.barrier();
    const Time deadline = argosim::now() + p.duration;
    argosim::Rng rng(p.seed + static_cast<std::uint64_t>(t.gid()) + 1);
    while (argosim::now() < deadline) {
      argosim::delay(static_cast<Time>(p.work_units) * p.ns_per_unit);
      const bool is_insert = rng.next_bool();
      const std::uint64_t key = rng.next_u64() >> 16;
      auto cs = [&heap, &p, &out, is_insert, key](argo::Thread& exec) {
        if (is_insert) {
          heap.insert(exec, key);
          out.log.push_back({true, false, key});
        } else {
          const auto m = heap.extract_min(exec);
          out.log.push_back({false, !m.has_value(), m.value_or(0)});
        }
        exec.compute(p.op_compute);
      };
      hqdl.execute(t, cs, /*wait=*/!is_insert);
      ++out.ops;
    }
  });
  out.hqdl = hqdl.total_stats();
  return out;
}

/// Replays the log against std::multiset; returns the entries that
/// disagree. `corrupt` seeds the oracle with one extra key, so the replay
/// must report a mismatch.
std::uint64_t pq_oracle_failures(const std::vector<PqLogEntry>& log,
                                 bool corrupt) {
  std::multiset<std::uint64_t> oracle;
  if (corrupt) oracle.insert(0);
  std::uint64_t bad = 0;
  for (const PqLogEntry& e : log) {
    if (e.insert) {
      oracle.insert(e.value);
    } else if (oracle.empty()) {
      bad += e.empty ? 0 : 1;
    } else {
      bad += (e.empty || *oracle.begin() != e.value) ? 1 : 0;
      oracle.erase(oracle.begin());
    }
  }
  return bad;
}

double rel_err(double got, double want) {
  return std::fabs(got - want) / std::max(std::fabs(want), 1e-300);
}

// --- modes ------------------------------------------------------------------

Workload workload_from(const Args& a) {
  return make_workload(a.get("workload"), std::stoull(a.get("seed", "1")),
                       a.get("size", "full") == "tiny");
}

int cmd_reference(const Args& a) {
  const Workload w = workload_from(a);
  Json outputs;
  const auto t0 = Clock::now();
  if (w.kind == Kind::Lu) {
    outputs.num("checksum", argoapps::lu_reference(w.lu));
  } else if (w.kind == Kind::Cg) {
    const auto r = argoapps::cg_reference(w.cg);
    outputs.num("x_checksum", r.x_checksum).num("final_rho", r.final_rho);
  }
  const double reference_s = seconds_between(t0, Clock::now());
  std::printf("%s\n", Json()
                          .raw("outputs", outputs.text())
                          .num("reference_s", reference_s)
                          .text()
                          .c_str());
  return 0;
}

int cmd_run(const Args& a) {
  Workload w = workload_from(a);
  const std::string trace_file = a.get("trace-file");
  if (!trace_file.empty()) {
    w.cfg.trace.enabled = true;
    // 16 Ki events (640 KiB) per node keep a 32-node trace far below the
    // workload's own footprint; overwritten events count as trace.dropped.
    w.cfg.trace.ring_capacity = 1u << 14;
  }
  Spans spans;

  const auto c0 = Clock::now();
  argo::Cluster cl(w.cfg);
  const auto c1 = Clock::now();
  spans.add("cluster", c0, c1);
  if (!trace_file.empty())
    cl.trace_sink(argoobs::make_binary_trace_sink(trace_file));

  std::vector<std::pair<std::string, double>> outputs;
  std::uint64_t ops = 0;
  Time elapsed = 0, window = 0;
  PqOutcome pq;
  const auto w0 = Clock::now();
  if (w.kind == Kind::Lu) {
    const auto r = argoapps::lu_run_argo(cl, w.lu);
    elapsed = window = r.elapsed;
    outputs = {{"checksum", r.checksum}};
    ops = lu_block_tasks(w.lu.n / w.lu.block);
  } else if (w.kind == Kind::Cg) {
    const auto r = argoapps::cg_run_argo(cl, w.cg);
    elapsed = window = r.elapsed;
    outputs = {{"x_checksum", r.x_checksum}, {"final_rho", r.final_rho}};
    ops = static_cast<std::uint64_t>(w.cg.n) *
          static_cast<std::uint64_t>(w.cg.iterations);
  } else {
    pq = run_pq(cl, w.pq);
    elapsed = pq.elapsed;
    window = w.pq.duration;  // the Fig. 12 metric counts the fixed window
    ops = pq.ops;
    outputs = {{"critical_sections", static_cast<double>(pq.log.size())}};
  }
  const auto w1 = Clock::now();
  spans.add("workload", w0, w1);

  const auto s0 = Clock::now();
  const argo::ClusterStats st = cl.stats();
  const auto s1 = Clock::now();
  spans.add("stats", s0, s1);

  const auto k0 = Clock::now();
  std::uint64_t checks = 0, failures = 0;
  if (w.kind == Kind::Pq) {
    checks = pq.log.size() + 1;
    failures = pq_oracle_failures(pq.log, a.corrupt);
    // Every issued section ran, detached inserts included.
    if (pq.log.size() != w.pq.prefill + pq.ops) ++failures;
  } else {
    for (const auto& [name, got] : outputs) {
      ++checks;
      const auto it = a.expect.find(name);
      if (it == a.expect.end()) {
        ++failures;
        continue;
      }
      const double want = a.corrupt ? it->second * (1.0 + 1e-6) : it->second;
      if (!(rel_err(got, want) < 1e-9)) ++failures;
    }
  }
  const auto k1 = Clock::now();
  spans.add("check", k0, k1);

  Json out_json, counters, hists;
  for (const auto& [name, v] : outputs) out_json.num(name, v);
  for (const auto& c : st.counters) counters.u64(c.name, c.value);
  for (const auto& h : st.hists)
    hists.raw(h.name, Json()
                          .u64("samples", h.hist.samples)
                          .u64("p50", hist_quantile(h.hist, 0.5))
                          .u64("max", h.hist.max_ns)
                          .text());
  Json out;
  out.str("workload", a.get("workload"))
      .str("context_backend", argosim::Engine::context_backend())
      .str("engine_fallback_reason", st.engine_fallback_reason)
      .num("setup_s", seconds_between(c0, c1))
      .num("wall_s", seconds_between(w0, w1))
      .num("stats_s", seconds_between(s0, s1))
      .num("check_s", seconds_between(k0, k1))
      .num("peak_rss_mb", peak_rss_mb())
      .u64("virtual_ns", elapsed)
      .u64("ops", ops)
      .num("sim_ops_per_us",
           static_cast<double>(ops) / argosim::to_us(window))
      .u64("checks", checks)
      .u64("check_failures", failures)
      .raw("outputs", out_json.text())
      .raw("hqdl", Json()
                       .u64("batches", pq.hqdl.batches)
                       .u64("executed", pq.hqdl.executed)
                       .u64("delegated", pq.hqdl.delegated)
                       .text())
      .raw("counters", counters.text())
      .raw("hists", hists.text())
      .raw("spans", spans.text());
  std::printf("%s\n", out.text().c_str());
  return 0;
}

/// Median over `samples` of the host ns per call of `call(i)`, timing
/// `batch` calls per sample; `prep(i)` runs untimed before each sample.
template <typename Call, typename Prep>
double median_ns(int samples, int batch, Call&& call, Prep&& prep) {
  std::vector<double> ns;
  ns.reserve(static_cast<std::size_t>(samples));
  for (int s = 0; s < samples; ++s) {
    prep(s);
    const auto t0 = Clock::now();
    for (int i = 0; i < batch; ++i) call(s * batch + i);
    ns.push_back(seconds_between(t0, Clock::now()) * 1e9 / batch);
  }
  std::nth_element(ns.begin(), ns.begin() + samples / 2, ns.end());
  return ns[static_cast<std::size_t>(samples / 2)];
}

template <typename Call>
double median_ns(int samples, int batch, Call&& call) {
  return median_ns(samples, batch, call, [](int) {});
}

int cmd_probe() {
  Json out;
  {
    // A switch needs a second runnable fiber (a lone fiber's delay is
    // fast-forwarded in place), so two fibers alternate delay(1) and the
    // engine's own switch counter divides the wall time.
    argosim::Engine eng;
    constexpr int kIters = 100'000;
    for (int f = 0; f < 2; ++f)
      eng.spawn("ping" + std::to_string(f), [] {
        for (int i = 0; i < kIters; ++i) argosim::delay(1);
      });
    const auto t0 = Clock::now();
    eng.run();
    const double wall_ns = seconds_between(t0, Clock::now()) * 1e9;
    out.num("probe.sim.switch_ns",
            wall_ns / static_cast<double>(eng.context_switches()));
  }

  // Every other probe runs one application fiber on node 0 of a 2-node
  // cluster against pages homed on node 1.
  constexpr int kPages = 1024;
  constexpr std::size_t kWords = argo::kPageSize / sizeof(std::uint64_t);
  argo::ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.threads_per_node = 1;
  cfg.global_mem_bytes = 4 * kPages * argo::kPageSize;  // 2 * kPages per home
  argo::Cluster cl(cfg);
  // Blocked homes: skip node 0's share to land kPages pages on node 1.
  const auto remote =
      cl.alloc<std::uint64_t>(3 * static_cast<std::size_t>(kPages) * kWords) +
      static_cast<std::ptrdiff_t>(2 * static_cast<std::size_t>(kPages) * kWords);
  if (cl.gmem().home_of(remote.raw()) != 1)
    throw std::logic_error("probe pages are not homed on node 1");
  std::uint64_t* const home = cl.host_ptr(remote);
  argosync::HqdLock hqdl(cl);
  cl.reset_classification();
  std::uint64_t sink = 0;
  cl.run_subset(1, 1, [&](argo::Thread& t) {
    auto page = [&](int i) {
      return remote + static_cast<std::ptrdiff_t>(
                          static_cast<std::size_t>(i % kPages) * kWords);
    };
    out.num("probe.carina.miss_ns",
            median_ns(kPages, 1, [&](int i) { sink += t.load(page(i)); }));
    out.num("probe.carina.hit_ns", median_ns(1000, 256, [&](int i) {
              sink += t.load(page(i % 8) + i % static_cast<int>(kWords));
            }));
    std::uint64_t buf = 0;
    out.num("probe.net.read_rtt_ns", median_ns(1000, 1, [&](int i) {
              cl.net().read(0, 1, home + (i % kPages) * kWords, &buf,
                            sizeof(buf));
              sink += buf;
            }));
    out.num("probe.carina.sd_fence_ns",
            median_ns(1000, 1, [&](int) { t.release(); },
                      [&](int i) {
                        t.store(page(i), static_cast<std::uint64_t>(i));
                      }));
    out.num("probe.vela.barrier_ns",
            median_ns(1000, 1, [&](int) { t.barrier(); }));
    out.num("probe.vela.hqdl_execute_ns", median_ns(1000, 1, [&](int) {
              hqdl.execute(t, [](argo::Thread&) {}, /*wait=*/true);
            }));
  });
  out.u64("sink", sink);
  std::printf("%s\n", out.text().c_str());
  return 0;
}

int cmd_pq_compare(const Args& a) {
  const Workload w = make_workload("pq_hqdl", std::stoull(a.get("seed", "1")),
                                   a.get("size", "full") == "tiny");
  argo::Cluster mine_cl(w.cfg);
  const PqOutcome mine = run_pq(mine_cl, w.pq);
  argo::Cluster ref_cl(w.cfg);
  const auto ref =
      argoapps::pq_bench_dsm(ref_cl, argoapps::DsmLockKind::Hqdl, w.pq);
  std::printf("%s\n",
              Json()
                  .u64("loop_ops", mine.ops)
                  .num("loop_ops_per_us", static_cast<double>(mine.ops) /
                                              argosim::to_us(w.pq.duration))
                  .u64("pq_bench_dsm_ops", ref.ops)
                  .num("pq_bench_dsm_ops_per_us", ref.ops_per_us())
                  .text()
                  .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // The measured program is the default build on the default engine: no
  // reference slow paths, no worker pool, no forced sequential engine, no
  // adaptive-tuning override.
  for (const char* var :
       {"ARGO_SLOW_PATHS", "ARGO_THREADS", "ARGO_SEQ_ENGINE", "ARGO_NO_ADAPT"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "perfbench_driver: refusing to run with %s set\n",
                   var);
      return 2;
    }
  }
  try {
    const Args a = parse_args(argc, argv);
    if (a.mode == "run") return cmd_run(a);
    if (a.mode == "reference") return cmd_reference(a);
    if (a.mode == "probe") return cmd_probe();
    if (a.mode == "pq-compare") return cmd_pq_compare(a);
    throw std::invalid_argument("unknown mode: " + a.mode);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}
