// Shared machinery for the Figure 13 scaling benches: speedup series over
// node counts, normalized (as in the paper) to a single-threaded run.
//
// Scale note: the multi-word directory encoding covers the paper's full
// range (up to 128 nodes / 1920 worker threads; pass --nodes 64,128 for
// the large points); the default sweep stops at 32 nodes to keep run time
// down, and workloads are scaled to simulator size (see EXPERIMENTS.md).
#pragma once

#include <functional>

#include "bench/report.hpp"

namespace benchutil {

inline const std::vector<int> kNodeCounts{1, 2, 4, 8, 16, 32};
inline const std::vector<int> kPthreadCounts{1, 2, 4, 8, 15};

/// Print a speedup table: one row per series, one column per node count
/// (plus single-node thread counts for the Pthreads/OpenMP series).
struct SpeedupReport {
  explicit SpeedupReport(double t_seq_ms) : t_seq_ms_(t_seq_ms) {}

  void series(const std::string& name, const std::vector<int>& xs,
              const std::vector<double>& times_ms, const char* x_unit) {
    rows_.push_back({name, xs, times_ms, x_unit});
  }

  void print() const {
    Table t({"series", "x", "time (ms)", "speedup"});
    for (const auto& r : rows_)
      for (std::size_t i = 0; i < r.xs.size(); ++i)
        t.row({i == 0 ? r.name : "",
               Table::fmt("%d %s", r.xs[i], r.unit),
               Table::fmt("%.3f", r.times[i]),
               Table::fmt("%.1fx", t_seq_ms_ / r.times[i])});
    t.print();
    note("");
    note(Table::fmt("sequential baseline: %.3f ms (1 node, 1 thread)",
                    t_seq_ms_)
             .c_str());
  }

 private:
  struct Row {
    std::string name;
    std::vector<int> xs;
    std::vector<double> times;
    const char* unit;
  };
  double t_seq_ms_;
  std::vector<Row> rows_;
};

/// Run an argo-backend app over the standard node counts (15 threads per
/// node) and single-node thread counts ("Pthreads"/"OpenMP" series).
struct ArgoScaling {
  std::vector<int> nodes;           // node counts actually run
  std::vector<int> threads;         // single-node thread counts actually run
  std::vector<double> argo_ms;      // per nodes
  std::vector<double> pthread_ms;   // per threads
  double seq_ms = 0;
};

inline ArgoScaling run_argo_scaling(
    const std::function<argosim::Time(argo::Cluster&)>& run,
    std::size_t mem_bytes, const BenchOpts& opts = BenchOpts{}) {
  // Like the paper's runs, the global memory is sized to the (fixed)
  // workload whatever the node count: every node serves an equal share, so
  // the blocked home distribution spreads the data over all nodes.
  // --nodes pins the Argo series to the listed node counts ("--nodes 32"
  // or "--nodes 64,128") and drops the single-node Pthreads series and
  // sequential baseline — the shape the full-scale 64/128-node
  // reproduction wants, where only the cluster runs are of interest.
  ArgoScaling out;
  out.nodes = !opts.nodes.empty()
                  ? opts.nodes
                  : (opts.quick ? std::vector<int>{1, 2, 4} : kNodeCounts);
  out.threads = !opts.nodes.empty()
                    ? std::vector<int>{}
                    : (opts.quick ? std::vector<int>{1, 4} : kPthreadCounts);
  if (opts.nodes.empty()) {
    auto cfg = paper_cfg(1, 1, mem_bytes);
    cfg.net.pipeline = opts.pipeline;
    opts.apply_adapt(cfg);
    argo::Cluster cl(cfg);
    out.seq_ms = argosim::to_ms(run(cl));
  }
  for (int tc : out.threads) {
    auto cfg = paper_cfg(1, tc, mem_bytes);
    cfg.net.pipeline = opts.pipeline;
    opts.apply_adapt(cfg);
    argo::Cluster cl(cfg);
    out.pthread_ms.push_back(argosim::to_ms(run(cl)));
  }
  for (int nc : out.nodes) {
    auto cfg = paper_cfg(nc, kPaperTpn, mem_bytes);
    cfg.net.pipeline = opts.pipeline;
    opts.apply_adapt(cfg);
    argo::Cluster cl(cfg);
    out.argo_ms.push_back(argosim::to_ms(run(cl)));
  }
  // Without a 1-thread baseline the speedup column normalizes to the first
  // measured point (prints 1.0x) rather than dividing by zero.
  if (!opts.nodes.empty() && !out.argo_ms.empty()) out.seq_ms = out.argo_ms[0];
  return out;
}

/// Append one JSON row per point of a scaling series. `fixed_nodes` is the
/// cluster node count stamped on every row; the default -1 means the xs
/// ARE node counts (the Argo/MPI/UPC series), so each point stamps its own
/// x. Single-machine series (Pthreads/OpenMP, xs = thread counts) pass 1.
inline void scaling_rows(JsonReport& json, const char* fig, const char* series,
                         const std::vector<int>& xs,
                         const std::vector<double>& times_ms, double seq_ms,
                         const BenchOpts& opts, int fixed_nodes = -1) {
  for (std::size_t i = 0; i < xs.size() && i < times_ms.size(); ++i)
    bench_row(json, fig, "series", series, opts,
              fixed_nodes >= 0 ? fixed_nodes : xs[i])
        .num("x", xs[i])
        .num("virtual_ms", times_ms[i])
        .num("speedup", seq_ms / times_ms[i]);
}

}  // namespace benchutil
