// Shared helpers for the benchmark binaries: paper-style cluster
// configurations and aligned table output. Every bench regenerates one
// table or figure from the paper (see DESIGN.md §3); EXPERIMENTS.md records
// the measured numbers against the paper's.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

#include "argo/argo.hpp"
#include "argo/sim.hpp"
#include "argo/stats.hpp"

namespace benchutil {

using argo::ClusterConfig;
using argo::Mode;
using argomem::kPageSize;
using argosim::Time;

/// The paper's node: 16 cores (4 NUMA groups), 15 worker threads per node
/// (one core left for the OS / MPI progress, §5).
inline constexpr int kPaperTpn = 15;

/// A cluster configured like the paper's runs: blocked distribution,
/// global memory sized to the workload, page cache large enough to hold it
/// (the paper sizes both to the workload), prefetching enabled.
inline ClusterConfig paper_cfg(int nodes, int tpn, std::size_t mem_bytes,
                               Mode mode = Mode::PS3,
                               std::size_t write_buffer = 8192) {
  ClusterConfig c;
  c.nodes = nodes;
  c.threads_per_node = tpn;
  c.global_mem_bytes = mem_bytes;
  c.cache.classification = mode;
  c.cache.cache_lines = 16384;
  c.cache.pages_per_line = 4;
  c.cache.write_buffer_pages = write_buffer;
  return c;
}

/// Aligned table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  template <typename... Args>
  static std::string fmt(const char* f, Args... args) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), f, args...);
    return buf;
  }

  void print() const {
    std::vector<std::size_t> w(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) w[c] = headers_[c].size();
    for (const auto& r : rows_)
      for (std::size_t c = 0; c < r.size() && c < w.size(); ++c)
        w[c] = std::max(w[c], r[c].size());
    auto line = [&](const std::vector<std::string>& cells) {
      std::printf("  ");
      for (std::size_t c = 0; c < cells.size(); ++c)
        std::printf("%-*s  ", static_cast<int>(w[c]), cells[c].c_str());
      std::printf("\n");
    };
    line(headers_);
    std::string dashes;
    for (std::size_t c = 0; c < headers_.size(); ++c)
      dashes += std::string(w[c], '-') + "  ";
    std::printf("  %s\n", dashes.c_str());
    for (const auto& r : rows_) line(r);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline void header(const char* id, const char* title) {
  std::printf("\n=== %s: %s ===\n\n", id, title);
}

inline void note(const char* text) { std::printf("  %s\n", text); }

/// Flags shared by every fig* binary:
///   --json <path>      also write the figure's data points as JSON rows
///   --pipeline <depth> posted-verb send-queue depth (default 1: blocking)
///   --quick            reduced sweep for CI smoke runs
///   --nodes <list>     restrict scaling sweeps to these node counts, a
///                      comma-separated list ("--nodes 32" or
///                      "--nodes 32,64,128"); each count must fit the
///                      directory encoding (at most argodir::max_nodes())
///   --adaptive         enable both adaptive runtime-tuning policies
///   --adapt-wb         enable only phase-adaptive write-buffer sizing
///   --adapt-diff       enable only density-driven diff granularity
/// An unrecognized argument (or a flag missing its value) is named on
/// stderr and exits with status 2, so a typo never silently runs the
/// default configuration. fig07 alone passes `forward_unknown`: it keeps
/// such arguments in `rest` for google-benchmark, which rejects its own.
struct BenchOpts {
  std::string json_path;
  int pipeline = 1;
  bool quick = false;
  int adapt = 0;  // bitmask: 1 = wb sizing, 2 = diff granularity
  std::vector<int> nodes;   // empty = the sweep's default node counts
  std::vector<char*> rest;  // argv[0] + forwarded arguments

  static BenchOpts parse(int argc, char** argv, bool forward_unknown = false) {
    BenchOpts o;
    if (argc > 0) o.rest.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
        o.json_path = argv[++i];
      } else if (std::strcmp(argv[i], "--pipeline") == 0 && i + 1 < argc) {
        o.pipeline = std::atoi(argv[++i]);
        if (o.pipeline < 1) o.pipeline = 1;
      } else if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
        for (const char* p = argv[++i]; *p != '\0';) {
          const int n = std::atoi(p);
          if (n > 0) o.nodes.push_back(n);
          const char* comma = std::strchr(p, ',');
          if (comma == nullptr) break;
          p = comma + 1;
        }
      } else if (std::strcmp(argv[i], "--quick") == 0) {
        o.quick = true;
      } else if (std::strcmp(argv[i], "--adaptive") == 0) {
        o.adapt = 3;
      } else if (std::strcmp(argv[i], "--adapt-wb") == 0) {
        o.adapt |= 1;
      } else if (std::strcmp(argv[i], "--adapt-diff") == 0) {
        o.adapt |= 2;
      } else if (forward_unknown) {
        o.rest.push_back(argv[i]);
      } else {
        std::fprintf(stderr, "%s: unrecognized argument '%s'\n", argv[0],
                     argv[i]);
        std::exit(2);
      }
    }
    return o;
  }

  /// Turn the --adaptive/--adapt-* bitmask into ClusterConfig policy flags.
  void apply_adapt(ClusterConfig& c) const {
    c.adapt.write_buffer = (adapt & 1) != 0;
    c.adapt.diff_granularity = (adapt & 2) != 0;
  }
};

/// Version of the JSON row shape shared by every BENCH_*.json file. Bump
/// when a field is renamed or its meaning changes so downstream consumers
/// (scripts/bench_compare.py, notebooks) can refuse mismatched inputs.
/// Schema 3 added the "threads"/"engine" stamp for the parallel engine
/// ("engine" has since gone: there is one engine; "threads" stays, always
/// 1 now that the engine runs on one host thread, so the schema stayed).
/// Schema 4 stamps "nodes" (the cluster node count a row was measured on,
/// 0 for rows that run no cluster) so 32/64/128-node sweeps can share one
/// file and be filtered apart (bench_compare.py --nodes).
/// Schema 5 stamps "adapt" (the adaptive-policy bitmask the row ran with:
/// 1 = write-buffer sizing, 2 = diff granularity, 0 = fixed knobs) so
/// adaptive and fixed rows can live in one file and be paired apart
/// (bench_compare.py --adapt-gate). Bit 4 (stride prefetch, removed) is
/// retired and never reused; older rows may still carry it.
inline constexpr int kBenchSchemaVersion = 5;

/// Commit hash rows are stamped with. The bench binaries cannot assume a
/// .git directory (CI runs them from an install tree), so the driver passes
/// it down: scripts/bench_host.sh and bench_json.sh export ARGO_GIT_COMMIT.
inline std::string bench_commit() {
  const char* c = std::getenv("ARGO_GIT_COMMIT");
  return (c != nullptr && c[0] != '\0') ? c : "unknown";
}

/// UTC run date in ISO 8601 (YYYY-MM-DD).
inline std::string bench_date() {
  const std::time_t now = std::time(nullptr);
  char buf[16];
  std::strftime(buf, sizeof(buf), "%Y-%m-%d", std::gmtime(&now));
  return buf;
}

/// Collects flat one-object-per-line JSON rows and writes them as an array:
///   [
///   {"fig":"fig09","app":"MM","wb":512,"pipeline":4,"virtual_ms":12.34},
///   ...
///   ]
/// Keys are emitted in insertion order, values verbatim — callers format
/// numbers themselves so rows stay grep/awk-friendly.
class JsonReport {
 public:
  class Row {
   public:
    Row& field(const char* key, const std::string& raw) {
      if (!body_.empty()) body_ += ',';
      body_ += '"';
      body_ += key;
      body_ += "\":";
      body_ += raw;
      return *this;
    }
    Row& str(const char* key, const std::string& v) {
      return field(key, "\"" + v + "\"");
    }
    Row& num(const char* key, double v) {
      return field(key, Table::fmt("%.4f", v));
    }
    Row& num(const char* key, std::uint64_t v) {
      return field(key, Table::fmt("%llu", static_cast<unsigned long long>(v)));
    }
    Row& num(const char* key, int v) { return field(key, std::to_string(v)); }

   private:
    friend class JsonReport;
    std::string body_;
  };

  /// Every row leads with the provenance stamp (schema version, commit,
  /// run date, host threads) so a BENCH file is self-describing even when
  /// split apart. "threads" is always 1; it stays because committed files
  /// key on it and golden comparison drops only a key's first occurrence
  /// (fig11's own "threads" parameter follows it).
  Row& row() {
    rows_.emplace_back();
    return rows_.back()
        .num("schema", kBenchSchemaVersion)
        .str("commit", bench_commit())
        .str("date", bench_date())
        .num("threads", 1);
  }

  /// Write the accumulated rows to `path`. No-op when path is empty.
  bool write(const std::string& path) const {
    if (path.empty()) return true;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::fputs("[\n", f);
    for (std::size_t i = 0; i < rows_.size(); ++i)
      std::fprintf(f, "{%s}%s\n", rows_[i].body_.c_str(),
                   i + 1 < rows_.size() ? "," : "");
    std::fputs("]\n", f);
    std::fclose(f);
    std::printf("  wrote %zu rows to %s\n", rows_.size(), path.c_str());
    return true;
  }

 private:
  std::vector<Row> rows_;
};

/// One JSON row per (fig, label, measurement) with the shared prefix every
/// cluster bench emits — figure id, a label column (usually "app"; lock
/// benches use "lock", scaling curves use "series"), the pipeline depth,
/// and the cluster node count the measurement ran on — so per-bench
/// emission code adds only its own columns.
inline JsonReport::Row& bench_row(JsonReport& json, const char* fig,
                                  const char* label_key,
                                  const std::string& label,
                                  const BenchOpts& opts, int nodes) {
  return json.row()
      .str("fig", fig)
      .str(label_key, label)
      .num("pipeline", opts.pipeline)
      .num("nodes", nodes)
      .num("adapt", opts.adapt);
}

inline JsonReport::Row& bench_row(JsonReport& json, const char* fig,
                                  const std::string& app,
                                  const BenchOpts& opts, int nodes) {
  return bench_row(json, fig, "app", app, opts, nodes);
}

/// Per-node fence-duration histograms and posted-queue high-water marks
/// (Figure 9/10 diagnostics), read from a Cluster::stats() snapshot.
/// Log2-bucketed; only non-empty buckets print.
inline void print_fence_histograms(const argo::ClusterStats& s) {
  std::printf("\n  per-node fence durations (virtual us) and posted-queue depth:\n");
  Table t({"node", "sd_fences", "sd_mean", "sd_max", "si_fences", "si_mean",
           "si_max", "inflight_hwm"});
  for (std::size_t n = 0; n < s.per_node.size(); ++n) {
    const argo::CoherenceStats& cs = s.per_node[n];
    t.row({Table::fmt("%zu", n), Table::fmt("%llu", (unsigned long long)cs.sd_fence_ns.samples),
           Table::fmt("%.1f", cs.sd_fence_ns.mean_ns() / 1e3),
           Table::fmt("%.1f", static_cast<double>(cs.sd_fence_ns.max_ns) / 1e3),
           Table::fmt("%llu", (unsigned long long)cs.si_fence_ns.samples),
           Table::fmt("%.1f", cs.si_fence_ns.mean_ns() / 1e3),
           Table::fmt("%.1f", static_cast<double>(cs.si_fence_ns.max_ns) / 1e3),
           Table::fmt("%llu", (unsigned long long)s.net_per_node[n].posted_inflight_hwm)});
  }
  t.print();
  for (std::size_t n = 0; n < s.per_node.size(); ++n) {
    const argoobs::LatencyHist& h = s.per_node[n].sd_fence_ns;
    if (h.samples == 0) continue;
    std::string buckets;
    for (int b = 0; b < argoobs::LatencyHist::kBuckets; ++b)
      if (h.bucket[b] != 0)
        buckets += Table::fmt(" [<2^%d:%llu]", b, (unsigned long long)h.bucket[b]);
    std::printf("  node %zu sd-fence ns histogram:%s\n", n, buckets.c_str());
  }
}

}  // namespace benchutil
