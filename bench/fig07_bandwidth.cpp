// Figure 7: achievable bandwidth of an Argo cache-line read versus raw
// passive one-sided communication (MPI-RMA), as a function of the transfer
// unit (cache line / message size in bytes).
//
// Two nodes; node 0 streams an 8 MiB region homed on node 1, either
// through Argo's page cache (one line fill per pages_per_line pages, full
// protocol: fault overhead, passive directory registration, prefetch) or
// with raw one-sided reads of the same unit size. Reported in virtual
// MB/s. Expected shape (paper): both curves rise with the unit size; Argo
// tracks the raw RMA rate from below and converges at large units.
//
// --pipeline <depth> issues the RMA curve as posted reads (depth in-flight
// ops per node) and lets Argo's line fills overlap registration and data;
// --json <path> writes both curves without the google-benchmark harness.
#include <benchmark/benchmark.h>

#include "bench/report.hpp"
#include "argo/net.hpp"

namespace {

using argo::Cluster;
using argo::Thread;
using argomem::kPageSize;
using argosim::Time;
using benchutil::paper_cfg;

constexpr std::size_t kRegionPages = 2048;  // 8 MiB

int g_pipeline = 1;  // set once in main before any benchmark runs

/// Argo: bulk-read the region through the page cache with the given
/// pages-per-line; returns virtual ns.
Time argo_read_time(std::size_t pages_per_line) {
  auto cfg = paper_cfg(2, 1, 2 * (kRegionPages + 64) * kPageSize);
  cfg.cache.pages_per_line = pages_per_line;
  cfg.cache.cache_lines = 2 * kRegionPages / pages_per_line + 16;
  cfg.net.pipeline = g_pipeline;
  Cluster cl(cfg);
  // The region starts at node 1's first home page.
  const std::uint64_t first = cl.gmem().pages_per_node();
  auto base = argo::gptr<std::byte>(first * kPageSize);
  std::vector<std::byte> sink(kRegionPages * kPageSize);
  return cl.run([&](Thread& t) {
    if (t.node() != 0) return;
    t.load_bulk(base, sink.data(), sink.size());
  });
}

/// Raw one-sided reads of `unit` bytes each (the MPI-RMA curve). Posted
/// when the pipeline depth allows it, exactly blocking at depth 1.
Time rma_read_time(std::size_t unit) {
  argosim::Engine eng;
  argonet::NetConfig nc;
  nc.pipeline = g_pipeline;
  argonet::Interconnect net(2, nc);
  std::vector<std::byte> remote(kRegionPages * kPageSize);
  std::vector<std::byte> local(kRegionPages * kPageSize);
  eng.spawn("reader", [&] {
    for (std::size_t off = 0; off < remote.size(); off += unit) {
      const std::size_t n = std::min(unit, remote.size() - off);
      net.post_read(0, 1, remote.data() + off, local.data() + off, n);
    }
    net.wait_all(0);
  });
  eng.run();
  return eng.now();
}

double mb_per_s(Time t) {
  return static_cast<double>(kRegionPages * kPageSize) /
         (1 << 20) / argosim::to_s(t);
}

void BM_ArgoCacheLineRead(benchmark::State& state) {
  const auto ppl = static_cast<std::size_t>(state.range(0));
  Time t = 0;
  for (auto _ : state) t = argo_read_time(ppl);
  state.counters["unit_bytes"] =
      static_cast<double>(ppl * kPageSize);
  state.counters["virtual_MB_s"] = mb_per_s(t);
}

void BM_MpiRmaRead(benchmark::State& state) {
  const auto ppl = static_cast<std::size_t>(state.range(0));
  Time t = 0;
  for (auto _ : state) t = rma_read_time(ppl * kPageSize);
  state.counters["unit_bytes"] =
      static_cast<double>(ppl * kPageSize);
  state.counters["virtual_MB_s"] = mb_per_s(t);
}

}  // namespace

// x-axis of the paper's Figure 7: ~4 KiB to ~600 KiB.
BENCHMARK(BM_ArgoCacheLineRead)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128)
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MpiRmaRead)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  using namespace benchutil;
  BenchOpts opts = BenchOpts::parse(argc, argv, /*forward_unknown=*/true);
  g_pipeline = opts.pipeline;
  if (!opts.json_path.empty()) {
    // Run the sweep directly (no google-benchmark console machinery).
    header("Figure 7", "virtual bandwidth vs transfer unit");
    JsonReport json;
    std::vector<std::size_t> units{1, 2, 4, 8, 16, 32, 64, 128};
    if (opts.quick) units = {1, 8, 64};
    Table t({"unit (bytes)", "Argo MB/s", "MPI-RMA MB/s"});
    for (std::size_t ppl : units) {
      const double argo_bw = mb_per_s(argo_read_time(ppl));
      const double rma_bw = mb_per_s(rma_read_time(ppl * kPageSize));
      t.row({Table::fmt("%zu", ppl * kPageSize), Table::fmt("%.1f", argo_bw),
             Table::fmt("%.1f", rma_bw)});
      json.row()
          .str("fig", "fig07")
          .num("unit_bytes", static_cast<std::uint64_t>(ppl * kPageSize))
          .num("pipeline", opts.pipeline)
          .num("nodes", 2)
          .num("argo_mb_s", argo_bw)
          .num("rma_mb_s", rma_bw);
    }
    t.print();
    return json.write(opts.json_path) ? 0 : 1;
  }
  int bench_argc = static_cast<int>(opts.rest.size());
  benchmark::Initialize(&bench_argc, opts.rest.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, opts.rest.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
