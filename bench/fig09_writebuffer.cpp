// Figure 9: execution time as a function of the write-buffer size.
//
// Expected shape (paper): below a benchmark-specific critical size the
// runtime explodes (every store forces an eager drain: writebacks
// skyrocket, Fig. 10); above it the curve is flat, with only slight
// degradation at very large buffers (SD fences must drain more at once).
//
// --pipeline <depth> posts the protocol's RDMA instead of blocking on it:
// SD-fence drains overlap their writebacks, so large buffers lose their
// drain penalty. --json records every point; --quick runs a reduced sweep.
#include "bench/apps_common.hpp"

int main(int argc, char** argv) {
  using namespace benchutil;
  const BenchOpts opts = BenchOpts::parse(argc, argv);
  header("Figure 9", "runtime vs write-buffer size (pages), 4 nodes x 15 threads, P/S3");
  if (opts.pipeline > 1)
    note(Table::fmt("pipeline depth %d (posted verbs)", opts.pipeline).c_str());
  if (opts.adapt != 0)
    note(Table::fmt("adaptive policies on (mask %d): the sweep value is the "
                    "*starting* buffer size",
                    opts.adapt)
             .c_str());

  std::vector<std::size_t> sizes{4, 8, 16, 32, 128, 512, 2048, 8192};
  if (opts.quick) sizes = {32, 512, 2048};
  std::vector<std::string> headers{"benchmark"};
  for (std::size_t s : sizes) headers.push_back(Table::fmt("%zu", s));
  Table t(headers);
  JsonReport json;
  auto apps = six_apps(/*write_sweep=*/true);
  if (opts.quick) apps.resize(2);  // Blackscholes + CG cover the knee
  for (const AppSpec& app : apps) {
    std::vector<std::string> row{app.name};
    for (std::size_t wb : sizes) {
      auto cfg = paper_cfg(4, kPaperTpn, app.mem_bytes, argo::Mode::PS3, wb);
      cfg.net.pipeline = opts.pipeline;
      opts.apply_adapt(cfg);
      argo::Cluster cl(cfg);
      const double ms = argosim::to_ms(app.run(cl));
      row.push_back(Table::fmt("%.2f", ms));
      const argo::ClusterStats s = cl.stats();
      const argoobs::LatencyHist sd = s.hist("carina.sd_fence_ns");
      const argoobs::LatencyHist si = s.hist("carina.si_fence_ns");
      // Node 0's write-buffer capacity trajectory: where the adaptive
      // sizing policy walked from the configured starting size. A single
      // entry (the start) means it never moved.
      std::string traj;
      for (std::uint32_t cap : cl.node_cache(0).adapt().wb_capacity_history()) {
        if (!traj.empty()) traj += ',';
        traj += Table::fmt("%u", cap);
      }
      bench_row(json, "fig09", app.name, opts, 4)
          .num("wb", static_cast<std::uint64_t>(wb))
          .num("wb_final",
               static_cast<std::uint64_t>(cl.node_cache(0).wb_capacity()))
          .str("wb_traj", traj)
          .num("virtual_ms", ms)
          .num("sd_fences", sd.samples)
          .num("sd_fence_total_ms", static_cast<double>(sd.total_ns) / 1e6)
          .num("sd_fence_mean_ns", sd.mean_ns())
          .num("sd_fence_max_ns", sd.max_ns)
          .num("si_fence_total_ms", static_cast<double>(si.total_ns) / 1e6)
          .num("writebacks", s.counter("carina.writebacks"))
          .num("read_misses", s.counter("carina.read_misses"))
          .num("pages_fetched", s.counter("carina.pages_fetched"))
          .num("dir_ops", s.counter("carina.dir_ops"))
          .num("posted_ops", s.counter("net.posted_ops"))
          .num("posted_inflight_hwm", s.counter("net.posted_inflight_hwm"))
          .num("adapt_wb_grows", s.counter("carina.adapt.wb_grows"))
          .num("adapt_wb_shrinks", s.counter("carina.adapt.wb_shrinks"))
          .num("adapt_wb_reverts", s.counter("carina.adapt.wb_reverts"))
          .num("adapt_full_page", s.counter("carina.adapt.full_page_selected"))
          .num("adapt_probes", s.counter("carina.adapt.density_probes"));
      // Per-node fence histograms for the largest buffer — the regime
      // where the SD drain dominates and pipelining matters most.
      if (wb == sizes.back()) {
        std::printf("\n  %s @ wb=%zu:\n", app.name.c_str(), wb);
        print_fence_histograms(s);
      }
    }
    t.row(std::move(row));
  }
  std::printf("\n");
  t.print();
  note("");
  note("Execution time in virtual ms. Paper Fig. 9: a minimum buffer size is");
  note("required to run well; growing it further neither helps nor hurts much.");
  return json.write(opts.json_path) ? 0 : 1;
}
