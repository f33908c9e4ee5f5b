// Ablation (ours, motivated by §1/§3): Argo's handler-free passive
// coherence versus a traditional home-based MSI DSM whose directory is an
// *active* software message handler per node.
//
// Two workloads on identical cost models:
//  1. read-mostly: everyone repeatedly reads a shared table between
//     barriers (traditional DSM serves every miss through a handler and
//     keeps copies coherent; Argo's readers fetch once and, under P/S3,
//     never invalidate);
//  2. migratory: a counter updated in turn by every thread — the critical-
//     section pattern of §1. MSI bounces exclusive ownership through the
//     home with 4+ message-handler dispatches per handoff; Argo pays
//     fences plus direct RDMA.
#include "argo/baseline.hpp"
#include "bench/report.hpp"

using argobaseline::ActiveDsm;
using argobaseline::ActiveThread;
using benchutil::Table;

namespace {

constexpr int kNodes = 4, kTpn = 8;
constexpr int kRounds = 6;
constexpr std::size_t kTableWords = 32768;  // 256 KiB shared table
constexpr int kTurns = 64;                  // migratory handoffs

struct Result {
  double ms;
  std::uint64_t handler_msgs;
};

volatile std::uint64_t benchmarkish_sink;

Result run_argo_read_mostly() {
  auto cfg = benchutil::paper_cfg(kNodes, kTpn, 8u << 20);
  argo::Cluster cl(cfg);
  auto table = cl.alloc<std::uint64_t>(kTableWords);
  for (std::size_t i = 0; i < kTableWords; ++i) cl.host_ptr(table)[i] = i;
  cl.reset_classification();
  const auto t = cl.run([&](argo::Thread& t) {
    std::uint64_t sum = 0;
    std::vector<std::uint64_t> buf(kTableWords);
    for (int r = 0; r < kRounds; ++r) {
      t.load_bulk(table, buf.data(), kTableWords);
      for (std::size_t i = 0; i < kTableWords; i += 64) sum += buf[i];
      t.compute(kTableWords * 2);
      t.barrier();
    }
    benchmarkish_sink = sum;
  });
  return {argosim::to_ms(t), 0};
}

Result run_active_read_mostly() {
  ActiveDsm::Config cfg;
  cfg.nodes = kNodes;
  cfg.threads_per_node = kTpn;
  cfg.global_mem_bytes = 8u << 20;
  ActiveDsm dsm(cfg);
  auto table = dsm.alloc<std::uint64_t>(kTableWords);
  for (std::size_t i = 0; i < kTableWords; ++i) *dsm.host_ptr(table + static_cast<std::ptrdiff_t>(i)) = i;
  const auto t = dsm.run([&](ActiveThread& t) {
    std::uint64_t sum = 0;
    std::vector<std::uint64_t> buf(kTableWords);
    for (int r = 0; r < kRounds; ++r) {
      t.load_bulk(table, buf.data(), kTableWords);
      for (std::size_t i = 0; i < kTableWords; i += 64) sum += buf[i];
      t.compute(kTableWords * 2);
      t.barrier();
    }
    benchmarkish_sink = sum;
  });
  return {argosim::to_ms(t), dsm.stats().handler_messages};
}

Result run_argo_migratory() {
  auto cfg = benchutil::paper_cfg(kNodes, kTpn, 4u << 20);
  argo::Cluster cl(cfg);
  auto ctr = cl.alloc<std::uint64_t>(1);
  const auto t = cl.run([&](argo::Thread& t) {
    for (int k = 0; k < kTurns; ++k) {
      for (int turn = 0; turn < t.nthreads(); ++turn) {
        if (turn == t.gid()) t.store(ctr, t.load(ctr) + 1);
        t.barrier();
      }
    }
  });
  return {argosim::to_ms(t), 0};
}

Result run_active_migratory() {
  ActiveDsm::Config cfg;
  cfg.nodes = kNodes;
  cfg.threads_per_node = kTpn;
  cfg.global_mem_bytes = 4u << 20;
  ActiveDsm dsm(cfg);
  auto ctr = dsm.alloc<std::uint64_t>(1);
  const auto t = dsm.run([&](ActiveThread& t) {
    for (int k = 0; k < kTurns; ++k) {
      for (int turn = 0; turn < t.nthreads(); ++turn) {
        if (turn == t.gid()) t.store(ctr, t.load(ctr) + 1);
        t.barrier();
      }
    }
  });
  return {argosim::to_ms(t), dsm.stats().handler_messages};
}

}  // namespace

int main(int argc, char** argv) {
  // Only the shared flags are accepted; the ablation has no sweep to shape.
  (void)benchutil::BenchOpts::parse(argc, argv);
  benchutil::header("Ablation",
                    "passive (Argo) vs active-handler (MSI) coherence");
  Table t({"workload", "Argo (ms)", "active DSM (ms)", "active/Argo",
           "handler msgs (active)", "handler msgs (Argo)"});
  {
    const Result a = run_argo_read_mostly();
    const Result m = run_active_read_mostly();
    t.row({"read-mostly table", Table::fmt("%.2f", a.ms),
           Table::fmt("%.2f", m.ms), Table::fmt("%.2fx", m.ms / a.ms),
           Table::fmt("%llu", static_cast<unsigned long long>(m.handler_msgs)),
           "0"});
  }
  {
    const Result a = run_argo_migratory();
    const Result m = run_active_migratory();
    t.row({"migratory counter", Table::fmt("%.2f", a.ms),
           Table::fmt("%.2f", m.ms), Table::fmt("%.2fx", m.ms / a.ms),
           Table::fmt("%llu", static_cast<unsigned long long>(m.handler_msgs)),
           "0"});
  }
  t.print();
  benchutil::note("");
  benchutil::note("Argo's protocol runs zero message handlers: every coherence");
  benchutil::note("action is an RDMA issued by the requesting node (Section 3).");
  return 0;
}
