// Host fast paths vs recorded seed results.
//
// The host fast paths (fcontext switches, pooled completion records and
// page buffers, stack recycling, same-fiber fast-forward, the soft TLB)
// are the only implementations, so whole programs are checked against
// results the seed implementations produced, recorded once and pinned
// below: LU / MM / EP must reproduce the seed's virtual time, result and
// observables — every simulated counter and every trace event, folded into
// one fingerprint — with and without chaos fault injection, at
// posted-pipeline depths 1 and 16.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "apps/ep.hpp"
#include "apps/lu.hpp"
#include "apps/mm.hpp"
#include "core/cluster.hpp"
#include "fingerprint.hpp"
#include "net/faults.hpp"
#include "sim/time.hpp"

namespace {

using argosim::Time;
using argo::Cluster;
using argo::ClusterConfig;
using argoapps::EpParams;
using argoapps::LuParams;
using argoapps::MmParams;

// Everything the identity contract covers, in comparable form.
struct AppFp {
  Time elapsed = 0;
  double checksum = 0;
  std::uint64_t observables = 0;
};

// Fingerprint of every simulated counter and trace event. Host-side
// diagnostics (sim.* scheduler counters, page-buffer allocations) count
// host work and stay outside the contract.
std::uint64_t observables(Cluster& cl) {
  std::uint64_t h = argotest::kFnvBasis;
  for (const auto& c : cl.stats().counters)
    if (!argo::ClusterStats::host_side(c.name))
      h = argotest::fnv1a(c.name + "=" + std::to_string(c.value), h);
  for (const auto& e : cl.tracer().snapshot())
    h = argotest::fnv1a(
        std::to_string(e.seq) + ":" + std::to_string(e.t) + ":" +
            std::to_string(e.page) + ":" + std::to_string(e.arg) + ":" +
            std::to_string(e.thread) + ":" + std::to_string(e.node) + ":" +
            std::to_string(e.kind) + ":" + std::to_string(e.state),
        h);
  return h;
}

ClusterConfig identity_cfg(int pipeline) {
  ClusterConfig c;
  c.nodes = 4;
  c.threads_per_node = 2;
  c.global_mem_bytes = 128 * argomem::kPageSize;
  c.cache.cache_lines = 8192;
  c.cache.write_buffer_pages = 1024;
  c.net.pipeline = pipeline;
  c.trace.enabled = true;
  return c;
}

// The run must reproduce the recorded seed result.
void expect_seed_result(const std::string& what, const AppFp& seed,
                        const AppFp& got) {
  EXPECT_EQ(got.elapsed, seed.elapsed) << what << ": virtual time moved";
  EXPECT_EQ(got.checksum, seed.checksum) << what << ": result moved";
  EXPECT_EQ(got.observables, seed.observables)
      << what << ": counters or trace moved";
}

TEST(FastSlowIdentity, LuAtPipelineDepths1And16) {
  LuParams p;
  p.n = 64;
  p.block = 16;
  const struct {
    int pipeline;
    AppFp seed;
  } cases[] = {
      {1, {255354, 0x1.01069a84e1932p+12, 8212952563667085339ull}},
      {16, {235054, 0x1.01069a84e1932p+12, 2337071728558467269ull}},
  };
  for (const auto& c : cases) {
    Cluster cl(identity_cfg(c.pipeline));
    const auto r = argoapps::lu_run_argo(cl, p);
    expect_seed_result("lu pipeline=" + std::to_string(c.pipeline), c.seed,
                       {r.elapsed, r.checksum, observables(cl)});
  }
}

TEST(FastSlowIdentity, MmAtPipelineDepths1And16) {
  MmParams p;
  p.n = 64;
  const struct {
    int pipeline;
    AppFp seed;
  } cases[] = {
      {1, {136219, 0x1.6e9a2263b8117p+7, 7166257490120463278ull}},
      {16, {119543, 0x1.6e9a2263b8117p+7, 12288078344231633133ull}},
  };
  for (const auto& c : cases) {
    Cluster cl(identity_cfg(c.pipeline));
    const auto r = argoapps::mm_run_argo(cl, p);
    expect_seed_result("mm pipeline=" + std::to_string(c.pipeline), c.seed,
                       {r.elapsed, r.checksum, observables(cl)});
  }
}

TEST(FastSlowIdentity, EpUnderChaosSeeds) {
  EpParams p;
  p.log2_pairs = 12;
  p.chunks = 32;
  const struct {
    std::uint64_t chaos_seed;
    AppFp seed;
  } cases[] = {
      {3, {64576, 0x1.98fda4db7ccf6p+11, 6307517695806968250ull}},
      {17, {54118, 0x1.98fda4db7ccf6p+11, 3448032626636992797ull}},
  };
  for (const auto& c : cases) {
    ClusterConfig cfg = identity_cfg(16);
    cfg.faults.enabled = true;
    cfg.faults.seed = c.chaos_seed;
    cfg.faults.rdma_fail_prob = 0.02;
    cfg.faults.jitter_prob = 0.2;
    cfg.faults.jitter_max = 800;
    cfg.faults.msg_drop_prob = 0.05;
    cfg.faults.msg_dup_prob = 0.02;
    Cluster cl(cfg);
    const auto r = argoapps::ep_run_argo(cl, p);
    expect_seed_result(
        "ep chaos_seed=" + std::to_string(c.chaos_seed), c.seed,
        {r.elapsed,
         r.tally.sx + r.tally.sy + static_cast<double>(r.tally.accepted),
         observables(cl)});
  }
}

}  // namespace
