// Configuration for Argo's Carina coherence layer and the cluster facade.
#pragma once

#include <cstddef>

#include "core/adapt.hpp"
#include "core/membership.hpp"
#include "mem/global_memory.hpp"
#include "net/faults.hpp"
#include "net/netconfig.hpp"
#include "obs/trace.hpp"
#include "sim/time.hpp"

namespace argocore {

/// Data classification modes (paper Table 1 and §5.1).
enum class Mode {
  S,        ///< no classification: every page self-invalidates/downgrades
  PSNaive,  ///< P/S where private pages are NOT self-downgraded; P→S is
            ///< serviced from per-sync checkpoints (the §5.1 strawman)
  PS,       ///< P/S with private-page self-downgrade (Table 1 "Simple")
  PS3,      ///< full P/S + writer (NW/SW/MW) classification (Argo default)
};

const char* to_string(Mode m);

/// Per-node page cache + write buffer geometry.
struct CacheConfig {
  /// Direct-mapped line slots in the page cache.
  std::size_t cache_lines = 4096;

  /// Consecutive pages fetched per miss ("cache line size", §3.6.2).
  std::size_t pages_per_line = 1;

  /// FIFO write buffer capacity in pages (§3.6.1). When full, the oldest
  /// dirty page is written back to its home.
  std::size_t write_buffer_pages = 512;

  /// Classification mode used to filter self-invalidation.
  Mode classification = Mode::PS3;

  /// Single-writer diff suppression (§3.2 "left for future work",
  /// implemented here as an option): a page whose writer map equals {me}
  /// at downgrade time is written back whole, skipping the diff scan —
  /// trading wire bytes for downgrade latency. Twins are still kept so a
  /// late transition to multiple writers can always fall back to diffing.
  bool sw_diff_suppression = false;

  /// CPU cost of taking a page-cache miss (the original system's SIGSEGV +
  /// fault-handler entry), charged once per miss before the protocol runs.
  argosim::Time fault_overhead = 1500;

  /// Test-only chaos knob: skip the SD fence on barriers/releases so dirty
  /// pages are never downgraded. Deliberately breaks coherence — exists so
  /// the ProtocolValidator's tests can prove a protocol hole is caught.
  bool debug_skip_sd_fence = false;
};

/// Whole-cluster configuration.
struct ClusterConfig {
  int nodes = 4;
  int threads_per_node = 4;

  /// Size of the global (DSM) address space. Like the paper's runs, size it
  /// to fit the workload: the home distribution spreads it over the nodes.
  std::size_t global_mem_bytes = 64u << 20;

  argomem::HomeMapping mapping = argomem::HomeMapping::Blocked;
  CacheConfig cache;
  argonet::NetConfig net;
  argonet::NodeTopology topo;

  /// Deterministic fault injection (net/faults.hpp). Disabled by default;
  /// when disabled the interconnect never consults the injector and all
  /// virtual times match a fault-free build exactly.
  argonet::FaultConfig faults;

  /// Protocol event tracing (obs/trace.hpp). Disabled by default; tracing
  /// never charges virtual time, so enabling it changes no measurements —
  /// and disabling it reduces every emit point to one predicted branch.
  argoobs::TraceConfig trace;

  /// Crash-stop membership / recovery service (core/membership.hpp).
  /// Disabled by default: no heartbeat fibers are spawned, no membership
  /// metrics are registered, and every virtual time matches a build
  /// without the feature exactly.
  MembershipConfig membership;

  /// Adaptive runtime tuning policies (core/adapt.hpp). All disabled by
  /// default: no adapt metrics are registered and every trace/stat/virtual
  /// time matches the fixed-knob behaviour exactly.
  AdaptConfig adapt;

  /// Host workers advancing this cluster's engine shards (sim/par.hpp):
  /// 0 inherits ARGO_THREADS (one worker when unset). Every worker count
  /// is bit-identical to one. The cluster gets one shard per node, or one
  /// shard holding every node when a feature needs same-instant cross-node
  /// access (membership, a barrier hook); ClusterStats says which.
  int engine_threads = 0;

  /// Throw std::invalid_argument with a descriptive message when the
  /// configuration is unusable — in particular a `nodes` count outside
  /// [1, argodir::max_nodes()], the build-time ceiling of the multi-word
  /// directory encoding. Called by the Cluster constructor; callers that
  /// want to reject bad configs before constructing can call it directly.
  void validate() const;
};

}  // namespace argocore
