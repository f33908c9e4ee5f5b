// Cost model for the simulated cluster interconnect and memory system.
//
// Defaults follow the paper's own technology-trend data (Figure 1, 2011
// column, 3.4 GHz CPUs): network minimum latency ~1700 cycles (~500 ns at
// 3.4 GHz we keep the paper's conservative ~1.7 us figure for a full
// user-space one-sided completion), network bandwidth ~111 cycles/KB
// (~2.5 GB/s effective for MPI RMA, matching the paper's Figure 7 plateau),
// DRAM latency ~170 cycles (~50 ns). Software message handlers add a
// dispatch cost on every message of an *active* protocol; Argo's passive
// protocol never pays it.
#pragma once

#include <cstddef>

#include "sim/time.hpp"

namespace argonet {

using argosim::Time;

/// Recovery policy for transient remote-op failures (injected by
/// net/faults.hpp, or — in a real deployment — NIC completion timeouts).
/// Every reliable verb retries failed attempts under exponential backoff
/// with jitter until it succeeds, the attempt budget is spent, or the
/// per-op deadline passes; exhaustion throws argonet::NetworkError.
struct RetryPolicy {
  int max_attempts = 10;       ///< total attempts per op (first one included)
  Time backoff_base = 4000;    ///< first backoff delay
  double backoff_mult = 2.0;   ///< exponential growth factor
  Time backoff_max = 1 << 20;  ///< backoff ceiling (~1 ms)
  double backoff_jitter = 0.5; ///< extra uniform [0, frac*backoff] per wait
  Time deadline = 0;           ///< give up when retries exceed this (0=never)
};

struct NetConfig {
  /// Completion latency of a small one-sided RDMA op (read/write/atomic),
  /// initiator-observed, excluding payload streaming time.
  Time rdma_latency = 1700;

  /// One-way delivery latency of a two-sided message, excluding payload.
  Time msg_latency = 1700;

  /// Initiator-side cost of posting any network op (verbs/MPI bookkeeping).
  /// The NIC is held for this long plus the payload streaming time.
  Time nic_overhead = 300;

  /// Network payload streaming rate in bytes per nanosecond (2.5 => 2.5 GB/s).
  double net_bytes_per_ns = 2.5;

  /// Software message-handler dispatch + protocol processing cost, charged
  /// by *active* protocols per received message (poll, decode, act).
  Time handler_dispatch = 1000;

  /// Local DRAM access latency (page-cache fills from local memory, etc.).
  Time mem_latency = 50;

  /// Local memory copy rate in bytes per nanosecond (10 => 10 GB/s).
  double mem_bytes_per_ns = 10.0;

  /// If true (the paper's MPI prototype limitation), only one thread per
  /// node can use the interconnect at a time: ops serialize on a NIC lock.
  bool serialize_nic = true;

  /// Per-node send-queue depth for the posted (asynchronous) verbs. At 1
  /// (the default) a posted op degenerates to the matching blocking verb,
  /// reproducing the paper's serialized-NIC MPI prototype exactly — virtual
  /// times are bit-identical to builds predating the posted API. Depths > 1
  /// model a verbs NIC with a work queue: each posted op still charges its
  /// NIC occupancy (overhead + streaming) serially, but its wire latency
  /// overlaps with other in-flight ops; completions retire in post order.
  int pipeline = 1;

  /// Retry/timeout/backoff machinery for fallible remote ops. Only
  /// consulted when a FaultInjector is attached to the Interconnect.
  RetryPolicy retry;

  /// Payload streaming time over the network.
  Time net_transfer(std::size_t bytes) const {
    return static_cast<Time>(static_cast<double>(bytes) / net_bytes_per_ns);
  }

  /// Local memory copy time.
  Time mem_copy(std::size_t bytes) const {
    return static_cast<Time>(static_cast<double>(bytes) / mem_bytes_per_ns);
  }
};

/// Intra-node (one simulated machine) cost model: the paper's nodes are
/// 2-socket / 4-NUMA-group Opterons; lock algorithms care about where a
/// cacheline and its data live.
struct NodeTopology {
  int cores = 16;             ///< cores per node
  int numa_groups = 4;        ///< NUMA groups per node (Opteron 6220 boxes)
  Time l1_hit = 2;            ///< cacheline already local to the core
  Time cacheline_same_numa = 40;   ///< transfer from a core in the same group
  Time cacheline_cross_numa = 100; ///< transfer across groups/sockets
  Time atomic_rmw = 20;       ///< uncontended atomic on a held line
  Time futex_wake = 1500;     ///< OS wakeup of a sleeping thread (mutex)
  // Core c belongs to NUMA group c / (cores / numa_groups); the cost
  // formula lives in argosync::CoreMap.
};

}  // namespace argonet
