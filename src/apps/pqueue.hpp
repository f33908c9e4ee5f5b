// Concurrent priority queue microbenchmark (paper §5.3, Figs. 11 & 12).
//
// A fast sequential pairing heap (Fredman/Sedgewick/Sleator/Tarjan) behind
// a lock. Each thread loops: thread-local work (the paper's "work units",
// two updates to a private 64-int array each), then one global operation,
// insert or extract_min with equal probability. insert is delegated
// detached (no result needed); extract_min waits for its result.
//
//  * Fig. 11: the heap lives in one simulated machine's memory; operations
//    charge NUMA cacheline movement for the nodes they visit.
//  * Fig. 12: the heap lives in Argo's global memory (DsmPairingHeap) and
//    every node visit is a real DSM access; locks are HQDL or DSM-cohort.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/cluster.hpp"
#include "sim/time.hpp"
#include "sync/dsm_locks.hpp"
#include "sync/local_locks.hpp"

namespace argoapps {

using argosim::Time;

/// Sequential pairing heap over plain memory, reporting how many heap
/// nodes each operation touched (for the NUMA cost model).
class PairingHeap {
 public:
  void insert(std::uint64_t key);
  std::optional<std::uint64_t> extract_min();
  std::size_t size() const { return size_; }
  /// Heap nodes visited by the most recent operation.
  int last_visits() const { return last_visits_; }

 private:
  struct Node {
    std::uint64_t key;
    Node* child = nullptr;
    Node* sibling = nullptr;
  };
  Node* merge(Node* a, Node* b);

  Node* root_ = nullptr;
  std::vector<Node*> free_;
  std::vector<std::unique_ptr<Node>> pool_;
  std::size_t size_ = 0;
  int last_visits_ = 0;
};

/// Pairing heap whose nodes live in Argo's global memory; all pointer
/// chasing goes through the DSM (Thread::load/store). Callers must hold a
/// lock providing mutual exclusion (HQDL / DSM-cohort in the benchmarks).
class DsmPairingHeap {
 public:
  DsmPairingHeap(argo::Cluster& cl, std::size_t capacity);

  void insert(argo::Thread& t, std::uint64_t key);
  std::optional<std::uint64_t> extract_min(argo::Thread& t);
  std::uint64_t size(argo::Thread& t);

 private:
  // Node = 4 u64 words: key, child+1, sibling+1, (pad). Header words:
  // root+1, free_head+1, next_unused, size.
  static constexpr std::size_t kW = 4;
  argo::gptr<std::uint64_t> word(std::uint64_t node, std::size_t field) {
    return pool_ + static_cast<std::ptrdiff_t>(node * kW + field);
  }
  std::uint64_t alloc_node(argo::Thread& t, std::uint64_t key);
  void free_node(argo::Thread& t, std::uint64_t n);
  std::uint64_t merge(argo::Thread& t, std::uint64_t a, std::uint64_t b);

  argo::gptr<std::uint64_t> hdr_;
  argo::gptr<std::uint64_t> pool_;
  std::size_t capacity_;
};

// ---------------------------------------------------------------------------
// Benchmark harnesses
// ---------------------------------------------------------------------------

struct PqParams {
  int work_units = 48;        ///< paper: 48 units of thread-local work
  Time ns_per_unit = 15;      ///< two private-array updates per unit
  Time op_compute = 60;       ///< key comparison / bookkeeping per op
  Time duration = 2'000'000;  ///< measured window (virtual ns)
  std::size_t prefill = 2048;
  std::uint64_t seed = 99;
};

struct PqResult {
  std::uint64_t ops = 0;
  Time elapsed = 0;
  argosync::DelegationStats hqdl;  ///< pq_bench_dsm under HQDL only
  double ops_per_us() const {
    return elapsed == 0 ? 0.0
                        : static_cast<double>(ops) / argosim::to_us(elapsed);
  }
};

/// Fig. 11: single machine, `threads` threads on the topology's cores,
/// heap in local memory, `lock` is any node-local CriticalSectionExecutor.
PqResult pq_bench_local(argosync::CriticalSectionExecutor& lock,
                        const argonet::NodeTopology& topo, int threads,
                        const PqParams& p);

enum class DsmLockKind { Hqdl, Cohort };

/// Fig. 12: the cluster runs the same loop against a DsmPairingHeap.
PqResult pq_bench_dsm(argo::Cluster& cl, DsmLockKind kind, const PqParams& p);

}  // namespace argoapps
