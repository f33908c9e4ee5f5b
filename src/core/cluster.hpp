// Public Argo API: a simulated cluster running the Argo DSM.
//
//   argo::ClusterConfig cfg;
//   cfg.nodes = 4; cfg.threads_per_node = 4;
//   argo::Cluster cluster(cfg);
//   auto data = cluster.alloc<double>(1 << 20);   // global allocation
//   ... initialize via cluster.host_ptr(data) ...
//   cluster.reset_classification();               // end of init (§3.4)
//   argosim::Time t = cluster.run([&](argo::Thread& self) {
//     double v = self.load(data + self.gid());
//     self.store(data + self.gid(), v * 2);
//     self.barrier();
//   });
//
// Thread::load/store are the explicit stand-in for the original system's
// mprotect-trapped accesses: they take exactly the protocol path a fault
// handler would (page-cache lookup → registration → line fetch), and cost
// nothing on hits. See DESIGN.md for this substitution.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "core/carina.hpp"
#include "core/config.hpp"
#include "core/stats.hpp"
#include "core/tlb.hpp"
#include "dir/pyxis.hpp"
#include "mem/gaddr.hpp"
#include "mem/global_memory.hpp"
#include "net/interconnect.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"

namespace argo {

using argocore::CacheConfig;
using argocore::ClusterConfig;
using argocore::CoherenceStats;
using argocore::Mode;
using argocore::NodeCache;
using argomem::GAddr;
using argomem::gptr;
using argomem::kPageSize;
using argosim::Time;

class Cluster;

/// Immutable aggregated statistics snapshot, returned by Cluster::stats().
/// The one sanctioned way for examples/benches/reports to read protocol
/// counters: it survives the cluster and never exposes live storage.
struct ClusterStats {
  Time at = 0;  ///< virtual time the snapshot was taken

  CoherenceStats coherence;   ///< summed over all nodes
  argonet::NodeNetStats net;  ///< summed over all nodes

  std::vector<CoherenceStats> per_node;
  std::vector<argonet::NodeNetStats> net_per_node;

  /// Every registered metric by its stable dotted name ("carina.writebacks",
  /// "net.rdma_reads", ...) — the enumeration exporters should use.
  std::vector<argoobs::CounterSample> counters;
  std::vector<argoobs::HistSample> hists;

  /// Why the cluster runs as one engine shard instead of one per node
  /// (empty for the per-node partition).
  std::string engine_fallback_reason;

  /// Value of one named counter (0 if absent — names are stable, so an
  /// absent name is a typo).
  std::uint64_t counter(const std::string& name) const;
  /// One named histogram (empty if absent).
  argoobs::LatencyHist hist(const std::string& name) const;

  /// True for host-side diagnostics outside the identity contract: the
  /// sim.* scheduler counters and carina.page_buffers_allocated. They are
  /// deterministic for one engine configuration but differ between shard
  /// partitions, and they count host work, not simulated work; identity
  /// checks compare every other counter.
  static bool host_side(const std::string& name);
};

/// Execution context handed to every simulated application thread.
class Thread {
 public:
  int node() const { return node_; }           ///< node index
  int tid() const { return tid_; }             ///< thread index within node
  int gid() const { return gid_; }             ///< global thread index
  int core() const { return core_; }           ///< core within the node
  int nodes() const;
  int threads_per_node() const;
  int nthreads() const;                        ///< nodes * threads_per_node

  Cluster& cluster() { return *cluster_; }
  NodeCache& cache() { return *cache_; }

  // --- DSM accesses -------------------------------------------------------

  template <typename T>
  T load(gptr<T> p) {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    const GAddr a = p.raw();
    const std::size_t off = argomem::page_offset(a);
    if (off + sizeof(T) <= kPageSize) {
      // MMU analogue: a soft-TLB hit is a bounds check + pointer add — the
      // cost model of a protection-mapped page the hardware translates.
      // Misses take the full protocol walk, which refills the TLB. See
      // src/core/tlb.hpp.
      if (const std::byte* base = tlb_.lookup_read(
              argomem::page_of(a), cache_->tlb_generation())) {
        std::memcpy(&v, base + off, sizeof(T));
        return v;
      }
      std::memcpy(&v, cache_->read_ptr(a, sizeof(T), &tlb_, &stride_),
                  sizeof(T));
    } else {
      load_bytes(a, reinterpret_cast<std::byte*>(&v), sizeof(T));
    }
    return v;
  }

  template <typename T>
  void store(gptr<T> p, const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const GAddr a = p.raw();
    const std::size_t off = argomem::page_offset(a);
    if (off + sizeof(T) <= kPageSize) {
      if (std::byte* base = tlb_.lookup_write(argomem::page_of(a),
                                              cache_->tlb_generation())) {
        std::memcpy(base + off, &v, sizeof(T));
        return;
      }
      std::memcpy(cache_->write_ptr(a, sizeof(T), &tlb_, &stride_), &v,
                  sizeof(T));
    } else {
      store_bytes(a, reinterpret_cast<const std::byte*>(&v), sizeof(T));
    }
  }

  /// Bulk copies; chunked per page, hitting the same protocol path as
  /// element loads/stores but far cheaper in host time.
  template <typename T>
  void load_bulk(gptr<T> src, T* dst, std::size_t count) {
    load_bytes(src.raw(), reinterpret_cast<std::byte*>(dst),
               count * sizeof(T));
  }
  template <typename T>
  void store_bulk(gptr<T> dst, const T* src, std::size_t count) {
    store_bytes(dst.raw(), reinterpret_cast<const std::byte*>(src),
                count * sizeof(T));
  }

  // --- Span accesses -------------------------------------------------------
  //
  // One translation per page instead of one per element: the span variants
  // resolve `p`'s page once (soft-TLB hit or full protocol walk — the same
  // walk a load/store of the first element would take) and expose the rest
  // of the page directly. Protocol behavior is identical to load_bulk /
  // store_bulk over the same range.
  //
  // Rules of use:
  //  * The span is valid only until this thread's next protocol operation
  //    (any load/store/span/fence/barrier) — copy out or finish iterating
  //    first, and never hold two spans at once: the second translation can
  //    evict the first one's line.
  //  * A store_span's bytes must be fully written by the caller if the page
  //    was not previously written (the span exposes raw page bytes, exactly
  //    like consecutive store()s would).

  /// Read-only view of up to `max_count` elements at `p`, clamped to the
  /// containing page. Never empty for max_count > 0.
  template <typename T>
  std::span<const T> load_span(gptr<T> p, std::size_t max_count) {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(kPageSize % sizeof(T) == 0,
                  "span element type must pack evenly into a page");
    const GAddr a = p.raw();
    const std::size_t off = argomem::page_offset(a);
    assert(off % sizeof(T) == 0 && "span base must be element-aligned");
    const std::size_t count =
        std::min(max_count, (kPageSize - off) / sizeof(T));
    if (count == 0) return {};
    if (const std::byte* base = tlb_.lookup_read(argomem::page_of(a),
                                                 cache_->tlb_generation()))
      return {reinterpret_cast<const T*>(base + off), count};
    const std::byte* ptr = cache_->read_ptr(a, count * sizeof(T), &tlb_,
                                            &stride_);
    return {reinterpret_cast<const T*>(ptr), count};
  }

  /// Writable view of up to `max_count` elements at `p`, clamped to the
  /// containing page. Write-allocates the page exactly like store() does.
  template <typename T>
  std::span<T> store_span(gptr<T> p, std::size_t max_count) {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(kPageSize % sizeof(T) == 0,
                  "span element type must pack evenly into a page");
    const GAddr a = p.raw();
    const std::size_t off = argomem::page_offset(a);
    assert(off % sizeof(T) == 0 && "span base must be element-aligned");
    const std::size_t count =
        std::min(max_count, (kPageSize - off) / sizeof(T));
    if (count == 0) return {};
    if (std::byte* base = tlb_.lookup_write(argomem::page_of(a),
                                            cache_->tlb_generation()))
      return {reinterpret_cast<T*>(base + off), count};
    std::byte* ptr = cache_->write_ptr(a, count * sizeof(T), &tlb_, &stride_);
    return {reinterpret_cast<T*>(ptr), count};
  }

  /// True if `a` is homed on this thread's node (its accesses are local).
  bool is_home(GAddr a) const;

  // --- Time ---------------------------------------------------------------

  /// Charge `ns` of computation to this thread's virtual clock.
  void compute(Time ns) { argosim::delay(ns); }
  Time now() const { return argosim::now(); }

  // --- Synchronization building blocks ------------------------------------

  /// SI fence (acquire side): drop cached pages per classification (§3.1).
  void acquire() { cache_->si_fence(); }
  /// SD fence (release side): make this node's writes globally visible.
  void release() { cache_->sd_fence(); }

  /// Vela hierarchical barrier (§4.1): node-local barrier → node SD →
  /// global rendezvous → node SI → node-local release.
  void barrier();

  // --- Network atomics (for synchronization libraries) --------------------
  //
  // These operate on home memory directly, bypassing the page cache —
  // synchronization "constitutes a data race" (§4) and is implemented with
  // raw RDMA atomics plus explicit SI/SD fences. Never mix them with
  // load/store on the same addresses.

  std::uint64_t atomic_fetch_add(gptr<std::uint64_t> p, std::uint64_t v);
  std::uint64_t atomic_fetch_or(gptr<std::uint64_t> p, std::uint64_t v);
  std::uint64_t atomic_cas(gptr<std::uint64_t> p, std::uint64_t expected,
                           std::uint64_t desired);
  std::uint64_t atomic_exchange(gptr<std::uint64_t> p, std::uint64_t desired);
  std::uint64_t atomic_load(gptr<std::uint64_t> p);
  void atomic_store(gptr<std::uint64_t> p, std::uint64_t v);

 private:
  friend class Cluster;
  Thread(Cluster* cluster, int node, int tid, int gid, int core,
         NodeCache* cache)
      : cluster_(cluster), node_(node), tid_(tid), gid_(gid), core_(core),
        cache_(cache) {}
  Thread(const Thread&) = delete;
  Thread& operator=(const Thread&) = delete;
  ~Thread() { cache_->note_tlb_hits(tlb_.host_hits); }

  void load_bytes(GAddr a, std::byte* dst, std::size_t n);
  void store_bytes(GAddr a, const std::byte* src, std::size_t n);

  Cluster* cluster_;
  int node_, tid_, gid_, core_;
  NodeCache* cache_;
  // Per-thread translation cache (~4 KB, lives on the fiber stack with the
  // Thread object).
  argocore::SoftTlb tlb_;
  // Per-thread stride table over this thread's page-miss history
  // (core/adapt.hpp). Always passed down; NodeCache only consults it when
  // the stride-prefetch policy is active. Unlike the TLB it is simulated
  // state: prefetching changes virtual time.
  argocore::StrideTable stride_;
};

/// The simulated Argo cluster: nodes, interconnect, global memory, Pyxis
/// directory, one Carina NodeCache per node, and the virtual-time engine.
class Cluster {
 public:
  explicit Cluster(ClusterConfig cfg);
  ~Cluster();  // flushes installed trace sinks

  const ClusterConfig& config() const { return cfg_; }
  int nodes() const { return cfg_.nodes; }
  int threads_per_node() const { return cfg_.threads_per_node; }
  int nthreads() const { return cfg_.nodes * cfg_.threads_per_node; }

  // --- Global memory -------------------------------------------------------

  /// Allocate a global array (host-side; free of virtual time).
  template <typename T>
  gptr<T> alloc(std::size_t count) {
    return gmem_.alloc<T>(count);
  }

  /// Direct host access to the authoritative (home) copy — for workload
  /// initialization before the parallel phase and verification after it.
  template <typename T>
  T* host_ptr(gptr<T> p) {
    return gmem_.home_ptr(p);
  }

  /// Reset reader/writer maps and drop all page caches: the paper's
  /// "initialization writes do not count" adaptation (§3.4). Call between
  /// host-side initialization and run().
  void reset_classification();

  // --- Execution -----------------------------------------------------------

  /// Run `body` on every thread of the cluster; returns the virtual time
  /// the parallel phase took. May be called repeatedly (phases).
  Time run(const std::function<void(Thread&)>& body);

  /// Run `body` only on the first `threads` threads of node 0 (sequential
  /// baselines and single-node scaling points).
  Time run_subset(int use_nodes, int use_threads_per_node,
                  const std::function<void(Thread&)>& body);

  // --- Introspection -------------------------------------------------------

  argosim::Engine& engine() { return eng_; }
  argonet::Interconnect& net() { return net_; }
  argomem::GlobalMemory& gmem() { return gmem_; }
  argodir::PyxisDirectory& dir() { return dir_; }
  NodeCache& node_cache(int node) { return *caches_[node]; }

  /// The crash-stop membership/recovery service (core/membership.hpp).
  /// Always constructed; inert (no fibers, no probes) unless
  /// ClusterConfig::membership.enabled. Exposes per-node views, the
  /// cluster epoch, and per-epoch recovery statistics.
  argocore::MembershipService& membership() { return *membership_; }
  const argocore::MembershipService& membership() const { return *membership_; }

  /// Aggregated immutable statistics snapshot — the public reporting API.
  ClusterStats stats() const;

  CoherenceStats coherence_stats() const;
  argonet::NodeNetStats net_stats() const { return net_.total_stats(); }
  void reset_stats();

  // --- Observability -------------------------------------------------------

  /// The protocol tracer (no-op unless ClusterConfig::trace.enabled).
  argoobs::Tracer& tracer() { return tracer_; }

  /// The metric name registry (every CoherenceStats/NodeNetStats field is
  /// registered under a stable dotted name at construction).
  const argoobs::MetricsRegistry& metrics() const { return metrics_; }

  /// Install a trace exporter; several may be installed. Sinks receive the
  /// merged seq-ordered event snapshot on flush_trace() and once more from
  /// the destructor. Returns *this for chaining.
  Cluster& trace_sink(std::unique_ptr<argoobs::TraceSink> sink);

  /// Push the current trace snapshot through every installed sink.
  void flush_trace();

  Time now() const { return eng_.now(); }

  /// Node/thread counts of the current (or most recent) run_subset call.
  int active_nodes() const { return active_nodes_; }
  int active_tpn() const { return active_tpn_; }

  /// Barrier over all active threads WITHOUT coherence fences: node-local
  /// rendezvous plus the global dissemination cost. Used by runtimes that
  /// have no page caches to maintain (the PGAS baseline).
  void rendezvous(Thread& t);

  /// Install a hook called by each node leader at the end of every Vela
  /// barrier (after its SI fence, before releasing the node's threads),
  /// with the node index. Costs no virtual time. Used by the
  /// ProtocolValidator to check coherence invariants at quiescent points.
  /// A hook inspects every node's state from one node's fiber, so
  /// installing one before the first run puts the whole cluster on one
  /// engine shard; installing one after a per-node run throws.
  void set_barrier_hook(std::function<void(int)> hook) {
    eng_.require_serial("barrier hooks");
    barrier_hook_ = std::move(hook);
  }

 private:
  friend class Thread;
  void global_rendezvous(int node);  // leader part of the hierarchical barrier
  void partition_engine();           // decided once, at the first run
  void register_metrics();

  int active_nodes_ = 1;
  int active_tpn_ = 1;
  bool partitioned_ = false;
  /// Why the engine runs as one shard (static string from
  /// partition_engine; null for one shard per node). Surfaced through
  /// stats().
  const char* engine_fallback_reason_ = nullptr;
  ClusterConfig cfg_;
  argosim::Engine eng_;
  argonet::Interconnect net_;
  argomem::GlobalMemory gmem_;
  argodir::PyxisDirectory dir_;
  std::vector<std::unique_ptr<NodeCache>> caches_;
  std::vector<NodeCache*> peer_view_;
  std::unique_ptr<argocore::MembershipService> membership_;
  std::vector<std::unique_ptr<argosim::SimBarrier>> node_barriers_;
  std::unique_ptr<argosim::SimGate> leader_gate_;
  Time barrier_net_cost_ = 0;
  int barrier_rounds_ = 0;
  std::function<void(int)> barrier_hook_;
  argoobs::Tracer tracer_;
  argoobs::MetricsRegistry metrics_;
  std::vector<std::unique_ptr<argoobs::TraceSink>> sinks_;
};

}  // namespace argo
