// The global (cluster-wide) address space and its home mapping.
//
// Argo sets up one shared virtual address range spanning all nodes; every
// page has a *home node* that holds its authoritative copy (§3). The paper's
// prototype distributes the range so "node0 serves the lower addresses ...
// and nodeN-1 serves the higher addresses" (blocked distribution); an
// interleaved mapping is provided as an alternative since the paper calls
// data distribution orthogonal future work.
//
// In the simulator all home memory lives in one flat buffer; the home
// mapping determines *which node's NIC/latency budget* an access is charged
// to, not where the bytes physically live.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "mem/divider.hpp"
#include "mem/gaddr.hpp"

namespace argomem {

enum class HomeMapping {
  Blocked,      ///< contiguous 1/N-th of the space per node (paper default)
  Interleaved,  ///< page p homed on node p % N
};

class GlobalMemory {
 public:
  /// Creates a global space of `total_bytes` (rounded up to whole pages per
  /// node) distributed over `nodes` homes.
  GlobalMemory(int nodes, std::size_t total_bytes,
               HomeMapping mapping = HomeMapping::Blocked);

  int nodes() const { return nodes_; }
  std::size_t size() const { return size_; }
  std::uint64_t pages() const { return size() / kPageSize; }
  std::uint64_t pages_per_node() const { return pages_per_node_; }
  HomeMapping mapping() const { return mapping_; }

  /// Home node of a page, after any crash-recovery redirects.
  int home_of_page(std::uint64_t page) const {
    int h;
    if (mapping_ == HomeMapping::Blocked) {
      const std::uint64_t b = home_div_.div(page);
      h = static_cast<int>(b >= static_cast<std::uint64_t>(nodes_)
                               ? nodes_ - 1
                               : b);
    } else {
      h = static_cast<int>(home_div_.mod(page));
    }
    if (any_redirect_) {
      const int r = redirect_[static_cast<std::size_t>(h)];
      if (r >= 0) return r;
    }
    return h;
  }

  /// Install a node-level home redirect: pages originally homed on `from`
  /// are served (and charged) by `to` from now on. The bytes never move —
  /// the home buffer is one flat allocation — so re-homing is purely a
  /// routing/accounting change. Chains collapse: a later redirect of `to`
  /// retargets existing entries, keeping lookups O(1). Fault-free runs
  /// never take the redirect branch (any_redirect_ stays false).
  void set_home_redirect(int from, int to) {
    if (redirect_.empty()) redirect_.assign(static_cast<std::size_t>(nodes_), -1);
    redirect_[static_cast<std::size_t>(from)] = to;
    for (auto& r : redirect_)
      if (r == from) r = to;
    any_redirect_ = true;
  }

  /// Current redirect target of `node` (-1 = none). Tests/validation.
  int home_redirect(int node) const {
    return redirect_.empty() ? -1 : redirect_[static_cast<std::size_t>(node)];
  }

  int home_of(GAddr a) const { return home_of_page(page_of(a)); }

  /// Pointer to the authoritative (home) copy of a global address.
  std::byte* home_ptr(GAddr a) { return bytes_.get() + a; }
  const std::byte* home_ptr(GAddr a) const { return bytes_.get() + a; }

  /// Typed pointer into the home copy.
  template <typename T>
  T* home_ptr(gptr<T> p) {
    return reinterpret_cast<T*>(home_ptr(p.raw()));
  }

  // --- Allocation (collective-free bump allocator; no free()) ------------

  /// Allocate `n` bytes with the given alignment. Throws std::runtime_error
  /// (naming the requested and remaining byte counts) when the global
  /// space is exhausted.
  GAddr alloc_bytes(std::size_t n, std::size_t align = 64);

  /// Allocate an array of `count` Ts. Arrays of a page or more are
  /// page-aligned so distinct allocations never false-share a page.
  template <typename T>
  gptr<T> alloc(std::size_t count) {
    const std::size_t n = count * sizeof(T);
    const std::size_t align =
        n >= kPageSize ? kPageSize : std::max<std::size_t>(alignof(T), 8);
    return gptr<T>(alloc_bytes(n, align));
  }

  /// Bytes handed out so far.
  std::size_t allocated() const { return brk_; }

  /// Allocate `n` bytes guaranteed to be homed on `node` (synchronization
  /// objects — lock words, MCS queue nodes — want their spin flags in
  /// local memory). Carved from that node's pages at the top of the
  /// address space, growing downward, away from the main allocator.
  GAddr alloc_on_node(int node, std::size_t n, std::size_t align = 64);

  /// Typed node-homed allocation.
  template <typename T>
  gptr<T> alloc_on_node(int node, std::size_t count) {
    return gptr<T>(alloc_on_node(
        node, count * sizeof(T), std::max<std::size_t>(alignof(T), 8)));
  }

 private:
  struct NodeArena {
    std::uint64_t pages_taken = 0;  // from the top of this node's share
    GAddr cur_page = 0;             // current partially-filled page base
    std::size_t cur_off = 0;        // bump offset within cur_page
    bool has_page = false;
  };

  /// k-th page (0-based, from the top of the address space) homed on node.
  std::uint64_t kth_top_page_of(int node, std::uint64_t k) const;

  struct FreeDeleter {
    void operator()(std::byte* p) const noexcept { std::free(p); }
  };

  int nodes_;
  HomeMapping mapping_;
  std::uint64_t pages_per_node_;
  Divider home_div_;  // by pages_per_node_ (Blocked) or nodes_ (Interleaved)
  // calloc-backed so the (often 64 MB) home buffer is zeroed lazily by the
  // OS instead of memset at construction; behavior-identical to the old
  // zero-filled vector.
  std::unique_ptr<std::byte[], FreeDeleter> bytes_;
  std::size_t size_ = 0;
  std::size_t brk_ = 0;
  std::vector<NodeArena> arenas_;
  std::vector<int> redirect_;  // node-level home failover (crash recovery)
  bool any_redirect_ = false;
};

}  // namespace argomem
