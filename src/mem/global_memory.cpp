#include "mem/global_memory.hpp"

#include <cassert>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>

namespace argomem {

GlobalMemory::GlobalMemory(int nodes, std::size_t total_bytes,
                           HomeMapping mapping)
    : nodes_(nodes), mapping_(mapping) {
  assert(nodes > 0);
  // Round so every node serves the same whole number of pages.
  std::uint64_t pages =
      (total_bytes + kPageSize - 1) / kPageSize;
  std::uint64_t per_node =
      (pages + static_cast<std::uint64_t>(nodes) - 1) /
      static_cast<std::uint64_t>(nodes);
  if (per_node == 0) per_node = 1;
  pages_per_node_ = per_node;
  if (per_node * static_cast<std::uint64_t>(nodes) > Divider::kMaxDividend + 1)
    throw std::invalid_argument("GlobalMemory: more than 2^31 pages (8 TiB)");
  home_div_ = Divider(mapping == HomeMapping::Blocked
                          ? per_node
                          : static_cast<std::uint64_t>(nodes));
  size_ = per_node * static_cast<std::uint64_t>(nodes) * kPageSize;
  bytes_.reset(static_cast<std::byte*>(std::calloc(size_, 1)));
  if (!bytes_) throw std::bad_alloc();
}

std::uint64_t GlobalMemory::kth_top_page_of(int node, std::uint64_t k) const {
  if (mapping_ == HomeMapping::Blocked) {
    const std::uint64_t top =
        (static_cast<std::uint64_t>(node) + 1) * pages_per_node_ - 1;
    return top - k;
  }
  // Interleaved: pages congruent to node modulo nodes_, from the top.
  const std::uint64_t total = pages();
  const std::uint64_t top =
      ((total - 1 - static_cast<std::uint64_t>(node)) /
       static_cast<std::uint64_t>(nodes_)) *
          static_cast<std::uint64_t>(nodes_) +
      static_cast<std::uint64_t>(node);
  return top - k * static_cast<std::uint64_t>(nodes_);
}

GAddr GlobalMemory::alloc_on_node(int node, std::size_t n, std::size_t align) {
  assert(node >= 0 && node < nodes_);
  assert(n <= kPageSize && "node-homed allocations are per-page");
  if (arenas_.empty()) arenas_.resize(static_cast<std::size_t>(nodes_));
  NodeArena& a = arenas_[static_cast<std::size_t>(node)];
  std::size_t off = (a.cur_off + align - 1) & ~(align - 1);
  if (!a.has_page || off + n > kPageSize) {
    if (a.pages_taken >= pages_per_node_)
      throw std::runtime_error(
          "node " + std::to_string(node) + " sync arena exhausted: requested " +
          std::to_string(n) + " bytes but all " +
          std::to_string(pages_per_node_) +
          " node-homed pages are taken (raise ClusterConfig::global_mem_bytes)");
    a.cur_page = kth_top_page_of(node, a.pages_taken++) * kPageSize;
    a.cur_off = 0;
    a.has_page = true;
    off = 0;
  }
  a.cur_off = off + n;
  assert(home_of(a.cur_page + off) == node);
  return a.cur_page + off;
}

GAddr GlobalMemory::alloc_bytes(std::size_t n, std::size_t align) {
  assert(align > 0 && (align & (align - 1)) == 0 && "alignment must be a power of two");
  std::size_t base = (brk_ + align - 1) & ~(align - 1);
  if (n > size() || base > size() - n) {
    const std::size_t remaining = base <= size() ? size() - base : 0;
    throw std::runtime_error(
        "global memory exhausted: requested " + std::to_string(n) +
        " bytes, " + std::to_string(remaining) + " of " +
        std::to_string(size()) +
        " remaining (raise ClusterConfig::global_mem_bytes)");
  }
  brk_ = base + n;
  return static_cast<GAddr>(base);
}

}  // namespace argomem
