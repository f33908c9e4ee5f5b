// NUMA cost accounting for node-local lock algorithms (paper §2.2, §5.3).
//
// On the paper's machines (2× Opteron 6220 = 4 NUMA groups of 4 cores) lock
// performance is dominated by where the lock word and the protected data
// last lived. This helper tracks the "owning" core of a cacheline (or of a
// whole working set) and charges the transfer cost when another core
// touches it.
#pragma once

#include "mem/divider.hpp"
#include "net/netconfig.hpp"
#include "sim/engine.hpp"

namespace argosync {

using argonet::NodeTopology;
using argosim::Time;

/// A node's cores by NUMA group (core / (cores / numa_groups)), and the
/// one cost formula for moving a cacheline between two cores: the group
/// division is a multiply and a shift by a divisor fixed at construction.
class CoreMap {
 public:
  explicit CoreMap(const NodeTopology* topo)
      : topo_(topo),
        per_group_(
            static_cast<std::uint64_t>(topo->cores / topo->numa_groups)) {}

  const NodeTopology& topo() const { return *topo_; }
  int group_of(int core) const {
    return static_cast<int>(per_group_.div(static_cast<std::uint64_t>(core)));
  }
  /// Cost for core `dst` to obtain a cacheline last touched by core `src`.
  Time cacheline_transfer(int src, int dst) const {
    if (src == dst) return topo_->l1_hit;
    return group_of(src) == group_of(dst) ? topo_->cacheline_same_numa
                                          : topo_->cacheline_cross_numa;
  }

 private:
  const NodeTopology* topo_;
  argomem::Divider per_group_;
};

/// One logical cacheline (a lock word, a queue slot) or a small working set
/// of `lines` cachelines that moves between cores as a unit (e.g. the hot
/// part of a data structure protected by a lock).
class CachelineSet {
 public:
  explicit CachelineSet(const NodeTopology* topo, int lines = 1)
      : cores_(topo), lines_(lines) {}

  /// Charge the cost of core `core` touching the set; ownership moves.
  void touch(int core) {
    argosim::delay(cost(core));
    move_to(core);
  }

  /// Charge core `core` touching `count` cachelines of the set (e.g. the
  /// nodes a heap operation visited); ownership moves.
  void touch_n(int core, int count) {
    argosim::delay(per_line(core) * static_cast<Time>(count));
    move_to(core);
  }

  /// Charge an uncontended atomic read-modify-write on the set's first
  /// line, including fetching it.
  void rmw(int core) {
    touch(core);
    argosim::delay(cores_.topo().atomic_rmw);
  }

  /// touch() in two halves, for a caller that charges the delay itself:
  /// the cost of core `core` touching the set now, and the ownership move
  /// that follows the delay.
  Time cost(int core) const {
    return per_line(core) * static_cast<Time>(lines_);
  }
  void move_to(int core) { last_core_ = core; }

  int last_core() const { return last_core_; }
  void reset() { last_core_ = -1; }

 private:
  Time per_line(int core) const {
    return last_core_ < 0 ? cores_.topo().l1_hit
                          : cores_.cacheline_transfer(last_core_, core);
  }

  CoreMap cores_;
  int lines_;
  int last_core_ = -1;
};

}  // namespace argosync
