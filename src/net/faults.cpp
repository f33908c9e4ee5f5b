#include "net/faults.hpp"

#include <algorithm>
#include <cassert>

namespace argonet {

namespace {

// Mix a node index into the master seed so per-node streams are
// decorrelated (SplitMix64 finalizer, same constants as sim/random.hpp).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + (salt + 1) * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Uniform in [mean/2, 3*mean/2): keeps the mean while avoiding degenerate
// zero-length gaps/windows.
Time around(argosim::Rng& rng, Time mean) {
  assert(mean > 0);
  return mean / 2 + static_cast<Time>(rng.next_below(
                        static_cast<std::uint64_t>(mean) + 1));
}

}  // namespace

FaultInjector::FaultInjector(FaultConfig cfg, int nodes) : cfg_(cfg) {
  assert(nodes > 0);
  windows_.reserve(static_cast<std::size_t>(nodes));
  src_rng_.reserve(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n) {
    const auto i = static_cast<std::uint64_t>(n);
    NodeWindows w;
    w.rng = argosim::Rng(mix_seed(cfg.seed, i + 1));
    windows_.push_back(std::move(w));
    // Salted well away from the per-node window streams (salt n+1).
    src_rng_.push_back(argosim::Rng(mix_seed(cfg.seed, 0x5ead0000ull + i)));
  }
  if (!cfg_.crashes.empty()) {
    crash_.resize(static_cast<std::size_t>(nodes));
    for (const CrashEvent& e : cfg_.crashes) {
      if (e.node < 0 || e.node >= nodes) continue;
      CrashState& c = crash_[static_cast<std::size_t>(e.node)];
      c.at = e.at;
      c.rejoin_at = e.rejoin_at;
      c.scheduled = true;
    }
  }
}

bool FaultInjector::in_brownout(int node, Time now) {
  if (cfg_.brownout_mean_interval == 0 || cfg_.brownout_mean_duration == 0)
    return false;
  // Fibers on different shards query a node's windows with clocks that are
  // not mutually monotonic, and a node's windows are queried both by its
  // own fibers (src side) and by remote initiators (dst side). Materialize
  // the schedule far enough and answer by binary search: the result is a
  // pure function of (node, now), independent of query order.
  NodeWindows& w = windows_[static_cast<std::size_t>(node)];
  if (now > w.max_t) w.max_t = now;
  while (w.mat.empty() || w.mat.back().second <= w.max_t) {
    const Time start = (w.mat.empty() ? 0 : w.mat.back().second) +
                       around(w.rng, cfg_.brownout_mean_interval);
    w.mat.emplace_back(start,
                       start + around(w.rng, cfg_.brownout_mean_duration));
  }
  const auto end_after = [](Time t, const std::pair<Time, Time>& p) {
    return t < p.second;
  };
  // Windows whose end is behind the furthest query have been fully entered.
  w.entered = static_cast<std::uint64_t>(
      std::upper_bound(w.mat.begin(), w.mat.end(), w.max_t, end_after) -
      w.mat.begin());
  const auto it =
      std::upper_bound(w.mat.begin(), w.mat.end(), now, end_after);
  return it != w.mat.end() && now >= it->first;
}

AttemptPlan FaultInjector::plan_attempt(int src, int dst, Time now) {
  AttemptPlan p;
  if (in_brownout(src, now) || in_brownout(dst, now)) {
    p.latency_mult = cfg_.brownout_latency_mult;
    p.bw_frac = cfg_.brownout_bw_frac;
  }
  argosim::Rng& rng = op_rng(src);
  if (cfg_.jitter_prob > 0 && cfg_.jitter_max > 0 &&
      rng.next_bool(cfg_.jitter_prob)) {
    p.extra_latency = static_cast<Time>(
        rng.next_below(static_cast<std::uint64_t>(cfg_.jitter_max) + 1));
  }
  if (cfg_.rdma_fail_prob > 0) p.fail = rng.next_bool(cfg_.rdma_fail_prob);
  return p;
}

bool FaultInjector::drop_message(int src) {
  return cfg_.msg_drop_prob > 0 && op_rng(src).next_bool(cfg_.msg_drop_prob);
}

bool FaultInjector::duplicate_message(int src) {
  return cfg_.msg_dup_prob > 0 && op_rng(src).next_bool(cfg_.msg_dup_prob);
}

Time FaultInjector::backoff_jitter(Time span, int src) {
  if (span <= 0) return 0;
  return static_cast<Time>(
      op_rng(src).next_below(static_cast<std::uint64_t>(span) + 1));
}

}  // namespace argonet
