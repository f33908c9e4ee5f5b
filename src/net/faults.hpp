// Deterministic, seeded fault injection for the simulated interconnect.
//
// Real RDMA deployments see transient NIC timeouts, dropped/duplicated
// two-sided messages, latency jitter, and per-node "brownouts" (windows of
// degraded bandwidth/latency while a link retrains or a switch queue
// drains). The paper's protocol is all one-sided ops issued by the
// requester, so recovery is entirely the requester's problem: every verb
// must be retryable. This module decides *what* goes wrong and *when*;
// the Interconnect charges the costs and runs the retry/backoff loops.
//
// Determinism: all draws come from xoshiro streams (sim/random.hpp) seeded
// from FaultConfig::seed, and the virtual-time engine schedules fibers
// deterministically — so a given (program, config, seed) triple produces a
// bit-identical fault pattern, virtual times, and statistics on every run.
// Per-node brownout schedules use per-node streams, making each node's
// windows independent of the cluster-wide op order.
//
// When FaultConfig::enabled is false the Interconnect never consults this
// module: the fault-free path is byte-for-byte the pre-fault code and its
// virtual times are unchanged.
#pragma once

#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "sim/random.hpp"
#include "sim/time.hpp"

namespace argonet {

using argosim::Time;

/// What can go wrong, and how often. All probabilities are per-attempt.
struct FaultConfig {
  bool enabled = false;      ///< master switch; false = zero overhead
  std::uint64_t seed = 1;    ///< seeds every fault stream

  /// Probability that a remote RDMA op attempt (read/write/atomic) fails
  /// transiently: the initiator pays the full attempt cost, observes a
  /// completion timeout, and must retry.
  double rdma_fail_prob = 0.0;

  /// Probability a two-sided message is dropped after the sender is
  /// charged (it never becomes deliverable).
  double msg_drop_prob = 0.0;

  /// Probability a two-sided message is delivered twice (NIC-level
  /// retransmission whose original was not actually lost).
  double msg_dup_prob = 0.0;

  /// Latency jitter: with probability `jitter_prob`, a remote op or
  /// message gets uniform extra latency in [0, jitter_max].
  double jitter_prob = 0.0;
  Time jitter_max = 0;

  /// Per-node brownout windows: roughly every `brownout_mean_interval` ns
  /// (uniform in [interval/2, 3*interval/2)) a node enters a window of
  /// roughly `brownout_mean_duration` ns during which every op it
  /// initiates — or that targets it — runs at `brownout_latency_mult` ×
  /// latency and `brownout_bw_frac` × bandwidth. 0 disables brownouts.
  Time brownout_mean_interval = 0;
  Time brownout_mean_duration = 0;
  double brownout_latency_mult = 4.0;
  double brownout_bw_frac = 0.25;

  /// Crash-stop schedule (see CrashEvent). Crashes draw nothing from the
  /// fault RNG streams, so adding a crash schedule never perturbs the
  /// transient-fault pattern of a given seed.
  std::vector<struct CrashEvent> crashes;
};

/// One scheduled crash-stop failure: a node crashes at a fixed virtual
/// time. `rejoin_at` > 0 optionally brings the node back as a *fresh* node
/// (empty cache, new identity for membership purposes) at that virtual time.
struct CrashEvent {
  int node = -1;       ///< which node dies
  Time at = 0;         ///< crash at this virtual time
  Time rejoin_at = 0;  ///< 0 = crash is permanent
};

/// Fault decision for one remote-op attempt.
struct AttemptPlan {
  bool fail = false;          ///< attempt is charged but does not complete
  Time extra_latency = 0;     ///< jitter added to the completion latency
  double latency_mult = 1.0;  ///< brownout latency multiplier
  double bw_frac = 1.0;       ///< brownout bandwidth fraction (0 < f <= 1)
};

class FaultInjector {
 public:
  FaultInjector(FaultConfig cfg, int nodes);

  const FaultConfig& config() const { return cfg_; }

  /// Decide the fate of one remote op attempt issued by `src` against
  /// memory homed on `dst` at virtual time `now`. Draws nothing for
  /// features whose probability/config is zero.
  AttemptPlan plan_attempt(int src, int dst, Time now);

  /// Independent per-message draws (send-side), from `src`'s own stream.
  /// Every per-op draw comes from the issuing node's stream, so each
  /// node's fibers draw only from theirs (single writer per shard).
  bool drop_message(int src = 0);
  bool duplicate_message(int src = 0);

  /// Uniform draw in [0, span] for retry backoff jitter (0 if span == 0).
  Time backoff_jitter(Time span, int src = 0);

  /// True if `node` is inside a brownout window at time `now`: a pure
  /// function of (node, now), so queries from any shard in any order agree.
  bool in_brownout(int node, Time now);

  /// Number of brownout windows node has fully entered so far (tests).
  std::uint64_t brownouts_seen(int node) const {
    return windows_[static_cast<std::size_t>(node)].entered;
  }

  // --- Crash-stop schedule (RNG-free; never perturbs transient faults) ---

  /// True if the config carries any crash events. The interconnect only
  /// consults the crash machinery when this holds, so chaos runs without a
  /// crash schedule stay bit-identical to pre-crash-support builds.
  bool has_crashes() const { return !crash_.empty(); }

  /// True if `node` is crashed (dead) at virtual time `now`. A node with a
  /// rejoin time is dead only inside [crash, rejoin).
  bool crashed(int node, Time now) const {
    const CrashState& c = crash_state(node);
    if (!c.scheduled || now < c.at) return false;
    return c.rejoin_at == 0 || now < c.rejoin_at;
  }

  /// Crash time of `node` (0 = no crash scheduled).
  Time crash_time(int node) const {
    const CrashState& c = crash_state(node);
    return c.scheduled ? c.at : 0;
  }

  /// Rejoin time of `node` (0 = permanent crash or no crash).
  Time rejoin_time(int node) const { return crash_state(node).rejoin_at; }

 private:
  struct NodeWindows {
    argosim::Rng rng;  // per-node stream: schedule is op-order free
    std::uint64_t entered = 0;
    // Materialized windows [start, end), sorted by end, and the furthest
    // query time seen; guarded by mu_.
    std::vector<std::pair<Time, Time>> mat;
    Time max_t = 0;
  };

  struct CrashState {
    Time at = 0;
    Time rejoin_at = 0;
    bool scheduled = false;  // a CrashEvent names this node
  };

  const CrashState& crash_state(int node) const {
    static const CrashState kNone{};
    const auto i = static_cast<std::size_t>(node);
    return i < crash_.size() ? crash_[i] : kNone;
  }

  /// Per-op draw stream of issuing node `src`.
  argosim::Rng& op_rng(int src) {
    return src_rng_[static_cast<std::size_t>(src)];
  }

  FaultConfig cfg_;
  std::vector<NodeWindows> windows_;
  std::vector<CrashState> crash_;  // per node; empty when no schedule
  std::vector<argosim::Rng> src_rng_;  // per-src-node op streams
  std::mutex mu_;  // guards windows_ materialization
};

}  // namespace argonet
