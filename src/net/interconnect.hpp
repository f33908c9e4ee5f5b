// Simulated cluster interconnect.
//
// Provides the two communication styles the paper contrasts:
//
//  * one-sided RDMA verbs (read, write, fetch-or, fetch-add, CAS) — the only
//    operations Argo's passive Carina/Pyxis protocol uses; no code runs on
//    the target node, only latency/bandwidth is charged, and
//  * two-sided messages with mailboxes — what traditional DSMs and the
//    MPI/PGAS baselines use; receiving requires an *active* agent (a handler
//    fiber or a blocked receiver) on the target node.
//
// All operations must be called from a simulated thread. When
// NetConfig::serialize_nic is set, ops from the same node serialize on a
// per-node NIC lock, reproducing the paper's "only one thread can use the
// interconnect at any point in time" MPI prototype limitation (§3.6.2).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/faults.hpp"
#include "net/netconfig.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"

namespace argonet {

using argosim::Time;

/// Thrown by the reliable verbs when an op still fails after the
/// RetryPolicy's attempt budget / deadline is exhausted (a hard, rather
/// than transient, network failure). Messages carry the verb name, the
/// source/target node ids and the virtual time of the failure.
class NetworkError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown when an op targets a node that has crash-stopped (dead under the
/// current membership view): unlike transient NetworkError failures there
/// is no point retrying — the caller must recover (re-route to a successor
/// home, abort a delegated critical section, drop a barrier partner).
class NodeFailedError : public NetworkError {
 public:
  NodeFailedError(const std::string& what, int src, int dst)
      : NetworkError(what), src_(src), dst_(dst) {}
  int src() const { return src_; }
  int dst() const { return dst_; }

 private:
  int src_;
  int dst_;
};

/// A two-sided message. `tag` is protocol-defined; `a/b/c` carry small
/// immediate operands so tiny control messages need no payload allocation.
struct Message {
  int src = -1;
  int dst = -1;
  int tag = 0;
  std::uint64_t a = 0, b = 0, c = 0;
  std::vector<std::byte> payload;

  std::size_t wire_size() const { return 40 + payload.size(); }
};

/// Completion handle for a posted (asynchronous) verb. Handles are cheap
/// value types; redeem them with Interconnect::wait / wait_all. A
/// default-constructed handle is inert (wait returns immediately).
struct PostedHandle {
  int node = -1;        ///< issuing node (owns the send queue)
  std::uint64_t id = 0; ///< per-node monotonically increasing op id
  explicit operator bool() const { return id != 0; }
};

/// One element of a scatter-gather posted write: `len` bytes copied from
/// `local` to `remote` when the (single) op completes.
struct GatherRun {
  void* remote = nullptr;
  const void* local = nullptr;
  std::size_t len = 0;
};

/// Per-node traffic statistics (virtual-time accounting).
struct NodeNetStats {
  std::uint64_t rdma_reads = 0;
  std::uint64_t rdma_writes = 0;
  std::uint64_t rdma_atomics = 0;
  std::uint64_t msgs_sent = 0;
  std::uint64_t msgs_received = 0;
  std::uint64_t bytes_read = 0;     ///< payload bytes fetched by RDMA reads
  std::uint64_t bytes_written = 0;  ///< payload bytes pushed by RDMA writes
  std::uint64_t bytes_sent = 0;     ///< message payload bytes sent
  Time nic_busy = 0;                ///< time this node's NIC was held
  std::uint64_t faults_injected = 0;  ///< failed attempts + dropped msgs
  std::uint64_t retries = 0;          ///< re-attempts after injected faults
  Time backoff_time = 0;              ///< virtual time spent backing off
  std::uint64_t posted_ops = 0;       ///< async verbs queued (pipeline > 1)
  std::uint64_t posted_inflight_hwm = 0;  ///< send-queue depth high-water mark

  std::uint64_t total_ops() const {
    return rdma_reads + rdma_writes + rdma_atomics + msgs_sent;
  }
  std::uint64_t total_bytes() const {
    return bytes_read + bytes_written + bytes_sent;
  }
  NodeNetStats& operator+=(const NodeNetStats& o);
};

class Interconnect {
 public:
  Interconnect(int nodes, NetConfig cfg);

  int nodes() const { return nodes_; }
  const NetConfig& config() const { return cfg_; }

  // --- Fault injection ----------------------------------------------------

  /// Attach a fault injector. From here on every *remote* op consults it:
  /// the reliable verbs below turn into retry loops (RetryPolicy in
  /// NetConfig) and try_send may report a dropped message. Without an
  /// injector the fault machinery is never consulted — the fault-free
  /// path's virtual times are identical to a build without this feature.
  void enable_faults(const FaultConfig& cfg);

  bool faults_enabled() const { return faults_ != nullptr; }
  FaultInjector* faults() { return faults_.get(); }

  /// Attach a protocol tracer (not owned; may be null). Emits PostedRetire
  /// events as posted verbs leave the send queues.
  void set_tracer(argoobs::Tracer* tracer) { tracer_ = tracer; }

  // --- One-sided RDMA verbs (passive: no code runs on `dst`) -------------

  /// Read `n` bytes from `remote` (memory homed on node `dst`) into `local`.
  void read(int src, int dst, const void* remote, void* local, std::size_t n);

  /// Write `n` bytes from `local` into `remote` (memory homed on node `dst`).
  void write(int src, int dst, void* remote, const void* local, std::size_t n);

  /// Blocking scatter-gather write: one wire transfer of
  /// sum(len + header_bytes) covering every run, applied at completion
  /// time (on `dst`'s shard, from a snapshot of the runs).
  void write_gather(int src, int dst, const std::vector<GatherRun>& runs,
                    std::size_t header_bytes);

  /// Remote atomic OR; returns the previous value (MPI_Fetch_and_op(BOR)).
  std::uint64_t fetch_or(int src, int dst, std::uint64_t* remote,
                         std::uint64_t bits);

  /// fetch_or variant for callers that must update target-side state
  /// atomically with the OR (directory generation bumps): `on_remote(old)`
  /// runs immediately after the OR commits, in the target's context (the
  /// effect on `dst`'s shard).
  std::uint64_t fetch_or(int src, int dst, std::uint64_t* remote,
                         std::uint64_t bits,
                         std::function<void(std::uint64_t)> on_remote);

  /// Maximum span (in 64-bit words) of one extended remote atomic —
  /// models the 32-byte masked-atomic operand cap of ConnectX-class HCAs.
  static constexpr int kMaxAtomicSpan = 4;

  /// Extended remote atomic OR over `nwords` consecutive 64-bit words
  /// (1 <= nwords <= kMaxAtomicSpan): ORs bits[i] into remote[i] and
  /// snapshots every pre-OR word into prev_out[i] at one commit instant —
  /// the multi-word directory's full-map Fetch&Or. Charged as one remote
  /// atomic streaming the 8*(nwords-1) operand bytes beyond the first
  /// word, so nwords == 1 charges exactly what fetch_or does. `bits` is
  /// snapshotted; `prev_out` must stay valid until the call returns.
  void fetch_or_span(int src, int dst, std::uint64_t* remote,
                     const std::uint64_t* bits, int nwords,
                     std::uint64_t* prev_out);

  /// Remote atomic add; returns the previous value.
  std::uint64_t fetch_add(int src, int dst, std::uint64_t* remote,
                          std::uint64_t v);

  /// Remote compare-and-swap; returns the previous value.
  std::uint64_t cas(int src, int dst, std::uint64_t* remote,
                    std::uint64_t expected, std::uint64_t desired);

  /// Remote atomic exchange; returns the previous value
  /// (MPI_Fetch_and_op(REPLACE)).
  std::uint64_t exchange(int src, int dst, std::uint64_t* remote,
                         std::uint64_t desired);

  /// Virtual time of an access that stays on the caller's own node and
  /// moves `n` bytes: a local verb (an atomic moves none), or a message a
  /// node sends itself.
  Time local_cost(std::size_t n) const {
    return cfg_.mem_latency + cfg_.mem_copy(n);
  }

  /// Idle-poll skip for a fiber of `node` that just read an `n`-byte word
  /// homed on `node` itself and keeps polling it, one poll being
  /// `interval` ns and then a local read (Engine::skip_idle_polls, which
  /// may float the fiber until its shard's next event). Skips at most
  /// `cap` polls; each skipped poll counts as the local read it stands
  /// for. Returns the polls skipped.
  std::uint64_t skip_local_polls(int node, std::size_t n, Time interval,
                                 std::uint64_t cap) {
    const Time period = local_cost(n) + interval;
    const std::uint64_t m =
        argosim::Engine::current()->skip_idle_polls(period, cap);
    NodeNetStats& s = boxes_[node]->stats;
    s.rdma_reads += m;
    s.bytes_read += m * n;
    return m;
  }

  // --- Posted (asynchronous) verbs ----------------------------------------
  //
  // The RDMA work-queue model: post returns after charging the op's NIC
  // occupancy (overhead + payload streaming, serialized per node); the wire
  // latency runs concurrently with whatever the caller does next, bounded
  // by NetConfig::pipeline outstanding ops per node. Completions retire
  // strictly in post order (reliable-connection semantics). The op's
  // effect — the memcpy or atomic — is applied on the target's shard at its
  // completion instant, as the blocking verbs apply theirs, and a read's
  // bytes land in `local` at retirement. Posted writes snapshot their
  // payload at post time, so source buffers may be reused immediately.
  //
  // Fault injection composes transparently: a posted op draws all of its
  // attempt plans when posted (one per retry, against the posting-time
  // clock) and folds the retries and backoff into its completion time; a
  // hard failure (retry budget exhausted) surfaces as NetworkError from
  // wait()/wait_all() of the *issuing* node, never from an innocent fiber
  // that happens to retire the queue.
  //
  // At pipeline depth 1 a post degenerates to the matching blocking verb —
  // bit-identical charges, already retired on return.

  PostedHandle post_read(int src, int dst, const void* remote, void* local,
                         std::size_t n);
  PostedHandle post_write(int src, int dst, void* remote, const void* local,
                          std::size_t n);

  /// One posted op carrying several runs to scattered remote addresses
  /// (one wire transfer of sum(len + header_bytes); one logical RDMA
  /// write). The diff-writeback path uses this to ship a whole page's runs
  /// as a single scatter-gather element list.
  PostedHandle post_write_gather(int src, int dst,
                                 const std::vector<GatherRun>& runs,
                                 std::size_t header_bytes);

  PostedHandle post_fetch_or(int src, int dst, std::uint64_t* remote,
                             std::uint64_t bits);

  /// Posted fetch_or whose `on_remote(old)` runs in the target's context
  /// right after the OR commits (see the blocking overload).
  PostedHandle post_fetch_or(int src, int dst, std::uint64_t* remote,
                             std::uint64_t bits,
                             std::function<void(std::uint64_t)> on_remote);
  /// Posted fetch_or_span: `prev_out` is filled with the pre-OR words by
  /// retirement time and must stay valid (and in place) until wait(h)
  /// returns. The handle's wait() value is prev_out[0].
  PostedHandle post_fetch_or_span(int src, int dst, std::uint64_t* remote,
                                  const std::uint64_t* bits, int nwords,
                                  std::uint64_t* prev_out);

  PostedHandle post_fetch_add(int src, int dst, std::uint64_t* remote,
                              std::uint64_t v);
  PostedHandle post_cas(int src, int dst, std::uint64_t* remote,
                        std::uint64_t expected, std::uint64_t desired);

  /// Block until `h` has retired; returns the op's value (previous value
  /// for atomics, 0 for reads/writes). Throws NetworkError (NodeFailedError
  /// when the target has died) if the op hard-failed, even when wait_all
  /// already reported that failure. Waiting on a retired or default handle
  /// returns immediately.
  std::uint64_t wait(PostedHandle h);

  /// Retire every outstanding posted op of `node` (a full send-queue
  /// drain). Throws the first hard failure it has not reported before; each
  /// stays claimable through wait(h).
  void wait_all(int node);

  /// Posted ops of `node` that hard-failed and were reported by wait()/
  /// wait_all() since the last call; resets the count. Recovery paths use
  /// this to attribute a batch of banked failures (wait_all throws only the
  /// first) to `recovery.aborted_ops`.
  std::uint64_t take_aborted_posted(int node) {
    auto& box = *boxes_[node];
    const std::uint64_t n = box.posted_aborted;
    box.posted_aborted = 0;
    return n;
  }

  // --- Crash-stop support --------------------------------------------------

  /// Heartbeat probe from `src` toward `dst`: charges one small-message
  /// round on the *sender only* (a dead target participates in nothing)
  /// and reports whether `dst` is currently live. Consults only the crash
  /// schedule — never the fault RNG streams — so probing leaves the
  /// transient-fault pattern of a seed untouched.
  bool probe(int src, int dst);

  /// True if `node` is crash-stopped at the current virtual time (false
  /// when no crash schedule is attached).
  bool node_dead(int node) const {
    return faults_ && faults_->has_crashes() &&
           faults_->crashed(node, argosim::now());
  }

  /// Messages dropped at delivery because their sender had crash-stopped
  /// (the "no message from a dead epoch is applied" rule).
  std::uint64_t stale_msgs_dropped() const {
    return stale_msgs_dropped_.load(std::memory_order_relaxed);
  }

  /// One dissemination round of the hierarchical barrier, issued by
  /// `node` toward `partner`: charged like a small one-sided notification
  /// (nic_overhead busy + msg_latency in flight) and retried under the
  /// RetryPolicy when faults are enabled.
  void barrier_round(int node, int partner);

  // --- Two-sided messages (require an active receiver on `dst`) ----------

  /// Post a message. The sender is charged posting + streaming time; the
  /// message becomes visible to receivers on `dst` after the wire latency.
  void send(Message msg);

  /// Charge the cost of sending a `payload_bytes` message from `src` to
  /// `dst` without enqueuing anything; returns the virtual time at which
  /// the message is delivered. Higher-level messaging layers (the MPI
  /// library) keep their own mailboxes but pay the same budget.
  Time charge_message(int src, int dst, std::size_t payload_bytes);

  /// Block until a message for `node` is deliverable, then return it.
  Message recv(int node);

  /// Like send(), but reports whether the message became deliverable:
  /// false means an injected fault dropped it after the sender paid the
  /// posting cost (never happens without a fault injector).
  bool try_send(Message msg);

  /// Non-blocking receive; returns an empty optional if nothing deliverable.
  std::optional<Message> try_recv(int node);

  /// Blocking receive with a virtual-time deadline: returns the message,
  /// or an empty optional if none became deliverable within `timeout`.
  std::optional<Message> recv_for(int node, Time timeout);

  /// True if a message is deliverable right now without blocking.
  bool poll(int node);

  // --- Statistics ---------------------------------------------------------

  const NodeNetStats& stats(int node) const { return boxes_[node]->stats; }
  NodeNetStats total_stats() const;
  void reset_stats();

  /// Posted ops' completion-record pool reuses vs fresh allocations across
  /// all nodes (host-side diagnostics).
  std::uint64_t record_pool_hits() const {
    return rec_pool_hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t record_pool_misses() const {
    return rec_pool_misses_.load(std::memory_order_relaxed);
  }

 private:
  struct Pending {
    Time deliver_at;
    std::uint64_t seq;
    Message msg;
    bool operator>(const Pending& o) const {
      return deliver_at != o.deliver_at ? deliver_at > o.deliver_at
                                        : seq > o.seq;
    }
  };

  /// One remote verb as the op routine sees it; defined in interconnect.cpp
  /// next to the routine and the per-verb remote effects.
  struct Verb;

  /// A deferred write's payload: the source bytes captured at issue time and
  /// the runs re-pointed at them. Owned by the write's effect.
  struct Payload {
    std::vector<std::byte> bytes;
    std::vector<GatherRun> runs;
  };

  /// A posted op sitting in a node's send queue. `complete_at` already
  /// folds in NIC occupancy, wire latency, projected fault retries and the
  /// in-order constraint against earlier ops.
  struct Posted {
    std::uint64_t id;
    Time complete_at;
    bool hard_fail;
    bool has_value;
    const char* what;
    int dst;  ///< target node (error context)
    void* out;  ///< where a read's bytes land at retirement
    std::size_t out_n;
    /// Filled and completed by the remote effect, shipped to dst's shard
    /// at post time.
    std::shared_ptr<argosim::SimRecord> rec;
  };

  struct PostedFailure {
    const char* what;
    int dst;
    bool reported = false;  ///< already thrown by wait_all
  };

  struct NodeBox {
    argosim::SimMutex nic;
    std::priority_queue<Pending, std::vector<Pending>, std::greater<>> inbox;
    argosim::WaitQueue rx_waiters;
    NodeNetStats stats;
    std::deque<Posted> sendq;          // outstanding posted ops, post order
    std::uint64_t posted_next_id = 1;  // 0 is the inert handle
    std::map<std::uint64_t, std::uint64_t> posted_results;  // unclaimed values
    std::map<std::uint64_t, PostedFailure> posted_failed;   // unclaimed errors
    std::uint64_t posted_aborted = 0;  // failures reported since last take
    // Per-source effect keys and per-destination inbox sequence.
    // effect_seq makes every (when, src, seq) effect key unique and
    // post-ordered; rx_seq is assigned on the destination shard in
    // effect-key order.
    std::uint64_t effect_seq = 1;
    std::uint64_t rx_seq = 0;
    // Posted ops' completion-record freelist (single-writer: every op on
    // this box runs on its node's shard). A slot whose use_count() has
    // fallen back to 1 is referenced by nobody but the pool and can be
    // reset and handed out again.
    std::vector<std::shared_ptr<argosim::SimRecord>> rec_pool;
  };

  /// Cost and fate of one remote-op attempt.
  struct Attempt {
    Time busy;     ///< NIC occupancy: overhead + (brownout-scaled) streaming
    Time latency;  ///< in flight after the NIC is free again
    bool fail;     ///< injected fault: charged, but never completes
  };

  /// The single op routine behind every one-sided verb. Blocking, or with
  /// `posted` set queued on `src`'s send queue when the pipeline is deeper
  /// than 1 (a depth-1 or local post is the blocking verb and leaves
  /// `posted` inert). Returns the effect's value for a completed op.
  template <class Effect>
  std::uint64_t op(int src, int dst, const Verb& v, Effect&& effect,
                   PostedHandle* posted = nullptr);

  /// Posted form of op(): a handle for a queued op, else a retired one.
  template <class Effect>
  PostedHandle post(int src, int dst, const Verb& v, Effect&& effect);

  /// Package `effect` for deferred execution over a snapshot of the verb's
  /// write payload, leaving read bytes and value in `*rec`. A posted op's
  /// pooled record is shared with the effect, so a slot whose issuer
  /// unwound is not handed out again before the effect has filled it; a
  /// blocking op passes its fiber's own record by pointer.
  template <class Effect, class Rec>
  argosim::EffectFn bind(const Verb& v, Effect&& effect, Rec rec);

  /// Queue a deferred op (pipeline depth > 1): reclaim a slot if the queue
  /// is full, charge its NIC occupancy, project its completion and hand
  /// its effect to dst's shard.
  PostedHandle enqueue(int src, int dst, const Verb& v, argosim::EffectFn fn,
                       std::shared_ptr<argosim::SimRecord> rec);

  /// Await a deferred op's record; copy its read bytes out; its value.
  /// Empties the record for its next use.
  std::uint64_t collect(argosim::SimRecord& rec, void* out, std::size_t out_n);

  /// Draw the plan for one attempt issued at `at` (fault-free: the base
  /// costs, no draws).
  Attempt plan(int src, int dst, std::size_t stream_bytes, Time base_latency,
               Time at);

  /// Retry budget spent after `attempt` attempts taking `elapsed`?
  bool exhausted(int attempt, Time elapsed) const;

  /// Next backoff wait (jittered, counted in `src`'s stats); grows
  /// `backoff` for the attempt after.
  Time backoff_wait(int src, Time& backoff);

  /// The real-time retry loop: attempt until success under the
  /// RetryPolicy; throws NetworkError when the budget is exhausted. `fire`
  /// ships with the successful attempt.
  void reliable(int src, int dst, std::size_t stream_bytes, Time base_latency,
                const char* what, argosim::EffectFn* fire);

  /// A posted op's whole retry history, projected at post time: the first
  /// attempt holds the NIC, later ones fold into the completion time.
  /// Returns {completion time, hard failure}.
  std::pair<Time, bool> project(int src, int dst, std::size_t stream_bytes,
                                Time base_latency);

  /// Hold node `src`'s NIC for `busy` ns, then charge `latency` more (time
  /// the op is in flight but the NIC is free again). `fire` ships to `dst`'s
  /// shard, stamped at the completion instant, once the NIC is acquired.
  void charge(int src, Time busy, Time latency, int dst = -1,
              argosim::EffectFn* fire = nullptr);

  /// Post `fn` on `dst`'s shard at `when`, keyed by (src, post order).
  void ship(int src, int dst, Time when, argosim::EffectFn&& fn);

  /// Fail fast with NodeFailedError if `dst` is crash-stopped. A dead
  /// *source* never throws it: its fibers are being reaped and must unwind
  /// only via SimStopped. No-op (and zero cost) without a crash schedule.
  void crash_check(int src, int dst, const char* what);

  /// Pooled completion record for a node's next posted op: reuses a free
  /// slot when one exists, else allocates (and grows the pool up to its
  /// cap).
  template <class T>
  std::shared_ptr<T> acquire(std::vector<std::shared_ptr<T>>& pool);

  /// Copy a write's runs into a payload (empty for any other verb).
  static Payload snapshot(std::span<const GatherRun> in);

  /// Handle for an op that completed synchronously (local ops, depth 1).
  PostedHandle retired_handle(int src, bool has_value, std::uint64_t value);

  /// Retire the head of `src`'s send queue: sleep until its completion
  /// time, apply its effect, bank its value/failure for the owner's wait.
  void retire_front(int src);

  [[noreturn]] void throw_posted_failure(int node, PostedFailure f);

  /// Put a remote message in flight: a delivery effect on the
  /// destination's shard.
  void arrive(Message msg, Time deliver_at);

  /// Queue `msg` in its destination's inbox (on that node's shard).
  void deliver(Message msg, Time deliver_at);

  /// Pop (and count) deliverable inbox messages whose sender has crash-
  /// stopped; returns once the top is live-sourced or not yet deliverable.
  void purge_stale(NodeBox& box);

  int nodes_;
  NetConfig cfg_;
  std::vector<std::unique_ptr<NodeBox>> boxes_;
  std::unique_ptr<FaultInjector> faults_;
  argoobs::Tracer* tracer_ = nullptr;
  // Bumped by purge_stale, which runs on the receiving fiber's shard —
  // concurrent across shards under the parallel engine.
  std::atomic<std::uint64_t> stale_msgs_dropped_{0};
  // Pool diagnostics; bumped from every node's shard concurrently.
  std::atomic<std::uint64_t> rec_pool_hits_{0};
  std::atomic<std::uint64_t> rec_pool_misses_{0};
};

}  // namespace argonet
