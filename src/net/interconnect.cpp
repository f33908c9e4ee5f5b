#include "net/interconnect.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <string>


namespace argonet {

NodeNetStats& NodeNetStats::operator+=(const NodeNetStats& o) {
  rdma_reads += o.rdma_reads;
  rdma_writes += o.rdma_writes;
  rdma_atomics += o.rdma_atomics;
  msgs_sent += o.msgs_sent;
  msgs_received += o.msgs_received;
  bytes_read += o.bytes_read;
  bytes_written += o.bytes_written;
  bytes_sent += o.bytes_sent;
  nic_busy += o.nic_busy;
  faults_injected += o.faults_injected;
  retries += o.retries;
  backoff_time += o.backoff_time;
  posted_ops += o.posted_ops;
  posted_inflight_hwm = std::max(posted_inflight_hwm, o.posted_inflight_hwm);
  return *this;
}

Interconnect::Interconnect(int nodes, NetConfig cfg)
    : nodes_(nodes), cfg_(cfg) {
  assert(nodes > 0);
  boxes_.reserve(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i) boxes_.push_back(std::make_unique<NodeBox>());
}

void Interconnect::enable_faults(const FaultConfig& cfg) {
  if (!cfg.enabled) return;
  faults_ = std::make_unique<FaultInjector>(cfg, nodes_);
}

/// A one-sided verb: what it streams, what it counts, and where its payload
/// comes from and its result goes. Its remote effect travels separately (a
/// closure over the target's memory, see the effects below).
struct Interconnect::Verb {
  enum Kind { kRead, kWrite, kAtomic };
  const char* what;  ///< name in error messages ("RDMA read")
  Kind kind;         ///< which counters it bumps; atomics copy nothing locally
  std::size_t wire;  ///< payload bytes streamed on the wire
  std::span<const GatherRun> in = {};  ///< a write's payload (applied remotely)
  void* out = nullptr;            ///< a read's destination, `out_n` bytes
  std::size_t out_n = 0;
};

namespace {

// Shared error-message context: verb, endpoints, virtual time.
std::string op_context(const char* what, int src, int dst) {
  return std::string(what) + " from node " + std::to_string(src) +
         " to node " + std::to_string(dst) + " at t=" +
         std::to_string(argosim::now()) + "ns";
}

// Pool growth bound per node: past this, acquisitions with no free slot
// fall back to plain allocations (the shared_ptr still retires normally,
// it just isn't retained for reuse). Sized past any realistic pipeline
// depth so steady state never allocates.
constexpr std::size_t kPoolCap = 64;

// --- Remote effects ---------------------------------------------------------
//
// One closure per verb, run against the target's memory at the op's
// completion instant. `in` is a write's payload and `out` receives a read's
// bytes; the return value is an atomic's previous word. Interconnect::op
// runs a local effect inline on the caller's buffers and defers a remote
// one to the target's shard, over a payload snapshot and a completion
// record.

using In = std::span<const GatherRun>;

constexpr auto apply_runs = [](In in, std::byte*) -> std::uint64_t {
  for (const GatherRun& r : in) std::memcpy(r.remote, r.local, r.len);
  return 0;
};

auto read_bytes(const void* remote, std::size_t n) {
  return [remote, n](In, std::byte* out) -> std::uint64_t {
    std::memcpy(out, remote, n);
    return 0;
  };
}

auto or_bits(std::uint64_t* remote, std::uint64_t bits,
             std::function<void(std::uint64_t)> on_remote) {
  return [remote, bits, on_remote = std::move(on_remote)](In, std::byte*) {
    const std::uint64_t old = *remote;
    *remote = old | bits;
    if (on_remote) on_remote(old);
    return old;
  };
}

// One extended atomic: every word's pre-OR value is snapshotted at the same
// commit instant the ORs land — concurrent registrants therefore totally
// order, and exactly one of them observes any given displaced owner as the
// sole accessor.
auto or_span(std::uint64_t* remote, const std::uint64_t* bits, int nwords) {
  assert(nwords >= 1 && nwords <= Interconnect::kMaxAtomicSpan);
  std::array<std::uint64_t, Interconnect::kMaxAtomicSpan> b{};
  std::copy_n(bits, nwords, b.begin());
  return [remote, b, nwords](In, std::byte* out) {
    for (int i = 0; i < nwords; ++i) {
      const std::uint64_t prev = remote[i];
      std::memcpy(out + sizeof(prev) * static_cast<std::size_t>(i), &prev,
                  sizeof(prev));
      remote[i] = prev | b[static_cast<std::size_t>(i)];
    }
    std::uint64_t first;
    std::memcpy(&first, out, sizeof(first));
    return first;
  };
}

auto add(std::uint64_t* remote, std::uint64_t v) {
  return [remote, v](In, std::byte*) {
    const std::uint64_t old = *remote;
    *remote = old + v;
    return old;
  };
}

auto compare_swap(std::uint64_t* remote, std::uint64_t expected,
                  std::uint64_t desired) {
  return [remote, expected, desired](In, std::byte*) {
    const std::uint64_t old = *remote;
    if (old == expected) *remote = desired;
    return old;
  };
}

auto swap(std::uint64_t* remote, std::uint64_t desired) {
  return [remote, desired](In, std::byte*) {
    const std::uint64_t old = *remote;
    *remote = desired;
    return old;
  };
}

std::size_t gather_wire(const std::vector<GatherRun>& runs,
                        std::size_t header_bytes) {
  std::size_t wire = 0;
  for (const GatherRun& r : runs) wire += r.len + header_bytes;
  return wire;
}

}  // namespace

// ---------------------------------------------------------------------------
// The op routine
// ---------------------------------------------------------------------------

template <class Effect>
std::uint64_t Interconnect::op(int src, int dst, const Verb& v,
                               Effect&& effect, PostedHandle* posted) {
  auto& box = *boxes_[src];
  auto& s = box.stats;
  switch (v.kind) {
    case Verb::kRead:
      ++s.rdma_reads;
      s.bytes_read += v.wire;
      break;
    case Verb::kWrite:
      ++s.rdma_writes;
      s.bytes_written += v.wire;
      break;
    case Verb::kAtomic:
      ++s.rdma_atomics;
      break;
  }
  auto* const out = static_cast<std::byte*>(v.out);
  if (src == dst) {
    argosim::delay(local_cost(v.kind == Verb::kAtomic ? 0 : v.wire));
    return effect(v.in, out);
  }
  // The effect runs on dst's shard at the completion instant, over a
  // payload snapshot taken now (owned by the effect), leaving its results
  // in a record.
  if (posted != nullptr && cfg_.pipeline > 1) {
    auto rec = acquire(box.rec_pool);
    argosim::EffectFn fn = bind(v, std::forward<Effect>(effect), rec);
    *posted = enqueue(src, dst, v, std::move(fn), std::move(rec));
    return 0;
  }
  // Blocking: we stay parked until the effect has run, so the record is
  // our fiber's own and a read lands straight in our buffer, saving the
  // copy through the record.
  argosim::SimRecord& rec = argosim::Engine::current_thread()->op_record();
  rec.reset();
  rec.direct = out;
  argosim::EffectFn fn = bind(v, std::forward<Effect>(effect), &rec);
  try {
    reliable(src, dst, v.wire, cfg_.rdma_latency, v.what, &fn);
    return collect(rec, nullptr, 0);
  } catch (...) {
    rec.direct = nullptr;  // unwinding: the effect must not touch our frame
    throw;
  }
}

template <class Effect>
PostedHandle Interconnect::post(int src, int dst, const Verb& v,
                                Effect&& effect) {
  PostedHandle h;
  const std::uint64_t value = op(src, dst, v, std::forward<Effect>(effect), &h);
  return h ? h : retired_handle(src, v.kind == Verb::kAtomic, value);
}

template <class Effect, class Rec>
argosim::EffectFn Interconnect::bind(const Verb& v, Effect&& effect, Rec rec) {
  return [rec = std::move(rec), payload = snapshot(v.in), out_n = v.out_n,
          effect = std::forward<Effect>(effect)]() mutable {
    rec->value = effect(payload.runs, rec->bytes(out_n));
    rec->complete();
  };
}

Interconnect::Payload Interconnect::snapshot(std::span<const GatherRun> in) {
  Payload p;
  if (in.empty()) return p;
  std::size_t total = 0;
  for (const GatherRun& r : in) total += r.len;
  p.bytes.reserve(total);  // no reallocation below: run pointers stay valid
  p.runs.reserve(in.size());
  for (const GatherRun& r : in) {
    const auto* from = static_cast<const std::byte*>(r.local);
    p.runs.push_back(GatherRun{r.remote, p.bytes.data() + p.bytes.size(),
                               r.len});
    p.bytes.insert(p.bytes.end(), from, from + r.len);
  }
  return p;
}

template <class T>
std::shared_ptr<T> Interconnect::acquire(
    std::vector<std::shared_ptr<T>>& pool) {
  // First slot nobody but the pool references: the lowest free slots are
  // reused over and over, so the few in use stay cache-hot.
  for (auto& slot : pool) {
    if (slot.use_count() == 1) {
      slot->reset();
      ++rec_pool_hits_;
      return slot;
    }
  }
  ++rec_pool_misses_;
  auto fresh = std::make_shared<T>();
  if (pool.size() < kPoolCap) pool.push_back(fresh);
  return fresh;
}

std::uint64_t Interconnect::collect(argosim::SimRecord& rec, void* out,
                                    std::size_t out_n) {
  argosim::Engine::current()->await(rec);
  if (out_n > 0) std::memcpy(out, rec.bytes(), out_n);
  const std::uint64_t value = rec.value;
  // The effect has run: free a page-sized buffer now rather than when the
  // pool next hands this slot out, so idle slots pin no transfer bytes.
  rec.reset();
  return value;
}

// ---------------------------------------------------------------------------
// Attempts, retries and NIC charging
// ---------------------------------------------------------------------------

void Interconnect::crash_check(int src, int dst, const char* what) {
  if (!faults_ || !faults_->has_crashes()) return;
  const Time now = argosim::now();
  // A crashed source initiates nothing: its fiber unwinds cleanly here (the
  // same SimStopped path Engine::kill uses) the moment it touches the
  // network — never a NetworkError, which nothing on a dead node could
  // handle and which would otherwise abort the whole simulation when the
  // reaper's rethrow surfaces it.
  if (faults_->crashed(src, now)) throw argosim::SimStopped{};
  if (dst != src && faults_->crashed(dst, now))
    throw NodeFailedError(
        op_context(what, src, dst) + " failed: target node is down", src, dst);
}

Interconnect::Attempt Interconnect::plan(int src, int dst,
                                         std::size_t stream_bytes,
                                         Time base_latency, Time at) {
  Time stream = cfg_.net_transfer(stream_bytes);
  Attempt a{0, base_latency, false};
  if (faults_) {
    const AttemptPlan p = faults_->plan_attempt(src, dst, at);
    if (p.bw_frac < 1.0 && stream > 0)
      stream = static_cast<Time>(static_cast<double>(stream) / p.bw_frac);
    a.latency = static_cast<Time>(static_cast<double>(base_latency) *
                                  p.latency_mult) +
                p.extra_latency;
    a.fail = p.fail;
  }
  a.busy = cfg_.nic_overhead + stream;
  return a;
}

bool Interconnect::exhausted(int attempt, Time elapsed) const {
  const RetryPolicy& rp = cfg_.retry;
  return attempt >= rp.max_attempts ||
         (rp.deadline > 0 && elapsed >= rp.deadline);
}

Time Interconnect::backoff_wait(int src, Time& backoff) {
  const RetryPolicy& rp = cfg_.retry;
  Time wait = backoff;
  if (rp.backoff_jitter > 0)
    wait += faults_->backoff_jitter(
        static_cast<Time>(static_cast<double>(backoff) * rp.backoff_jitter),
        src);
  auto& st = boxes_[src]->stats;
  ++st.retries;
  st.backoff_time += wait;
  backoff = std::min<Time>(
      static_cast<Time>(static_cast<double>(backoff) * rp.backoff_mult),
      rp.backoff_max);
  return wait;
}

void Interconnect::reliable(int src, int dst, std::size_t stream_bytes,
                            Time base_latency, const char* what,
                            argosim::EffectFn* fire) {
  if (!faults_) {
    // Fault-free: one attempt that always completes, at base cost.
    charge(src, cfg_.nic_overhead + cfg_.net_transfer(stream_bytes),
           base_latency, dst, fire);
    return;
  }
  const Time started = argosim::now();
  Time backoff = cfg_.retry.backoff_base;
  for (int attempt = 1;; ++attempt) {
    crash_check(src, dst, what);
    const Attempt a =
        plan(src, dst, stream_bytes, base_latency, argosim::now());
    // A failed attempt costs as much as a successful one: the initiator
    // streams the payload and then waits out the completion timeout. It is
    // detected before the remote NIC executes anything, so only the
    // successful (last) attempt carries the effect.
    charge(src, a.busy, a.latency, dst, a.fail ? nullptr : fire);
    if (!a.fail) return;
    ++boxes_[src]->stats.faults_injected;
    if (exhausted(attempt, argosim::now() - started)) {
      throw NetworkError(op_context(what, src, dst) + " failed after " +
                         std::to_string(attempt) + " attempts");
    }
    argosim::delay(backoff_wait(src, backoff));
  }
}

std::pair<Time, bool> Interconnect::project(int src, int dst,
                                            std::size_t stream_bytes,
                                            Time base_latency) {
  // Plans must be drawn against the posting-time clock: FaultInjector
  // brownout queries are required to be monotonic in `now` per node, so
  // probing the future per retry would be unsound once several ops are in
  // flight. The first attempt holds the NIC for real; retransmissions of an
  // in-flight op are NIC work too, but only their time is folded into the
  // completion (accounted in nic_busy, not serialized — the queue depth
  // already bounds how much can pile up).
  auto& box = *boxes_[src];
  const Time post_now = argosim::now();
  Time backoff = cfg_.retry.backoff_base;
  Time done = 0;
  for (int attempt = 1;; ++attempt) {
    const Attempt a = plan(src, dst, stream_bytes, base_latency, post_now);
    if (attempt == 1) {
      charge(src, a.busy, 0);
      done = argosim::now() + a.latency;
    } else {
      box.stats.nic_busy += a.busy;
      done += a.busy + a.latency;
    }
    if (!a.fail) return {done, false};
    ++box.stats.faults_injected;
    if (exhausted(attempt, done - post_now)) return {done, true};
    done += backoff_wait(src, backoff);
  }
}

void Interconnect::charge(int src, Time busy, Time latency, int dst,
                          argosim::EffectFn* fire) {
  auto& box = *boxes_[src];
  box.stats.nic_busy += busy;
  {
    std::optional<argosim::SimLockGuard> g;
    if (cfg_.serialize_nic) g.emplace(box.nic);
    // The effect is timestamped from the instant the NIC is acquired, so it
    // ships under the lock, before the busy time is paid.
    if (fire != nullptr)
      ship(src, dst, argosim::now() + busy + latency, std::move(*fire));
    argosim::delay(busy);
  }
  if (latency > 0) argosim::delay(latency);
}

void Interconnect::ship(int src, int dst, Time when, argosim::EffectFn&& fn) {
  argosim::Engine::current()->post_effect(
      static_cast<std::uint32_t>(dst), when, 1,
      static_cast<std::uint64_t>(src), boxes_[src]->effect_seq++,
      std::move(fn));
}

// ---------------------------------------------------------------------------
// Posted (asynchronous) verbs
// ---------------------------------------------------------------------------

PostedHandle Interconnect::enqueue(int src, int dst, const Verb& v,
                                   argosim::EffectFn fn,
                                   std::shared_ptr<argosim::SimRecord> rec) {
  auto& box = *boxes_[src];
  crash_check(src, dst, v.what);
  while (box.sendq.size() >= static_cast<std::size_t>(cfg_.pipeline))
    retire_front(src);
  ++box.stats.posted_ops;
  auto [done, hard_fail] = project(src, dst, v.wire, cfg_.rdma_latency);
  // In-order completion (reliable-connection queue-pair semantics): an op
  // can never retire before its predecessors.
  if (!box.sendq.empty() && box.sendq.back().complete_at > done)
    done = box.sendq.back().complete_at;
  const std::uint64_t id = box.posted_next_id++;
  box.sendq.push_back(Posted{id, done, hard_fail, v.kind == Verb::kAtomic,
                             v.what, dst, v.out, v.out_n, std::move(rec)});
  // The remote half lands on dst's shard at the (fully projected, in-order
  // bumped) completion time.
  if (!hard_fail) ship(src, dst, done, std::move(fn));
  box.stats.posted_inflight_hwm =
      std::max<std::uint64_t>(box.stats.posted_inflight_hwm, box.sendq.size());
  return PostedHandle{src, id};
}

void Interconnect::throw_posted_failure(int node, PostedFailure f) {
  const std::string msg = op_context(f.what, node, f.dst) +
                          " (posted) failed after exhausting its retry budget";
  // Attribute the failure to a crash when the target has since died: the
  // recovery paths key their handling on the exception type.
  if (node_dead(f.dst)) throw NodeFailedError(msg, node, f.dst);
  throw NetworkError(msg);
}

void Interconnect::retire_front(int src) {
  auto& box = *boxes_[src];
  assert(!box.sendq.empty());
  const std::uint64_t id = box.sendq.front().id;
  // Sleep until the head completes, then re-check: another fiber may have
  // retired it (and possibly more) while we slept. Ids are never reused,
  // so observing a different front id means our target is gone.
  while (!box.sendq.empty() && box.sendq.front().id == id) {
    const Time comp = box.sendq.front().complete_at;
    if (argosim::now() < comp) {
      argosim::delay(comp - argosim::now());
      continue;
    }
    Posted p = std::move(box.sendq.front());
    box.sendq.pop_front();
    if (tracer_)
      tracer_->emit(src, argoobs::Ev::PostedRetire, p.id,
                    argoobs::kUnknownState, p.hard_fail ? 1 : 0);
    if (p.hard_fail) {
      box.posted_failed.emplace(p.id, PostedFailure{p.what, p.dst});
      continue;
    }
    // The effect ran (or is about to run) on dst's shard at complete_at and
    // collect() awaits it. Remote application order per destination is
    // preserved by the effect keys, so interleaved retirements of later ops
    // are fine.
    const std::uint64_t v = collect(*p.rec, p.out, p.out_n);
    if (p.has_value) box.posted_results.emplace(p.id, v);
  }
}

PostedHandle Interconnect::retired_handle(int src, bool has_value,
                                          std::uint64_t value) {
  auto& box = *boxes_[src];
  const std::uint64_t id = box.posted_next_id++;
  if (has_value) box.posted_results.emplace(id, value);
  return PostedHandle{src, id};
}

std::uint64_t Interconnect::wait(PostedHandle h) {
  if (h.node < 0 || h.id == 0) return 0;
  auto& box = *boxes_[h.node];
  for (;;) {
    if (auto it = box.posted_failed.find(h.id); it != box.posted_failed.end()) {
      const PostedFailure f = it->second;
      box.posted_failed.erase(it);
      if (!f.reported) ++box.posted_aborted;
      throw_posted_failure(h.node, f);
    }
    if (auto it = box.posted_results.find(h.id);
        it != box.posted_results.end()) {
      const std::uint64_t v = it->second;
      box.posted_results.erase(it);
      return v;
    }
    // Retired without a banked value (a plain read/write), or never of
    // this queue at all: nothing left to wait for.
    if (box.sendq.empty() || box.sendq.front().id > h.id) return 0;
    retire_front(h.node);
  }
}

void Interconnect::wait_all(int node) {
  auto& box = *boxes_[node];
  while (!box.sendq.empty()) retire_front(node);
  // Each failure is reported to wait_all once but stays banked against its
  // handle: a later wait(h) throws it again rather than returning 0, which
  // would read as a result.
  const PostedFailure* first = nullptr;
  for (auto& [id, f] : box.posted_failed) {
    if (f.reported) continue;
    f.reported = true;
    ++box.posted_aborted;
    if (first == nullptr) first = &f;
  }
  if (first != nullptr) throw_posted_failure(node, *first);
}

// ---------------------------------------------------------------------------
// The verbs: each is a Verb plus its remote effect
// ---------------------------------------------------------------------------

void Interconnect::read(int src, int dst, const void* remote, void* local,
                        std::size_t n) {
  op(src, dst, {"RDMA read", Verb::kRead, n, {}, local, n},
     read_bytes(remote, n));
}

PostedHandle Interconnect::post_read(int src, int dst, const void* remote,
                                     void* local, std::size_t n) {
  return post(src, dst, {"RDMA read", Verb::kRead, n, {}, local, n},
              read_bytes(remote, n));
}

void Interconnect::write(int src, int dst, void* remote, const void* local,
                         std::size_t n) {
  const GatherRun run{remote, local, n};
  op(src, dst, {"RDMA write", Verb::kWrite, n, {&run, 1}}, apply_runs);
}

PostedHandle Interconnect::post_write(int src, int dst, void* remote,
                                      const void* local, std::size_t n) {
  const GatherRun run{remote, local, n};
  return post(src, dst, {"RDMA write", Verb::kWrite, n, {&run, 1}},
              apply_runs);
}

void Interconnect::write_gather(int src, int dst,
                                const std::vector<GatherRun>& runs,
                                std::size_t header_bytes) {
  op(src, dst,
     {"RDMA gather write", Verb::kWrite, gather_wire(runs, header_bytes),
      runs},
     apply_runs);
}

PostedHandle Interconnect::post_write_gather(int src, int dst,
                                             const std::vector<GatherRun>& runs,
                                             std::size_t header_bytes) {
  return post(src, dst,
              {"RDMA gather write", Verb::kWrite,
               gather_wire(runs, header_bytes), runs},
              apply_runs);
}

// Remote atomics share one attempt shape: no payload streaming beyond the
// extended operand, one completion latency; the operation commits only on
// a successful attempt.

std::uint64_t Interconnect::fetch_or(int src, int dst, std::uint64_t* remote,
                                     std::uint64_t bits) {
  return fetch_or(src, dst, remote, bits, nullptr);
}

std::uint64_t Interconnect::fetch_or(
    int src, int dst, std::uint64_t* remote, std::uint64_t bits,
    std::function<void(std::uint64_t)> on_remote) {
  return op(src, dst, {"RDMA fetch-or", Verb::kAtomic, 0},
            or_bits(remote, bits, std::move(on_remote)));
}

PostedHandle Interconnect::post_fetch_or(int src, int dst,
                                         std::uint64_t* remote,
                                         std::uint64_t bits) {
  return post_fetch_or(src, dst, remote, bits, nullptr);
}

PostedHandle Interconnect::post_fetch_or(
    int src, int dst, std::uint64_t* remote, std::uint64_t bits,
    std::function<void(std::uint64_t)> on_remote) {
  return post(src, dst, {"RDMA fetch-or", Verb::kAtomic, 0},
              or_bits(remote, bits, std::move(on_remote)));
}

void Interconnect::fetch_or_span(int src, int dst, std::uint64_t* remote,
                                 const std::uint64_t* bits, int nwords,
                                 std::uint64_t* prev_out) {
  const auto n = static_cast<std::size_t>(nwords);
  op(src, dst,
     {"RDMA masked fetch-or", Verb::kAtomic, sizeof(std::uint64_t) * (n - 1),
      {}, prev_out, sizeof(std::uint64_t) * n},
     or_span(remote, bits, nwords));
}

PostedHandle Interconnect::post_fetch_or_span(int src, int dst,
                                              std::uint64_t* remote,
                                              const std::uint64_t* bits,
                                              int nwords,
                                              std::uint64_t* prev_out) {
  const auto n = static_cast<std::size_t>(nwords);
  return post(src, dst,
              {"RDMA masked fetch-or", Verb::kAtomic,
               sizeof(std::uint64_t) * (n - 1), {}, prev_out,
               sizeof(std::uint64_t) * n},
              or_span(remote, bits, nwords));
}

std::uint64_t Interconnect::fetch_add(int src, int dst, std::uint64_t* remote,
                                      std::uint64_t v) {
  return op(src, dst, {"RDMA fetch-add", Verb::kAtomic, 0}, add(remote, v));
}

PostedHandle Interconnect::post_fetch_add(int src, int dst,
                                          std::uint64_t* remote,
                                          std::uint64_t v) {
  return post(src, dst, {"RDMA fetch-add", Verb::kAtomic, 0}, add(remote, v));
}

std::uint64_t Interconnect::cas(int src, int dst, std::uint64_t* remote,
                                std::uint64_t expected, std::uint64_t desired) {
  return op(src, dst, {"RDMA CAS", Verb::kAtomic, 0},
            compare_swap(remote, expected, desired));
}

PostedHandle Interconnect::post_cas(int src, int dst, std::uint64_t* remote,
                                    std::uint64_t expected,
                                    std::uint64_t desired) {
  return post(src, dst, {"RDMA CAS", Verb::kAtomic, 0},
              compare_swap(remote, expected, desired));
}

std::uint64_t Interconnect::exchange(int src, int dst, std::uint64_t* remote,
                                     std::uint64_t desired) {
  return op(src, dst, {"RDMA exchange", Verb::kAtomic, 0},
            swap(remote, desired));
}

void Interconnect::barrier_round(int node, int partner) {
  reliable(node, partner, 0, cfg_.msg_latency, "barrier round", nullptr);
}

bool Interconnect::probe(int src, int dst) {
  // One tiny notification charged on the sender only: a dead target
  // participates in nothing, and the probe's fate depends solely on the
  // crash schedule (no RNG draws, no retry loop).
  charge(src, cfg_.nic_overhead, cfg_.msg_latency);
  return !node_dead(dst);
}

// ---------------------------------------------------------------------------
// Two-sided messages
// ---------------------------------------------------------------------------

void Interconnect::deliver(Message msg, Time deliver_at) {
  auto& box = *boxes_[msg.dst];
  box.inbox.push(Pending{deliver_at, box.rx_seq++, std::move(msg)});
  box.rx_waiters.notify_all();
}

void Interconnect::arrive(Message msg, Time deliver_at) {
  // The inbox belongs to dst's shard, so delivery travels as a timestamped
  // effect. The inbox sequence number is assigned on the destination in
  // effect-key order — deterministic regardless of the order the window
  // loop ran the senders' shards in.
  const int src = msg.src;
  const int dst = msg.dst;
  ship(src, dst, deliver_at,
       [this, deliver_at, m = std::make_shared<Message>(std::move(msg))] {
         deliver(std::move(*m), deliver_at);
       });
}

void Interconnect::purge_stale(NodeBox& box) {
  if (!faults_ || !faults_->has_crashes()) return;
  while (!box.inbox.empty() && box.inbox.top().deliver_at <= argosim::now() &&
         faults_->crashed(box.inbox.top().msg.src, argosim::now())) {
    // "No message from a dead node is applied": the sender crash-stopped
    // before this delivery instant, so the message dies in the inbox.
    box.inbox.pop();
    ++stale_msgs_dropped_;
  }
}

void Interconnect::send(Message msg) { try_send(std::move(msg)); }

bool Interconnect::try_send(Message msg) {
  assert(msg.src >= 0 && msg.src < nodes_ && msg.dst >= 0 && msg.dst < nodes_);
  // Crashed senders unwind instead of emitting (see crash_check).
  if (node_dead(msg.src)) throw argosim::SimStopped{};
  auto& s = boxes_[msg.src]->stats;
  ++s.msgs_sent;
  s.bytes_sent += msg.payload.size();
  const std::size_t wire = msg.wire_size();
  if (msg.src == msg.dst) {
    argosim::delay(local_cost(wire));
    deliver(std::move(msg), argosim::now());
    return true;
  }
  const Attempt a =
      plan(msg.src, msg.dst, wire, cfg_.msg_latency, argosim::now());
  charge(msg.src, a.busy, 0);
  if (faults_ && faults_->drop_message(msg.src)) {
    ++s.faults_injected;
    return false;
  }
  const Time deliver_at = argosim::now() + a.latency;
  if (faults_ && faults_->duplicate_message(msg.src)) {
    arrive(msg, deliver_at);
    // The spurious retransmission arrives one latency later still.
    arrive(std::move(msg), deliver_at + cfg_.msg_latency);
  } else {
    arrive(std::move(msg), deliver_at);
  }
  return true;
}

Time Interconnect::charge_message(int src, int dst,
                                  std::size_t payload_bytes) {
  auto& s = boxes_[src]->stats;
  ++s.msgs_sent;
  s.bytes_sent += payload_bytes;
  const std::size_t wire = 40 + payload_bytes;
  if (src == dst) {
    argosim::delay(local_cost(wire));
    return argosim::now();
  }
  charge(src, cfg_.nic_overhead + cfg_.net_transfer(wire), 0);
  return argosim::now() + cfg_.msg_latency;
}

Message Interconnect::recv(int node) {
  auto& box = *boxes_[node];
  for (;;) {
    purge_stale(box);
    if (!box.inbox.empty()) {
      const Pending& top = box.inbox.top();
      if (top.deliver_at <= argosim::now()) {
        Message m = std::move(const_cast<Pending&>(top).msg);
        box.inbox.pop();
        ++box.stats.msgs_received;
        return m;
      }
      box.rx_waiters.wait_until(top.deliver_at);
    } else {
      box.rx_waiters.wait();
    }
  }
}

std::optional<Message> Interconnect::try_recv(int node) {
  auto& box = *boxes_[node];
  purge_stale(box);
  if (box.inbox.empty() || box.inbox.top().deliver_at > argosim::now())
    return std::nullopt;
  Message m = std::move(const_cast<Pending&>(box.inbox.top()).msg);
  box.inbox.pop();
  ++box.stats.msgs_received;
  return m;
}

std::optional<Message> Interconnect::recv_for(int node, Time timeout) {
  auto& box = *boxes_[node];
  const Time deadline = argosim::now() + timeout;
  for (;;) {
    purge_stale(box);
    if (!box.inbox.empty()) {
      const Pending& top = box.inbox.top();
      if (top.deliver_at <= argosim::now()) {
        Message m = std::move(const_cast<Pending&>(top).msg);
        box.inbox.pop();
        ++box.stats.msgs_received;
        return m;
      }
      if (top.deliver_at <= deadline) {
        box.rx_waiters.wait_until(top.deliver_at);
        continue;
      }
    }
    if (argosim::now() >= deadline) return std::nullopt;
    box.rx_waiters.wait_until(deadline);
  }
}

bool Interconnect::poll(int node) {
  auto& box = *boxes_[node];
  purge_stale(box);
  return !box.inbox.empty() && box.inbox.top().deliver_at <= argosim::now();
}

NodeNetStats Interconnect::total_stats() const {
  NodeNetStats total;
  for (auto& b : boxes_) total += b->stats;
  return total;
}

void Interconnect::reset_stats() {
  for (auto& b : boxes_) b->stats = NodeNetStats{};
}

}  // namespace argonet
