#include "obs/trace.hpp"

#include "sim/engine.hpp"

namespace argoobs {

const char* to_string(Ev kind) {
  switch (kind) {
    case Ev::SiFenceBegin: return "si_fence_begin";
    case Ev::SiFenceEnd: return "si_fence_end";
    case Ev::SdFenceBegin: return "sd_fence_begin";
    case Ev::SdFenceEnd: return "sd_fence_end";
    case Ev::LineFill: return "line_fill";
    case Ev::Writeback: return "writeback";
    case Ev::ClassTransition: return "class_transition";
    case Ev::DeferredInval: return "deferred_inval";
    case Ev::Eviction: return "eviction";
    case Ev::LockHandover: return "lock_handover";
    case Ev::PostedRetire: return "posted_retire";
    case Ev::AdaptWbResize: return "adapt_wb_resize";
    case Ev::AdaptDiffMode: return "adapt_diff_mode";
  }
  return "unknown";
}

const char* state_name(std::uint8_t state) {
  switch (state) {
    case 0: return "P";
    case 1: return "S,NW";
    case 2: return "S,SW";
    case 3: return "S,MW";
    default: return "-";
  }
}

void Tracer::configure(int nodes, const TraceConfig& cfg) {
  enabled_ = cfg.enabled && cfg.ring_capacity > 0;
  // Rounded up to a power of two: the ring index is then a mask, and the
  // rings are sized in full up front, so the enabled emit path is pure
  // straight-line stores — no grow branch, no division.
  capacity_ = 1;
  while (capacity_ < cfg.ring_capacity) capacity_ *= 2;
  rings_.clear();
  if (enabled_) {
    rings_.resize(static_cast<std::size_t>(nodes));
    for (Ring& r : rings_) r.buf.resize(capacity_);
  }
}

void Tracer::emit_slow(int node, Ev kind, std::uint64_t page,
                       std::uint8_t state, std::uint64_t arg) {
  Ring& ring = rings_[static_cast<std::size_t>(node)];
  TraceEvent& e =
      ring.buf[static_cast<std::size_t>(ring.count) & (capacity_ - 1)];

  // Ring-local seq: a shared counter would be both a data race and a
  // nondeterminism source (its order depends on worker interleaving).
  e.seq = ring.count;
  ++ring.count;
  const argosim::Engine* eng = argosim::Engine::current();
  e.t = eng ? eng->now() : 0;
  const argosim::SimThread* th = argosim::Engine::current_thread();
  e.thread = th ? static_cast<std::uint32_t>(th->id()) : 0;
  e.page = page;
  e.arg = arg;
  e.node = static_cast<std::uint16_t>(node);
  e.kind = static_cast<std::uint8_t>(kind);
  e.state = state;
}

std::vector<TraceEvent> Tracer::node_events(int node) const {
  std::vector<TraceEvent> out;
  if (!enabled_ || static_cast<std::size_t>(node) >= rings_.size()) return out;
  const Ring& ring = rings_[static_cast<std::size_t>(node)];
  // The rings are pre-sized, so the retained-event count comes from
  // `count`, not the buffer size.
  const std::size_t n = static_cast<std::size_t>(
      ring.count < capacity_ ? ring.count : capacity_);
  out.reserve(n);
  // Oldest retained event first: once wrapped, that is the slot just past
  // the most recently written one.
  const std::size_t start =
      ring.count > n ? static_cast<std::size_t>(ring.count) & (capacity_ - 1)
                     : 0;
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(ring.buf[(start + i) & (capacity_ - 1)]);
  return out;
}

std::vector<TraceEvent> Tracer::snapshot() const {
  std::vector<TraceEvent> out;
  if (!enabled_) return out;
  std::size_t total = 0;
  for (const Ring& r : rings_)
    total += static_cast<std::size_t>(r.count < capacity_ ? r.count
                                                          : capacity_);
  out.reserve(total);
  // K-way merge: each per-node ring is already in emission order.
  std::vector<std::vector<TraceEvent>> per;
  per.reserve(rings_.size());
  for (std::size_t n = 0; n < rings_.size(); ++n)
    per.push_back(node_events(static_cast<int>(n)));
  std::vector<std::size_t> idx(per.size(), 0);
  // No global order was ever observed, so rebuild one from (t, node, ring
  // order) — the engine's own tie-break at equal timestamps — and renumber
  // so seqs stay gap-free and deterministic for any worker count.
  const auto before = [](const TraceEvent& a, const TraceEvent& b) {
    if (a.t != b.t) return a.t < b.t;
    if (a.node != b.node) return a.node < b.node;
    return a.seq < b.seq;  // ring-local order
  };
  while (out.size() < total) {
    std::size_t best = per.size();
    for (std::size_t n = 0; n < per.size(); ++n) {
      if (idx[n] >= per[n].size()) continue;
      if (best == per.size() || before(per[n][idx[n]], per[best][idx[best]]))
        best = n;
    }
    out.push_back(per[best][idx[best]++]);
  }
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i].seq = static_cast<std::uint64_t>(i);
  return out;
}

std::uint64_t Tracer::emitted() const {
  std::uint64_t n = 0;
  for (const Ring& r : rings_) n += r.count;
  return n;
}

std::uint64_t Tracer::dropped() const {
  std::uint64_t d = 0;
  for (const Ring& r : rings_)
    if (r.count > capacity_) d += r.count - capacity_;
  return d;
}

void Tracer::clear() {
  for (Ring& r : rings_) r.count = 0;
}

}  // namespace argoobs
