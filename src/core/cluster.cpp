#include "core/cluster.hpp"

#include <stdexcept>
#include <string>


namespace argocore {

void ClusterConfig::validate() const {
  if (nodes < 1 || nodes > argodir::max_nodes())
    throw std::invalid_argument(
        "ClusterConfig::nodes = " + std::to_string(nodes) +
        " is outside [1, " + std::to_string(argodir::max_nodes()) +
        "]: the directory encodes at most " +
        std::to_string(argodir::max_nodes()) +
        " nodes (ceil(N/32) words of paired reader/writer bits, capped by "
        "the 32-byte extended-atomic operand)");
  if (threads_per_node < 1)
    throw std::invalid_argument(
        "ClusterConfig::threads_per_node = " +
        std::to_string(threads_per_node) + " must be at least 1");
}

}  // namespace argocore

namespace argo {

Cluster::Cluster(ClusterConfig cfg)
    : cfg_((cfg.validate(), cfg)),
      net_(cfg.nodes, cfg.net),
      gmem_(cfg.nodes, cfg.global_mem_bytes, cfg.mapping),
      dir_(gmem_, net_) {
  caches_.reserve(static_cast<std::size_t>(cfg_.nodes));
  for (int n = 0; n < cfg_.nodes; ++n)
    caches_.push_back(std::make_unique<NodeCache>(n, gmem_, net_, dir_,
                                                  cfg_.cache, cfg_.adapt));
  peer_view_.clear();
  for (auto& c : caches_) peer_view_.push_back(c.get());
  for (auto& c : caches_) c->set_peers(&peer_view_);
  net_.enable_faults(cfg_.faults);
  // Membership is always constructed (so accessors work) but caches only
  // get the pointer when the feature is on: a null pointer keeps every
  // Carina path identical to the pre-recovery code.
  membership_ = std::make_unique<argocore::MembershipService>(
      eng_, net_, gmem_, dir_, cfg_.membership, cfg_.nodes);
  membership_->set_caches(&peer_view_);
  for (auto& c : caches_)
    c->set_membership(cfg_.membership.enabled ? membership_.get() : nullptr);
  // Deferred invalidations delivered into a node's directory cache must
  // revoke that node's thread-held soft-TLB translations.
  for (int n = 0; n < cfg_.nodes; ++n)
    dir_.set_gen_slot(n, caches_[static_cast<std::size_t>(n)]->tlb_gen_slot());
  tracer_.configure(cfg_.nodes, cfg_.trace);
  net_.set_tracer(&tracer_);
  dir_.set_tracer(&tracer_);
  for (auto& c : caches_) c->set_tracer(&tracer_);
  register_metrics();
}

Cluster::~Cluster() {
  // Surviving daemon fibers (membership monitors, message handlers) may be
  // parked holding locks on the interconnect; unwind them now, while every
  // member they reference is still alive. eng_ is declared first, so its
  // own destructor would run the unwind *after* net_ and membership_ are
  // gone — a use-after-free for any fiber mid-RPC.
  eng_.shutdown();
  if (!sinks_.empty()) flush_trace();
}

void Cluster::register_metrics() {
  // Every CoherenceStats/NodeNetStats field, registered once under its
  // stable dotted name. The closures read the live per-node storage, so a
  // registry sample is always current.
  auto co = [this](std::uint64_t argocore::CoherenceStats::* field) {
    return [this, field]() {
      std::uint64_t total = 0;
      for (const auto& c : caches_) total += c->stats().*field;
      return total;
    };
  };
  using CS = argocore::CoherenceStats;
  metrics_.add_counter("carina.read_hits", co(&CS::read_hits));
  metrics_.add_counter("carina.read_misses", co(&CS::read_misses));
  metrics_.add_counter("carina.write_hits", co(&CS::write_hits));
  metrics_.add_counter("carina.write_misses", co(&CS::write_misses));
  metrics_.add_counter("carina.home_accesses", co(&CS::home_accesses));
  metrics_.add_counter("carina.line_fetches", co(&CS::line_fetches));
  metrics_.add_counter("carina.pages_fetched", co(&CS::pages_fetched));
  metrics_.add_counter("carina.bytes_fetched", co(&CS::bytes_fetched));
  metrics_.add_counter("carina.writebacks", co(&CS::writebacks));
  metrics_.add_counter("carina.writeback_bytes", co(&CS::writeback_bytes));
  metrics_.add_counter("carina.diffs_built", co(&CS::diffs_built));
  metrics_.add_counter("carina.full_page_writebacks",
                       co(&CS::full_page_writebacks));
  metrics_.add_counter("carina.si_fences", co(&CS::si_fences));
  metrics_.add_counter("carina.sd_fences", co(&CS::sd_fences));
  metrics_.add_counter("carina.si_invalidations", co(&CS::si_invalidations));
  metrics_.add_counter("carina.evictions", co(&CS::evictions));
  metrics_.add_counter("carina.dir_ops", co(&CS::dir_ops));
  metrics_.add_counter("carina.transitions_caused",
                       co(&CS::transitions_caused));
  metrics_.add_counter("carina.checkpoints", co(&CS::checkpoints));
  metrics_.add_counter("carina.checkpoint_bytes", co(&CS::checkpoint_bytes));
  metrics_.add_counter("carina.heals", co(&CS::heals));
  metrics_.add_hist("carina.sd_fence_ns", [this] {
    argoobs::LatencyHist h;
    for (const auto& c : caches_) h += c->stats().sd_fence_ns;
    return h;
  });
  metrics_.add_hist("carina.si_fence_ns", [this] {
    argoobs::LatencyHist h;
    for (const auto& c : caches_) h += c->stats().si_fence_ns;
    return h;
  });

  auto nt = [this](std::uint64_t argonet::NodeNetStats::* field) {
    return [this, field] { return net_.total_stats().*field; };
  };
  using NS = argonet::NodeNetStats;
  metrics_.add_counter("net.rdma_reads", nt(&NS::rdma_reads));
  metrics_.add_counter("net.rdma_writes", nt(&NS::rdma_writes));
  metrics_.add_counter("net.rdma_atomics", nt(&NS::rdma_atomics));
  metrics_.add_counter("net.msgs_sent", nt(&NS::msgs_sent));
  metrics_.add_counter("net.msgs_received", nt(&NS::msgs_received));
  metrics_.add_counter("net.bytes_read", nt(&NS::bytes_read));
  metrics_.add_counter("net.bytes_written", nt(&NS::bytes_written));
  metrics_.add_counter("net.bytes_sent", nt(&NS::bytes_sent));
  metrics_.add_counter("net.nic_busy_ns", nt(&NS::nic_busy));
  metrics_.add_counter("net.faults_injected", nt(&NS::faults_injected));
  metrics_.add_counter("net.retries", nt(&NS::retries));
  metrics_.add_counter("net.backoff_ns", nt(&NS::backoff_time));
  metrics_.add_counter("net.posted_ops", nt(&NS::posted_ops));
  metrics_.add_counter("net.posted_inflight_hwm",
                       nt(&NS::posted_inflight_hwm));

  metrics_.add_counter("trace.emitted", [this] { return tracer_.emitted(); });
  metrics_.add_counter("trace.dropped", [this] { return tracer_.dropped(); });

  // Host-side scheduler diagnostics (sim.*): NOT part of the identity
  // contract — they count host work, not simulated work, and differ
  // between shard partitions. For a fixed partition every one of them
  // repeats exactly from run to run: the engine advances its shards on one
  // host thread in a fixed order. sim.gated_waits counts the resumptions a
  // gated wake saved (a read miss queued on a sibling's fill without being
  // resumed): context switches plus gated waits is the resumption count
  // without the gate, which is what VelaIdentity pins. Identity suites and
  // the golden gate skip them (ClusterStats::host_side).
  metrics_.add_counter("sim.context_switches",
                       [this] { return eng_.context_switches(); });
  metrics_.add_counter("sim.runq_pushes", [this] { return eng_.runq_pushes(); });
  metrics_.add_counter("sim.runq_pops", [this] { return eng_.runq_pops(); });
  metrics_.add_counter("sim.poll_floats",
                       [this] { return eng_.poll_floats(); });
  metrics_.add_counter("sim.fast_forwards",
                       [this] { return eng_.delay_fast_forwards(); });
  metrics_.add_counter("sim.polls_skipped",
                       [this] { return eng_.polls_skipped(); });
  metrics_.add_counter("sim.gated_waits",
                       [this] { return eng_.gated_waits(); });
  metrics_.add_counter("sim.stacks_reused",
                       [this] { return eng_.stacks_reused(); });
  metrics_.add_counter("sim.stacks_mapped",
                       [this] { return eng_.stacks_mapped(); });
  // Page buffers (line buffers, twins, checkpoints) ever allocated: the
  // pools never free, so this is their high-water mark. Host-side like the
  // sim.* counters.
  metrics_.add_counter("carina.page_buffers_allocated", [this] {
    std::uint64_t total = 0;
    for (const auto& c : caches_) total += c->buffer_pool().allocations();
    return total;
  });
  // The SmallFn counters are process-wide; report this cluster's share by
  // subtracting the construction-time baseline.
  metrics_.add_counter("sim.effect_pool_hits",
                       [base = argosim::smallfn_inline_hits()] {
                         return argosim::smallfn_inline_hits() - base;
                       });
  metrics_.add_counter("sim.effect_pool_misses",
                       [base = argosim::smallfn_heap_spills()] {
                         return argosim::smallfn_heap_spills() - base;
                       });
  metrics_.add_counter("sim.record_pool_hits",
                       [this] { return net_.record_pool_hits(); });
  metrics_.add_counter("sim.record_pool_misses",
                       [this] { return net_.record_pool_misses(); });

  // Adaptive-tuning metrics exist only when at least one policy is on, so
  // the fixed-knob metric enumeration matches the seed exactly.
  if (cfg_.adapt.any()) {
    auto ad = [this](std::uint64_t argocore::AdaptStats::* field) {
      return [this, field] {
        std::uint64_t total = 0;
        for (const auto& c : caches_) total += c->adapt().stats().*field;
        return total;
      };
    };
    using AS = argocore::AdaptStats;
    metrics_.add_counter("carina.adapt.wb_grows", ad(&AS::wb_grows));
    metrics_.add_counter("carina.adapt.wb_shrinks", ad(&AS::wb_shrinks));
    metrics_.add_counter("carina.adapt.wb_reverts", ad(&AS::wb_reverts));
    metrics_.add_counter("carina.adapt.full_page_selected",
                         ad(&AS::full_page_selected));
    metrics_.add_counter("carina.adapt.density_probes",
                         ad(&AS::density_probes));
    metrics_.add_counter("carina.adapt.wb_capacity", [this] {
      std::uint64_t total = 0;
      for (const auto& c : caches_) total += c->wb_capacity();
      return total;
    });
  }

  // Membership/recovery metrics exist only when the feature is on, so the
  // fault-free metric enumeration matches the seed exactly.
  if (cfg_.membership.enabled) {
    auto ms = [this](std::uint64_t argocore::RecoveryStats::* field) {
      return [this, field] { return membership_->stats().*field; };
    };
    using RS = argocore::RecoveryStats;
    metrics_.add_counter("membership.epoch",
                         [this] { return membership_->epoch(); });
    metrics_.add_counter("membership.live", [this] {
      std::uint64_t live = 0;
      for (int n = 0; n < active_nodes_; ++n)
        if (membership_->is_live(n)) ++live;
      return live;
    });
    metrics_.add_counter("membership.deaths", ms(&RS::deaths));
    metrics_.add_counter("membership.rejoins", ms(&RS::rejoins));
    metrics_.add_counter("membership.probes", ms(&RS::probes));
    metrics_.add_counter("membership.probe_misses", ms(&RS::probe_misses));
    metrics_.add_counter("recovery.events", ms(&RS::recovery_events));
    metrics_.add_counter("recovery.pages_recovered", ms(&RS::pages_recovered));
    metrics_.add_counter("recovery.pages_lost", ms(&RS::pages_lost));
    metrics_.add_counter("recovery.dir_words_rebuilt",
                         ms(&RS::dir_words_rebuilt));
    metrics_.add_counter("recovery.aborted_ops", ms(&RS::aborted_ops));
    metrics_.add_counter("recovery.locks_recovered", ms(&RS::locks_recovered));
    metrics_.add_counter("recovery.stale_msgs_dropped",
                         [this] { return net_.stale_msgs_dropped(); });
    metrics_.add_hist("membership.detect_ns",
                      [this] { return membership_->stats().detect_ns; });
    metrics_.add_hist("recovery.latency_ns",
                      [this] { return membership_->stats().recovery_ns; });
  }
}

void Cluster::reset_classification() {
  for (auto& c : caches_) c->invalidate_all_free();
  dir_.reset_all();
}

Time Cluster::run(const std::function<void(Thread&)>& body) {
  return run_subset(cfg_.nodes, cfg_.threads_per_node, body);
}

void Cluster::partition_engine() {
  if (partitioned_) return;
  partitioned_ = true;
  // Features that inspect or wake other nodes at the same instant need
  // every node on one shard; the rest get one shard per node.
  if (cfg_.membership.enabled)
    engine_fallback_reason_ =
        "membership daemons probe peers at same-time granularity";
  else if (barrier_hook_)
    engine_fallback_reason_ =
        "barrier hooks inspect every node's state at one instant";
  // Conservative lookahead: every cross-shard effect (RDMA completion or
  // message delivery) is timestamped at least one base verb latency after
  // the instant it is posted.
  eng_.enable_sharding(
      engine_fallback_reason_ ? 1 : static_cast<std::uint32_t>(cfg_.nodes),
      std::min(cfg_.net.rdma_latency, cfg_.net.msg_latency));
}

Time Cluster::run_subset(int use_nodes, int use_threads_per_node,
                         const std::function<void(Thread&)>& body) {
  assert(use_nodes >= 1 && use_nodes <= cfg_.nodes);
  assert(use_threads_per_node >= 1 &&
         use_threads_per_node <= cfg_.threads_per_node);
  active_nodes_ = use_nodes;
  active_tpn_ = use_threads_per_node;
  partition_engine();

  node_barriers_.clear();
  for (int n = 0; n < use_nodes; ++n)
    node_barriers_.push_back(std::make_unique<argosim::SimBarrier>(
        static_cast<std::size_t>(use_threads_per_node)));
  // Global rendezvous cost: a dissemination barrier runs ceil(log2 N)
  // message rounds; each round costs one posting plus one wire latency.
  int rounds = 0;
  while ((1 << rounds) < use_nodes) ++rounds;
  barrier_rounds_ = rounds;
  barrier_net_cost_ =
      static_cast<Time>(rounds) * (cfg_.net.msg_latency + cfg_.net.nic_overhead);
  // Cross-shard rendezvous point. Fault-free the gate also charges the
  // dissemination cost (release = max arrivals + cost, exactly a barrier
  // plus a lump-sum delay); with faults the rounds are charged per-link in
  // global_rendezvous, so the gate only synchronizes.
  leader_gate_ = std::make_unique<argosim::SimGate>(
      &eng_, static_cast<std::size_t>(use_nodes),
      net_.faults_enabled() ? 0 : barrier_net_cost_);

  // Membership daemons (heartbeat monitors + crash reaper) spawn before
  // the workers so a node already dead from a previous run is reaped at
  // run start, before its fresh workers take their first step.
  membership_->begin_run(use_nodes);

  const Time t0 = eng_.now();
  for (int n = 0; n < use_nodes; ++n) {
    for (int t = 0; t < use_threads_per_node; ++t) {
      const int gid = n * use_threads_per_node + t;
      const int core = t % cfg_.topo.cores;
      std::string name = "n" + std::to_string(n) + "t" + std::to_string(t);
      auto fiber = [this, n, t, gid, core, &body] {
        Thread self(this, n, t, gid, core, caches_[n].get());
        body(self);
      };
      // A node's threads live on that node's shard for their whole
      // lifetime (shard = node is the partition the lookahead bound is
      // proved against).
      argosim::SimThread* st = eng_.spawn_on(static_cast<std::uint32_t>(n),
                                             std::move(name), std::move(fiber));
      membership_->note_worker(n, st);
    }
  }
  try {
    eng_.run();
  } catch (...) {
    membership_->end_run();
    throw;
  }
  membership_->end_run();
  return eng_.now() - t0;
}

CoherenceStats Cluster::coherence_stats() const {
  CoherenceStats total;
  for (const auto& c : caches_) total += c->stats();
  return total;
}

ClusterStats Cluster::stats() const {
  ClusterStats s;
  s.at = eng_.now();
  s.per_node.reserve(caches_.size());
  s.net_per_node.reserve(caches_.size());
  for (const auto& c : caches_) {
    s.per_node.push_back(c->stats());
    s.coherence += c->stats();
  }
  for (int n = 0; n < cfg_.nodes; ++n) s.net_per_node.push_back(net_.stats(n));
  s.net = net_.total_stats();
  s.counters = metrics_.sample_counters();
  s.hists = metrics_.sample_hists();
  if (engine_fallback_reason_ != nullptr)
    s.engine_fallback_reason = engine_fallback_reason_;
  return s;
}

std::uint64_t ClusterStats::counter(const std::string& name) const {
  for (const auto& c : counters)
    if (c.name == name) return c.value;
  return 0;
}

bool ClusterStats::host_side(const std::string& name) {
  return name.rfind("sim.", 0) == 0 || name == "carina.page_buffers_allocated";
}

argoobs::LatencyHist ClusterStats::hist(const std::string& name) const {
  for (const auto& h : hists)
    if (h.name == name) return h.hist;
  return argoobs::LatencyHist{};
}

Cluster& Cluster::trace_sink(std::unique_ptr<argoobs::TraceSink> sink) {
  assert(sink);
  sinks_.push_back(std::move(sink));
  return *this;
}

void Cluster::flush_trace() {
  if (sinks_.empty()) return;
  const std::vector<argoobs::TraceEvent> events = tracer_.snapshot();
  const std::uint64_t dropped = tracer_.dropped();
  for (auto& s : sinks_) s->flush(events, dropped);
}

void Cluster::reset_stats() {
  for (auto& c : caches_) c->reset_stats();
  net_.reset_stats();
}

void Cluster::rendezvous(Thread& t) {
  auto& nb = *node_barriers_[static_cast<std::size_t>(t.node())];
  nb.arrive_and_wait();
  if (t.tid() == 0) global_rendezvous(t.node());
  nb.arrive_and_wait();
}

void Cluster::global_rendezvous(int node) {
  if (active_nodes_ <= 1) return;
  if (membership_->enabled()) {
    // Surviving-view barrier: completes as soon as every live leader has
    // arrived; a leader that crash-stops mid-round is counted departed by
    // the recovery pass, releasing any stranded round retroactively.
    membership_->barrier().arrive_and_wait(node);
  } else {
    leader_gate_->arrive_and_wait();
    // Fault-free the gate's release time already includes the
    // dissemination cost; with faults fall through to the per-round loop.
    if (!net_.faults_enabled()) return;
  }
  if (!net_.faults_enabled()) {
    // Fault-free: one lump-sum delay (identical to charging each round
    // separately, since virtual delays are additive on one fiber).
    if (barrier_net_cost_ > 0) argosim::delay(barrier_net_cost_);
    return;
  }
  // With faults enabled each dissemination round is a real fallible
  // notification toward that round's partner, retried under RetryPolicy —
  // so a flaky link slows the barrier instead of wedging or corrupting it.
  for (int r = 0; r < barrier_rounds_; ++r) {
    const int partner = (node + (1 << r)) % active_nodes_;
    if (membership_->enabled() && !membership_->is_live(partner))
      continue;  // dead partners participate in nothing
    try {
      net_.barrier_round(node, partner);
    } catch (const argonet::NodeFailedError&) {
      // The partner died but is not yet declared: the rendezvous itself
      // already completed over the arriving view, so the lost notification
      // costs nothing — skip it rather than wait out the detection.
      continue;
    }
  }
}

// ---------------------------------------------------------------------------
// Thread
// ---------------------------------------------------------------------------

int Thread::nodes() const { return cluster_->active_nodes(); }
int Thread::threads_per_node() const { return cluster_->active_tpn(); }
int Thread::nthreads() const {
  return cluster_->active_nodes() * cluster_->active_tpn();
}

bool Thread::is_home(GAddr a) const {
  return cluster_->gmem().home_of(a) == node_;
}

void Thread::barrier() {
  auto& nb = *cluster_->node_barriers_[static_cast<std::size_t>(node_)];
  nb.arrive_and_wait();
  if (tid_ == 0) {
    // The node leader downgrades the whole node, rendezvouses with the
    // other nodes (no node may re-read before every node has flushed),
    // then self-invalidates for the whole node.
    cache_->sd_fence();
    cluster_->global_rendezvous(node_);
    cache_->si_fence();
    if (cluster_->barrier_hook_) cluster_->barrier_hook_(node_);
  }
  nb.arrive_and_wait();
}

void Thread::load_bytes(GAddr a, std::byte* dst, std::size_t n) {
  while (n > 0) {
    const std::size_t in_page = kPageSize - argomem::page_offset(a);
    const std::size_t chunk = n < in_page ? n : in_page;
    const std::byte* src =
        tlb_.lookup_read(argomem::page_of(a), cache_->tlb_generation());
    if (src)
      src += argomem::page_offset(a);
    else
      src = cache_->read_ptr(a, chunk, &tlb_);
    std::memcpy(dst, src, chunk);
    a += chunk;
    dst += chunk;
    n -= chunk;
  }
}

void Thread::store_bytes(GAddr a, const std::byte* src, std::size_t n) {
  while (n > 0) {
    const std::size_t in_page = kPageSize - argomem::page_offset(a);
    const std::size_t chunk = n < in_page ? n : in_page;
    std::byte* dst =
        tlb_.lookup_write(argomem::page_of(a), cache_->tlb_generation());
    if (dst)
      dst += argomem::page_offset(a);
    else
      dst = cache_->write_ptr(a, chunk, &tlb_);
    std::memcpy(dst, src, chunk);
    a += chunk;
    src += chunk;
    n -= chunk;
  }
}

std::uint64_t Thread::atomic_fetch_add(gptr<std::uint64_t> p,
                                       std::uint64_t v) {
  auto& g = cluster_->gmem();
  return cluster_->net().fetch_add(node_, g.home_of(p.raw()),
                                   g.home_ptr(p), v);
}

std::uint64_t Thread::atomic_fetch_or(gptr<std::uint64_t> p, std::uint64_t v) {
  auto& g = cluster_->gmem();
  return cluster_->net().fetch_or(node_, g.home_of(p.raw()), g.home_ptr(p), v);
}

std::uint64_t Thread::atomic_cas(gptr<std::uint64_t> p, std::uint64_t expected,
                                 std::uint64_t desired) {
  auto& g = cluster_->gmem();
  return cluster_->net().cas(node_, g.home_of(p.raw()), g.home_ptr(p),
                             expected, desired);
}

std::uint64_t Thread::atomic_exchange(gptr<std::uint64_t> p,
                                      std::uint64_t desired) {
  auto& g = cluster_->gmem();
  return cluster_->net().exchange(node_, g.home_of(p.raw()), g.home_ptr(p),
                                  desired);
}

std::uint64_t Thread::atomic_load(gptr<std::uint64_t> p) {
  auto& g = cluster_->gmem();
  std::uint64_t v = 0;
  cluster_->net().read(node_, g.home_of(p.raw()), g.home_ptr(p), &v,
                       sizeof(v));
  return v;
}

void Thread::atomic_store(gptr<std::uint64_t> p, std::uint64_t v) {
  auto& g = cluster_->gmem();
  cluster_->net().write(node_, g.home_of(p.raw()), g.home_ptr(p), &v,
                        sizeof(v));
}

}  // namespace argo
