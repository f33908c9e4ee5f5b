#include "apps/pqueue.hpp"

#include <cassert>
#include <vector>

#include "sim/random.hpp"
#include "sync/qd_lock.hpp"

namespace argoapps {

using argo::Cluster;
using argo::Thread;
using argo::gptr;

// ---------------------------------------------------------------------------
// PairingHeap (local)
// ---------------------------------------------------------------------------

PairingHeap::Node* PairingHeap::merge(Node* a, Node* b) {
  ++last_visits_;
  if (a == nullptr) return b;
  if (b == nullptr) return a;
  if (b->key < a->key) std::swap(a, b);
  b->sibling = a->child;
  a->child = b;
  return a;
}

void PairingHeap::insert(std::uint64_t key) {
  last_visits_ = 1;
  Node* n;
  if (!free_.empty()) {
    n = free_.back();
    free_.pop_back();
  } else {
    pool_.push_back(std::make_unique<Node>());
    n = pool_.back().get();
  }
  n->key = key;
  n->child = nullptr;
  n->sibling = nullptr;
  root_ = merge(root_, n);
  ++size_;
}

std::optional<std::uint64_t> PairingHeap::extract_min() {
  last_visits_ = 1;
  if (root_ == nullptr) return std::nullopt;
  const std::uint64_t min = root_->key;
  Node* child = root_->child;
  free_.push_back(root_);
  // Two-pass pairing: left-to-right pairwise merge, then right-to-left fold.
  std::vector<Node*> pairs;
  while (child != nullptr) {
    Node* a = child;
    Node* b = a->sibling;
    child = (b != nullptr) ? b->sibling : nullptr;
    a->sibling = nullptr;
    if (b != nullptr) b->sibling = nullptr;
    pairs.push_back(merge(a, b));
  }
  Node* merged = nullptr;
  for (auto it = pairs.rbegin(); it != pairs.rend(); ++it)
    merged = merge(merged, *it);
  root_ = merged;
  --size_;
  return min;
}

// ---------------------------------------------------------------------------
// DsmPairingHeap
// ---------------------------------------------------------------------------

namespace {
constexpr std::size_t kKey = 0, kChild = 1, kSibling = 2;
constexpr std::uint64_t kRoot = 0, kFree = 1, kNext = 2, kSize = 3;
}  // namespace

DsmPairingHeap::DsmPairingHeap(Cluster& cl, std::size_t capacity)
    : capacity_(capacity) {
  hdr_ = cl.alloc<std::uint64_t>(8);
  pool_ = cl.alloc<std::uint64_t>(capacity * kW);
  for (int i = 0; i < 8; ++i) cl.host_ptr(hdr_)[i] = 0;
}

std::uint64_t DsmPairingHeap::alloc_node(Thread& t, std::uint64_t key) {
  std::uint64_t n;
  const std::uint64_t free_head = t.load(hdr_ + kFree);
  if (free_head != 0) {
    n = free_head - 1;
    t.store(hdr_ + kFree, t.load(word(n, kSibling)));  // freelist link
  } else {
    n = t.load(hdr_ + kNext);
    assert(n < capacity_ && "DsmPairingHeap capacity exhausted");
    t.store(hdr_ + kNext, n + 1);
  }
  t.store(word(n, kKey), key);
  t.store(word(n, kChild), std::uint64_t{0});
  t.store(word(n, kSibling), std::uint64_t{0});
  return n;
}

void DsmPairingHeap::free_node(Thread& t, std::uint64_t n) {
  t.store(word(n, kSibling), t.load(hdr_ + kFree));
  t.store(hdr_ + kFree, n + 1);
}

std::uint64_t DsmPairingHeap::merge(Thread& t, std::uint64_t a,
                                    std::uint64_t b) {
  if (a == 0) return b;
  if (b == 0) return a;
  std::uint64_t an = a - 1, bn = b - 1;
  if (t.load(word(bn, kKey)) < t.load(word(an, kKey))) {
    std::swap(a, b);
    std::swap(an, bn);
  }
  t.store(word(bn, kSibling), t.load(word(an, kChild)));
  t.store(word(an, kChild), b);
  return a;
}

void DsmPairingHeap::insert(Thread& t, std::uint64_t key) {
  const std::uint64_t n = alloc_node(t, key);
  t.store(hdr_ + kRoot, merge(t, t.load(hdr_ + kRoot), n + 1));
  t.store(hdr_ + kSize, t.load(hdr_ + kSize) + 1);
}

std::optional<std::uint64_t> DsmPairingHeap::extract_min(Thread& t) {
  const std::uint64_t root = t.load(hdr_ + kRoot);
  if (root == 0) return std::nullopt;
  const std::uint64_t rn = root - 1;
  const std::uint64_t min = t.load(word(rn, kKey));
  std::uint64_t child = t.load(word(rn, kChild));
  free_node(t, rn);
  std::vector<std::uint64_t> pairs;
  while (child != 0) {
    const std::uint64_t a = child;
    const std::uint64_t b = t.load(word(a - 1, kSibling));
    child = (b != 0) ? t.load(word(b - 1, kSibling)) : 0;
    t.store(word(a - 1, kSibling), std::uint64_t{0});
    if (b != 0) t.store(word(b - 1, kSibling), std::uint64_t{0});
    pairs.push_back(merge(t, a, b));
  }
  std::uint64_t merged = 0;
  for (auto it = pairs.rbegin(); it != pairs.rend(); ++it)
    merged = merge(t, merged, *it);
  t.store(hdr_ + kRoot, merged);
  t.store(hdr_ + kSize, t.load(hdr_ + kSize) - 1);
  return min;
}

std::uint64_t DsmPairingHeap::size(Thread& t) { return t.load(hdr_ + kSize); }

// ---------------------------------------------------------------------------
// Benchmarks
// ---------------------------------------------------------------------------

PqResult pq_bench_local(argosync::CriticalSectionExecutor& lock,
                        const argonet::NodeTopology& topo, int threads,
                        const PqParams& p) {
  argosim::Engine eng;
  PairingHeap heap;
  argosync::CachelineSet heap_lines(&topo);
  std::uint64_t ops = 0;
  // Prefill outside the measured window.
  {
    argosim::Rng rng(p.seed);
    for (std::size_t i = 0; i < p.prefill; ++i) heap.insert(rng.next_u64());
  }
  for (int i = 0; i < threads; ++i) {
    const int core = i % topo.cores;
    eng.spawn("t" + std::to_string(i), [&, i, core] {
      argosim::Rng rng(p.seed + static_cast<std::uint64_t>(i) + 1);
      while (argosim::now() < p.duration) {
        // Thread-local work: private array updates, no coherence traffic.
        argosim::delay(static_cast<Time>(p.work_units) * p.ns_per_unit);
        const bool is_insert = rng.next_bool();
        const std::uint64_t key = rng.next_u64() >> 16;
        lock.execute(core,
                     [&, is_insert, key](int exec_core) {
                       if (is_insert)
                         heap.insert(key);
                       else
                         (void)heap.extract_min();
                       heap_lines.touch_n(exec_core, heap.last_visits());
                       argosim::delay(p.op_compute);
                     },
                     /*wait=*/!is_insert);
        ++ops;
      }
    });
  }
  eng.run();
  PqResult r;
  r.ops = ops;
  r.elapsed = p.duration;
  return r;
}

PqResult pq_bench_dsm(Cluster& cl, DsmLockKind kind, const PqParams& p) {
  DsmPairingHeap heap(cl, p.prefill + 4096 +
                              static_cast<std::size_t>(cl.nthreads()) * 64);
  argosync::HqdLock hqdl(cl);
  argosync::DsmCohortLock cohort(cl);
  PqResult r;
  argosim::Time t_end = 0;
  cl.run([&](Thread& t) {
    if (t.gid() == 0) {
      argosim::Rng rng(p.seed);
      for (std::size_t i = 0; i < p.prefill; ++i)
        heap.insert(t, rng.next_u64() >> 16);
    }
    t.barrier();
    const Time deadline = argosim::now() + p.duration;
    if (t.gid() == 0) t_end = deadline;
    argosim::Rng rng(p.seed + static_cast<std::uint64_t>(t.gid()) + 1);
    while (argosim::now() < deadline) {
      argosim::delay(static_cast<Time>(p.work_units) * p.ns_per_unit);
      const bool is_insert = rng.next_bool();
      const std::uint64_t key = rng.next_u64() >> 16;
      auto cs = [&heap, &p, is_insert, key](Thread& exec) {
        if (is_insert)
          heap.insert(exec, key);
        else
          (void)heap.extract_min(exec);
        exec.compute(p.op_compute);
      };
      if (kind == DsmLockKind::Hqdl)
        hqdl.execute(t, cs, /*wait=*/!is_insert);
      else
        cohort.execute(t, cs);
      ++r.ops;
    }
  });
  r.elapsed = p.duration;
  r.hqdl = hqdl.total_stats();
  return r;
}

}  // namespace argoapps
