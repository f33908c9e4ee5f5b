#include "baseline/mpi.hpp"

#include <cassert>
#include <cstring>

namespace argompi {

MpiWorld::MpiWorld(Interconnect& net, int ranks, int ranks_per_node)
    : net_(net), ranks_(ranks), ranks_per_node_(ranks_per_node) {
  assert(ranks >= 1 && ranks_per_node >= 1);
  assert((ranks + ranks_per_node - 1) / ranks_per_node <= net.nodes());
  boxes_.reserve(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r)
    boxes_.push_back(std::make_unique<RankBox>());
}

void MpiWorld::send(int src_rank, int dst_rank, int tag, const void* data,
                    std::size_t bytes) {
  // Rank mailboxes and the global matching sequence are host-shared across
  // nodes; with several engine shards a send would write another shard's box.
  if (argosim::Engine* e = argosim::Engine::current())
    e->require_serial("the MPI baseline's shared rank mailboxes");
  const int sn = node_of(src_rank), dn = node_of(dst_rank);
  Time deliver_at;
  if (sn == dn) {
    ++intra_msgs_;
    argosim::delay(net_.local_cost(bytes));
    deliver_at = argosim::now();
  } else {
    deliver_at = net_.charge_message(sn, dn, bytes);
  }
  Msg m;
  m.src = src_rank;
  m.tag = tag;
  m.deliver_at = deliver_at;
  m.seq = seq_++;
  m.payload.resize(bytes);
  if (bytes > 0) std::memcpy(m.payload.data(), data, bytes);
  RankBox& box = *boxes_[static_cast<std::size_t>(dst_rank)];
  box.queue.push_back(std::move(m));
  box.waiters.notify_all();
}

bool MpiWorld::try_match(RankBox& box, int src, int tag, Msg& out,
                         Time* next_time) {
  const Time now = argosim::now();
  Time earliest = ~Time{0};
  for (auto it = box.queue.begin(); it != box.queue.end(); ++it) {
    if (it->tag != tag) continue;
    if (src != kAnySource && it->src != src) continue;
    if (it->deliver_at <= now) {
      out = std::move(*it);
      box.queue.erase(it);
      return true;
    }
    if (it->deliver_at < earliest) earliest = it->deliver_at;
    if (src != kAnySource) break;  // per-pair FIFO: earlier one gates us
  }
  *next_time = earliest;
  return false;
}

int MpiWorld::recv(int me, int src_rank, int tag, void* data,
                   std::size_t bytes) {
  RankBox& box = *boxes_[static_cast<std::size_t>(me)];
  for (;;) {
    Msg m;
    Time next = ~Time{0};
    if (try_match(box, src_rank, tag, m, &next)) {
      assert(m.payload.size() == bytes && "size mismatch in MPI recv");
      if (bytes > 0) {
        std::memcpy(data, m.payload.data(), bytes);
        argosim::delay(net_.config().mem_copy(bytes));
      }
      return m.src;
    }
    if (next != ~Time{0})
      box.waiters.wait_until(next);
    else
      box.waiters.wait();
  }
}

bool MpiWorld::probe(int me, int src_rank, int tag) {
  RankBox& box = *boxes_[static_cast<std::size_t>(me)];
  const Time now = argosim::now();
  for (const Msg& m : box.queue) {
    if (m.tag != tag) continue;
    if (src_rank != kAnySource && m.src != src_rank) continue;
    return m.deliver_at <= now;
  }
  return false;
}

void MpiWorld::barrier(int me) {
  // Dissemination barrier: ceil(log2 P) rounds of pairwise messages.
  for (int k = 0, dist = 1; dist < ranks_; ++k, dist <<= 1) {
    const int to = (me + dist) % ranks_;
    const int from = (me - dist % ranks_ + ranks_) % ranks_;
    send(me, to, kBarrierTag - k, nullptr, 0);
    recv(me, from, kBarrierTag - k, nullptr, 0);
  }
}

void MpiWorld::bcast(int me, int root, void* data, std::size_t bytes) {
  if (ranks_ == 1) return;
  const int rel = (me - root + ranks_) % ranks_;
  int mask = 1;
  while (mask < ranks_) {
    if (rel & mask) {
      const int src = (rel - mask + root) % ranks_;
      recv(me, src, kBcastTag, data, bytes);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    const int dst_rel = rel + mask;
    if (dst_rel < ranks_ && (rel & (mask - 1)) == 0 && (rel & mask) == 0)
      send(me, (dst_rel + root) % ranks_, kBcastTag, data, bytes);
    mask >>= 1;
  }
}

template <typename T>
void MpiWorld::reduce_sum_impl(int me, int root, T* data, std::size_t count,
                               int tag) {
  // Binomial-tree reduction; non-root buffers are used as scratch.
  const int rel = (me - root + ranks_) % ranks_;
  std::vector<T> tmp(count);
  int mask = 1;
  while (mask < ranks_) {
    if (rel & mask) {
      const int dst = (rel - mask + root) % ranks_;
      send(me, dst, tag, data, count * sizeof(T));
      return;
    }
    const int src_rel = rel + mask;
    if (src_rel < ranks_) {
      const int src = (src_rel + root) % ranks_;
      recv(me, src, tag, tmp.data(), count * sizeof(T));
      for (std::size_t i = 0; i < count; ++i) data[i] += tmp[i];
    }
    mask <<= 1;
  }
}

void MpiWorld::reduce_sum(int me, int root, double* data, std::size_t count) {
  reduce_sum_impl(me, root, data, count, kReduceTag);
}

void MpiWorld::allreduce_sum(int me, double* data, std::size_t count) {
  reduce_sum_impl(me, 0, data, count, kReduceTag - 1);
  bcast(me, 0, data, count * sizeof(double));
}

void MpiWorld::allreduce_sum(int me, std::uint64_t* data, std::size_t count) {
  reduce_sum_impl(me, 0, data, count, kReduceTag - 2);
  bcast(me, 0, data, count * sizeof(std::uint64_t));
}

void MpiWorld::gather(int me, int root, const void* send_buf, void* recv_all,
                      std::size_t bytes) {
  if (me != root) {
    send(me, root, kGatherTag, send_buf, bytes);
    return;
  }
  auto* out = static_cast<std::byte*>(recv_all);
  std::memcpy(out + static_cast<std::size_t>(root) * bytes, send_buf, bytes);
  for (int r = 0; r < ranks_; ++r) {
    if (r == root) continue;
    recv(me, r, kGatherTag, out + static_cast<std::size_t>(r) * bytes, bytes);
  }
}

void MpiWorld::allgather(int me, const void* send_buf, void* recv_all,
                         std::size_t bytes) {
  gather(me, 0, send_buf, recv_all, bytes);
  bcast(me, 0, recv_all, bytes * static_cast<std::size_t>(ranks_));
}

}  // namespace argompi
