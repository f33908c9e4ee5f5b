#include "dir/pyxis.hpp"

#include <algorithm>

namespace argodir {

PyxisDirectory::PyxisDirectory(GlobalMemory& gmem, argonet::Interconnect& net)
    : gmem_(gmem), net_(net) {
  assert(net.nodes() <= kMaxNodes &&
         "directory entries encode at most kMaxNodes nodes");
  nwords_ = dir_words_for(net.nodes());
  words_.assign(gmem.pages() * static_cast<std::size_t>(nwords_), 0);
  caches_.assign(
      static_cast<std::size_t>(net.nodes()),
      std::vector<std::uint64_t>(
          gmem.pages() * static_cast<std::size_t>(nwords_), 0));
  notify_count_.assign(static_cast<std::size_t>(net.nodes()), 0);
}

DirEntry PyxisDirectory::fetch_or(int src, std::uint64_t page,
                                  const DirEntry& bits) {
  const int home = gmem_.home_of_page(page);
  std::uint64_t* entry = &words_[page * static_cast<std::size_t>(nwords_)];
  DirEntry prev;
  if (nwords_ == 1) {
    // Single-word cluster: exactly the old 8-byte fetch-or fast path.
    prev.w[0] = net_.fetch_or(src, home, entry, bits.w[0]);
  } else {
    net_.fetch_or_span(src, home, entry, bits.w.data(), nwords_,
                       prev.w.data());
  }
  return prev;
}

void PyxisDirectory::post_fetch_or(int src, std::uint64_t page,
                                   const DirEntry& bits, RegTicket& t) {
  const int home = gmem_.home_of_page(page);
  std::uint64_t* entry = &words_[page * static_cast<std::size_t>(nwords_)];
  t.prev.fill(0);
  t.pending = true;
  if (nwords_ == 1) {
    t.multi = false;
    t.h = net_.post_fetch_or(src, home, entry, bits.w[0]);
  } else {
    t.multi = true;
    t.h = net_.post_fetch_or_span(src, home, entry, bits.w.data(), nwords_,
                                  t.prev.data());
  }
}

DirEntry PyxisDirectory::wait_entry(RegTicket& t) {
  assert(t.pending && "wait_entry on an idle ticket");
  const std::uint64_t v = net_.wait(t.h);
  DirEntry prev;
  if (t.multi) {
    prev.w = t.prev;  // filled by the extended atomic before retirement
  } else {
    prev.w[0] = v;
  }
  t.pending = false;
  return prev;
}

DirEntry PyxisDirectory::read(int src, std::uint64_t page) {
  const int home = gmem_.home_of_page(page);
  DirEntry e;
  net_.read(src, home, &words_[page * static_cast<std::size_t>(nwords_)],
            e.w.data(), sizeof(std::uint64_t) * static_cast<std::size_t>(nwords_));
  return e;
}

void PyxisDirectory::reset_all() {
  std::fill(words_.begin(), words_.end(), 0);
  for (auto& c : caches_) std::fill(c.begin(), c.end(), 0);
  // The reset clears every node's own reader/writer bits — the one event
  // that breaks the monotonicity TLB read entries rely on.
  for (std::size_t n = 0; n < gen_slots_.size(); ++n)
    bump_gen(static_cast<int>(n));
}

void PyxisDirectory::host_scrub_node(int victim) {
  const std::uint64_t mask =
      DirEntry::reader_bit(victim) | DirEntry::writer_bit(victim);
  const std::size_t word = static_cast<std::size_t>(DirEntry::word_of(victim));
  for (std::size_t p = 0; p < words_.size() / nwords_; ++p)
    words_[p * static_cast<std::size_t>(nwords_) + word] &= ~mask;
}

std::function<void(std::uint64_t)> PyxisDirectory::delivered(int dst) {
  // Runs at the OR's commit, in dst's context (the effect on dst's shard):
  // the displaced owner's TLB generation and
  // notification counter belong to dst. The bump revokes dst's soft-TLB
  // translations now that the deferred invalidation has landed.
  return [this, dst](std::uint64_t) {
    bump_gen(dst);
    ++notify_count_[static_cast<std::size_t>(dst)];
  };
}

void PyxisDirectory::cache_merge_remote(int src,
                                        std::vector<DirNotify> batch) {
  if (batch.empty()) return;
  std::sort(batch.begin(), batch.end(),
            [](const DirNotify& a, const DirNotify& b) {
              return a.dst != b.dst ? a.dst < b.dst : a.page < b.page;
            });
  std::vector<argonet::PostedHandle> posted;
  posted.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size();) {
    DirEntry merged;
    std::size_t j = i;
    while (j < batch.size() && batch[j].dst == batch[i].dst &&
           batch[j].page == batch[i].page) {
      merged |= batch[j].entry;
      ++j;
    }
    const int dst = batch[i].dst;
    std::uint64_t* slot = cache_slot(dst, batch[i].page);
    for (int k = 0; k < nwords_; ++k) {
      const std::uint64_t word = merged.w[static_cast<std::size_t>(k)];
      if (word == 0) continue;
      posted.push_back(
          net_.post_fetch_or(src, dst, slot + k, word, delivered(dst)));
    }
    if (tracer_)
      tracer_->emit(src, argoobs::Ev::DeferredInval, batch[i].page,
                    argoobs::kUnknownState,
                    static_cast<std::uint64_t>(batch[i].dst));
    i = j;
  }
  for (const argonet::PostedHandle& h : posted) net_.wait(h);
}

}  // namespace argodir
