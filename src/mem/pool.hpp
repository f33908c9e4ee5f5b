// Page-buffer pooling for the protocol hot paths.
//
// Carina's write path allocates a 4 KiB twin on every write-allocate, a
// 4 KiB checkpoint per naive-P/S sync, and a line buffer whenever a
// cache-line slot fills while holding none (slots release their buffer
// once no page in them is valid); the seed implementation paid a
// zero-initializing heap allocation (make_unique<std::byte[]>) plus a free
// for each. BufferPool keeps released buffers on per-size free lists so
// steady-state protocol traffic recycles the same blocks with no allocator
// round trips and no redundant zeroing (every consumer fully overwrites the
// buffer before reading it). Outside ARGO_SLOW_PATHS, allocations() is
// therefore the high-water mark of buffers in use (per size class,
// summed).
//
// Pooling is a *host*-side optimization only: it charges no virtual time
// and hands back deterministic buffer contents, so simulated behaviour is
// bit-identical with pooling on or off. ARGO_SLOW_PATHS (sim/slowpath.hpp)
// restores the allocate/free-per-use behaviour for A/B comparison.
//
// Single-threaded by design (the cooperative simulator runs one fiber at a
// time); acquire/release never yield, so fibers cannot interleave inside
// the pool.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/slowpath.hpp"

namespace argomem {

class BufferPool;

/// RAII handle to a pool-backed byte buffer. Behaves like
/// unique_ptr<std::byte[]> (get/bool/reset), but reset() returns the
/// buffer to its pool's free list instead of freeing it. The underlying
/// heap block is stable for the lifetime of the handle — moving the handle
/// (e.g. across an unordered_map rehash) never moves the bytes.
class PageBuf {
 public:
  PageBuf() = default;
  PageBuf(PageBuf&& o) noexcept
      : pool_(std::exchange(o.pool_, nullptr)),
        size_(std::exchange(o.size_, 0)),
        buf_(std::move(o.buf_)) {}
  PageBuf& operator=(PageBuf&& o) noexcept {
    if (this != &o) {
      reset();
      pool_ = std::exchange(o.pool_, nullptr);
      size_ = std::exchange(o.size_, 0);
      buf_ = std::move(o.buf_);
    }
    return *this;
  }
  PageBuf(const PageBuf&) = delete;
  PageBuf& operator=(const PageBuf&) = delete;
  ~PageBuf() { reset(); }

  explicit operator bool() const { return buf_ != nullptr; }
  std::byte* get() const { return buf_.get(); }
  std::size_t size() const { return size_; }

  /// Return the buffer to the pool (or free it under ARGO_SLOW_PATHS /
  /// after the pool is gone). The handle becomes empty.
  inline void reset();

 private:
  friend class BufferPool;
  PageBuf(BufferPool* pool, std::size_t size,
          std::unique_ptr<std::byte[]> buf)
      : pool_(pool), size_(size), buf_(std::move(buf)) {}

  BufferPool* pool_ = nullptr;
  std::size_t size_ = 0;
  std::unique_ptr<std::byte[]> buf_;
};

/// Free lists of fixed-size byte buffers, one list per distinct size
/// (Carina uses exactly two: kPageSize for twins/checkpoints and
/// pages_per_line * kPageSize for line buffers, so lookup is a two-entry
/// linear scan). The pool must outlive every PageBuf it issued — declare
/// it before the members that hold its buffers.
class BufferPool {
 public:
  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Hand out a buffer of exactly `size` bytes: recycled from the free
  /// list when available, freshly allocated (zeroed, matching the seed's
  /// make_unique behaviour) otherwise. Under ARGO_SLOW_PATHS every call
  /// allocates fresh.
  PageBuf acquire(std::size_t size) {
    assert(size > 0);
    if (!argosim::slow_paths()) {
      auto& free = class_of(size).free;
      if (!free.empty()) {
        std::unique_ptr<std::byte[]> buf = std::move(free.back());
        free.pop_back();
        ++reuses_;
        return PageBuf(this, size, std::move(buf));
      }
    }
    ++allocations_;
    return PageBuf(this, size, std::make_unique<std::byte[]>(size));
  }

  /// Buffers allocated fresh / served from a free list. Reuse dominating
  /// allocation is the point; tests assert on the ratio.
  std::uint64_t allocations() const { return allocations_; }
  std::uint64_t reuses() const { return reuses_; }

  /// Buffers currently parked on free lists.
  std::size_t pooled_buffers() const {
    std::size_t n = 0;
    for (const auto& c : classes_) n += c.free.size();
    return n;
  }

 private:
  friend class PageBuf;

  struct SizeClass {
    std::size_t size = 0;
    std::vector<std::unique_ptr<std::byte[]>> free;
  };

  SizeClass& class_of(std::size_t size) {
    for (auto& c : classes_)
      if (c.size == size) return c;
    classes_.push_back(SizeClass{size, {}});
    return classes_.back();
  }

  void release(std::size_t size, std::unique_ptr<std::byte[]> buf) {
    if (argosim::slow_paths()) return;  // buf frees on scope exit
    class_of(size).free.push_back(std::move(buf));
  }

  std::vector<SizeClass> classes_;
  std::uint64_t allocations_ = 0;
  std::uint64_t reuses_ = 0;
};

inline void PageBuf::reset() {
  if (buf_ && pool_) pool_->release(size_, std::move(buf_));
  buf_.reset();
  pool_ = nullptr;
  size_ = 0;
}

}  // namespace argomem
