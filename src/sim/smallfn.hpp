// SmallFn: a move-only callable with inline storage, for the engine's and
// interconnect's hot-path closures (Effect bodies, posted-verb effects).
//
// std::function heap-allocates any capture beyond ~16 bytes, and the
// simulator builds several such closures per remote operation — a steady
// malloc/free drumbeat on paths that otherwise touch no allocator. SmallFn
// embeds the callable in the object itself whenever it fits (and is
// nothrow-movable), falling back to the heap only for oversized captures.
// Inline constructions and heap spills are counted process-wide and
// exported as sim.effect_pool_hits / sim.effect_pool_misses, so a capture
// quietly outgrowing its slot shows up in the metrics instead of silently
// reintroducing the allocations.
//
// Only what the engine needs: move construction/assignment, operator(),
// bool conversion. No copies (captures own payload buffers), no target
// type recovery. Moves relocate the inline callable, so T must be
// nothrow-move-constructible to live inline — anything else spills.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace argosim {

namespace smallfn_detail {
inline std::uint64_t g_inline_hits = 0;
inline std::uint64_t g_heap_spills = 0;
}  // namespace smallfn_detail

/// Closures that fit their SmallFn's inline slot (no allocation).
inline std::uint64_t smallfn_inline_hits() {
  return smallfn_detail::g_inline_hits;
}
/// Closures that spilled to the heap (capture too large or throwing move).
inline std::uint64_t smallfn_heap_spills() {
  return smallfn_detail::g_heap_spills;
}

template <class Sig, std::size_t N = 64>
class SmallFn;

template <class R, class... Args, std::size_t N>
class SmallFn<R(Args...), N> {
 public:
  SmallFn() = default;
  SmallFn(std::nullptr_t) {}  // NOLINT: match std::function's nullptr init

  template <class F,
            class = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                !std::is_same_v<std::decay_t<F>, std::nullptr_t> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  SmallFn(F&& f) {  // NOLINT: implicit, like std::function
    using D = std::decay_t<F>;
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
      ++smallfn_detail::g_inline_hits;
    } else {
      *reinterpret_cast<D**>(buf_) = new D(std::forward<F>(f));
      ops_ = &kHeapOps<D>;
      ++smallfn_detail::g_heap_spills;
    }
  }

  SmallFn(SmallFn&& o) noexcept { take(o); }
  SmallFn& operator=(SmallFn&& o) noexcept {
    if (this != &o) {
      reset();
      take(o);
    }
    return *this;
  }
  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;
  ~SmallFn() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  R operator()(Args... args) {
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

 private:
  struct Ops {
    R (*invoke)(void*, Args&&...);
    void (*relocate)(void* dst, void* src);  // move into dst, destroy src
    void (*destroy)(void*);
  };

  template <class D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= N && alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <class D>
  static constexpr Ops kInlineOps = {
      [](void* p, Args&&... a) -> R {
        return (*static_cast<D*>(p))(std::forward<Args>(a)...);
      },
      [](void* dst, void* src) {
        ::new (dst) D(std::move(*static_cast<D*>(src)));
        static_cast<D*>(src)->~D();
      },
      [](void* p) { static_cast<D*>(p)->~D(); },
  };

  template <class D>
  static constexpr Ops kHeapOps = {
      [](void* p, Args&&... a) -> R {
        return (**static_cast<D**>(p))(std::forward<Args>(a)...);
      },
      [](void* dst, void* src) {
        *static_cast<D**>(dst) = *static_cast<D**>(src);
      },
      [](void* p) { delete *static_cast<D**>(p); },
  };

  void take(SmallFn& o) noexcept {
    ops_ = o.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(buf_, o.buf_);
      o.ops_ = nullptr;
    }
  }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[N];
  const Ops* ops_ = nullptr;
};

}  // namespace argosim
