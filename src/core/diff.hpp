// Twin/diff run scanning for multiple-writer writebacks (§3.2).
//
// A self-downgrade transmits only the byte runs that differ between the
// current page and its twin, merging runs separated by short equal
// stretches (one run header costs 8 wire bytes, so gaps under 8 bytes are
// cheaper transmitted inline). The run boundaries are *protocol-visible*:
// they determine the wire bytes charged and hence every downstream virtual
// time, so any faster scanner must emit bit-identical runs.
//
// Two implementations:
//  * diff_runs — memcmp prefilter for clean pages plus a scan that builds
//    one equal-byte bitmask per 64-byte block (SSE2 compare + movemask on
//    x86-64, a byte loop elsewhere and for a short final block) and finds
//    run ends with shifts of that mask; the one Carina runs;
//  * diff_runs_reference — the seed's byte-at-a-time scan, kept only as
//    the executable specification. A randomized property suite
//    (tests/test_hostperf.cpp) pins diff_runs to it over adversarial
//    pages: runs and sub-8-byte gaps straddling block edges, runs ending
//    at a block edge, lengths that are not a multiple of 64, all-equal,
//    all-different, trailing-byte changes.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace argocore {

/// One modified byte run: [off, off + len) differs (modulo merged gaps).
struct DiffRun {
  std::size_t off = 0;
  std::size_t len = 0;
  bool operator==(const DiffRun&) const = default;
};

/// Gaps of up to this many equal bytes are merged into the enclosing run;
/// a run ends once this many consecutive equal bytes follow it. Equals the
/// wire cost of one run header.
inline constexpr std::size_t kDiffMergeGap = 8;

/// Reference scanner: byte-at-a-time, exactly the seed implementation.
/// Appends to `out` (callers clear).
inline void diff_runs_reference(const std::byte* cur, const std::byte* twin,
                                std::size_t n, std::vector<DiffRun>& out) {
  std::size_t i = 0;
  while (i < n) {
    if (cur[i] == twin[i]) {
      ++i;
      continue;
    }
    std::size_t j = i + 1;
    std::size_t gap = 0;
    while (j < n && gap < kDiffMergeGap) {
      if (cur[j] == twin[j])
        ++gap;
      else
        gap = 0;
      ++j;
    }
    const std::size_t end = j - gap;
    out.push_back(DiffRun{i, end - i});
    i = j;
  }
}

namespace detail {
/// Equal-byte mask of one block of `len` <= 64 bytes: bit t is set iff
/// a[t] == b[t]. Bits at and past `len` are set, so a short final block
/// reads as if the buffer were padded with equal bytes.
inline std::uint64_t equal_mask(const std::byte* a, const std::byte* b,
                                std::size_t len) {
#if defined(__SSE2__)
  if (len == 64) {
    const auto* x = reinterpret_cast<const __m128i*>(a);
    const auto* y = reinterpret_cast<const __m128i*>(b);
    std::uint64_t m = 0;
    for (int q = 0; q < 4; ++q) {
      const __m128i eq =
          _mm_cmpeq_epi8(_mm_loadu_si128(x + q), _mm_loadu_si128(y + q));
      m |= std::uint64_t{static_cast<std::uint16_t>(_mm_movemask_epi8(eq))}
           << (16 * q);
    }
    return m;
  }
#endif
  std::uint64_t m = len < 64 ? ~std::uint64_t{0} << len : 0;
  for (std::size_t t = 0; t < len; ++t)
    m |= static_cast<std::uint64_t>(a[t] == b[t]) << t;
  return m;
}
}  // namespace detail

/// Block scanner: emits exactly the runs of diff_runs_reference (same
/// offsets, same lengths, hence the same wire bytes) from one equal-byte
/// mask per 64-byte block, behind a whole-buffer memcmp prefilter.
///
/// A run opens at a differing byte and closes at the first window of
/// kDiffMergeGap equal bytes after it (its end is the window's start;
/// bytes past n count as equal, which closes a final run just after its
/// last differing byte). The scan resumes at the window's end. Windows
/// inside a block come from one mask; a window straddling a block edge is
/// the previous block's trailing equal bytes (`tail`, < 8 while a run is
/// open) plus enough leading equal bytes of the next.
inline void diff_runs(const std::byte* cur, const std::byte* twin,
                      std::size_t n, std::vector<DiffRun>& out) {
  static_assert(kDiffMergeGap == 8, "the window chain below tests 8 bytes");
  if (n == 0 || std::memcmp(cur, twin, n) == 0) return;  // clean page
  bool open = false;
  std::size_t start = 0;  // of the open run
  unsigned tail = 0;
  std::size_t base = 0;
  for (; base < n; base += 64) {
    const std::uint64_t eq = detail::equal_mask(
        cur + base, twin + base, std::min<std::size_t>(64, n - base));
    unsigned from = 0;  // bits below `from` are consumed
    if (open && tail != 0 &&
        static_cast<unsigned>(std::countr_one(eq)) >= 8 - tail) {
      out.push_back(DiffRun{start, base - tail - start});
      open = false;  // the window's bytes in this block are equal
    }
    // Bit t: bytes t..t+7 of this block are all equal (t <= 56).
    std::uint64_t win = eq & (eq >> 1);
    win &= win >> 2;
    win &= win >> 4;
    for (;;) {
      if (!open) {
        const std::uint64_t diff = from < 64 ? ~eq >> from << from : 0;
        if (diff == 0) break;
        from = static_cast<unsigned>(std::countr_zero(diff));
        start = base + from;
        open = true;
      }
      const std::uint64_t close = win >> from << from;
      if (close == 0) break;
      const unsigned at = static_cast<unsigned>(std::countr_zero(close));
      out.push_back(DiffRun{start, base + at - start});
      open = false;
      from = at + 8;
    }
    tail = static_cast<unsigned>(std::countl_one(eq));
  }
  if (open) out.push_back(DiffRun{start, base - tail - start});
}

}  // namespace argocore
