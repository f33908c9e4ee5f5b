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
//  * diff_runs — memcmp prefilter for clean pages plus a uint64-word scan
//    that locates differing bytes eight at a time; the one Carina runs;
//  * diff_runs_reference — the seed's byte-at-a-time scan, kept only as
//    the executable specification. A randomized property suite
//    (tests/test_hostperf.cpp) pins diff_runs to it over adversarial
//    pages: runs at word boundaries, sub-8-byte gaps straddling words,
//    all-equal, all-different, trailing-byte changes.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

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
inline std::uint64_t diff_word(const std::byte* a, const std::byte* b) {
  std::uint64_t wa, wb;  // memcpy loads: alignment-agnostic, folds to movq
  std::memcpy(&wa, a, sizeof(wa));
  std::memcpy(&wb, b, sizeof(wb));
  return wa ^ wb;
}
// Byte index (little-endian) of the first / one-past-last differing byte
// within a nonzero XOR word.
inline std::size_t first_diff_byte(std::uint64_t x) {
  return static_cast<std::size_t>(std::countr_zero(x)) >> 3;
}
inline std::size_t trailing_equal_bytes(std::uint64_t x) {
  return static_cast<std::size_t>(std::countl_zero(x)) >> 3;
}
}  // namespace detail

/// Word-wise scanner: emits exactly the runs of diff_runs_reference (same
/// offsets, same lengths, hence the same wire bytes), locating differing
/// bytes a uint64 at a time behind a whole-buffer memcmp prefilter.
inline void diff_runs(const std::byte* cur, const std::byte* twin,
                      std::size_t n, std::vector<DiffRun>& out) {
  static_assert(std::endian::native == std::endian::little,
                "byte indices are derived from LE lane order");
  if (n == 0 || std::memcmp(cur, twin, n) == 0) return;  // clean page
  constexpr std::size_t W = sizeof(std::uint64_t);
  std::size_t i = 0;
  for (;;) {
    // Skip the equal stretch, a word at a time; land i on a differing byte.
    while (i + W <= n) {
      const std::uint64_t x = detail::diff_word(cur + i, twin + i);
      if (x != 0) {
        i += detail::first_diff_byte(x);
        break;
      }
      i += W;
    }
    while (i < n && cur[i] == twin[i]) ++i;
    if (i >= n) return;
    // Extend the run. Invariant (as in the reference scan): j is the next
    // unexamined byte and `gap` counts the consecutive equal bytes ending
    // just before j; the run ends once gap reaches kDiffMergeGap. Word
    // steps may overshoot gap past the threshold — `j - gap` still lands
    // on the same run end, and the skip phase above absorbs the extra
    // equal bytes before the next run.
    std::size_t j = i + 1;
    std::size_t gap = 0;
    while (j < n && gap < kDiffMergeGap) {
      if (j + W <= n) {
        const std::uint64_t x = detail::diff_word(cur + j, twin + j);
        if (x == 0) {
          gap += W;
          j += W;
          continue;
        }
        const std::size_t lead = detail::first_diff_byte(x);
        if (gap + lead >= kDiffMergeGap) {
          // The equal stretch closes the run before this word's first
          // differing byte; that byte starts the next run.
          gap += lead;
          j += lead;
          break;
        }
        // Run continues through this word: any internal equal stretch is
        // at most W - 2 < kDiffMergeGap bytes, so only the word's trailing
        // equal bytes can extend into a run-ending gap.
        gap = detail::trailing_equal_bytes(x);
        j += W;
        continue;
      }
      if (cur[j] == twin[j])
        ++gap;
      else
        gap = 0;
      ++j;
    }
    out.push_back(DiffRun{i, j - gap - i});
    i = j;
  }
}

}  // namespace argocore
