// Division by a divisor fixed at run time, without a divide instruction.
#pragma once

#include <cassert>
#include <cstdint>

namespace argomem {

/// Exact x / d and x % d for a divisor d in [1, 2^32] chosen at run time
/// and any x <= kMaxDividend, by one multiply and one shift (Granlund and
/// Montgomery, "Division by invariant integers using multiplication",
/// 1994, Theorem 4.2 with N = 31): with l = ceil(log2 d), s = 31 + l and
/// m = ceil(2^s / d), 2^s <= m * d < 2^s + 2^l, so x / d = (x * m) >> s
/// for every x < 2^31. m <= 2^32, so x * m stays below 2^63.
class Divider {
 public:
  static constexpr std::uint64_t kMaxDividend = (std::uint64_t{1} << 31) - 1;

  explicit Divider(std::uint64_t d = 1) : d_(d) {
    assert(d >= 1 && d <= (std::uint64_t{1} << 32));
    unsigned l = 0;
    while ((std::uint64_t{1} << l) < d) ++l;
    shift_ = 31 + l;
    m_ = ((std::uint64_t{1} << shift_) + d - 1) / d;
  }

  std::uint64_t divisor() const { return d_; }
  std::uint64_t div(std::uint64_t x) const { return (x * m_) >> shift_; }
  std::uint64_t mod(std::uint64_t x) const { return x - div(x) * d_; }

 private:
  std::uint64_t d_;
  std::uint64_t m_;
  unsigned shift_;
};

}  // namespace argomem
