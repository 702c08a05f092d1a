// Arbitrary-width two-state bit vectors for RTL simulation.
//
// Two-state semantics (no X/Z) are sufficient for the paper's experiments:
// functional equivalence under the correct key and output corruption under
// wrong keys are both defined over fully-specified stimuli.
//
// Representation: little-endian array of 64-bit words; unused high bits of
// the top word are kept zero (canonical form) so equality is word-wise.
// Widths up to 64 bits (the overwhelmingly common case) live in an inline
// word with no heap allocation; only wider vectors spill to a heap-backed
// word array.  Multiplication, division, modulo and exponentiation are
// defined for operands up to 64 bits (the subset limit for named signals);
// wider values only arise through concatenation, where linear ops
// (add/sub/shift/bitwise/compare) remain fully supported.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/rng.hpp"

namespace rtlock::sim {

class BitVector {
 public:
  /// Zero-valued vector of the given width.
  explicit BitVector(int width = 1);

  /// Low-width bits of `value`.
  BitVector(std::uint64_t value, int width);

  [[nodiscard]] static BitVector random(int width, support::Rng& rng);

  [[nodiscard]] int width() const noexcept { return width_; }

  /// Value of bit `index` (0 = LSB).
  [[nodiscard]] bool bit(int index) const;
  void setBit(int index, bool value);

  /// Low 64 bits.
  [[nodiscard]] std::uint64_t toUint64() const noexcept;

  /// True iff any bit is set.
  [[nodiscard]] bool any() const noexcept;

  /// Number of set bits.
  [[nodiscard]] int popcount() const noexcept;

  /// Binary string, MSB first (for diagnostics).
  [[nodiscard]] std::string toBinaryString() const;

  /// Returns a copy resized to `width` (zero-extend or truncate).
  [[nodiscard]] BitVector resized(int width) const;

  // ---- arithmetic (results truncated to the stated width) ----
  [[nodiscard]] static BitVector add(const BitVector& a, const BitVector& b, int width);
  [[nodiscard]] static BitVector sub(const BitVector& a, const BitVector& b, int width);
  [[nodiscard]] static BitVector mul(const BitVector& a, const BitVector& b, int width);
  /// Division by zero yields all-ones (deterministic stand-in for Verilog X).
  [[nodiscard]] static BitVector div(const BitVector& a, const BitVector& b, int width);
  [[nodiscard]] static BitVector mod(const BitVector& a, const BitVector& b, int width);
  [[nodiscard]] static BitVector pow(const BitVector& a, const BitVector& b, int width);
  [[nodiscard]] static BitVector neg(const BitVector& a, int width);

  // ---- shifts ----
  [[nodiscard]] static BitVector shl(const BitVector& a, const BitVector& amount, int width);
  [[nodiscard]] static BitVector shr(const BitVector& a, const BitVector& amount, int width);

  // ---- bitwise ----
  [[nodiscard]] static BitVector bitAnd(const BitVector& a, const BitVector& b, int width);
  [[nodiscard]] static BitVector bitOr(const BitVector& a, const BitVector& b, int width);
  [[nodiscard]] static BitVector bitXor(const BitVector& a, const BitVector& b, int width);
  [[nodiscard]] static BitVector bitXnor(const BitVector& a, const BitVector& b, int width);
  [[nodiscard]] static BitVector bitNot(const BitVector& a, int width);

  // ---- comparisons (unsigned) ----
  [[nodiscard]] static bool ult(const BitVector& a, const BitVector& b) noexcept;
  [[nodiscard]] static bool ule(const BitVector& a, const BitVector& b) noexcept;
  [[nodiscard]] static bool eq(const BitVector& a, const BitVector& b) noexcept;

  // ---- structure ----
  [[nodiscard]] BitVector slice(int hi, int lo) const;
  /// parts[0] is most significant (Verilog {a, b} order).
  [[nodiscard]] static BitVector concat(const std::vector<BitVector>& parts);
  /// Writes `value` into bits [lo, lo+value.width()) of this vector.
  void insert(int lo, const BitVector& value);

  [[nodiscard]] bool operator==(const BitVector& other) const noexcept;

  /// Number of differing bits between equal-width vectors.
  [[nodiscard]] static int hammingDistance(const BitVector& a, const BitVector& b);

  // ---- raw word access (the sliced simulator's lane gather) ----

  /// Words needed to hold `width` bits.
  [[nodiscard]] static int wordCountFor(int width) noexcept { return (width + 63) / 64; }

  /// Wraps `wordCountFor(width)` little-endian words as a vector of `width`
  /// bits (high bits of the top word are masked off).
  [[nodiscard]] static BitVector fromWords(const std::uint64_t* words, int width);

 private:
  [[nodiscard]] int wordCount() const noexcept { return wordCountFor(width_); }
  [[nodiscard]] const std::uint64_t* words() const noexcept {
    return width_ <= 64 ? &inline_ : heap_.data();
  }
  [[nodiscard]] std::uint64_t* words() noexcept {
    return width_ <= 64 ? &inline_ : heap_.data();
  }
  void canonicalize() noexcept;

  int width_;
  std::uint64_t inline_ = 0;         // storage for widths <= 64 (no heap)
  std::vector<std::uint64_t> heap_;  // all words for widths > 64
};

}  // namespace rtlock::sim
