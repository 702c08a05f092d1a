#include "sim/bitvector.hpp"

#include <algorithm>
#include <bit>

#include "support/diagnostics.hpp"

namespace rtlock::sim {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

}  // namespace

BitVector::BitVector(int width) : width_(width) {
  RTLOCK_REQUIRE(width >= 1, "bit vectors must be at least one bit wide");
  if (width > 64) heap_.assign(static_cast<std::size_t>(wordCountFor(width)), 0);
}

BitVector::BitVector(std::uint64_t value, int width) : BitVector(width) {
  words()[0] = value;
  canonicalize();
}

BitVector BitVector::random(int width, support::Rng& rng) {
  BitVector result{width};
  u64* w = result.words();
  for (int i = 0; i < result.wordCount(); ++i) w[i] = rng();
  result.canonicalize();
  return result;
}

BitVector BitVector::fromWords(const std::uint64_t* words, int width) {
  BitVector result{width};
  std::copy_n(words, result.wordCount(), result.words());
  result.canonicalize();
  return result;
}

void BitVector::canonicalize() noexcept {
  const int topBits = width_ % 64;
  if (topBits != 0) {
    words()[wordCount() - 1] &= (u64{1} << topBits) - 1;
  }
}

bool BitVector::bit(int index) const {
  RTLOCK_REQUIRE(index >= 0 && index < width_, "bit index out of range");
  return ((words()[index / 64] >> (index % 64)) & 1u) != 0;
}

void BitVector::setBit(int index, bool value) {
  RTLOCK_REQUIRE(index >= 0 && index < width_, "bit index out of range");
  const u64 mask = u64{1} << (index % 64);
  u64& word = words()[index / 64];
  word = value ? (word | mask) : (word & ~mask);
}

std::uint64_t BitVector::toUint64() const noexcept { return words()[0]; }

bool BitVector::any() const noexcept {
  const u64* w = words();
  return std::any_of(w, w + wordCount(), [](u64 word) { return word != 0; });
}

int BitVector::popcount() const noexcept {
  int total = 0;
  const u64* w = words();
  for (int i = 0; i < wordCount(); ++i) total += std::popcount(w[i]);
  return total;
}

std::string BitVector::toBinaryString() const {
  std::string out;
  out.reserve(static_cast<std::size_t>(width_));
  for (int i = width_ - 1; i >= 0; --i) out.push_back(bit(i) ? '1' : '0');
  return out;
}

BitVector BitVector::resized(int width) const {
  BitVector result{width};
  std::copy_n(words(), std::min(result.wordCount(), wordCount()), result.words());
  result.canonicalize();
  return result;
}

BitVector BitVector::add(const BitVector& a, const BitVector& b, int width) {
  BitVector result{width};
  u64* out = result.words();
  u64 carry = 0;
  for (int i = 0; i < result.wordCount(); ++i) {
    const u64 wa = i < a.wordCount() ? a.words()[i] : 0;
    const u64 wb = i < b.wordCount() ? b.words()[i] : 0;
    const u128 sum = static_cast<u128>(wa) + wb + carry;
    out[i] = static_cast<u64>(sum);
    carry = static_cast<u64>(sum >> 64);
  }
  result.canonicalize();
  return result;
}

BitVector BitVector::sub(const BitVector& a, const BitVector& b, int width) {
  BitVector result{width};
  u64* out = result.words();
  u64 borrow = 0;
  for (int i = 0; i < result.wordCount(); ++i) {
    const u64 wa = i < a.wordCount() ? a.words()[i] : 0;
    const u64 wb = i < b.wordCount() ? b.words()[i] : 0;
    const u128 diff = static_cast<u128>(wa) - wb - borrow;
    out[i] = static_cast<u64>(diff);
    borrow = static_cast<u64>((diff >> 64) & 1);
  }
  result.canonicalize();
  return result;
}

BitVector BitVector::mul(const BitVector& a, const BitVector& b, int width) {
  RTLOCK_REQUIRE(a.width_ <= 64 && b.width_ <= 64,
                 "multiplication is defined for operands up to 64 bits");
  const u128 product = static_cast<u128>(a.toUint64()) * b.toUint64();
  BitVector result{width};
  result.words()[0] = static_cast<u64>(product);
  if (result.wordCount() > 1) result.words()[1] = static_cast<u64>(product >> 64);
  result.canonicalize();
  return result;
}

BitVector BitVector::div(const BitVector& a, const BitVector& b, int width) {
  RTLOCK_REQUIRE(a.width_ <= 64 && b.width_ <= 64,
                 "division is defined for operands up to 64 bits");
  BitVector result{width};
  if (!b.any()) {
    // Deterministic stand-in for Verilog's X result.
    u64* out = result.words();
    for (int i = 0; i < result.wordCount(); ++i) out[i] = ~u64{0};
  } else {
    result.words()[0] = a.toUint64() / b.toUint64();
  }
  result.canonicalize();
  return result;
}

BitVector BitVector::mod(const BitVector& a, const BitVector& b, int width) {
  RTLOCK_REQUIRE(a.width_ <= 64 && b.width_ <= 64,
                 "modulo is defined for operands up to 64 bits");
  BitVector result{width};
  if (!b.any()) {
    u64* out = result.words();
    for (int i = 0; i < result.wordCount(); ++i) out[i] = ~u64{0};
  } else {
    result.words()[0] = a.toUint64() % b.toUint64();
  }
  result.canonicalize();
  return result;
}

BitVector BitVector::pow(const BitVector& a, const BitVector& b, int width) {
  RTLOCK_REQUIRE(a.width_ <= 64 && b.width_ <= 64,
                 "exponentiation is defined for operands up to 64 bits");
  // Square-and-multiply modulo 2^64; truncation to `width` at the end.
  u64 base = a.toUint64();
  u64 exponent = b.toUint64();
  u64 value = 1;
  while (exponent != 0) {
    if ((exponent & 1) != 0) value *= base;
    base *= base;
    exponent >>= 1;
  }
  return BitVector{value, width};
}

BitVector BitVector::neg(const BitVector& a, int width) {
  return sub(BitVector{0, width}, a, width);
}

BitVector BitVector::shl(const BitVector& a, const BitVector& amount, int width) {
  BitVector result{width};
  // Shift amounts >= width zero the result; amounts are capped so huge
  // operands cannot overflow the word arithmetic.
  const u64 rawShift = amount.wordCount() == 1 ? amount.toUint64()
                                               : (amount.any() ? u64{1} << 20 : 0);
  if (rawShift >= static_cast<u64>(width)) return result;
  const int shift = static_cast<int>(rawShift);
  const int wordShift = shift / 64;
  const int bitShift = shift % 64;
  u64* out = result.words();
  for (int i = result.wordCount() - 1; i >= wordShift; --i) {
    const int src = i - wordShift;
    u64 word = src < a.wordCount() ? a.words()[src] << bitShift : 0;
    if (bitShift != 0 && src >= 1 && src - 1 < a.wordCount()) {
      word |= a.words()[src - 1] >> (64 - bitShift);
    }
    out[i] = word;
  }
  result.canonicalize();
  return result;
}

BitVector BitVector::shr(const BitVector& a, const BitVector& amount, int width) {
  BitVector result{width};
  const u64 rawShift = amount.wordCount() == 1 ? amount.toUint64()
                                               : (amount.any() ? u64{1} << 20 : 0);
  if (rawShift >= static_cast<u64>(a.width_)) return result;
  const int shift = static_cast<int>(rawShift);
  const int wordShift = shift / 64;
  const int bitShift = shift % 64;
  u64* out = result.words();
  for (int i = 0; i < result.wordCount(); ++i) {
    const int src = i + wordShift;
    u64 word = src < a.wordCount() ? a.words()[src] >> bitShift : 0;
    if (bitShift != 0 && src + 1 < a.wordCount()) {
      word |= a.words()[src + 1] << (64 - bitShift);
    }
    out[i] = word;
  }
  result.canonicalize();
  return result;
}

BitVector BitVector::bitAnd(const BitVector& a, const BitVector& b, int width) {
  BitVector result{width};
  u64* out = result.words();
  for (int i = 0; i < result.wordCount(); ++i) {
    const u64 wa = i < a.wordCount() ? a.words()[i] : 0;
    const u64 wb = i < b.wordCount() ? b.words()[i] : 0;
    out[i] = wa & wb;
  }
  result.canonicalize();
  return result;
}

BitVector BitVector::bitOr(const BitVector& a, const BitVector& b, int width) {
  BitVector result{width};
  u64* out = result.words();
  for (int i = 0; i < result.wordCount(); ++i) {
    const u64 wa = i < a.wordCount() ? a.words()[i] : 0;
    const u64 wb = i < b.wordCount() ? b.words()[i] : 0;
    out[i] = wa | wb;
  }
  result.canonicalize();
  return result;
}

BitVector BitVector::bitXor(const BitVector& a, const BitVector& b, int width) {
  BitVector result{width};
  u64* out = result.words();
  for (int i = 0; i < result.wordCount(); ++i) {
    const u64 wa = i < a.wordCount() ? a.words()[i] : 0;
    const u64 wb = i < b.wordCount() ? b.words()[i] : 0;
    out[i] = wa ^ wb;
  }
  result.canonicalize();
  return result;
}

BitVector BitVector::bitXnor(const BitVector& a, const BitVector& b, int width) {
  BitVector result{width};
  u64* out = result.words();
  for (int i = 0; i < result.wordCount(); ++i) {
    const u64 wa = i < a.wordCount() ? a.words()[i] : 0;
    const u64 wb = i < b.wordCount() ? b.words()[i] : 0;
    out[i] = ~(wa ^ wb);
  }
  result.canonicalize();
  return result;
}

BitVector BitVector::bitNot(const BitVector& a, int width) {
  BitVector result{width};
  u64* out = result.words();
  for (int i = 0; i < result.wordCount(); ++i) {
    out[i] = ~(i < a.wordCount() ? a.words()[i] : 0);
  }
  result.canonicalize();
  return result;
}

bool BitVector::ult(const BitVector& a, const BitVector& b) noexcept {
  const int wordCount = std::max(a.wordCount(), b.wordCount());
  for (int i = wordCount; i-- > 0;) {
    const u64 wa = i < a.wordCount() ? a.words()[i] : 0;
    const u64 wb = i < b.wordCount() ? b.words()[i] : 0;
    if (wa != wb) return wa < wb;
  }
  return false;
}

bool BitVector::ule(const BitVector& a, const BitVector& b) noexcept { return !ult(b, a); }

bool BitVector::eq(const BitVector& a, const BitVector& b) noexcept {
  const int wordCount = std::max(a.wordCount(), b.wordCount());
  for (int i = 0; i < wordCount; ++i) {
    const u64 wa = i < a.wordCount() ? a.words()[i] : 0;
    const u64 wb = i < b.wordCount() ? b.words()[i] : 0;
    if (wa != wb) return false;
  }
  return true;
}

BitVector BitVector::slice(int hi, int lo) const {
  RTLOCK_REQUIRE(lo >= 0 && hi >= lo && hi < width_, "slice bounds out of range");
  return shr(*this, BitVector{static_cast<u64>(lo), 32}, width_).resized(hi - lo + 1);
}

BitVector BitVector::concat(const std::vector<BitVector>& parts) {
  RTLOCK_REQUIRE(!parts.empty(), "concat needs at least one part");
  int total = 0;
  for (const auto& part : parts) total += part.width();
  BitVector result{total};
  int offset = total;
  for (const auto& part : parts) {
    offset -= part.width();
    result.insert(offset, part);
  }
  return result;
}

void BitVector::insert(int lo, const BitVector& value) {
  RTLOCK_REQUIRE(lo >= 0 && lo + value.width_ <= width_, "insert out of range");
  for (int i = 0; i < value.width_; ++i) setBit(lo + i, value.bit(i));
}

bool BitVector::operator==(const BitVector& other) const noexcept {
  if (width_ != other.width_) return false;
  return std::equal(words(), words() + wordCount(), other.words());
}

int BitVector::hammingDistance(const BitVector& a, const BitVector& b) {
  RTLOCK_REQUIRE(a.width_ == b.width_, "hamming distance requires equal widths");
  int total = 0;
  for (int i = 0; i < a.wordCount(); ++i) {
    total += std::popcount(a.words()[i] ^ b.words()[i]);
  }
  return total;
}

}  // namespace rtlock::sim
