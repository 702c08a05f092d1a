// Locking-pair tables for operation obfuscation.
//
// Two tables are provided:
//
//  * PairTable::fixed() — the involutive pairing required by Sec. 3.2 of the
//    paper: "every operation must exist as a real and dummy operation with
//    the same pair, e.g. (*, /) and (/, *)".  dummyFor is a perfect matching
//    (dummyFor(dummyFor(T)) == T), which makes the ODT and Definition 1
//    well-defined.  This table backs ERA, HRA and the fixed-ASSURE baseline.
//
//  * PairTable::assureOriginal() — the leaky pairing the paper attributes to
//    the original ASSURE implementation: (*, +), (+, -), (-, +) etc.  The
//    mapping is not involutive for mul, div, mod, pow and xor, which leaks
//    the real operation whenever an asymmetric pair is observed (reproduced
//    by `ablation leakage`, bench/ablations.hpp).
#pragma once

#include <utility>
#include <vector>

#include "rtl/ops.hpp"

namespace rtlock::lock {

class PairTable {
 public:
  /// Involutive pairing (the paper's fix).  Pairs:
  /// (+,-), (*,/), (%,**), (&,|), (^,~^), (<<,>>), (<,>=), (>,<=), (==,!=),
  /// (&&,||).  The arithmetic shift >>> has no partner and is not lockable.
  [[nodiscard]] static const PairTable& fixed();

  /// Original (leaky) ASSURE pairing from Sec. 3.2.
  [[nodiscard]] static const PairTable& assureOriginal();

  /// True if operations of this kind participate in operation locking.
  [[nodiscard]] bool lockable(rtl::OpKind op) const noexcept;

  /// Dummy operation paired with `op`.  Precondition: lockable(op).
  [[nodiscard]] rtl::OpKind dummyFor(rtl::OpKind op) const;

  /// True when dummyFor is a perfect matching (required by ODT/metrics).
  [[nodiscard]] bool involutive() const noexcept { return involutive_; }

  /// Canonical unordered pairs (T, T') with T enumerated first.  Only
  /// meaningful for involutive tables.
  [[nodiscard]] const std::vector<std::pair<rtl::OpKind, rtl::OpKind>>& pairs() const;

  /// Index of the canonical pair containing `op`; -1 when not lockable.
  /// Only meaningful for involutive tables.
  [[nodiscard]] int pairIndexOf(rtl::OpKind op) const;

  [[nodiscard]] std::size_t pairCount() const noexcept { return pairs_.size(); }

 private:
  PairTable() = default;

  std::vector<std::pair<rtl::OpKind, rtl::OpKind>> pairs_;
  int dummyOf_[rtl::kOpKindCount] = {};
  bool lockable_[rtl::kOpKindCount] = {};
  int pairIndex_[rtl::kOpKindCount] = {};
  bool involutive_ = true;
};

}  // namespace rtlock::lock
