// Tree-free relock rounds — the SnapShot attack's training-set builder for
// targets whose lockable operations never nest.
//
// A relock round (attack/snapshot.hpp, step 2) only has to reproduce two
// things: the Rng draws of lock::assureRandomLock, and the features of every
// key mux it inserts.  When no lockable binary operation and no key mux sits
// inside the operand subtrees of a lockable operation, both follow from
// per-kind pool *sizes* plus a record of which branch a later lock in the
// same round wrapped again, so no expression node is built, no undo runs and
// the module is never touched:
//
//  * Draws.  Each lock draws below(total) and then coin(), and walks the
//    kinds in pool order exactly as LockEngine::lockRandomOp does.  Pools
//    hold the target's lockable operations in LockEngine::buildIndex order;
//    a lock whose dummy kind is lockable appends one entry for its dummy.
//  * Codes.  Each pool entry remembers the last lock of the round that
//    wrapped it (and whether as its real or its dummy branch).  Wrapping the
//    entry again turns that branch of the earlier mux into a nested mux, so
//    its C1/C2 code becomes kMuxCode; an untouched branch keeps 1 + kind.
//  * Extended features come from per-entry metadata gathered in the same
//    walk: operand widths (mux width = max(width(X), width(dummy))), depth
//    (resolved in reverse lock order through the next-wrapper links) and
//    parent code (kMuxCode once the entry sits inside a round mux).
//
// Relocking preserves the precondition: a dummy clones operand subtrees that
// hold no lockable operation, and the new mux lands where the wrapped
// operation was.  Targets that fail it (SASC, SIM_SPI: dummies clone key
// muxes) take the LockEngine + LocalityHarvester path instead, which also
// stays the oracle this model is tested against (tests/attack/).
//
// Rows are kept as compact integer codes, and the attack never turns them
// into an ml::Dataset: foldAggregates walks the rows auto-ml keeps
// (ml::forEachSampledRow, the one row-cap rule) straight into auto-ml's
// fold aggregates, interning each kept row's integer key to a dense tuple
// id and handing the ids to ml::aggregateFolds.  Only the few hundred
// distinct tuples are ever turned into doubles.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "attack/locality.hpp"
#include "core/pairs.hpp"
#include "support/rng.hpp"

namespace rtlock::attack {

class PoolRelocker {
 public:
  /// One walk over `lockedTarget`: the relocker when no lockable operation
  /// and no key mux appear inside a lockable operation's operand subtrees,
  /// else nullopt.  Keeps no reference to the module or the table.
  [[nodiscard]] static std::optional<PoolRelocker> build(const rtl::Module& lockedTarget,
                                                         const lock::PairTable& table,
                                                         const LocalityConfig& config);

  /// Lockable operations of the target — LockEngine::totalLockableOps() at
  /// the start of every round.
  [[nodiscard]] int totalLockableOps() const noexcept { return baseTotal_; }

  /// One relock round: the Rng draws of lock::assureRandomLock(engine,
  /// budget, rng) on a LockEngine over the target, and the rows
  /// LocalityHarvester::harvestInto appends for that round, kept as codes.
  void relockRound(int budget, support::Rng& rng);

  /// Rows harvested so far (one per round lock).
  [[nodiscard]] std::size_t rowCount() const noexcept { return labels_.size(); }

  /// Pre-grows the row store for `rows` additional rows.
  void reserveRows(std::size_t rows);

  /// Row `i` (< rowCount()) as LocalityHarvester harvests it: writes its
  /// featureCount(config) features to the front of `features` and returns
  /// its label.
  [[nodiscard]] int row(std::size_t i, std::span<double> features) const;

  /// Auto-ml's folds over the rows it trains on: equal, row for row and bit
  /// for bit, and with the same draws from `rng`, to materializing every
  /// row ml::forEachSampledRow(rowCount(), maxRows, rng, ...) keeps into a
  /// Dataset (row(i) at the visit's weight) and calling its
  /// kFoldAggregated(folds, rng) — without that Dataset.
  [[nodiscard]] ml::KFoldAggregates foldAggregates(std::size_t maxRows, int folds,
                                                   support::Rng& rng) const;

 private:
  /// Per target operation: what its real or cloned dummy form needs for the
  /// extended features.
  struct OpMeta {
    int lhsWidth = 0;
    int rhsWidth = 0;
    int depth = 0;       // exprDepth of the operation (dummies: the same)
    int parentCode = 0;  // construct holding it in the target
  };
  struct PoolEntry {
    std::uint32_t meta = 0;
    std::uint32_t round = 0;  // round of the last wrapper; 0 = none
    std::uint32_t wrapper = 0;
    bool dummyBranch = false;  // entry is the wrapper's dummy branch
  };
  struct RoundLock {
    rtl::OpKind realKind = rtl::OpKind::Add;
    rtl::OpKind dummyKind = rtl::OpKind::Sub;
    bool keyValue = false;
    std::uint32_t meta = 0;
    int parentCode = 0;
    int nextReal = -1;   // lock that wrapped the real branch next, -1 none
    int nextDummy = -1;  // likewise for the dummy branch
  };

  explicit PoolRelocker(const LocalityConfig& config) : config_(config) {}

  /// Row-store bytes per row: C1, C2 and, extended, parent code and width
  /// bucket.
  [[nodiscard]] std::size_t codeStride() const noexcept {
    return config_.extendedFeatures ? 4 : 2;
  }
  void wrap(rtl::OpKind kind, std::size_t index, bool keyValue);
  void harvestRound();

  LocalityConfig config_;
  std::array<bool, rtl::kOpKindCount> lockable_{};
  std::array<rtl::OpKind, rtl::kOpKindCount> dummyFor_{};
  std::vector<OpMeta> meta_;
  std::array<std::vector<PoolEntry>, rtl::kOpKindCount> pools_;
  std::array<std::size_t, rtl::kOpKindCount> baseSizes_{};
  int baseTotal_ = 0;
  int total_ = 0;
  std::uint32_t round_ = 0;
  std::vector<RoundLock> locks_;  // current round, in lock order
  std::vector<int> muxDepth_;     // per round lock (extended features)

  // Row store: per row C1, C2 and, extended, parent code and width bucket
  // (codes stay below 256); extended depths beside; labels.
  std::vector<std::uint8_t> codes_;
  std::vector<std::uint32_t> depths_;
  std::vector<std::uint8_t> labels_;
};

}  // namespace rtlock::attack
