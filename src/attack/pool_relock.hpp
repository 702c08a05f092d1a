// Tree-free relock rounds — the SnapShot attack's training-set builder for
// targets whose lockable operations never nest.
//
// A relock round (attack/snapshot.hpp, step 2) only has to reproduce two
// things: the Rng draws of lock::assureRandomLock, and the features of every
// key mux it inserts.  When no lockable binary operation and no key mux sits
// inside the operand subtrees of a lockable operation, both follow from
// per-kind pool *sizes* plus a record of which branch a later lock in the
// same round wrapped again, so no expression node is built, no undo runs and
// the module is never touched.  One packed kernel does the work:
//
//  * Live kinds.  build() keeps only the op kinds a round can ever draw:
//    the target's base kinds plus the transitive closure of dummyFor over
//    lockable kinds (under PairTable::assureOriginal a ** lock makes a *
//    dummy, whose lock makes a + dummy, then a -), in pool order.  Each
//    live kind has a compact pool and the live slot of its dummy kind.
//  * Draws.  Each lock draws below(total) and then coin(), and walks the
//    live kinds in pool order exactly as LockEngine::lockRandomOp walks
//    every kind (empty pools never stop the walk).  Pools hold the target's
//    lockable operations in LockEngine::buildIndex order; a lock whose
//    dummy kind is lockable appends one entry for its dummy.
//  * Pool entries are 8 bytes: the round stamp of the entry's last wrapper
//    (0 = none) in the high word; in the low word that wrapper's lock index
//    within the round, shifted left one bit, with the low bit set when the
//    entry is the wrapper's dummy branch.  A stale stamp is a base entry no
//    lock of this round has touched.
//  * Rows are one byte each: bits 0-4 the real kind, bit 5 the key bit
//    (the label), bit 6 "real branch wrapped later", bit 7 "dummy branch
//    wrapped later".  A lock that draws an entry stamped this round
//    back-patches the wrapper's byte, setting bit 6 or 7: that branch of
//    the earlier mux now holds a nested mux, so its C1/C2 code is kMuxCode;
//    an untouched branch keeps 1 + kind (the dummy kind follows from the
//    real one).  row() and foldAggregates decode a byte through a 256-entry
//    table to (C1, C2, label); that triple, not the byte, is the tuple, as
//    two rows of different real kinds with both branches wrapped are equal.
//  * Extended features run the same draw loop and keep side columns per
//    round lock: the target operation's meta index (operand widths, depth,
//    parent construct; mux width = max(width(X), width(dummy))), the
//    next-wrapper links of both branches, and the parent code (kMuxCode
//    once the entry sits inside a round mux).  Depths resolve in reverse
//    lock order through the links at the end of the round.
//
// Relocking preserves the precondition: a dummy clones operand subtrees that
// hold no lockable operation, and the new mux lands where the wrapped
// operation was.  Targets that fail it (SASC, SIM_SPI: dummies clone key
// muxes) take the LockEngine + LocalityHarvester path instead, which also
// stays the oracle this model is tested against (tests/attack/).
//
// Rows are never turned into an ml::Dataset: foldAggregates walks the rows
// auto-ml keeps (ml::forEachSampledRow, the one row-cap rule) straight into
// auto-ml's fold aggregates, interning each kept row's decoded key to a
// dense tuple id and handing the ids to ml::aggregateFolds.  Only the few
// hundred distinct tuples are ever turned into doubles.
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
  /// LocalityHarvester::harvestInto appends for that round, kept as row
  /// bytes (plus the extended side columns).
  void relockRound(int budget, support::Rng& rng);

  /// Rows harvested so far (one per round lock).
  [[nodiscard]] std::size_t rowCount() const noexcept { return rows_.size(); }

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
  /// A kind some round can draw: its pool (base entries, then this round's
  /// dummies) and where a lock of it puts its dummy.
  struct LiveKind {
    std::vector<std::uint64_t> pool;   // packed entries, see the header comment;
                                       // sized for base entries plus a round's dummies
    std::vector<std::uint32_t> meta;   // per base entry (extended features)
    std::uint32_t baseSize = 0;
    std::uint8_t kind = 0;
    std::size_t dummySlot = 0;  // live slot of dummyFor(kind); live_.size() when not lockable
  };

  explicit PoolRelocker(const LocalityConfig& config) : config_(config) {}

  void resolveExtended(std::size_t roundBase);

  LocalityConfig config_;
  std::vector<LiveKind> live_;  // in pool order
  std::vector<std::uint64_t> poolStart_;  // running pool offsets, this round
  std::vector<OpMeta> meta_;
  std::array<rtl::OpKind, rtl::kOpKindCount> dummyFor_{};
  int baseTotal_ = 0;
  std::uint32_t round_ = 0;
  /// Per row byte: C1, C2 and label, packed as C1 | C2 << 8 | label << 16.
  std::array<std::uint32_t, 256> decoded_{};

  // Extended side columns, per lock of the current round.
  std::vector<std::uint32_t> lockMeta_;
  std::vector<std::array<int, 2>> nextWrapper_;  // real, dummy; -1 none
  std::vector<std::uint8_t> lockParent_;
  std::vector<int> muxDepth_;

  // Row store: one byte per row; extended, per row the two branch depths
  // and the parent code and width bucket bytes.
  std::vector<std::uint8_t> rows_;
  std::vector<std::uint32_t> depths_;
  std::vector<std::uint8_t> context_;
};

}  // namespace rtlock::attack
