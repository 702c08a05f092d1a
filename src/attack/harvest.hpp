// Incremental locality harvesting — the O(relock budget) replacement for
// re-walking the whole module with extractLocalities() after every relock
// round of the SnapShot attack, on the live expression tree.
//
// The product does not relock on the tree: snapshotAttack runs every
// target's rounds tree-free (attack/pool_relock.hpp).  This harvester, with
// LockEngine and assureRandomLock, is the row-for-row oracle those rounds are
// tested against (tests/attack/pool_relock_test.cpp), and the path the
// benchmark's traced replay (perfbench/) times layer by layer and
// byte-compares.  A round in which a dummy clones a key mux of the same
// round has duplicate key indices; harvestInto emits it through
// extractLocalities, whose std::sort tie order PoolRelocker reproduces.
//
// The harvester observes a LockEngine: every lockOpAt records the freshly
// installed key mux (plus any key muxes cloned into its dummy operand
// subtree, which the full walk would also see).  Feature vectors are NOT
// captured at lock time — a later lock in the same round can wrap a recorded
// mux's branch (the paper's Fig. 3b nesting), changing its C1/C2 codes and
// branch depths.  Instead harvest() computes features from the live
// expression tree right before the round is undone; expression nodes never
// move in memory (see core/engine.hpp), so the recorded mux pointers stay
// valid until their locks are undone.  One exception is pre-computed: a
// mux's *parent* construct can never change after insertion (only binary
// operations are wrapped, and wrapping interposes the new mux below the old
// parent), so the parent code is captured at lock time.
//
// extractLocalities() is retained as the differential oracle; the
// equivalence is enforced per registry design in tests/attack/harvest_test.
#pragma once

#include <vector>

#include "attack/locality.hpp"
#include "core/engine.hpp"

namespace rtlock::attack {

class LocalityHarvester final : public lock::LockObserver {
 public:
  /// Registers itself as `engine`'s observer (the engine must have none) and
  /// unregisters on destruction.  Both must outlive every lock the harvester
  /// witnesses.
  LocalityHarvester(lock::LockEngine& engine, const LocalityConfig& config);
  ~LocalityHarvester() override;

  LocalityHarvester(const LocalityHarvester&) = delete;
  LocalityHarvester& operator=(const LocalityHarvester&) = delete;

  /// Starts a relock round: discards previously recorded muxes and collects
  /// localities for key bits allocated from the current key width onwards.
  /// Undoing past the round's key start mid-round is not supported.
  void beginRound();

  /// Localities of every recorded key mux with keyIndex >= the round's key
  /// start, ascending by key index (stable in lock order for duplicate clone
  /// indices), with features computed from the live tree.  Call before
  /// undoing the round.
  [[nodiscard]] std::vector<Locality> harvest() const;

  /// Appends one (features, key-bit label) training row per harvested
  /// locality to `out` — the path snapshotAttack trains from.  Rounds whose
  /// locks cloned a key mux into a dummy subtree (duplicate key indices) are
  /// routed through the legacy full-walk extractor so the training rows stay
  /// bit-identical to the historical pipeline, duplicate tie order included;
  /// every other round takes the pure O(budget) incremental path.
  void harvestInto(ml::Dataset& out) const;

  /// True when the current round recorded at least one cloned key mux (the
  /// condition that makes harvestInto fall back to the full walk).
  [[nodiscard]] bool roundHasClonedKeyMuxes() const noexcept;

  // LockObserver
  void onLock(const lock::LockRecord& record, const rtl::ExprSlot& slot) override;
  void onUndo(const lock::LockRecord& record) override;

 private:
  struct Entry {
    int keyIndex = 0;
    const rtl::TernaryExpr* mux = nullptr;
    int parentCode = kTopCode;
    bool clone = false;  // found in a dummy subtree rather than installed
  };
  /// One lockOpAt: the new mux entry plus any cloned-mux entries that came
  /// with its dummy subtree, so undo can drop them together.
  struct Event {
    int keyIndex = 0;
    std::size_t firstEntry = 0;
  };

  template <typename Emit>
  void forEachHarvested(Emit&& emit) const;

  lock::LockEngine& engine_;
  LocalityConfig config_;
  int roundKeyStart_ = 0;
  std::vector<Entry> entries_;           // in lock-event order
  std::vector<Event> events_;            // LIFO with the engine's undo stack
  std::vector<bool> roundKeyValues_;     // label of key bit roundKeyStart_ + i
  std::vector<std::pair<const rtl::Expr*, int>> pending_;  // clone-scan scratch
  mutable std::vector<const Entry*> order_;  // harvest sort scratch
  mutable ml::FeatureRow row_;               // harvest feature scratch
};

}  // namespace rtlock::attack
