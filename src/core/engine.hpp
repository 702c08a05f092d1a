// LockEngine: stateful operation-locking transformer over one module.
//
// The engine owns three pieces of mutable state that must stay consistent
// through arbitrary lock/undo sequences:
//
//  1. the module's expression trees (locking wraps a binary operation into a
//     key-controlled ternary multiplexer, Fig. 3 of the paper);
//  2. a per-operator index of every lockable operation slot — selection pools
//     for RndSelect and the live operation counts behind the ODT;
//  3. an undo stack enabling the attack's relock → extract → undo loop and
//     HRA's exploratory steps.
//
// Index maintenance is incremental and O(size of the dummy operand subtree)
// per lock: wrapping moves the real operation into the multiplexer (its index
// entry is updated in place; entries for deeper operations stay valid because
// expression nodes never move in memory), and every lockable operation inside
// the cloned dummy branch is appended to its pool.  Undo is strictly LIFO.
//
// Operand cloning note: every lock builds a fresh mux — key ref, dummy
// operation and clones of the real operation's operand subtrees
// (`K ? a+b : a-b`) — and undo recycles it (rtl::recycle), so the next lock
// takes its nodes from the per-thread node cache without touching the heap.
// For three-address designs (all generators in src/designs) operands are
// signal references, so each key bit adds exactly one dummy operation (the
// paper's cost model) from five nodes.  For nested expressions the cloned
// operand operations are also counted and indexed, keeping the ODT truthful
// to what an attacker sees.
//
// Contract --------------------------------------------------------------------
// Ownership: the engine borrows the module (which must outlive it) and takes
//   exclusive mutation rights for its whole lifetime; the PairTable is
//   borrowed const and is immutable by construction.  Locks the engine
//   applied must be undone through the same engine — external edits to the
//   module invalidate the index.
// Determinism: every stochastic choice draws from the caller-passed Rng and
//   nothing else; a (module, table, call sequence, rng seed) tuple fully
//   determines the locked design, records() and all metrics, across
//   platforms and thread counts.
// Thread-safety: an engine is single-threaded (one engine per grid cell is the
//   sharding pattern — see attack::evaluateBenchmark); distinct engines over
//   distinct modules never share mutable state and may run concurrently.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "core/pairs.hpp"
#include "rtl/module.hpp"
#include "rtl/stats.hpp"
#include "support/rng.hpp"

namespace rtlock::lock {

/// One applied operation lock (one key bit).
struct LockRecord {
  int keyIndex = 0;
  bool keyValue = false;   // correct key-bit value
  rtl::OpKind realOp = rtl::OpKind::Add;
  rtl::OpKind dummyOp = rtl::OpKind::Sub;
};

/// Observer for lock/undo events — the hook behind incremental locality
/// harvesting (attack/harvest.hpp).  Callbacks fire synchronously inside
/// lockOpAt/undoTo after the module mutation completed: onLock sees the
/// freshly installed key mux through `slot` (the slot that now holds it),
/// onUndo sees the record that was just rolled back.  Observers must not
/// lock or undo re-entrantly.
class LockObserver {
 public:
  virtual ~LockObserver() = default;
  virtual void onLock(const LockRecord& record, const rtl::ExprSlot& slot) = 0;
  virtual void onUndo(const LockRecord& record) = 0;
};

/// Key bits for locking `fraction` of `lockableOps` operations: the
/// truncated product, and at least one.  The single budget rule behind the
/// evaluation's samples, the attack's relock rounds and fractional `budget`
/// requests.
[[nodiscard]] inline int keyBudget(double fraction, int lockableOps) noexcept {
  return std::max(1, static_cast<int>(fraction * static_cast<double>(lockableOps)));
}

class LockEngine {
 public:
  /// The module must outlive the engine; the engine assumes exclusive
  /// mutation rights over it.
  LockEngine(rtl::Module& module, const PairTable& table);

  LockEngine(const LockEngine&) = delete;
  LockEngine& operator=(const LockEngine&) = delete;

  [[nodiscard]] const PairTable& pairTable() const noexcept { return table_; }
  [[nodiscard]] rtl::Module& module() noexcept { return module_; }

  // ---- counts / ODT ----

  /// Current number of operations of `kind` (locked design view, dummies
  /// included).
  [[nodiscard]] int opCount(rtl::OpKind kind) const noexcept;

  /// Current total number of lockable operations.
  [[nodiscard]] int totalLockableOps() const noexcept;

  /// Number of lockable operations when the engine was constructed (basis
  /// for "key budget = 75% of operations").
  [[nodiscard]] int initialLockableOps() const noexcept { return initialLockableOps_; }

  /// ODT[T] = count(T) - count(T').  Involutive tables only.
  [[nodiscard]] int odtValue(rtl::OpKind kind) const;

  /// |ODT| per canonical pair (the v_j vector of Sec. 4.1).
  [[nodiscard]] std::vector<int> odtMagnitudes() const;

  /// v_i: |ODT| per pair at construction time.
  [[nodiscard]] const std::vector<int>& initialMagnitudes() const noexcept {
    return initialMagnitudes_;
  }

  /// Pairs with at least one locked operation (mask for M^r_sec).
  [[nodiscard]] const std::vector<bool>& touchedPairs() const noexcept { return touched_; }

  [[nodiscard]] double globalMetric() const;
  [[nodiscard]] double restrictedMetric() const;

  // ---- locking primitives ----

  /// Wraps the operation at position `index` of kind `kind`'s pool into a
  /// key mux with the given correct key-bit value.  Returns the record.
  const LockRecord& lockOpAt(rtl::OpKind kind, std::size_t index, bool keyValue);

  /// Locks a uniformly random operation of `kind` with a random key value.
  /// Returns false when the pool is empty.
  bool lockRandomOpOfKind(rtl::OpKind kind, support::Rng& rng);

  /// Locks a uniformly random operation across all lockable kinds (random
  /// ASSURE selection / training relocking).  Returns false when nothing is
  /// lockable.
  bool lockRandomOp(support::Rng& rng);

  /// Algorithm 1 (Lock): balances pair membership for type `kind`.
  /// Returns the number of key bits consumed (0, 1, or 2).
  int lockStep(rtl::OpKind kind, bool pairMode, support::Rng& rng);

  /// Snapshot of all lockable operations in module traversal order, as
  /// (kind, pool position) coordinates usable with lockOpAt.  Pool positions
  /// stay pinned to their logical operation across later locks.
  [[nodiscard]] std::vector<std::pair<rtl::OpKind, std::size_t>> opsInTraversalOrder() const;

  // ---- undo ----

  /// Current undo depth; pass to undoTo to roll back to this point.
  [[nodiscard]] std::size_t checkpoint() const noexcept { return undoStack_.size(); }

  /// Rolls back every lock applied after the checkpoint (LIFO).
  void undoTo(std::size_t checkpoint);

  void undoAll() { undoTo(0); }

  /// All currently applied locks, oldest first.
  [[nodiscard]] const std::vector<LockRecord>& records() const noexcept { return records_; }

  // ---- observation ----

  /// Registers the single lock/undo observer (nullptr detaches).  The
  /// observer must outlive every lock/undo it can witness.
  void setObserver(LockObserver* observer) noexcept { observer_ = observer; }
  [[nodiscard]] LockObserver* observer() const noexcept { return observer_; }

 private:
  struct UndoRecord {
    rtl::ExprSlot slot;                          // where the mux sits
    rtl::OpKind realKind = rtl::OpKind::Add;
    std::size_t poolPosition = 0;                // index into ops_[realKind]
    int realBranchSlot = 0;                      // kThenSlot or kElseSlot
    std::uint32_t dummyAppendCount = 0;          // entries in dummyAppendLog_
    int prevKeyWidth = 0;
    int pairIndex = -1;                          // -1 for non-involutive tables
    bool pairWasTouched = false;
  };

  void buildIndex();
  [[nodiscard]] std::vector<rtl::ExprSlot>& pool(rtl::OpKind kind) noexcept {
    return ops_[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] const std::vector<rtl::ExprSlot>& pool(rtl::OpKind kind) const noexcept {
    return ops_[static_cast<std::size_t>(kind)];
  }

  rtl::Module& module_;
  const PairTable& table_;
  std::array<std::vector<rtl::ExprSlot>, rtl::kOpKindCount> ops_;
  /// Kinds of dummy-branch pool appends, across all live locks (LIFO with
  /// undoStack_; each UndoRecord owns its trailing dummyAppendCount entries).
  /// A shared log instead of a per-lock vector: lock/undo is the attack's
  /// innermost loop and must not allocate per operation.
  std::vector<rtl::OpKind> dummyAppendLog_;
  std::vector<int> initialMagnitudes_;
  std::vector<bool> touched_;
  std::vector<UndoRecord> undoStack_;
  std::vector<LockRecord> records_;
  LockObserver* observer_ = nullptr;
  int lockableTotal_ = 0;  // sum of pool sizes, maintained incrementally
  int initialLockableOps_ = 0;
};

}  // namespace rtlock::lock
