#include "core/engine.hpp"

#include <algorithm>

#include "analysis/verifier.hpp"
#include "core/metric.hpp"
#include "rtl/traverse.hpp"

namespace rtlock::lock {

using rtl::BinaryExpr;
using rtl::Expr;
using rtl::ExprKind;
using rtl::ExprSlot;
using rtl::OpKind;
using rtl::TernaryExpr;

LockEngine::LockEngine(rtl::Module& module, const PairTable& table)
    : module_(module), table_(table) {
  buildIndex();
  if (table_.involutive()) {
    initialMagnitudes_ = odtMagnitudes();
    touched_.assign(table_.pairCount(), false);
  }
  initialLockableOps_ = totalLockableOps();
  RTLOCK_DEBUG_VERIFY_IR(module_, "at LockEngine construction");
}

void LockEngine::buildIndex() {
  rtl::forEachExprSlot(module_, [this](const ExprSlot& slot) {
    const Expr& node = *slot.get();
    if (node.kind() != ExprKind::Binary) return;
    const OpKind kind = static_cast<const BinaryExpr&>(node).op();
    if (table_.lockable(kind)) {
      pool(kind).push_back(slot);
      ++lockableTotal_;
    }
  });
}

int LockEngine::opCount(OpKind kind) const noexcept {
  return static_cast<int>(pool(kind).size());
}

int LockEngine::totalLockableOps() const noexcept { return lockableTotal_; }

int LockEngine::odtValue(OpKind kind) const {
  RTLOCK_REQUIRE(table_.involutive(), "ODT requires an involutive pair table");
  return opCount(kind) - opCount(table_.dummyFor(kind));
}

std::vector<int> LockEngine::odtMagnitudes() const {
  RTLOCK_REQUIRE(table_.involutive(), "ODT requires an involutive pair table");
  std::vector<int> magnitudes;
  magnitudes.reserve(table_.pairCount());
  for (const auto& [a, b] : table_.pairs()) {
    magnitudes.push_back(std::abs(opCount(a) - opCount(b)));
  }
  return magnitudes;
}

double LockEngine::globalMetric() const {
  const std::vector<int> current = odtMagnitudes();
  return globalSecurityMetric(initialMagnitudes_, current);
}

double LockEngine::restrictedMetric() const {
  const std::vector<int> current = odtMagnitudes();
  return securityMetric(initialMagnitudes_, current, touched_);
}

const LockRecord& LockEngine::lockOpAt(OpKind kind, std::size_t index, bool keyValue) {
  auto& entries = pool(kind);
  RTLOCK_REQUIRE(index < entries.size(), "operation pool index out of range");
  const ExprSlot slot = entries[index];

  rtl::ExprPtr& owner = slot.get();
  RTLOCK_REQUIRE(owner->kind() == ExprKind::Binary &&
                     static_cast<const BinaryExpr&>(*owner).op() == kind,
                 "pool entry does not reference an operation of the expected kind");

  UndoRecord undo;
  undo.slot = slot;
  undo.realKind = kind;
  undo.poolPosition = index;
  undo.prevKeyWidth = module_.keyWidth();

  auto& real = static_cast<BinaryExpr&>(*owner);
  const OpKind dummyKind = table_.dummyFor(kind);
  const bool leafOperands =
      real.lhs().exprSlotCount() == 0 && real.rhs().exprSlotCount() == 0;

  const int keyIndex = module_.allocateKeyBits(1);
  undo.realBranchSlot = keyValue ? TernaryExpr::kThenSlot : TernaryExpr::kElseSlot;
  const int dummyBranchSlot = keyValue ? TernaryExpr::kElseSlot : TernaryExpr::kThenSlot;

  // Build the dummy: same operand structure, partner operator.
  rtl::ExprPtr dummy = rtl::makeBinary(dummyKind, real.lhs().clone(), real.rhs().clone());
  rtl::ExprPtr realExpr = std::move(owner);
  owner = rtl::makeTernary(rtl::makeKeyRef(keyIndex), std::move(keyValue ? realExpr : dummy),
                           std::move(keyValue ? dummy : realExpr));
  Expr* const muxPtr = owner.get();

  // Re-pin the real operation's pool entry to its new home inside the mux.
  entries[index] = ExprSlot{muxPtr, undo.realBranchSlot};

  // Index every lockable operation of the dummy branch (top node + any
  // operations in cloned operand subtrees).  With leaf operands the only
  // candidate is the dummy root itself, so skip the generic subtree walk.
  if (leafOperands) {
    if (table_.lockable(dummyKind)) {
      pool(dummyKind).push_back(ExprSlot{muxPtr, dummyBranchSlot});
      dummyAppendLog_.push_back(dummyKind);
      undo.dummyAppendCount = 1;
      ++lockableTotal_;
    }
  } else {
    rtl::forEachExprSlotIn(ExprSlot{muxPtr, dummyBranchSlot}, [this, &undo](const ExprSlot& s) {
      const Expr& node = *s.get();
      if (node.kind() != ExprKind::Binary) return;
      const OpKind k = static_cast<const BinaryExpr&>(node).op();
      if (!table_.lockable(k)) return;
      pool(k).push_back(s);
      dummyAppendLog_.push_back(k);
      ++undo.dummyAppendCount;
      ++lockableTotal_;
    });
  }

  if (table_.involutive()) {
    undo.pairIndex = table_.pairIndexOf(kind);
    undo.pairWasTouched = touched_[static_cast<std::size_t>(undo.pairIndex)];
    touched_[static_cast<std::size_t>(undo.pairIndex)] = true;
  }

  undoStack_.push_back(std::move(undo));
  records_.push_back(LockRecord{keyIndex, keyValue, kind, dummyKind});
  if (observer_ != nullptr) observer_->onLock(records_.back(), slot);
  return records_.back();
}

bool LockEngine::lockRandomOpOfKind(OpKind kind, support::Rng& rng) {
  auto& entries = pool(kind);
  if (entries.empty()) return false;
  const std::size_t index = static_cast<std::size_t>(rng.below(entries.size()));
  lockOpAt(kind, index, rng.coin());
  return true;
}

bool LockEngine::lockRandomOp(support::Rng& rng) {
  const int total = totalLockableOps();
  if (total == 0) return false;
  std::uint64_t target = rng.below(static_cast<std::uint64_t>(total));
  for (int k = 0; k < rtl::kOpKindCount; ++k) {
    const auto kind = static_cast<OpKind>(k);
    const auto size = static_cast<std::uint64_t>(pool(kind).size());
    if (target < size) {
      lockOpAt(kind, static_cast<std::size_t>(target), rng.coin());
      return true;
    }
    target -= size;
  }
  RTLOCK_UNREACHABLE("random op selection fell through the pools");
}

int LockEngine::lockStep(OpKind kind, bool pairMode, support::Rng& rng) {
  RTLOCK_REQUIRE(table_.involutive(), "Algorithm 1 requires an involutive pair table");
  const OpKind partner = table_.dummyFor(kind);
  const int odt = odtValue(kind);

  if (odt > 0 && !pairMode) {
    // Excess of `kind`: wrap one of its ops, adding a partner dummy.
    return lockRandomOpOfKind(kind, rng) ? 1 : 0;
  }
  if (odt < 0 && !pairMode) {
    // Deficiency of `kind`: wrap a partner op, adding a `kind` dummy.
    return lockRandomOpOfKind(partner, rng) ? 1 : 0;
  }

  // Balanced (or pair mode): lock one op of each type.  Select both indices
  // up-front (Algorithm 1 lines 3-4) so the first wrap's dummy cannot be
  // chosen as the second victim.
  auto& kindPool = pool(kind);
  auto& partnerPool = pool(partner);
  const bool haveKind = !kindPool.empty();
  const bool havePartner = !partnerPool.empty();
  if (!haveKind && !havePartner) return 0;
  if (haveKind && havePartner) {
    const auto i = static_cast<std::size_t>(rng.below(kindPool.size()));
    const auto j = static_cast<std::size_t>(rng.below(partnerPool.size()));
    lockOpAt(kind, i, rng.coin());
    lockOpAt(partner, j, rng.coin());
    return 2;
  }
  // Degenerate pair-mode fallback (one side has no operations): lock the
  // side that exists so the step still makes progress (see DESIGN.md).
  const OpKind available = haveKind ? kind : partner;
  return lockRandomOpOfKind(available, rng) ? 1 : 0;
}

std::vector<std::pair<OpKind, std::size_t>> LockEngine::opsInTraversalOrder() const {
  // Map each pool entry to its position so traversal hits can be reported as
  // (kind, position) coordinates.
  std::vector<std::pair<OpKind, std::size_t>> ordered;
  auto* self = const_cast<LockEngine*>(this);
  rtl::forEachExprSlot(self->module_, [&](const ExprSlot& slot) {
    const Expr& node = *slot.get();
    if (node.kind() != ExprKind::Binary) return;
    const OpKind kind = static_cast<const BinaryExpr&>(node).op();
    if (!table_.lockable(kind)) return;
    const auto& entries = pool(kind);
    const auto it = std::find(entries.begin(), entries.end(), slot);
    RTLOCK_REQUIRE(it != entries.end(), "traversal found an unindexed operation");
    ordered.emplace_back(kind, static_cast<std::size_t>(it - entries.begin()));
  });
  return ordered;
}

void LockEngine::undoTo(std::size_t checkpoint) {
  RTLOCK_REQUIRE(checkpoint <= undoStack_.size(), "undo checkpoint is in the future");
  while (undoStack_.size() > checkpoint) {
    const UndoRecord& undo = undoStack_.back();
    const LockRecord undone = records_.back();

    // Remove dummy-branch pool entries (appended last within their pools —
    // LIFO discipline guarantees later locks already popped theirs).
    for (std::uint32_t i = 0; i < undo.dummyAppendCount; ++i) {
      RTLOCK_REQUIRE(!dummyAppendLog_.empty(), "undo expected a logged dummy entry");
      auto& entries = pool(dummyAppendLog_.back());
      RTLOCK_REQUIRE(!entries.empty(), "undo expected a pooled dummy entry");
      entries.pop_back();
      dummyAppendLog_.pop_back();
      --lockableTotal_;
    }

    // Splice the real operation back into the mux's former slot and recycle
    // the mux with its key ref and dummy branch for the next lock to rebuild.
    rtl::ExprPtr& owner = undo.slot.get();
    RTLOCK_REQUIRE(owner->kind() == ExprKind::Ternary, "undo expected a key mux");
    rtl::ExprPtr mux = std::move(owner);
    owner = std::move(static_cast<TernaryExpr&>(*mux).exprSlotAt(undo.realBranchSlot));
    rtl::recycle(std::move(mux));

    pool(undo.realKind)[undo.poolPosition] = undo.slot;
    module_.setKeyWidth(undo.prevKeyWidth);
    if (undo.pairIndex >= 0) {
      touched_[static_cast<std::size_t>(undo.pairIndex)] = undo.pairWasTouched;
    }

    undoStack_.pop_back();
    records_.pop_back();
    if (observer_ != nullptr) observer_->onUndo(undone);
  }
  // A fully unwound stack means one complete lock/undo cycle: the module must
  // be bit-identical in structure to the pre-lock netlist, so re-verify it.
  if (undoStack_.empty()) {
    RTLOCK_DEBUG_VERIFY_IR(module_, "after a completed lock/undo cycle");
  }
}

}  // namespace rtlock::lock
