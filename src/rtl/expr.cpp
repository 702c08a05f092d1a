#include "rtl/expr.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <new>
#include <numeric>
#include <utility>

namespace rtlock::rtl {

namespace {

[[noreturn]] void badSlot() { RTLOCK_UNREACHABLE("expression slot index out of range"); }

// ---- Node cache ----
//
// One LIFO free list per 8-byte size class per thread (node sizes are
// multiples of the vptr alignment, so a class holds one block size), each
// capped at kExprNodeCacheCap.  Only recycle() parks blocks, so the lists hold
// what a lock/undo loop rebuilds; a design freed whole goes to the heap, which
// packs the next design's nodes tighter than scattered parked blocks would.
// Overflow and an exiting thread's lists go back to the heap as well.

constexpr std::size_t kSizeClasses = 8;  // blocks up to 64 bytes; larger bypass

struct FreeBlock {
  FreeBlock* next;
};

// Trivially destructible, so it stays usable through thread teardown.
struct FreeLists {
  std::array<FreeBlock*, kSizeClasses> head;
  std::array<std::size_t, kSizeClasses> count;
  bool recycling;  // inside recycle()
};
thread_local FreeLists freeLists{};
std::atomic<std::size_t> releasedAtThreadExit{0};

struct ThreadExitRelease {
  ~ThreadExitRelease() {
    for (std::size_t c = 0; c < kSizeClasses; ++c) {
      releasedAtThreadExit.fetch_add(freeLists.count[c], std::memory_order_relaxed);
      while (FreeBlock* block = freeLists.head[c]) {
        freeLists.head[c] = block->next;
        ::operator delete(block);
      }
      freeLists.count[c] = kExprNodeCacheCap;  // recycling later in teardown bypasses
    }
  }
};
thread_local ThreadExitRelease threadExitRelease;

}  // namespace

void* Expr::operator new(std::size_t size) {
  const std::size_t c = (size - 1) / 8;
  if (kExprNodeCacheCap == 0 || c >= kSizeClasses || freeLists.head[c] == nullptr) {
    return ::operator new(size);
  }
  --freeLists.count[c];
  return std::exchange(freeLists.head[c], freeLists.head[c]->next);
}

void Expr::operator delete(void* block, std::size_t size) noexcept {
  const std::size_t c = (size - 1) / 8;
  if (kExprNodeCacheCap == 0 || !freeLists.recycling || c >= kSizeClasses ||
      freeLists.count[c] >= kExprNodeCacheCap) {
    ::operator delete(block);
    return;
  }
  ++freeLists.count[c];
  freeLists.head[c] = ::new (block) FreeBlock{freeLists.head[c]};
}

void recycle(ExprPtr expr) noexcept {
  static_cast<void>(&threadExitRelease);  // registers the thread-exit release
  freeLists.recycling = true;
  expr.reset();
  freeLists.recycling = false;
}

std::size_t cachedExprNodes() noexcept {
  return std::accumulate(freeLists.count.begin(), freeLists.count.end(), std::size_t{0});
}

std::size_t exprNodesReleasedAtThreadExit() noexcept {
  return releasedAtThreadExit.load(std::memory_order_relaxed);
}

// ---- ConstantExpr ----

ConstantExpr::ConstantExpr(std::uint64_t value, int width)
    : Expr(ExprKind::Constant, width), value_(maskToWidth(value, width)) {
  RTLOCK_REQUIRE(width <= 64, "constants wider than 64 bits are outside the supported subset");
}

ExprPtr& ConstantExpr::exprSlotAt(int) { badSlot(); }

ExprPtr ConstantExpr::clone() const { return makeConstant(value_, width()); }

std::uint64_t ConstantExpr::maskToWidth(std::uint64_t value, int width) noexcept {
  if (width >= 64) return value;
  return value & ((std::uint64_t{1} << width) - 1);
}

// ---- SignalRefExpr ----

ExprPtr& SignalRefExpr::exprSlotAt(int) { badSlot(); }

ExprPtr SignalRefExpr::clone() const { return makeSignalRef(signal_, width()); }

// ---- KeyRefExpr ----

ExprPtr& KeyRefExpr::exprSlotAt(int) { badSlot(); }

ExprPtr KeyRefExpr::clone() const { return makeKeyRef(firstBit_, width()); }

// ---- UnaryExpr ----

UnaryExpr::UnaryExpr(UnaryOp op, ExprPtr operand)
    : Expr(ExprKind::Unary, unaryResultWidth(op, operand ? operand->width() : 1)),
      op_(op),
      operand_(std::move(operand)) {
  RTLOCK_REQUIRE(operand_ != nullptr, "unary operand must not be null");
}

ExprPtr& UnaryExpr::exprSlotAt(int index) {
  if (index != 0) badSlot();
  return operand_;
}

ExprPtr UnaryExpr::clone() const { return makeUnary(op_, operand_->clone()); }

// ---- BinaryExpr ----

BinaryExpr::BinaryExpr(OpKind op, ExprPtr lhs, ExprPtr rhs)
    : Expr(ExprKind::Binary,
           resultWidth(op, lhs ? lhs->width() : 1, rhs ? rhs->width() : 1)),
      op_(op),
      lhs_(std::move(lhs)),
      rhs_(std::move(rhs)) {
  RTLOCK_REQUIRE(lhs_ != nullptr && rhs_ != nullptr, "binary operands must not be null");
}

ExprPtr& BinaryExpr::exprSlotAt(int index) {
  if (index == 0) return lhs_;
  if (index == 1) return rhs_;
  badSlot();
}

ExprPtr BinaryExpr::clone() const { return makeBinary(op_, lhs_->clone(), rhs_->clone()); }

// ---- TernaryExpr ----

TernaryExpr::TernaryExpr(ExprPtr cond, ExprPtr thenExpr, ExprPtr elseExpr)
    : Expr(ExprKind::Ternary,
           std::max(thenExpr ? thenExpr->width() : 1, elseExpr ? elseExpr->width() : 1)),
      cond_(std::move(cond)),
      then_(std::move(thenExpr)),
      else_(std::move(elseExpr)) {
  RTLOCK_REQUIRE(cond_ != nullptr && then_ != nullptr && else_ != nullptr,
                 "ternary operands must not be null");
}

bool TernaryExpr::isKeyMux() const noexcept {
  return cond_->kind() == ExprKind::KeyRef && cond_->width() == 1;
}

ExprPtr& TernaryExpr::exprSlotAt(int index) {
  switch (index) {
    case kCondSlot: return cond_;
    case kThenSlot: return then_;
    case kElseSlot: return else_;
    default: badSlot();
  }
}

ExprPtr TernaryExpr::clone() const {
  return makeTernary(cond_->clone(), then_->clone(), else_->clone());
}

// ---- ConcatExpr ----

namespace {
int concatWidth(const std::vector<ExprPtr>& parts) {
  RTLOCK_REQUIRE(!parts.empty(), "concatenation needs at least one part");
  int total = 0;
  for (const auto& part : parts) {
    RTLOCK_REQUIRE(part != nullptr, "concatenation parts must not be null");
    total += part->width();
  }
  return total;
}
}  // namespace

ConcatExpr::ConcatExpr(std::vector<ExprPtr> parts)
    : Expr(ExprKind::Concat, concatWidth(parts)), parts_(std::move(parts)) {}

ExprPtr& ConcatExpr::exprSlotAt(int index) {
  if (index < 0 || index >= partCount()) badSlot();
  return parts_[static_cast<std::size_t>(index)];
}

ExprPtr ConcatExpr::clone() const {
  std::vector<ExprPtr> parts;
  parts.reserve(parts_.size());
  for (const auto& part : parts_) parts.push_back(part->clone());
  return makeConcat(std::move(parts));
}

// ---- SliceExpr ----

SliceExpr::SliceExpr(ExprPtr value, int hi, int lo)
    : Expr(ExprKind::Slice, hi - lo + 1), value_(std::move(value)), hi_(hi), lo_(lo) {
  RTLOCK_REQUIRE(value_ != nullptr, "slice base must not be null");
  RTLOCK_REQUIRE(lo >= 0 && hi >= lo, "slice bounds must satisfy 0 <= lo <= hi");
  RTLOCK_REQUIRE(hi < value_->width(), "slice upper bound exceeds base width");
}

ExprPtr& SliceExpr::exprSlotAt(int index) {
  if (index != 0) badSlot();
  return value_;
}

ExprPtr SliceExpr::clone() const { return makeSlice(value_->clone(), hi_, lo_); }

// ---- Factories ----

ExprPtr makeConstant(std::uint64_t value, int width) {
  return std::make_unique<ConstantExpr>(value, width);
}

ExprPtr makeSignalRef(SignalId signal, int width) {
  return std::make_unique<SignalRefExpr>(signal, width);
}

ExprPtr makeKeyRef(int firstBit, int width) {
  return std::make_unique<KeyRefExpr>(firstBit, width);
}

ExprPtr makeUnary(UnaryOp op, ExprPtr operand) {
  return std::make_unique<UnaryExpr>(op, std::move(operand));
}

ExprPtr makeBinary(OpKind op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_unique<BinaryExpr>(op, std::move(lhs), std::move(rhs));
}

ExprPtr makeTernary(ExprPtr cond, ExprPtr thenExpr, ExprPtr elseExpr) {
  return std::make_unique<TernaryExpr>(std::move(cond), std::move(thenExpr), std::move(elseExpr));
}

ExprPtr makeConcat(std::vector<ExprPtr> parts) {
  return std::make_unique<ConcatExpr>(std::move(parts));
}

ExprPtr makeSlice(ExprPtr value, int hi, int lo) {
  return std::make_unique<SliceExpr>(std::move(value), hi, lo);
}

// ---- Utilities ----

bool structurallyEqual(const Expr& a, const Expr& b) noexcept {
  if (a.kind() != b.kind() || a.width() != b.width()) return false;
  switch (a.kind()) {
    case ExprKind::Constant:
      return static_cast<const ConstantExpr&>(a).value() ==
             static_cast<const ConstantExpr&>(b).value();
    case ExprKind::SignalRef:
      return static_cast<const SignalRefExpr&>(a).signal() ==
             static_cast<const SignalRefExpr&>(b).signal();
    case ExprKind::KeyRef:
      return static_cast<const KeyRefExpr&>(a).firstBit() ==
             static_cast<const KeyRefExpr&>(b).firstBit();
    case ExprKind::Unary:
      if (static_cast<const UnaryExpr&>(a).op() != static_cast<const UnaryExpr&>(b).op()) {
        return false;
      }
      break;
    case ExprKind::Binary:
      if (static_cast<const BinaryExpr&>(a).op() != static_cast<const BinaryExpr&>(b).op()) {
        return false;
      }
      break;
    case ExprKind::Ternary:
    case ExprKind::Concat: break;
    case ExprKind::Slice: {
      const auto& sa = static_cast<const SliceExpr&>(a);
      const auto& sb = static_cast<const SliceExpr&>(b);
      if (sa.hi() != sb.hi() || sa.lo() != sb.lo()) return false;
      break;
    }
  }
  if (a.exprSlotCount() != b.exprSlotCount()) return false;
  for (int i = 0; i < a.exprSlotCount(); ++i) {
    if (!structurallyEqual(a.exprAt(i), b.exprAt(i))) return false;
  }
  return true;
}

int exprSize(const Expr& expr) noexcept {
  int total = 1;
  for (int i = 0; i < expr.exprSlotCount(); ++i) {
    total += exprSize(expr.exprAt(i));
  }
  return total;
}

int exprDepth(const Expr& expr) noexcept {
  int deepest = 0;
  for (int i = 0; i < expr.exprSlotCount(); ++i) {
    deepest = std::max(deepest, exprDepth(expr.exprAt(i)));
  }
  return deepest + 1;
}

}  // namespace rtlock::rtl
