// Expression tree of the RTL IR.
//
// Expressions are strict trees: every node uniquely owns its children via
// ExprPtr.  Sharing happens through named signals, as in Verilog source.
// Locking transformations splice nodes in place through ExprHolder slots (see
// holder.hpp), which keeps undo trivial and pointer-stable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "rtl/holder.hpp"
#include "rtl/ops.hpp"
#include "support/config.hpp"
#include "support/diagnostics.hpp"

namespace rtlock::rtl {

class Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// Index into a module's signal table.
using SignalId = std::uint32_t;

enum class ExprKind : std::uint8_t {
  Constant,   // sized literal
  SignalRef,  // wire/reg/port read
  KeyRef,     // read of locking-key bits K[first +: width]
  Unary,      // -a ~a !a &a |a ^a
  Binary,     // a <op> b
  Ternary,    // c ? t : f
  Concat,     // {a, b, ...}
  Slice,      // a[hi:lo] (constant bounds)
};

/// Abstract expression node.
class Expr : public ExprHolder {
 public:
  Expr(const Expr&) = delete;
  Expr& operator=(const Expr&) = delete;
  ~Expr() override = default;

  [[nodiscard]] ExprKind kind() const noexcept { return kind_; }

  [[nodiscard]] const Expr* asExpr() const noexcept override { return this; }

  /// Bit width of the value this expression produces (>= 1).
  [[nodiscard]] int width() const noexcept { return width_; }

  /// Deep copy.
  [[nodiscard]] virtual ExprPtr clone() const = 0;

  /// Children double as expression slots (ExprHolder interface).
  [[nodiscard]] const Expr& child(int index) const { return exprAt(index); }

  /// Nodes reuse blocks their thread recycled (see recycle), else the heap.
  static void* operator new(std::size_t size);
  static void operator delete(void* block, std::size_t size) noexcept;

 protected:
  Expr(ExprKind kind, int width) : kind_(kind), width_(width) {
    RTLOCK_REQUIRE(width >= 1, "expressions must be at least one bit wide");
  }

 private:
  ExprKind kind_;
  int width_;
};

/// Sized literal.  Values wider than 64 bits are outside the supported
/// Verilog subset (documented in DESIGN.md); widths up to 64 cover every
/// generator and benchmark in this repository.
class ConstantExpr final : public Expr {
 public:
  ConstantExpr(std::uint64_t value, int width);

  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

  [[nodiscard]] int exprSlotCount() const noexcept override { return 0; }
  [[nodiscard]] ExprPtr& exprSlotAt(int) override;
  [[nodiscard]] ExprPtr clone() const override;

  /// Mask keeping the low `width` bits of a 64-bit word.
  [[nodiscard]] static std::uint64_t maskToWidth(std::uint64_t value, int width) noexcept;

 private:
  std::uint64_t value_;
};

/// Read of a named signal.
class SignalRefExpr final : public Expr {
 public:
  SignalRefExpr(SignalId signal, int width) : Expr(ExprKind::SignalRef, width), signal_(signal) {}

  [[nodiscard]] SignalId signal() const noexcept { return signal_; }

  [[nodiscard]] int exprSlotCount() const noexcept override { return 0; }
  [[nodiscard]] ExprPtr& exprSlotAt(int) override;
  [[nodiscard]] ExprPtr clone() const override;

 private:
  SignalId signal_;
};

/// Read of locking-key bits: K[firstBit +: width].  Operation and branch
/// locking use width 1; constant obfuscation extracts multi-bit chunks.
class KeyRefExpr final : public Expr {
 public:
  KeyRefExpr(int firstBit, int width) : Expr(ExprKind::KeyRef, width), firstBit_(firstBit) {
    RTLOCK_REQUIRE(firstBit >= 0, "key bit indices are non-negative");
  }

  [[nodiscard]] int firstBit() const noexcept { return firstBit_; }

  [[nodiscard]] int exprSlotCount() const noexcept override { return 0; }
  [[nodiscard]] ExprPtr& exprSlotAt(int) override;
  [[nodiscard]] ExprPtr clone() const override;

 private:
  int firstBit_;
};

class UnaryExpr final : public Expr {
 public:
  UnaryExpr(UnaryOp op, ExprPtr operand);

  [[nodiscard]] UnaryOp op() const noexcept { return op_; }
  [[nodiscard]] const Expr& operand() const noexcept { return *operand_; }

  [[nodiscard]] int exprSlotCount() const noexcept override { return 1; }
  [[nodiscard]] ExprPtr& exprSlotAt(int index) override;
  [[nodiscard]] ExprPtr clone() const override;

 private:
  UnaryOp op_;
  ExprPtr operand_;
};

/// Binary operation — the unit of ASSURE operation obfuscation.
class BinaryExpr final : public Expr {
 public:
  BinaryExpr(OpKind op, ExprPtr lhs, ExprPtr rhs);

  [[nodiscard]] OpKind op() const noexcept { return op_; }
  void setOp(OpKind op) noexcept { op_ = op; }
  [[nodiscard]] const Expr& lhs() const noexcept { return *lhs_; }
  [[nodiscard]] const Expr& rhs() const noexcept { return *rhs_; }

  [[nodiscard]] int exprSlotCount() const noexcept override { return 2; }
  [[nodiscard]] ExprPtr& exprSlotAt(int index) override;
  [[nodiscard]] ExprPtr clone() const override;

 private:
  OpKind op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

/// cond ? thenExpr : elseExpr.  Key-conditioned ternaries are the locking
/// multiplexers of Fig. 3 in the paper.
class TernaryExpr final : public Expr {
 public:
  TernaryExpr(ExprPtr cond, ExprPtr thenExpr, ExprPtr elseExpr);

  [[nodiscard]] const Expr& cond() const noexcept { return *cond_; }
  [[nodiscard]] const Expr& thenExpr() const noexcept { return *then_; }
  [[nodiscard]] const Expr& elseExpr() const noexcept { return *else_; }

  /// True when the condition is a single-bit key reference (a locking mux).
  [[nodiscard]] bool isKeyMux() const noexcept;

  /// Slot indices for readers that need to splice branches.
  static constexpr int kCondSlot = 0;
  static constexpr int kThenSlot = 1;
  static constexpr int kElseSlot = 2;

  [[nodiscard]] int exprSlotCount() const noexcept override { return 3; }
  [[nodiscard]] ExprPtr& exprSlotAt(int index) override;
  [[nodiscard]] ExprPtr clone() const override;

 private:
  ExprPtr cond_;
  ExprPtr then_;
  ExprPtr else_;
};

/// {a, b, ...} — width is the sum of the parts, leftmost part lands in the
/// most significant bits.
class ConcatExpr final : public Expr {
 public:
  explicit ConcatExpr(std::vector<ExprPtr> parts);

  [[nodiscard]] int partCount() const noexcept { return static_cast<int>(parts_.size()); }

  [[nodiscard]] int exprSlotCount() const noexcept override { return partCount(); }
  [[nodiscard]] ExprPtr& exprSlotAt(int index) override;
  [[nodiscard]] ExprPtr clone() const override;

 private:
  std::vector<ExprPtr> parts_;
};

/// value[hi:lo] with constant bounds; width = hi - lo + 1.
class SliceExpr final : public Expr {
 public:
  SliceExpr(ExprPtr value, int hi, int lo);

  [[nodiscard]] int hi() const noexcept { return hi_; }
  [[nodiscard]] int lo() const noexcept { return lo_; }
  [[nodiscard]] const Expr& value() const noexcept { return *value_; }

  [[nodiscard]] int exprSlotCount() const noexcept override { return 1; }
  [[nodiscard]] ExprPtr& exprSlotAt(int index) override;
  [[nodiscard]] ExprPtr clone() const override;

 private:
  ExprPtr value_;
  int hi_;
  int lo_;
};

// ---- Factory helpers (compute result widths per ops.hpp rules) ----

[[nodiscard]] ExprPtr makeConstant(std::uint64_t value, int width);
[[nodiscard]] ExprPtr makeSignalRef(SignalId signal, int width);
[[nodiscard]] ExprPtr makeKeyRef(int firstBit, int width = 1);
[[nodiscard]] ExprPtr makeUnary(UnaryOp op, ExprPtr operand);
[[nodiscard]] ExprPtr makeBinary(OpKind op, ExprPtr lhs, ExprPtr rhs);
[[nodiscard]] ExprPtr makeTernary(ExprPtr cond, ExprPtr thenExpr, ExprPtr elseExpr);
[[nodiscard]] ExprPtr makeConcat(std::vector<ExprPtr> parts);
[[nodiscard]] ExprPtr makeSlice(ExprPtr value, int hi, int lo);

/// Structural equality (kind, operator, widths, constants, signal/key ids).
[[nodiscard]] bool structurallyEqual(const Expr& a, const Expr& b) noexcept;

/// Number of nodes in the subtree rooted at `expr`.
[[nodiscard]] int exprSize(const Expr& expr) noexcept;

/// Depth of the subtree (a leaf has depth 1).
[[nodiscard]] int exprDepth(const Expr& expr) noexcept;

/// Free blocks each thread keeps per node size class; none under ASan/TSan,
/// so a recycled block cannot hide a use-after-free on a node.
inline constexpr std::size_t kExprNodeCacheCap = support::kSanitizedBuild ? 0 : 8192;
/// Frees `expr` into the calling thread's free lists, which serve the next
/// nodes that thread builds; plain destruction returns nodes to the heap.
void recycle(ExprPtr expr) noexcept;
/// Node blocks parked in the calling thread's free lists.
[[nodiscard]] std::size_t cachedExprNodes() noexcept;
/// Node blocks returned to the heap by exiting threads, process-wide.
[[nodiscard]] std::size_t exprNodesReleasedAtThreadExit() noexcept;

}  // namespace rtlock::rtl
