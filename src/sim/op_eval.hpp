// Operator semantics shared by both simulation backends.
//
// The reference interpreter applies these directly while walking the
// expression tree; the sliced tape calls evalBinaryOp from its per-lane
// fallback for arithmetic on operands wider than 64 bits, so a single
// definition fixes the semantics of those operators for both.
#pragma once

#include "rtl/ops.hpp"
#include "sim/bitvector.hpp"

namespace rtlock::sim {

/// Result of `lhs <op> rhs` truncated/extended to `width` bits.  Unsigned
/// semantics throughout: >>> behaves as logical shift (signed nets are
/// outside the subset).
[[nodiscard]] BitVector evalBinaryOp(rtl::OpKind op, const BitVector& lhs, const BitVector& rhs,
                                     int width);

/// Result of the unary operator applied to `operand` at `width` bits.
[[nodiscard]] BitVector evalUnaryOp(rtl::UnaryOp op, const BitVector& operand, int width);

}  // namespace rtlock::sim
