#include "sim/compiler.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/schedule.hpp"

namespace rtlock::sim {

namespace {

using rtl::Expr;
using rtl::ExprKind;
using rtl::OpKind;
using rtl::SignalId;
using rtl::Stmt;
using rtl::StmtKind;

/// Opcode for a binary operator; Gt/Ge lower to Lt/Le with swapped operands,
/// so they have no opcode of their own.
Opcode binaryOpcode(OpKind op) {
  switch (op) {
    case OpKind::Add: return Opcode::Add;
    case OpKind::Sub: return Opcode::Sub;
    case OpKind::Mul: return Opcode::Mul;
    case OpKind::Div: return Opcode::Div;
    case OpKind::Mod: return Opcode::Mod;
    case OpKind::Pow: return Opcode::Pow;
    case OpKind::Shl: return Opcode::Shl;
    case OpKind::Shr:
    case OpKind::AShr: return Opcode::Shr;
    case OpKind::And: return Opcode::And;
    case OpKind::Or: return Opcode::Or;
    case OpKind::Xor: return Opcode::Xor;
    case OpKind::Xnor: return Opcode::Xnor;
    case OpKind::Lt:
    case OpKind::Gt: return Opcode::Lt;
    case OpKind::Le:
    case OpKind::Ge: return Opcode::Le;
    case OpKind::Eq: return Opcode::Eq;
    case OpKind::Ne: return Opcode::Ne;
    case OpKind::LAnd: return Opcode::LAnd;
    case OpKind::LOr: return Opcode::LOr;
  }
  RTLOCK_UNREACHABLE("binary operator");
}

struct CompilerImpl {
  const rtl::Module& module;

  // Program pieces, assembled by Compiler::compileSliced at the end.
  std::vector<Slot> slots;
  std::vector<ConstantInit> constants;
  std::vector<std::int32_t> signalSlots;
  std::vector<Instr> combTape;
  std::vector<SequentialTape> seqTapes;
  std::vector<KeyBinding> keyBindings;
  std::vector<rtl::SignalId> clocks;

  std::map<std::pair<std::uint64_t, int>, std::int32_t> constSlots;
  std::map<std::pair<int, int>, std::int32_t> keySlots;
  std::unordered_map<SignalId, std::int32_t> shadowSlots;

  // Lowering context: the tape being emitted, and (for sequential tapes)
  // whether assignments are non-blocking plus the set of written signals.
  std::vector<Instr>* tape = nullptr;
  bool nonBlocking = false;
  std::set<SignalId>* seqWrites = nullptr;
  // 1-bit slot guarding the statements being lowered, or -1 at top level
  // (store unconditionally).
  std::int32_t pred = -1;

  explicit CompilerImpl(const rtl::Module& m) : module(m) {}

  [[nodiscard]] std::int32_t addSlot(int width) {
    const auto id = static_cast<std::int32_t>(slots.size());
    slots.push_back({width});
    return id;
  }

  [[nodiscard]] const Slot& slot(std::int32_t id) const {
    return slots[static_cast<std::size_t>(id)];
  }

  [[nodiscard]] std::int32_t constSlot(std::uint64_t value, int width) {
    const std::uint64_t canonical = width < 64 ? (value & narrowMask(width)) : value;
    const auto [it, inserted] = constSlots.try_emplace({canonical, width}, 0);
    if (inserted) {
      it->second = addSlot(width);
      constants.push_back({it->second, canonical});
    }
    return it->second;
  }

  [[nodiscard]] std::int32_t keySlot(int firstBit, int width) {
    RTLOCK_REQUIRE(firstBit + width <= module.keyWidth(), "key reference exceeds key width");
    const auto [it, inserted] = keySlots.try_emplace({firstBit, width}, 0);
    if (inserted) {
      it->second = addSlot(width);
      keyBindings.push_back({firstBit, width, it->second});
    }
    return it->second;
  }

  [[nodiscard]] std::int32_t shadowSlot(SignalId signal) {
    const auto [it, inserted] = shadowSlots.try_emplace(signal, 0);
    if (inserted) it->second = addSlot(module.signal(signal).width);
    return it->second;
  }

  void emit(Opcode op, std::int32_t dst, std::int32_t a, std::int32_t b = 0,
            std::int32_t c = 0) {
    tape->push_back({op, dst, a, b, c});
  }

  /// Reduces a slot to a 1-bit "is non-zero" slot, the only condition shape
  /// Select/predication accept (lane masks live in plane 0).
  [[nodiscard]] std::int32_t boolSlot(std::int32_t slotId) {
    if (slot(slotId).width == 1) return slotId;
    const std::int32_t reduced = addSlot(1);
    emit(Opcode::RedOr, reduced, slotId);
    return reduced;
  }

  /// 1-bit slot holding `a & b`, where either may be -1 (true).
  [[nodiscard]] std::int32_t andPred(std::int32_t a, std::int32_t b) {
    if (a < 0) return b;
    if (b < 0) return a;
    const std::int32_t both = addSlot(1);
    emit(Opcode::And, both, a, b);
    return both;
  }

  /// 1-bit slot holding `!a`.
  [[nodiscard]] std::int32_t notPred(std::int32_t a) {
    const std::int32_t inverted = addSlot(1);
    emit(Opcode::LogNot, inverted, a);
    return inverted;
  }

  // ---- expressions ------------------------------------------------------

  /// Lowers `expr`; returns the slot holding its value.
  [[nodiscard]] std::int32_t lowerExpr(const Expr& expr) {
    const int width = expr.width();
    switch (expr.kind()) {
      case ExprKind::Constant:
        return constSlot(static_cast<const rtl::ConstantExpr&>(expr).value(), width);
      case ExprKind::SignalRef:
        return signalSlots[static_cast<const rtl::SignalRefExpr&>(expr).signal()];
      case ExprKind::KeyRef: {
        const auto& key = static_cast<const rtl::KeyRefExpr&>(expr);
        return keySlot(key.firstBit(), key.width());
      }
      case ExprKind::Unary: return lowerUnary(static_cast<const rtl::UnaryExpr&>(expr));
      case ExprKind::Binary: return lowerBinary(static_cast<const rtl::BinaryExpr&>(expr));
      case ExprKind::Ternary: return lowerTernary(static_cast<const rtl::TernaryExpr&>(expr));
      case ExprKind::Concat: return lowerConcat(expr);
      case ExprKind::Slice: return lowerSlice(static_cast<const rtl::SliceExpr&>(expr));
    }
    RTLOCK_UNREACHABLE("expression kind");
  }

  [[nodiscard]] std::int32_t lowerUnary(const rtl::UnaryExpr& expr) {
    const std::int32_t operand = lowerExpr(expr.operand());
    const std::int32_t dst = addSlot(expr.width());
    switch (expr.op()) {
      case rtl::UnaryOp::Neg: emit(Opcode::Neg, dst, operand); break;
      case rtl::UnaryOp::BitNot: emit(Opcode::Not, dst, operand); break;
      case rtl::UnaryOp::LogNot: emit(Opcode::LogNot, dst, operand); break;
      case rtl::UnaryOp::RedAnd: emit(Opcode::RedAnd, dst, operand); break;
      case rtl::UnaryOp::RedOr: emit(Opcode::RedOr, dst, operand); break;
      case rtl::UnaryOp::RedXor: emit(Opcode::RedXor, dst, operand); break;
    }
    return dst;
  }

  [[nodiscard]] std::int32_t lowerBinary(const rtl::BinaryExpr& expr) {
    const OpKind op = expr.op();
    // Shifts by a constant amount are pure plane relabelings — lower them to
    // ShlConst / SliceLow so the executor never has to leave the bitwise
    // domain for the (overwhelmingly common) fixed-shift case.
    if ((op == OpKind::Shl || op == OpKind::Shr || op == OpKind::AShr) &&
        expr.rhs().kind() == ExprKind::Constant) {
      const std::uint64_t amount = static_cast<const rtl::ConstantExpr&>(expr.rhs()).value();
      const std::int32_t operand = lowerExpr(expr.lhs());
      const int width = expr.width();
      const std::int32_t dst = addSlot(width);
      // Clamp to the width that already zeroes everything; keeps int32 safe.
      const auto clamped = static_cast<std::int32_t>(
          std::min<std::uint64_t>(amount, static_cast<std::uint64_t>(slot(operand).width)));
      if (op == OpKind::Shl) {
        emit(Opcode::ShlConst, dst, operand, clamped);
      } else {
        emit(Opcode::SliceLow, dst, operand, clamped);
      }
      return dst;
    }
    std::int32_t lhs = lowerExpr(expr.lhs());
    std::int32_t rhs = lowerExpr(expr.rhs());
    const std::int32_t dst = addSlot(expr.width());
    // Gt/Ge are Lt/Le with the operands swapped.
    if (op == OpKind::Gt || op == OpKind::Ge) std::swap(lhs, rhs);
    emit(binaryOpcode(op), dst, lhs, rhs);
    return dst;
  }

  [[nodiscard]] std::int32_t lowerTernary(const rtl::TernaryExpr& expr) {
    const std::int32_t cond = lowerExpr(expr.cond());
    const std::int32_t thenSlot = lowerExpr(expr.thenExpr());
    const std::int32_t elseSlot = lowerExpr(expr.elseExpr());
    const std::int32_t dst = addSlot(expr.width());
    emit(Opcode::Select, dst, boolSlot(cond), thenSlot, elseSlot);
    return dst;
  }

  [[nodiscard]] std::int32_t lowerConcat(const Expr& expr) {
    std::vector<std::int32_t> parts;
    parts.reserve(static_cast<std::size_t>(expr.exprSlotCount()));
    for (int i = 0; i < expr.exprSlotCount(); ++i) parts.push_back(lowerExpr(expr.exprAt(i)));
    if (parts.size() == 1) return parts.front();

    // Fold left: acc = {acc, part}; parts[0] is most significant.
    std::int32_t acc = parts.front();
    int accWidth = slot(acc).width;
    for (std::size_t i = 1; i < parts.size(); ++i) {
      const int partWidth = slot(parts[i]).width;
      accWidth += partWidth;
      const std::int32_t next = addSlot(accWidth);
      emit(Opcode::ConcatPair, next, acc, parts[i], partWidth);
      acc = next;
    }
    return acc;
  }

  [[nodiscard]] std::int32_t lowerSlice(const rtl::SliceExpr& expr) {
    const std::int32_t value = lowerExpr(expr.value());
    RTLOCK_REQUIRE(expr.lo() >= 0 && expr.hi() >= expr.lo() && expr.hi() < slot(value).width,
                   "slice bounds out of range");
    const std::int32_t dst = addSlot(expr.width());
    emit(Opcode::SliceLow, dst, value, expr.lo());
    return dst;
  }

  // ---- statements -------------------------------------------------------

  /// Lanes where `pred` is 0 must keep the old target bits, so a guarded
  /// store blends through Select (whose else operand may alias the
  /// destination — the kernel reads each plane before writing it).
  void emitStore(const rtl::LValue& lvalue, std::int32_t value) {
    const int signalWidth = module.signal(lvalue.signal).width;
    if (nonBlocking) seqWrites->insert(lvalue.signal);
    const std::int32_t target =
        nonBlocking ? shadowSlot(lvalue.signal) : signalSlots[lvalue.signal];
    if (lvalue.wholeSignal()) {
      if (pred < 0) {
        emit(Opcode::Copy, target, value);
      } else {
        emit(Opcode::Select, target, pred, value, target);
      }
      return;
    }
    const auto [hi, lo] = *lvalue.range;
    RTLOCK_REQUIRE(lo >= 0 && hi >= lo && hi < signalWidth, "lvalue slice out of range");
    const int sliceWidth = hi - lo + 1;
    std::int32_t inserted = value;
    if (pred >= 0) {
      const std::int32_t oldBits = addSlot(sliceWidth);
      emit(Opcode::SliceLow, oldBits, target, lo);
      const std::int32_t blended = addSlot(sliceWidth);
      emit(Opcode::Select, blended, pred, value, oldBits);
      inserted = blended;
    }
    emit(Opcode::Insert, target, inserted, lo, sliceWidth);
  }

  void lowerStmt(const Stmt& stmt) {
    switch (stmt.kind()) {
      case StmtKind::Block: {
        for (int i = 0; i < stmt.stmtSlotCount(); ++i) lowerStmt(stmt.stmtAt(i));
        break;
      }
      case StmtKind::If: {
        // If-conversion: both arms always execute, their stores guarded by
        // pred & cond (then) and pred & !cond (else).
        const auto& ifStmt = static_cast<const rtl::IfStmt&>(stmt);
        const std::int32_t cond = boolSlot(lowerExpr(ifStmt.cond()));
        const std::int32_t saved = pred;
        pred = andPred(saved, cond);
        lowerStmt(ifStmt.stmtAt(0));
        if (ifStmt.hasElse()) {
          pred = andPred(saved, notPred(cond));
          lowerStmt(ifStmt.stmtAt(1));
        }
        pred = saved;
        break;
      }
      case StmtKind::Case: lowerCase(static_cast<const rtl::CaseStmt&>(stmt)); break;
      case StmtKind::Assign: {
        const auto& assign = static_cast<const rtl::AssignStmt&>(stmt);
        RTLOCK_REQUIRE(assign.nonBlocking() == nonBlocking,
                       nonBlocking ? "blocking assignment inside sequential process"
                                   : "non-blocking assignment inside combinational process");
        emitStore(assign.target(), lowerExpr(assign.value()));
        break;
      }
    }
  }

  /// Every case body executes under the predicate
  /// `pred & match_i & !anyEarlierMatch` — the same low-64-bit, first-match-
  /// wins dispatch as the interpreter, expressed as lane masks.  The per-item
  /// predicates are pairwise disjoint, so body order does not matter for the
  /// masked stores.
  void lowerCase(const rtl::CaseStmt& caseStmt) {
    std::int32_t subject = lowerExpr(caseStmt.subject());
    if (slot(subject).width > 64) {
      // Labels are raw 64-bit values; match the interpreter's toUint64().
      const std::int32_t low = addSlot(64);
      emit(Opcode::SliceLow, low, subject, 0);
      subject = low;
    }
    const std::int32_t saved = pred;
    std::int32_t anyMatch = -1;  // 1-bit slot, -1 = no item lowered yet
    const std::size_t itemCount = caseStmt.items().size();
    for (std::size_t i = 0; i < itemCount; ++i) {
      std::int32_t match = -1;
      for (const std::uint64_t label : caseStmt.items()[i].labels) {
        const std::int32_t equal = addSlot(1);
        emit(Opcode::Eq, equal, subject, constSlot(label, 64));
        if (match < 0) {
          match = equal;
        } else {
          const std::int32_t either = addSlot(1);
          emit(Opcode::Or, either, match, equal);
          match = either;
        }
      }
      if (match < 0) continue;  // no labels: body can never run
      std::int32_t taken = match;
      if (anyMatch >= 0) taken = andPred(taken, notPred(anyMatch));
      pred = andPred(saved, taken);
      lowerStmt(caseStmt.stmtAt(static_cast<int>(i)));
      if (anyMatch < 0) {
        anyMatch = match;
      } else {
        const std::int32_t either = addSlot(1);
        emit(Opcode::Or, either, anyMatch, match);
        anyMatch = either;
      }
    }
    if (caseStmt.hasDefault()) {
      pred = anyMatch < 0 ? saved : andPred(saved, notPred(anyMatch));
      lowerStmt(caseStmt.stmtAt(static_cast<int>(itemCount)));
    }
    pred = saved;
  }

  // ---- top level --------------------------------------------------------

  void run(const Schedule& schedule) {
    signalSlots.reserve(module.signalCount());
    for (SignalId id = 0; id < module.signalCount(); ++id) {
      signalSlots.push_back(addSlot(module.signal(id).width));
    }

    tape = &combTape;
    nonBlocking = false;
    for (const ScheduleUnit& unit : schedule.comb) {
      if (unit.assign != nullptr) {
        emitStore(unit.assign->target(), lowerExpr(unit.assign->value()));
      } else {
        lowerStmt(*unit.process->body);
      }
    }

    clocks = schedule.clocks;
    for (const SequentialGroup& group : schedule.sequential) {
      SequentialTape seq;
      seq.clock = group.clock;
      std::set<SignalId> writes;
      tape = &seq.tape;
      nonBlocking = true;
      seqWrites = &writes;
      for (const rtl::Process* process : group.processes) lowerStmt(*process->body);
      nonBlocking = false;
      seqWrites = nullptr;
      for (const SignalId signal : writes) {
        seq.shadows.push_back({signalSlots[signal], shadowSlot(signal)});
      }
      seqTapes.push_back(std::move(seq));
    }
    tape = nullptr;
  }
};

}  // namespace

Program Compiler::compileSliced(const rtl::Module& module) {
  const Schedule schedule = buildSchedule(module);
  CompilerImpl impl{module};
  impl.run(schedule);

  Program program;
  program.slots_ = std::move(impl.slots);
  program.constants_ = std::move(impl.constants);
  program.signalSlots_ = std::move(impl.signalSlots);
  program.combTape_ = std::move(impl.combTape);
  program.seqTapes_ = std::move(impl.seqTapes);
  program.keyBindings_ = std::move(impl.keyBindings);
  program.clocks_ = std::move(impl.clocks);
  program.keyWidth_ = module.keyWidth();
  return program;
}

}  // namespace rtlock::sim
