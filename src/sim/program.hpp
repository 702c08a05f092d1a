// Flat bytecode representation of a compiled module (the fast sim backend).
//
// A Program is an immutable compilation artifact: a slot table plus jump-free
// instruction tapes in the bit-sliced encoding executed by sim::SlicedSim.
// Every signal, constant, key slice and expression temporary owns a *slot*
// of a fixed width; instruction operands are slot ids, and the executor reads
// operand widths from the slot table, so one opcode covers every width.
//
// Tapes:
//  * one combinational tape — the levelized schedule lowered in order, with
//    if/case if-converted: every store is masked by a 1-bit predicate slot;
//  * one sequential tape per clock — non-blocking assignments store into
//    shadow slots that are double-buffered against the live signal slots by
//    the executor (copy-in before the tape, commit after), so all right-hand
//    sides observe the pre-edge state.
//
// Programs are produced by sim::Compiler::compileSliced; one Program can back
// any number of concurrently running SlicedSim instances (each owns its own
// arena).
#pragma once

#include <cstdint>
#include <vector>

#include "rtl/module.hpp"

namespace rtlock::sim {

enum class Opcode : std::uint8_t {
  // dst/a/b/c are slot ids unless noted; results are truncated or
  // zero-extended to the destination slot's width.
  Copy,        // dst = a
  Add,         // dst = a + b
  Sub,         // dst = a - b
  Mul,         // dst = a * b
  Div,         // dst = b == 0 ? all ones : a / b
  Mod,         // dst = b == 0 ? all ones : a % b
  Pow,         // dst = pow(a, b)
  Shl,         // dst = b >= width(dst) ? 0 : a << b
  Shr,         // dst = b >= width(a) ? 0 : a >> b
  And,         // dst = a & b
  Or,          // dst = a | b
  Xor,         // dst = a ^ b
  Xnor,        // dst = ~(a ^ b)
  Lt,          // dst = a < b
  Le,          // dst = a <= b
  Eq,          // dst = a == b
  Ne,          // dst = a != b
  LAnd,        // dst = (a != 0) && (b != 0)
  LOr,         // dst = (a != 0) || (b != 0)
  Neg,         // dst = -a
  Not,         // dst = ~a
  LogNot,      // dst = a == 0
  RedAnd,      // dst = &a
  RedOr,       // dst = a != 0
  RedXor,      // dst = ^a
  Select,      // a is a 1-bit slot; dst = a ? b : c (c may alias dst)
  SliceLow,    // b = lo; dst = a >> lo
  ShlConst,    // b = amount; dst = a << b
  ConcatPair,  // c = width of b; dst = {a, b}
  Insert,      // b = lo, c = slice width m; dst = dst with bits [lo, lo+m) := a
};

/// One fixed-size tape entry.
struct Instr {
  Opcode op = Opcode::Copy;
  std::int32_t dst = 0;
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int32_t c = 0;
};

/// One value in the arena.
struct Slot {
  std::int32_t width = 1;
};

/// A constant baked into the initial arena image (bits above 64 are zero).
struct ConstantInit {
  std::int32_t slot = 0;
  std::uint64_t value = 0;
};

/// A key-bit slice referenced by the module; the executor materialises the
/// slice into `slot` whenever the key changes (zero per-cycle cost).
struct KeyBinding {
  int firstBit = 0;
  int width = 1;
  std::int32_t slot = 0;
};

/// Copy directive committing a shadow slot back into its live signal slot
/// (and seeding the shadow from the live value before a sequential tape).
struct ShadowCopy {
  std::int32_t liveSlot = 0;
  std::int32_t shadowSlot = 0;
};

/// Sequential tape for one clock.
struct SequentialTape {
  rtl::SignalId clock = 0;
  std::vector<Instr> tape;
  std::vector<ShadowCopy> shadows;
};

class Program {
 public:
  [[nodiscard]] const std::vector<Slot>& slots() const noexcept { return slots_; }
  [[nodiscard]] const std::vector<ConstantInit>& constants() const noexcept {
    return constants_;
  }
  [[nodiscard]] std::int32_t signalSlotId(rtl::SignalId signal) const {
    return signalSlots_.at(signal);
  }
  [[nodiscard]] const std::vector<Instr>& combTape() const noexcept { return combTape_; }
  [[nodiscard]] const std::vector<SequentialTape>& sequentialTapes() const noexcept {
    return seqTapes_;
  }
  [[nodiscard]] const std::vector<KeyBinding>& keyBindings() const noexcept {
    return keyBindings_;
  }
  [[nodiscard]] int keyWidth() const noexcept { return keyWidth_; }
  [[nodiscard]] const std::vector<rtl::SignalId>& clocks() const noexcept { return clocks_; }

  /// Total tape length across the combinational and sequential tapes.
  [[nodiscard]] std::size_t instructionCount() const noexcept;

 private:
  friend class Compiler;

  std::vector<Slot> slots_;
  std::vector<ConstantInit> constants_;
  std::vector<std::int32_t> signalSlots_;  // SignalId -> slot id
  std::vector<Instr> combTape_;
  std::vector<SequentialTape> seqTapes_;
  std::vector<KeyBinding> keyBindings_;
  std::vector<rtl::SignalId> clocks_;
  int keyWidth_ = 0;
};

/// Mask keeping the low `width` bits of a word; `width` must be in [1, 64].
[[nodiscard]] inline std::uint64_t narrowMask(int width) noexcept {
  return ~std::uint64_t{0} >> (64 - width);
}

}  // namespace rtlock::sim
