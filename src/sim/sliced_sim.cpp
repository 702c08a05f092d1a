#include "sim/sliced_sim.hpp"

#include <algorithm>

#include "sim/compiler.hpp"
#include "sim/op_eval.hpp"

namespace rtlock::sim {

namespace detail {

void transpose64(std::uint64_t m[64]) noexcept {
  // Hacker's Delight 7-3 block transpose.  The textbook routine transposes
  // about the anti-diagonal under LSB-first bit numbering; reversing the
  // rows on the way in and out turns that into the plain transpose
  // (out[i] bit j == in[j] bit i) that the plane<->lane conversions need.
  std::reverse(m, m + 64);
  std::uint64_t mask = 0x00000000FFFFFFFFULL;
  for (int j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (int k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = (m[k] ^ (m[k + j] >> j)) & mask;
      m[k] ^= t;
      m[k + j] ^= t << j;
    }
  }
  std::reverse(m, m + 64);
}

}  // namespace detail

namespace {

using u64 = std::uint64_t;

u64 powU64(u64 base, u64 exponent) noexcept {
  // Square-and-multiply modulo 2^64 (same semantics as BitVector::pow).
  u64 value = 1;
  while (exponent != 0) {
    if ((exponent & 1) != 0) value *= base;
    base *= base;
    exponent >>= 1;
  }
  return value;
}

/// Plane b of a slot, zero-extended past the slot's width.
inline u64 planeOr0(const u64* planes, int width, int b) noexcept {
  return b < width ? planes[b] : 0;
}

/// OpKind equivalent of a lane-fallback opcode (for the wide BitVector path).
rtl::OpKind fallbackOpKind(Opcode op) {
  switch (op) {
    case Opcode::Mul: return rtl::OpKind::Mul;
    case Opcode::Div: return rtl::OpKind::Div;
    case Opcode::Mod: return rtl::OpKind::Mod;
    case Opcode::Pow: return rtl::OpKind::Pow;
    case Opcode::Shl: return rtl::OpKind::Shl;
    case Opcode::Shr: return rtl::OpKind::Shr;
    default: break;
  }
  RTLOCK_UNREACHABLE("lane-fallback opcode");
}

}  // namespace

SlicedSim::SlicedSim(const rtl::Module& module)
    : SlicedSim(std::make_shared<const Program>(Compiler::compileSliced(module))) {}

SlicedSim::SlicedSim(std::shared_ptr<const Program> program) : program_(std::move(program)) {
  // Plane arena layout: one plane per bit of every slot, in slot order.
  planeBase_.reserve(program_->slots().size());
  std::int32_t next = 0;
  for (const Slot& slot : program_->slots()) {
    planeBase_.push_back(next);
    next += slot.width;
  }

  // Broadcast the constants (signals and key planes start zero): a set
  // constant bit is set in every lane.
  initialPlanes_.assign(static_cast<std::size_t>(next), 0);
  for (const ConstantInit& constant : program_->constants()) {
    const auto id = static_cast<std::size_t>(constant.slot);
    const int width = std::min(program_->slots()[id].width, 64);
    u64* planes = &initialPlanes_[static_cast<std::size_t>(planeBase_[id])];
    for (int b = 0; b < width; ++b) planes[b] = ((constant.value >> b) & 1) != 0 ? ~u64{0} : 0;
  }
  planes_ = initialPlanes_;
}

void SlicedSim::reset() { planes_ = initialPlanes_; }

void SlicedSim::setValue(rtl::SignalId signal, const BitVector& value) {
  const std::int32_t id = program_->signalSlotId(signal);
  const int width = program_->slots()[static_cast<std::size_t>(id)].width;
  const BitVector v = value.width() == width ? value : value.resized(width);
  u64* planes = planesOf(id);
  for (int b = 0; b < width; ++b) planes[b] = v.bit(b) ? ~u64{0} : 0;
}

void SlicedSim::setLaneValues(rtl::SignalId signal, std::span<const BitVector> values) {
  RTLOCK_REQUIRE(values.size() <= static_cast<std::size_t>(kLanes),
                 "at most 64 lanes per sliced arena");
  const std::int32_t id = program_->signalSlotId(signal);
  const int width = program_->slots()[static_cast<std::size_t>(id)].width;
  u64* planes = planesOf(id);
  if (width <= 64) {
    u64 lanes[kLanes] = {};
    for (std::size_t l = 0; l < values.size(); ++l) {
      lanes[l] = values[l].toUint64() & narrowMask(width);
    }
    detail::transpose64(lanes);
    std::copy_n(lanes, width, planes);
    return;
  }
  // Wide ports: transpose one 64-bit word chunk at a time.
  for (int chunk = 0; chunk * 64 < width; ++chunk) {
    const int lo = chunk * 64;
    const int hi = std::min(width - 1, lo + 63);
    u64 lanes[kLanes] = {};
    for (std::size_t l = 0; l < values.size(); ++l) {
      const BitVector& value = values[l];
      if (lo >= value.width()) continue;
      lanes[l] = value.slice(std::min(hi, value.width() - 1), lo).toUint64();
    }
    detail::transpose64(lanes);
    std::copy_n(lanes, hi - lo + 1, planes + lo);
  }
}

BitVector SlicedSim::laneValue(rtl::SignalId signal, int lane) const {
  return gatherLane(program_->signalSlotId(signal), lane);
}

void SlicedSim::setKey(const BitVector& key) {
  RTLOCK_REQUIRE(program_->keyWidth() > 0, "module has no key input");
  const BitVector k = key.resized(program_->keyWidth());
  for (const KeyBinding& binding : program_->keyBindings()) {
    u64* planes = planesOf(binding.slot);
    for (int b = 0; b < binding.width; ++b) {
      planes[b] = k.bit(binding.firstBit + b) ? ~u64{0} : 0;
    }
  }
}

void SlicedSim::setKeys(std::span<const BitVector> keys) {
  RTLOCK_REQUIRE(program_->keyWidth() > 0, "module has no key input");
  RTLOCK_REQUIRE(keys.size() <= static_cast<std::size_t>(kLanes),
                 "at most 64 lanes per sliced arena");
  for (const BitVector& key : keys) {
    RTLOCK_REQUIRE(key.width() == program_->keyWidth(), "key width mismatch");
  }
  for (const KeyBinding& binding : program_->keyBindings()) {
    u64* planes = planesOf(binding.slot);
    for (int b = 0; b < binding.width; ++b) {
      u64 plane = 0;
      for (std::size_t l = 0; l < keys.size(); ++l) {
        plane |= static_cast<u64>(keys[l].bit(binding.firstBit + b) ? 1 : 0) << l;
      }
      planes[b] = plane;
    }
  }
}

void SlicedSim::setKeys(std::span<const BitVector> keys, std::span<const u64> laneMasks) {
  RTLOCK_REQUIRE(program_->keyWidth() > 0, "module has no key input");
  RTLOCK_REQUIRE(keys.size() == laneMasks.size(), "one lane mask per key");
  for (const BitVector& key : keys) {
    RTLOCK_REQUIRE(key.width() == program_->keyWidth(), "key width mismatch");
  }
  for (const KeyBinding& binding : program_->keyBindings()) {
    u64* planes = planesOf(binding.slot);
    for (int b = 0; b < binding.width; ++b) {
      u64 plane = 0;
      for (std::size_t k = 0; k < keys.size(); ++k) {
        if (keys[k].bit(binding.firstBit + b)) plane |= laneMasks[k];
      }
      planes[b] = plane;
    }
  }
}

void SlicedSim::settle() { exec(program_->combTape()); }

void SlicedSim::clockEdge(rtl::SignalId clock) {
  for (const SequentialTape& seq : program_->sequentialTapes()) {
    if (seq.clock != clock) continue;
    // Seed the shadows from the live planes, run, then commit.
    for (const ShadowCopy& copy : seq.shadows) {
      const int width = program_->slots()[static_cast<std::size_t>(copy.liveSlot)].width;
      std::copy_n(planesOf(copy.liveSlot), width, planesOf(copy.shadowSlot));
    }
    exec(seq.tape);
    for (const ShadowCopy& copy : seq.shadows) {
      const int width = program_->slots()[static_cast<std::size_t>(copy.liveSlot)].width;
      std::copy_n(planesOf(copy.shadowSlot), width, planesOf(copy.liveSlot));
    }
  }
  settle();
}

void SlicedSim::loadLanes(std::int32_t slotId, u64 out[kLanes]) const {
  const int width = program_->slots()[static_cast<std::size_t>(slotId)].width;
  const u64* planes = planesOf(slotId);
  std::copy_n(planes, width, out);
  std::fill(out + width, out + kLanes, 0);
  detail::transpose64(out);
}

BitVector SlicedSim::gatherLane(std::int32_t slotId, int lane) const {
  const Slot& slot = program_->slots()[static_cast<std::size_t>(slotId)];
  const u64* planes = planesOf(slotId);
  std::vector<u64> words(static_cast<std::size_t>(BitVector::wordCountFor(slot.width)), 0);
  for (int b = 0; b < slot.width; ++b) {
    words[static_cast<std::size_t>(b >> 6)] |= ((planes[b] >> lane) & 1) << (b & 63);
  }
  return BitVector::fromWords(words.data(), slot.width);
}

void SlicedSim::scatterLane(std::int32_t slotId, int lane, const BitVector& value) {
  const Slot& slot = program_->slots()[static_cast<std::size_t>(slotId)];
  u64* planes = planesOf(slotId);
  const u64 laneBit = u64{1} << lane;
  for (int b = 0; b < slot.width; ++b) {
    planes[b] = value.bit(b) ? (planes[b] | laneBit) : (planes[b] & ~laneBit);
  }
}

void SlicedSim::laneFallback(const Instr& in) {
  const std::vector<Slot>& slots = program_->slots();
  const int wd = slots[static_cast<std::size_t>(in.dst)].width;
  const int wa = slots[static_cast<std::size_t>(in.a)].width;
  const int wb = slots[static_cast<std::size_t>(in.b)].width;
  if (wd <= 64 && wa <= 64 && wb <= 64) {
    // Transpose to lanes, apply the scalar narrow semantics per lane,
    // transpose back: ~3 transposes buy 64 lanes of a non-bitwise op.
    u64 la[kLanes];
    u64 lb[kLanes];
    u64 out[kLanes];
    loadLanes(in.a, la);
    loadLanes(in.b, lb);
    const u64 mask = narrowMask(wd);
    for (int l = 0; l < kLanes; ++l) {
      const u64 a = la[l];
      const u64 b = lb[l];
      switch (in.op) {
        case Opcode::Mul: out[l] = (a * b) & mask; break;
        case Opcode::Div: out[l] = b == 0 ? mask : (a / b) & mask; break;
        case Opcode::Mod: out[l] = b == 0 ? mask : (a % b) & mask; break;
        case Opcode::Pow: out[l] = powU64(a, b) & mask; break;
        case Opcode::Shl: out[l] = b >= static_cast<u64>(wd) ? 0 : (a << b) & mask; break;
        case Opcode::Shr: out[l] = b >= static_cast<u64>(wa) ? 0 : (a >> b) & mask; break;
        default: RTLOCK_UNREACHABLE("lane-fallback opcode");
      }
    }
    detail::transpose64(out);
    std::copy_n(out, wd, planesOf(in.dst));
    return;
  }
  // Wide operands: per-lane BitVector evaluation via the operator semantics
  // the interpreter shares.
  const rtl::OpKind kind = fallbackOpKind(in.op);
  for (int l = 0; l < kLanes; ++l) {
    scatterLane(in.dst, l, evalBinaryOp(kind, gatherLane(in.a, l), gatherLane(in.b, l), wd));
  }
}

void SlicedSim::exec(const std::vector<Instr>& tape) {
  const std::vector<Slot>& slots = program_->slots();
  const std::int32_t* base = planeBase_.data();
  u64* const arena = planes_.data();
  const auto planes = [&](std::int32_t id) -> u64* {
    return arena + base[static_cast<std::size_t>(id)];
  };
  const auto width = [&](std::int32_t id) -> int {
    return slots[static_cast<std::size_t>(id)].width;
  };
  // "Is any bit set" lane mask of a slot.
  const auto nonZero = [&](std::int32_t id) -> u64 {
    const u64* p = planes(id);
    const int w = width(id);
    u64 any = 0;
    for (int i = 0; i < w; ++i) any |= p[i];
    return any;
  };

  for (const Instr& in : tape) {
    switch (in.op) {
      case Opcode::Copy: {
        u64* d = planes(in.dst);
        const u64* a = planes(in.a);
        const int wd = width(in.dst);
        const int wa = width(in.a);
        for (int i = 0; i < wd; ++i) d[i] = planeOr0(a, wa, i);
        break;
      }
      case Opcode::Add: {
        u64* d = planes(in.dst);
        const u64* a = planes(in.a);
        const u64* b = planes(in.b);
        const int wd = width(in.dst);
        const int wa = width(in.a);
        const int wb = width(in.b);
        u64 carry = 0;
        for (int i = 0; i < wd; ++i) {
          const u64 x = planeOr0(a, wa, i);
          const u64 y = planeOr0(b, wb, i);
          d[i] = x ^ y ^ carry;
          carry = (x & y) | ((x ^ y) & carry);
        }
        break;
      }
      case Opcode::Sub:
      case Opcode::Neg: {
        // Neg is 0 - a: same borrow ripple with a zero minuend.
        u64* d = planes(in.dst);
        const u64* a = in.op == Opcode::Sub ? planes(in.a) : nullptr;
        const u64* b = in.op == Opcode::Sub ? planes(in.b) : planes(in.a);
        const int wd = width(in.dst);
        const int wa = in.op == Opcode::Sub ? width(in.a) : 0;
        const int wb = in.op == Opcode::Sub ? width(in.b) : width(in.a);
        u64 borrow = 0;
        for (int i = 0; i < wd; ++i) {
          const u64 x = a != nullptr ? planeOr0(a, wa, i) : 0;
          const u64 y = planeOr0(b, wb, i);
          d[i] = x ^ y ^ borrow;
          borrow = (~x & y) | (~(x ^ y) & borrow);
        }
        break;
      }
      case Opcode::Mul:
      case Opcode::Div:
      case Opcode::Mod:
      case Opcode::Pow:
      case Opcode::Shl:
      case Opcode::Shr: laneFallback(in); break;
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Xnor: {
        u64* d = planes(in.dst);
        const u64* a = planes(in.a);
        const u64* b = planes(in.b);
        const int wd = width(in.dst);
        const int wa = width(in.a);
        const int wb = width(in.b);
        for (int i = 0; i < wd; ++i) {
          const u64 x = planeOr0(a, wa, i);
          const u64 y = planeOr0(b, wb, i);
          switch (in.op) {
            case Opcode::And: d[i] = x & y; break;
            case Opcode::Or: d[i] = x | y; break;
            case Opcode::Xor: d[i] = x ^ y; break;
            default: d[i] = ~(x ^ y); break;  // Xnor
          }
        }
        break;
      }
      case Opcode::Lt:
      case Opcode::Le: {
        // Ripple comparator from the LSB plane; Le computes !(b < a).
        const bool le = in.op == Opcode::Le;
        const u64* a = planes(le ? in.b : in.a);
        const u64* b = planes(le ? in.a : in.b);
        const int wa = width(le ? in.b : in.a);
        const int wb = width(le ? in.a : in.b);
        u64 lt = 0;
        const int wm = std::max(wa, wb);
        for (int i = 0; i < wm; ++i) {
          const u64 x = planeOr0(a, wa, i);
          const u64 y = planeOr0(b, wb, i);
          lt = (~x & y) | (~(x ^ y) & lt);
        }
        u64* d = planes(in.dst);
        const int wd = width(in.dst);
        d[0] = le ? ~lt : lt;
        for (int i = 1; i < wd; ++i) d[i] = 0;
        break;
      }
      case Opcode::Eq:
      case Opcode::Ne: {
        const u64* a = planes(in.a);
        const u64* b = planes(in.b);
        const int wa = width(in.a);
        const int wb = width(in.b);
        u64 equal = ~u64{0};
        const int wm = std::max(wa, wb);
        for (int i = 0; i < wm; ++i) {
          equal &= ~(planeOr0(a, wa, i) ^ planeOr0(b, wb, i));
        }
        u64* d = planes(in.dst);
        const int wd = width(in.dst);
        d[0] = in.op == Opcode::Eq ? equal : ~equal;
        for (int i = 1; i < wd; ++i) d[i] = 0;
        break;
      }
      case Opcode::LAnd: planes(in.dst)[0] = nonZero(in.a) & nonZero(in.b); break;
      case Opcode::LOr: planes(in.dst)[0] = nonZero(in.a) | nonZero(in.b); break;
      case Opcode::LogNot: planes(in.dst)[0] = ~nonZero(in.a); break;
      case Opcode::RedOr: planes(in.dst)[0] = nonZero(in.a); break;
      case Opcode::RedAnd: {
        const u64* a = planes(in.a);
        const int wa = width(in.a);
        u64 all = ~u64{0};
        for (int i = 0; i < wa; ++i) all &= a[i];
        planes(in.dst)[0] = all;
        break;
      }
      case Opcode::RedXor: {
        const u64* a = planes(in.a);
        const int wa = width(in.a);
        u64 parity = 0;
        for (int i = 0; i < wa; ++i) parity ^= a[i];
        planes(in.dst)[0] = parity;
        break;
      }
      case Opcode::Not: {
        u64* d = planes(in.dst);
        const u64* a = planes(in.a);
        const int wd = width(in.dst);
        const int wa = width(in.a);
        for (int i = 0; i < wd; ++i) d[i] = ~planeOr0(a, wa, i);
        break;
      }
      case Opcode::Select: {
        // Lane-mask mux; the else operand may alias the destination
        // (predicated stores), so each plane is read before it is written.
        const u64 m = planes(in.a)[0];
        u64* d = planes(in.dst);
        const u64* t = planes(in.b);
        const u64* e = planes(in.c);
        const int wd = width(in.dst);
        const int wt = width(in.b);
        const int we = width(in.c);
        for (int i = 0; i < wd; ++i) {
          d[i] = (m & planeOr0(t, wt, i)) | (~m & planeOr0(e, we, i));
        }
        break;
      }
      case Opcode::SliceLow: {
        u64* d = planes(in.dst);
        const u64* a = planes(in.a);
        const int wd = width(in.dst);
        const int wa = width(in.a);
        for (int i = 0; i < wd; ++i) d[i] = planeOr0(a, wa, i + in.b);
        break;
      }
      case Opcode::ShlConst: {
        u64* d = planes(in.dst);
        const u64* a = planes(in.a);
        const int wd = width(in.dst);
        const int wa = width(in.a);
        for (int i = 0; i < wd; ++i) d[i] = i >= in.b ? planeOr0(a, wa, i - in.b) : 0;
        break;
      }
      case Opcode::ConcatPair: {
        u64* d = planes(in.dst);
        const u64* a = planes(in.a);
        const u64* b = planes(in.b);
        const int wd = width(in.dst);
        const int wa = width(in.a);
        const int wb = width(in.b);
        for (int i = 0; i < wd; ++i) {
          d[i] = i < in.c ? planeOr0(b, wb, i) : planeOr0(a, wa, i - in.c);
        }
        break;
      }
      case Opcode::Insert: {
        u64* d = planes(in.dst);
        const u64* a = planes(in.a);
        const int wd = width(in.dst);
        const int wa = width(in.a);
        for (int i = 0; i < in.c && in.b + i < wd; ++i) d[in.b + i] = planeOr0(a, wa, i);
        break;
      }
    }
  }
}

}  // namespace rtlock::sim
