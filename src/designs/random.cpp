#include "designs/random.hpp"

#include <string>
#include <vector>

#include "rtl/builder.hpp"

namespace rtlock::designs {

namespace {

using rtl::ExprPtr;
using rtl::OpKind;
using rtl::SignalId;

/// Operators drawn for random expressions (every lockable kind plus >>>).
constexpr OpKind kOps[] = {
    OpKind::Add, OpKind::Sub, OpKind::Mul,  OpKind::Div, OpKind::Mod, OpKind::Pow,
    OpKind::Shl, OpKind::Shr, OpKind::AShr, OpKind::And, OpKind::Or,  OpKind::Xor,
    OpKind::Xnor, OpKind::Lt, OpKind::Gt,   OpKind::Le,  OpKind::Ge,  OpKind::Eq,
    OpKind::Ne,  OpKind::LAnd, OpKind::LOr,
};

}  // namespace

rtl::Module makeRandomModule(support::Rng& rng, const RandomModuleParams& params) {
  rtl::ModuleBuilder b{"fuzz_" + std::to_string(rng.below(1u << 30))};

  const int inputCount = static_cast<int>(rng.range(1, 4));
  std::vector<SignalId> values;  // signals usable as operands
  for (int i = 0; i < inputCount; ++i) {
    values.push_back(
        b.input("in" + std::to_string(i), static_cast<int>(rng.range(1, params.maxWidth))));
  }
  SignalId clk = 0;
  if (params.sequential) clk = b.input("clk", 1);

  // Random operand over existing signals: plain ref, slice, or literal.
  const auto operand = [&]() -> ExprPtr {
    const SignalId id = rng.pick(values);
    const int width = b.module().signal(id).width;
    if (params.useSlices && width > 2 && rng.chance(0.2)) {
      const int hi = static_cast<int>(rng.range(1, width - 1));
      const int lo = static_cast<int>(rng.range(0, hi));
      return b.slice(b.ref(id), hi, lo);
    }
    if (rng.chance(0.15)) {
      return b.lit(rng(), static_cast<int>(rng.range(1, params.maxWidth)));
    }
    return b.ref(id);
  };

  int wireId = 0;
  std::vector<SignalId> regCandidates;
  for (int i = 0; i < params.operations; ++i) {
    ExprPtr expr = rtl::makeBinary(kOps[rng.below(std::size(kOps))], operand(), operand());
    if (rng.chance(0.15)) {
      const rtl::UnaryOp unary[] = {rtl::UnaryOp::Neg, rtl::UnaryOp::BitNot,
                                    rtl::UnaryOp::LogNot, rtl::UnaryOp::RedXor};
      expr = rtl::makeUnary(unary[rng.below(std::size(unary))], std::move(expr));
    }
    if (params.useTernaries && rng.chance(0.15)) {
      expr = b.mux(operand(), std::move(expr), operand());
    }
    if (params.useSlices && rng.chance(0.1)) {
      ExprPtr low = operand();
      // Signals are at most 64 bits wide, and Verilog slices only named
      // signals, so a wider concatenation could not be narrowed: keep the
      // expression as it is (the operand's draws are spent either way).
      if (expr->width() + low->width() <= 64) {
        std::vector<ExprPtr> parts;
        parts.push_back(std::move(expr));
        parts.push_back(std::move(low));
        expr = b.concat(std::move(parts));
      }
    }
    const int width = expr->width();
    const SignalId wire = b.wire("w" + std::to_string(wireId++), width);
    b.assign(wire, std::move(expr));
    values.push_back(wire);
    regCandidates.push_back(wire);
  }

  if (params.sequential && !regCandidates.empty()) {
    // A few registers latching combinational wires (no feedback: operands of
    // wires never reference registers declared later, so this stays acyclic).
    const int regCount = static_cast<int>(rng.range(1, 3));
    for (int i = 0; i < regCount; ++i) {
      const SignalId source = rng.pick(regCandidates);
      const SignalId reg =
          b.reg("r" + std::to_string(i), b.module().signal(source).width);
      b.regAssign(clk, reg, b.ref(source));
      values.push_back(reg);
    }
  }

  const SignalId last = values.back();
  const auto y = b.output("y", b.module().signal(last).width);
  b.assign(y, b.ref(last));
  return b.take();
}

}  // namespace rtlock::designs
