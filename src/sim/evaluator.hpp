// Cycle-based two-state RTL simulator (reference interpreter).
//
// The evaluator executes a module directly on the IR:
//  * continuous assignments and always @(*) processes are levelized into a
//    topological order over their signal dependencies (combinational loops
//    are rejected with support::Error);
//  * always @(posedge clk) processes follow non-blocking semantics: all
//    right-hand sides are evaluated against the pre-edge state, then all
//    updates commit atomically, then combinational logic resettles.
//
// The locking key is part of the environment (setKey), so locked modules
// simulate exactly like any other input-extended design.
//
// This backend is the executable semantics of the IR and the test oracle; the
// bit-sliced tape (sim/sliced_sim.hpp) is the fast path and is
// differential-tested against this one.  Prefer SlicedSim (or sim::Harness)
// for anything that simulates more than a handful of cycles.
#pragma once

#include <vector>

#include "rtl/module.hpp"
#include "sim/bitvector.hpp"
#include "sim/schedule.hpp"

namespace rtlock::sim {

class Evaluator {
 public:
  /// Builds the levelized schedule.  The module must outlive the evaluator.
  explicit Evaluator(const rtl::Module& module);

  /// Zeroes all signals (registers included) and the key.
  void reset();

  void setValue(rtl::SignalId signal, BitVector value);
  [[nodiscard]] const BitVector& value(rtl::SignalId signal) const;

  /// Key must match the module's key width (ignored for unlocked modules).
  void setKey(BitVector key);

  /// Settles all combinational logic (call after changing inputs).
  void settle();

  /// Applies one positive edge on `clock`, then resettles.
  void clockEdge(rtl::SignalId clock);

  /// Evaluates an expression against the current environment.
  [[nodiscard]] BitVector evalExpr(const rtl::Expr& expr) const;

  /// Clocks that drive at least one sequential process.
  [[nodiscard]] const std::vector<rtl::SignalId>& clocks() const noexcept {
    return schedule_.clocks;
  }

 private:
  void executeUnit(const ScheduleUnit& unit);
  void executeStmtBlocking(const rtl::Stmt& stmt);
  void collectNonBlocking(const rtl::Stmt& stmt,
                          std::vector<std::pair<rtl::LValue, BitVector>>& updates) const;
  void writeLValue(const rtl::LValue& lvalue, const BitVector& value);

  const rtl::Module& module_;
  std::vector<BitVector> values_;
  BitVector key_{1};
  Schedule schedule_;
  /// Non-blocking update buffer, reused across clockEdge calls.
  std::vector<std::pair<rtl::LValue, BitVector>> updatesScratch_;
};

}  // namespace rtlock::sim
