// Levelization of a module's processes, shared by both simulation backends.
//
// Continuous assignments and always @(*) processes are topologically ordered
// over their signal dependencies (combinational loops are rejected with
// support::Error); sequential processes are grouped by driving clock in
// module order.  The reference interpreter (Evaluator) executes the schedule
// directly; the bytecode Compiler lowers it to a flat sliced tape.
#pragma once

#include <set>
#include <vector>

#include "rtl/module.hpp"

namespace rtlock::sim {

/// One combinational execution unit: exactly one of assign/process is set.
struct ScheduleUnit {
  const rtl::ContAssign* assign = nullptr;
  const rtl::Process* process = nullptr;
};

/// Sequential processes driven by one clock, in module order.
struct SequentialGroup {
  rtl::SignalId clock = 0;
  std::vector<const rtl::Process*> processes;
};

struct Schedule {
  std::vector<ScheduleUnit> comb;           // topologically ordered
  std::vector<SequentialGroup> sequential;  // one group per clock, discovery order
  std::vector<rtl::SignalId> clocks;        // group clocks, same order
};

/// Builds the levelized schedule.  The module must outlive the schedule.
/// Throws support::Error when the combinational logic contains a loop.
[[nodiscard]] Schedule buildSchedule(const rtl::Module& module);

/// Signals read by an expression (SignalRef leaves).
void collectExprReads(const rtl::Expr& expr, std::set<rtl::SignalId>& reads);

/// Signals read and written by a statement tree.
void collectStmtReadsWrites(const rtl::Stmt& stmt, std::set<rtl::SignalId>& reads,
                            std::set<rtl::SignalId>& writes);

}  // namespace rtlock::sim
