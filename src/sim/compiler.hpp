// Lowers a module to a flat bytecode Program (see sim/program.hpp).
//
// The compiler walks the levelized schedule (the same one the reference
// interpreter executes) and emits one opcode per IR operation:
//  * expression trees become straight-line tapes over slots; operands are
//    slot ids and every width runs through the same opcodes (the executor
//    reads widths from the slot table);
//  * control flow is if-converted — if/case bodies execute unconditionally
//    under a 1-bit predicate slot whose lanes mask each store via Select.
//    Jump-free tapes are what lets 64 stimulus lanes of sim::SlicedSim
//    share one tape pass even when they diverge on branches;
//  * constants are baked into the initial arena image and key slices bound
//    to slots refreshed on setKey — neither costs anything per cycle.
#pragma once

#include "sim/program.hpp"

namespace rtlock::sim {

class Compiler {
 public:
  /// Compiles `module` for sim::SlicedSim.  The Program is self-contained:
  /// the module may be mutated or destroyed afterwards (relocking
  /// invalidates a Program — just recompile).  Throws support::Error on
  /// combinational loops, like the interpreter.
  [[nodiscard]] static Program compileSliced(const rtl::Module& module);
};

}  // namespace rtlock::sim
