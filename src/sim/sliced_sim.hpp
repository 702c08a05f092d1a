// Bit-sliced batch simulator: 64 stimulus vectors per tape pass.
//
// SlicedSim executes a Program (Compiler::compileSliced) over a transposed
// value arena: a w-bit signal is stored as w *planes* — plane b is a 64-bit
// word whose bit L is bit b of lane L's value.  Every 2-state logic op then
// becomes a handful of plain bitwise word ops evaluating all 64 lanes at
// once:
//  * and/or/xor/not/mux run one word op per plane;
//  * add/sub/neg ripple a carry/borrow plane across the result width;
//  * compares ripple from the LSB plane; reductions fold the planes;
//  * constant shifts, slices and concats are pure plane relabelings;
//  * mul/div/mod/pow and variable-amount shifts fall back to per-lane scalar
//    evaluation through a 64x64 bit-matrix transpose (rare ops pay ~1 scalar
//    pass for the whole batch instead of poisoning the bitwise fast path).
//
// Lanes never branch: the sliced lowering if-converts control flow, so tapes
// are jump-free and every store is masked by a 1-bit predicate slot whose
// plane 0 is the per-lane "this branch taken" mask (see sim/compiler.hpp).
// Keys are per-lane: setKeys materialises 64 hypothesis keys into the key
// binding planes, which is what lets corruption sweeps score 64 (key, vector)
// pairs per tape pass.
//
// Semantics are differentially pinned against the reference interpreter
// (sim/evaluator.hpp), which stays the oracle, by tests/sim/sliced_sim_test.cpp
// (see src/sim/README.md for the contract).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "sim/bitvector.hpp"
#include "sim/program.hpp"

namespace rtlock::sim {

namespace detail {
/// In-place transpose of a 64x64 bit matrix: out[i] bit j == in[j] bit i.
/// Exposed for the unit tests that pin the orientation.
void transpose64(std::uint64_t m[64]) noexcept;
}  // namespace detail

class SlicedSim {
 public:
  /// Lane capacity of one arena (bits per machine word).
  static constexpr int kLanes = 64;

  /// Compiles `module` privately in the sliced encoding.
  explicit SlicedSim(const rtl::Module& module);

  /// Runs a pre-compiled sliced program (Compiler::compileSliced); one
  /// Program can back any number of instances.
  explicit SlicedSim(std::shared_ptr<const Program> program);

  /// Zeroes all signals (registers included) in every lane and clears all
  /// key planes — a fresh batch never observes a previous batch's keys.
  void reset();

  /// Broadcasts `value` to all 64 lanes of `signal`.
  void setValue(rtl::SignalId signal, const BitVector& value);

  /// Drives lanes [0, values.size()) of `signal` with per-lane values and
  /// zeroes the remaining lanes.  At most kLanes values.
  void setLaneValues(rtl::SignalId signal, std::span<const BitVector> values);

  /// Value of `signal` in one lane.
  [[nodiscard]] BitVector laneValue(rtl::SignalId signal, int lane) const;

  /// Broadcasts one key to all lanes (width must match the module's key).
  void setKey(const BitVector& key);

  /// Per-lane hypothesis keys for lanes [0, keys.size()); remaining lanes
  /// run with the all-zero key.  At most kLanes keys.
  void setKeys(std::span<const BitVector> keys);

  /// Distinct-key variant: key i drives every lane set in laneMasks[i]
  /// (masks must be disjoint); lanes in no mask get the all-zero key.  Reads
  /// each key's bits once instead of once per lane, which is what makes
  /// key-batched corruption sweeps cheap when consecutive lanes share a key.
  void setKeys(std::span<const BitVector> keys, std::span<const std::uint64_t> laneMasks);

  /// Settles all combinational logic (call after changing inputs).
  void settle();

  /// Applies one positive edge on `clock` in every lane, then resettles.
  void clockEdge(rtl::SignalId clock);

  [[nodiscard]] const std::vector<rtl::SignalId>& clocks() const noexcept {
    return program_->clocks();
  }

  [[nodiscard]] const Program& program() const noexcept { return *program_; }

  /// Read-only plane view of `signal`: `width` words, plane b holding bit b
  /// of all 64 lanes.  The pointer is invalidated by nothing short of
  /// destruction; contents change on every settle/clockEdge.
  [[nodiscard]] const std::uint64_t* signalPlanes(rtl::SignalId signal) const {
    return &planes_[static_cast<std::size_t>(
        planeBase_[static_cast<std::size_t>(program_->signalSlotId(signal))])];
  }

 private:
  void exec(const std::vector<Instr>& tape);
  void laneFallback(const Instr& in);
  [[nodiscard]] std::uint64_t* planesOf(std::int32_t slotId) {
    return &planes_[static_cast<std::size_t>(planeBase_[static_cast<std::size_t>(slotId)])];
  }
  [[nodiscard]] const std::uint64_t* planesOf(std::int32_t slotId) const {
    return &planes_[static_cast<std::size_t>(planeBase_[static_cast<std::size_t>(slotId)])];
  }
  /// Lanes of a narrow (<= 64 bit) slot via one bit-matrix transpose.
  void loadLanes(std::int32_t slotId, std::uint64_t out[kLanes]) const;
  /// Whole-width lane accessors (any width, bit-at-a-time).
  [[nodiscard]] BitVector gatherLane(std::int32_t slotId, int lane) const;
  void scatterLane(std::int32_t slotId, int lane, const BitVector& value);

  std::shared_ptr<const Program> program_;
  std::vector<std::int32_t> planeBase_;      // slot id -> first plane index
  std::vector<std::uint64_t> initialPlanes_;  // constants broadcast, signals zero
  std::vector<std::uint64_t> planes_;
};

}  // namespace rtlock::sim
