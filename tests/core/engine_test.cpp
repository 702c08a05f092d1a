#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <string>

#include "designs/networks.hpp"
#include "rtl/builder.hpp"
#include "rtl/stats.hpp"
#include "verilog/writer.hpp"

namespace rtlock::lock {
namespace {

using rtl::OpKind;

/// 3 adds, 1 sub, three-address.
rtl::Module smallDesign() {
  rtl::ModuleBuilder b{"small"};
  const auto a = b.input("a", 8);
  const auto c = b.input("b", 8);
  const auto w0 = b.wire("w0", 8);
  const auto w1 = b.wire("w1", 8);
  const auto w2 = b.wire("w2", 8);
  const auto y = b.output("y", 8);
  b.assign(w0, b.add(b.ref(a), b.ref(c)));
  b.assign(w1, b.add(b.ref(w0), b.ref(a)));
  b.assign(w2, b.sub(b.ref(w1), b.ref(c)));
  b.assign(y, b.add(b.ref(w2), b.ref(w0)));
  return b.take();
}

TEST(EngineTest, IndexCountsMatchStats) {
  rtl::Module m = smallDesign();
  LockEngine engine{m, PairTable::fixed()};
  EXPECT_EQ(engine.opCount(OpKind::Add), 3);
  EXPECT_EQ(engine.opCount(OpKind::Sub), 1);
  EXPECT_EQ(engine.totalLockableOps(), 4);
  EXPECT_EQ(engine.initialLockableOps(), 4);
  EXPECT_EQ(engine.odtValue(OpKind::Add), 2);
  EXPECT_EQ(engine.odtValue(OpKind::Sub), -2);
}

TEST(EngineTest, LockAddsDummyAndKeyBit) {
  rtl::Module m = smallDesign();
  LockEngine engine{m, PairTable::fixed()};
  const LockRecord& record = engine.lockOpAt(OpKind::Add, 0, true);
  EXPECT_EQ(record.keyIndex, 0);
  EXPECT_TRUE(record.keyValue);
  EXPECT_EQ(record.realOp, OpKind::Add);
  EXPECT_EQ(record.dummyOp, OpKind::Sub);
  EXPECT_EQ(m.keyWidth(), 1);
  EXPECT_EQ(engine.opCount(OpKind::Add), 3);  // real op still present
  EXPECT_EQ(engine.opCount(OpKind::Sub), 2);  // dummy added
  EXPECT_EQ(engine.odtValue(OpKind::Add), 1);
  EXPECT_EQ(rtl::computeStats(m).keyMuxes, 1);
}

TEST(EngineTest, KeyValueControlsBranchPlacement) {
  // key=1: real op in the true branch; key=0: in the false branch (Fig. 3a).
  for (const bool keyValue : {true, false}) {
    rtl::Module m = smallDesign();
    LockEngine engine{m, PairTable::fixed()};
    engine.lockOpAt(OpKind::Sub, 0, keyValue);
    const auto& mux =
        static_cast<const rtl::TernaryExpr&>(m.contAssigns()[2]->value());
    ASSERT_TRUE(mux.isKeyMux());
    const auto& realBranch = keyValue ? mux.thenExpr() : mux.elseExpr();
    const auto& dummyBranch = keyValue ? mux.elseExpr() : mux.thenExpr();
    EXPECT_EQ(static_cast<const rtl::BinaryExpr&>(realBranch).op(), OpKind::Sub);
    EXPECT_EQ(static_cast<const rtl::BinaryExpr&>(dummyBranch).op(), OpKind::Add);
  }
}

TEST(EngineTest, UndoRestoresStructure) {
  rtl::Module m = smallDesign();
  const rtl::Module reference = m.clone();
  LockEngine engine{m, PairTable::fixed()};
  support::Rng rng{5};

  const auto checkpoint = engine.checkpoint();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine.lockRandomOp(rng));
  }
  EXPECT_EQ(m.keyWidth(), 4);
  EXPECT_FALSE(structurallyEqual(m, reference));

  engine.undoTo(checkpoint);
  EXPECT_TRUE(structurallyEqual(m, reference));
  EXPECT_EQ(m.keyWidth(), 0);
  EXPECT_EQ(engine.opCount(OpKind::Add), 3);
  EXPECT_EQ(engine.opCount(OpKind::Sub), 1);
  EXPECT_TRUE(engine.records().empty());
}

TEST(EngineTest, UndoRestoresAfterNestedRelock) {
  rtl::Module m = smallDesign();
  const rtl::Module reference = m.clone();
  LockEngine engine{m, PairTable::fixed()};

  // Lock the same logical op twice (nested mux of Fig. 3b), then a dummy.
  engine.lockOpAt(OpKind::Add, 0, true);
  engine.lockOpAt(OpKind::Add, 0, false);  // relock: wraps the real branch
  engine.lockOpAt(OpKind::Sub, 1, true);   // lock the dummy sub added first
  EXPECT_EQ(m.keyWidth(), 3);

  engine.undoTo(0);
  EXPECT_TRUE(structurallyEqual(m, reference));
}

TEST(EngineTest, RepeatedLockUndoCyclesAreStable) {
  rtl::Module m = designs::makeOperationNetwork(
      "net", {{OpKind::Add, 20}, {OpKind::Mul, 10}, {OpKind::Xor, 5}});
  const rtl::Module reference = m.clone();
  LockEngine engine{m, PairTable::fixed()};
  support::Rng rng{17};

  for (int round = 0; round < 10; ++round) {
    const auto checkpoint = engine.checkpoint();
    for (int i = 0; i < 25; ++i) {
      ASSERT_TRUE(engine.lockRandomOp(rng));
    }
    engine.undoTo(checkpoint);
    ASSERT_TRUE(structurallyEqual(m, reference)) << "round " << round;
  }
}

TEST(EngineTest, LockStepReducesImbalance) {
  rtl::Module m = smallDesign();  // ODT[Add] = +2
  LockEngine engine{m, PairTable::fixed()};
  support::Rng rng{7};
  const int used = engine.lockStep(OpKind::Add, /*pairMode=*/false, rng);
  EXPECT_EQ(used, 1);
  EXPECT_EQ(engine.odtValue(OpKind::Add), 1);
  // Deficient side: locking Sub when ODT[Sub] < 0 must also reduce.
  const int used2 = engine.lockStep(OpKind::Sub, /*pairMode=*/false, rng);
  EXPECT_EQ(used2, 1);
  EXPECT_EQ(engine.odtValue(OpKind::Add), 0);
}

TEST(EngineTest, LockStepPairModePreservesBalance) {
  rtl::Module m = designs::makeOperationNetwork("bal", {{OpKind::Add, 3}, {OpKind::Sub, 3}});
  LockEngine engine{m, PairTable::fixed()};
  support::Rng rng{11};
  const int used = engine.lockStep(OpKind::Add, /*pairMode=*/true, rng);
  EXPECT_EQ(used, 2);
  EXPECT_EQ(engine.odtValue(OpKind::Add), 0);
  EXPECT_EQ(engine.opCount(OpKind::Add), 4);
  EXPECT_EQ(engine.opCount(OpKind::Sub), 4);
}

TEST(EngineTest, LockStepEmptyPairMakesNoProgress) {
  rtl::Module m = designs::makeOperationNetwork("adds", {{OpKind::Add, 4}});
  LockEngine engine{m, PairTable::fixed()};
  support::Rng rng{13};
  EXPECT_EQ(engine.lockStep(OpKind::Mul, false, rng), 0);
}

TEST(EngineTest, TouchedPairsTracked) {
  rtl::Module m = smallDesign();
  LockEngine engine{m, PairTable::fixed()};
  const auto& table = PairTable::fixed();
  EXPECT_FALSE(engine.touchedPairs()[static_cast<std::size_t>(table.pairIndexOf(OpKind::Add))]);
  engine.lockOpAt(OpKind::Add, 0, true);
  EXPECT_TRUE(engine.touchedPairs()[static_cast<std::size_t>(table.pairIndexOf(OpKind::Add))]);
  engine.undoTo(0);
  EXPECT_FALSE(engine.touchedPairs()[static_cast<std::size_t>(table.pairIndexOf(OpKind::Add))]);
}

TEST(EngineTest, MetricsTrackBalancing) {
  rtl::Module m = smallDesign();
  LockEngine engine{m, PairTable::fixed()};
  support::Rng rng{19};
  EXPECT_DOUBLE_EQ(engine.globalMetric(), 0.0);
  engine.lockStep(OpKind::Add, false, rng);
  engine.lockStep(OpKind::Add, false, rng);
  EXPECT_DOUBLE_EQ(engine.globalMetric(), 100.0);
  EXPECT_DOUBLE_EQ(engine.restrictedMetric(), 100.0);
}

TEST(EngineTest, SerialOrderCoversAllOps) {
  rtl::Module m = smallDesign();
  LockEngine engine{m, PairTable::fixed()};
  const auto order = engine.opsInTraversalOrder();
  EXPECT_EQ(order.size(), 4u);
  // Traversal follows assign order: add, add, sub, add.
  EXPECT_EQ(order[0].first, OpKind::Add);
  EXPECT_EQ(order[2].first, OpKind::Sub);
}

TEST(EngineTest, LockedModuleStillEmitsValidVerilog) {
  rtl::Module m = smallDesign();
  LockEngine engine{m, PairTable::fixed()};
  support::Rng rng{23};
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(engine.lockRandomOp(rng));
  const std::string text = verilog::writeModule(m);
  EXPECT_NE(text.find("lock_key"), std::string::npos);
}

TEST(EngineTest, LeakyTableLocksWithDirectedDummies) {
  rtl::Module m = designs::makeOperationNetwork("mulnet", {{OpKind::Mul, 3}});
  LockEngine engine{m, PairTable::assureOriginal()};
  engine.lockOpAt(OpKind::Mul, 0, true);
  const auto& record = engine.records().back();
  EXPECT_EQ(record.dummyOp, OpKind::Add);  // (*, +) per the original table
}

TEST(EngineTest, UndoToFutureCheckpointThrows) {
  rtl::Module m = smallDesign();
  LockEngine engine{m, PairTable::fixed()};
  EXPECT_THROW(engine.undoTo(1), support::ContractViolation);
}

TEST(EngineTest, FuzzedLockUndoInterleavingsRoundTripToRtlEqualModule) {
  // Property test for the undo stack the attack's relock loop leans on:
  // any interleaving of random locks, targeted locks, checkpoints, and
  // partial rollbacks must round-trip to an RTL-equal module once fully
  // undone — checked both structurally and on the emitted Verilog, which
  // also covers key-input bookkeeping the structural walk abstracts over.
  support::Rng rng{101};
  for (int trial = 0; trial < 10; ++trial) {
    rtl::Module m = designs::makeOperationNetwork(
        "fuzz", {{OpKind::Add, 12}, {OpKind::Sub, 6}, {OpKind::Mul, 8}, {OpKind::Xor, 5}});
    const rtl::Module reference = m.clone();
    const std::string referenceText = verilog::writeModule(reference);
    LockEngine engine{m, PairTable::fixed()};

    std::vector<std::size_t> checkpoints{engine.checkpoint()};
    for (int step = 0; step < 80; ++step) {
      switch (rng.below(5)) {
        case 0:
        case 1:
          ASSERT_TRUE(engine.lockRandomOp(rng));
          break;
        case 2: {
          // Targeted (re)lock through the same coordinates the serial
          // ASSURE policy uses, including already-locked and dummy ops.
          const auto ops = engine.opsInTraversalOrder();
          ASSERT_FALSE(ops.empty());
          const auto& [kind, position] = ops[static_cast<std::size_t>(rng.below(ops.size()))];
          engine.lockOpAt(kind, position, rng.coin());
          break;
        }
        case 3:
          checkpoints.push_back(engine.checkpoint());
          break;
        case 4: {
          // Roll back to a random earlier checkpoint; later checkpoints
          // become stale and are dropped.
          const auto target = static_cast<std::size_t>(rng.below(checkpoints.size()));
          engine.undoTo(checkpoints[target]);
          checkpoints.resize(target + 1);
          break;
        }
      }
    }

    engine.undoAll();
    EXPECT_TRUE(structurallyEqual(m, reference)) << "trial " << trial;
    EXPECT_EQ(verilog::writeModule(m), referenceText) << "trial " << trial;
    EXPECT_EQ(m.keyWidth(), 0) << "trial " << trial;
    EXPECT_TRUE(engine.records().empty()) << "trial " << trial;
    EXPECT_EQ(engine.totalLockableOps(), engine.initialLockableOps()) << "trial " << trial;
  }
}

/// The lock sequence the cycle tests replay: a plain lock, the same logical
/// op locked again (its real branch wrapped in a second mux), and a lock of
/// the dummy the first lock appended.
void lockSequence(LockEngine& engine, bool keyValue) {
  engine.lockOpAt(OpKind::Add, 0, keyValue);
  engine.lockOpAt(OpKind::Add, 0, !keyValue);
  engine.lockOpAt(OpKind::Sub, 1, keyValue);
}

TEST(EngineTest, RepeatedLockUndoCyclesMatchFreshBuildsInBothOrientations) {
  // Locking after any number of lock/undo cycles must give the text a fresh
  // engine over a fresh module gives, whichever branch the key selects.
  std::string fresh[2];
  for (const bool keyValue : {false, true}) {
    rtl::Module reference = smallDesign();
    LockEngine referenceEngine{reference, PairTable::fixed()};
    lockSequence(referenceEngine, keyValue);
    fresh[keyValue] = verilog::writeModule(reference);
  }
  ASSERT_NE(fresh[0], fresh[1]);

  rtl::Module m = smallDesign();
  LockEngine engine{m, PairTable::fixed()};
  for (int cycle = 0; cycle < 6; ++cycle) {
    const bool keyValue = cycle % 3 != 0;
    lockSequence(engine, keyValue);
    EXPECT_EQ(verilog::writeModule(m), fresh[keyValue]) << cycle;
    engine.undoAll();
    EXPECT_TRUE(structurallyEqual(m, smallDesign())) << cycle;
    EXPECT_EQ(m.keyWidth(), 0) << cycle;
  }
}

TEST(EngineTest, UndoRestoresPoolCounts) {
  rtl::Module m = smallDesign();
  LockEngine engine{m, PairTable::fixed()};
  for (int cycle = 0; cycle < 3; ++cycle) {
    const std::size_t checkpoint = engine.checkpoint();
    lockSequence(engine, cycle % 2 == 0);
    EXPECT_EQ(engine.opCount(OpKind::Add), 4) << cycle;  // + the dummy of the Sub lock
    EXPECT_EQ(engine.opCount(OpKind::Sub), 3) << cycle;  // + the dummies of the Add locks
    EXPECT_EQ(engine.totalLockableOps(), 7) << cycle;
    engine.undoTo(checkpoint);
    EXPECT_EQ(engine.opCount(OpKind::Add), 3) << cycle;
    EXPECT_EQ(engine.opCount(OpKind::Sub), 1) << cycle;
    EXPECT_EQ(engine.totalLockableOps(), 4) << cycle;
    EXPECT_EQ(engine.odtValue(OpKind::Add), 2) << cycle;
    EXPECT_TRUE(engine.records().empty()) << cycle;
  }
}

TEST(EngineTest, NestedOperandsGetFreshClones) {
  // y = (a + 1) + a: locking the outer op clones the nested operand subtree
  // into the dummy.  The clone is its own subtree — locking the real inner
  // op leaves it untouched — and every cycle rebuilds it identically.
  rtl::ModuleBuilder b{"nested"};
  const auto a = b.input("a", 8);
  const auto y = b.output("y", 8);
  b.assign(y, b.add(b.add(b.ref(a), b.lit(1, 8)), b.ref(a)));
  rtl::Module m = b.take();
  LockEngine engine{m, PairTable::fixed()};
  ASSERT_EQ(engine.opCount(OpKind::Add), 2);

  std::string lockedText;
  for (int cycle = 0; cycle < 3; ++cycle) {
    const std::size_t checkpoint = engine.checkpoint();
    engine.lockOpAt(OpKind::Add, 0, true);  // outer op: Sub dummy + cloned inner Add
    EXPECT_EQ(engine.opCount(OpKind::Sub), 1) << cycle;
    EXPECT_EQ(engine.opCount(OpKind::Add), 3) << cycle;
    const auto& mux = static_cast<const rtl::TernaryExpr&>(m.contAssigns()[0]->value());
    const auto& realOp = static_cast<const rtl::BinaryExpr&>(mux.thenExpr());
    const auto& dummyOp = static_cast<const rtl::BinaryExpr&>(mux.elseExpr());
    EXPECT_NE(&realOp.lhs(), &dummyOp.lhs()) << cycle;
    EXPECT_TRUE(rtl::structurallyEqual(realOp.lhs(), dummyOp.lhs())) << cycle;

    const std::string text = verilog::writeModule(m);
    if (cycle == 0) lockedText = text;
    EXPECT_EQ(text, lockedText) << cycle;

    engine.lockOpAt(OpKind::Add, 1, false);  // the real inner op
    EXPECT_EQ(realOp.lhs().kind(), rtl::ExprKind::Ternary) << cycle;
    EXPECT_EQ(dummyOp.lhs().kind(), rtl::ExprKind::Binary) << cycle;

    engine.undoTo(checkpoint);
    EXPECT_EQ(engine.opCount(OpKind::Sub), 0) << cycle;
    EXPECT_EQ(engine.opCount(OpKind::Add), 2) << cycle;
  }
  EXPECT_EQ(rtl::computeStats(m).keyMuxes, 0);
}

}  // namespace
}  // namespace rtlock::lock
