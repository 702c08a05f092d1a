#include "rtl/expr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <thread>
#include <utility>
#include <vector>

#include "support/diagnostics.hpp"

namespace rtlock::rtl {
namespace {

TEST(ExprTest, ConstantMasksToWidth) {
  const auto c = makeConstant(0xFFFF, 8);
  EXPECT_EQ(static_cast<const ConstantExpr&>(*c).value(), 0xFFu);
  EXPECT_EQ(c->width(), 8);
}

TEST(ExprTest, ConstantWiderThan64Throws) {
  EXPECT_THROW(makeConstant(1, 65), support::ContractViolation);
}

TEST(ExprTest, BinaryWidthFollowsRules) {
  auto sum = makeBinary(OpKind::Add, makeConstant(1, 8), makeConstant(2, 16));
  EXPECT_EQ(sum->width(), 16);
  auto cmp = makeBinary(OpKind::Lt, makeConstant(1, 8), makeConstant(2, 16));
  EXPECT_EQ(cmp->width(), 1);
  auto shift = makeBinary(OpKind::Shl, makeConstant(1, 8), makeConstant(2, 16));
  EXPECT_EQ(shift->width(), 8);
}

TEST(ExprTest, TernaryWidthIsMaxOfBranches) {
  auto mux = makeTernary(makeConstant(1, 1), makeConstant(0, 8), makeConstant(0, 12));
  EXPECT_EQ(mux->width(), 12);
}

TEST(ExprTest, ConcatWidthIsSum) {
  std::vector<ExprPtr> parts;
  parts.push_back(makeConstant(1, 8));
  parts.push_back(makeConstant(2, 4));
  parts.push_back(makeConstant(3, 1));
  EXPECT_EQ(makeConcat(std::move(parts))->width(), 13);
}

TEST(ExprTest, SliceWidthAndBoundsChecks) {
  auto slice = makeSlice(makeSignalRef(0, 16), 7, 4);
  EXPECT_EQ(slice->width(), 4);
  EXPECT_THROW(makeSlice(makeSignalRef(0, 8), 8, 0), support::ContractViolation);
  EXPECT_THROW(makeSlice(makeSignalRef(0, 8), 2, 3), support::ContractViolation);
}

TEST(ExprTest, KeyMuxDetection) {
  auto keyMux = makeTernary(makeKeyRef(3), makeConstant(1, 8), makeConstant(2, 8));
  EXPECT_TRUE(static_cast<const TernaryExpr&>(*keyMux).isKeyMux());
  auto designMux = makeTernary(makeSignalRef(0, 1), makeConstant(1, 8), makeConstant(2, 8));
  EXPECT_FALSE(static_cast<const TernaryExpr&>(*designMux).isKeyMux());
  // Multi-bit key chunks (constant obfuscation) are not locking muxes.
  auto chunkMux = makeTernary(makeKeyRef(0, 4), makeConstant(1, 8), makeConstant(2, 8));
  EXPECT_FALSE(static_cast<const TernaryExpr&>(*chunkMux).isKeyMux());
}

TEST(ExprTest, CloneIsDeepAndEqual) {
  auto original = makeBinary(
      OpKind::Add, makeBinary(OpKind::Mul, makeSignalRef(1, 8), makeConstant(3, 8)),
      makeTernary(makeKeyRef(0), makeSignalRef(2, 8), makeConstant(7, 8)));
  auto copy = original->clone();
  EXPECT_TRUE(structurallyEqual(*original, *copy));
  // Mutating the copy must not affect the original.
  static_cast<BinaryExpr&>(*copy).setOp(OpKind::Sub);
  EXPECT_FALSE(structurallyEqual(*original, *copy));
}

TEST(ExprTest, StructuralEqualityDiscriminates) {
  auto a = makeBinary(OpKind::Add, makeSignalRef(0, 8), makeSignalRef(1, 8));
  auto b = makeBinary(OpKind::Add, makeSignalRef(0, 8), makeSignalRef(1, 8));
  auto c = makeBinary(OpKind::Add, makeSignalRef(0, 8), makeSignalRef(2, 8));
  auto d = makeBinary(OpKind::Sub, makeSignalRef(0, 8), makeSignalRef(1, 8));
  EXPECT_TRUE(structurallyEqual(*a, *b));
  EXPECT_FALSE(structurallyEqual(*a, *c));
  EXPECT_FALSE(structurallyEqual(*a, *d));
}

TEST(ExprTest, SlotAccessMatchesChildren) {
  auto mux = makeTernary(makeKeyRef(0), makeConstant(1, 4), makeConstant(2, 4));
  auto& ternary = static_cast<TernaryExpr&>(*mux);
  EXPECT_EQ(ternary.exprSlotCount(), 3);
  EXPECT_EQ(ternary.exprSlotAt(TernaryExpr::kCondSlot)->kind(), ExprKind::KeyRef);
  EXPECT_EQ(ternary.exprSlotAt(TernaryExpr::kThenSlot)->kind(), ExprKind::Constant);
  EXPECT_THROW((void)ternary.exprSlotAt(3), support::ContractViolation);
}

TEST(ExprTest, LeafSlotAccessThrows) {
  auto leaf = makeConstant(5, 4);
  EXPECT_EQ(leaf->exprSlotCount(), 0);
  EXPECT_THROW((void)leaf->exprSlotAt(0), support::ContractViolation);
}

TEST(ExprTest, SizeAndDepth) {
  auto tree = makeBinary(OpKind::Add,
                         makeBinary(OpKind::Mul, makeSignalRef(0, 8), makeSignalRef(1, 8)),
                         makeConstant(1, 8));
  EXPECT_EQ(exprSize(*tree), 5);
  EXPECT_EQ(exprDepth(*tree), 3);
  auto leaf = makeConstant(0, 1);
  EXPECT_EQ(exprSize(*leaf), 1);
  EXPECT_EQ(exprDepth(*leaf), 1);
}

TEST(ExprTest, SpliceThroughSlot) {
  // Wrapping a node through its slot is the locking primitive; verify the
  // mechanics directly.
  auto root = makeBinary(OpKind::Add, makeSignalRef(0, 8), makeSignalRef(1, 8));
  auto& binary = static_cast<BinaryExpr&>(*root);
  ExprSlot slot{&binary, 0};
  ExprPtr original = std::move(slot.get());
  slot.get() = makeTernary(makeKeyRef(0), std::move(original), makeConstant(0, 8));
  EXPECT_EQ(binary.lhs().kind(), ExprKind::Ternary);
  EXPECT_EQ(exprSize(*root), 6);
}

// ---- node cache ----

/// Runs `body` on a new thread, whose node cache starts empty.
template <typename Body>
void onFreshThread(Body body) {
  std::thread{std::move(body)}.join();
}

/// Nodes a cache of kExprNodeCacheCap per size class parks out of `freed`
/// recycled nodes of one size class (none in sanitizer builds).
std::size_t parked(std::size_t freed) { return std::min(freed, kExprNodeCacheCap); }

std::vector<ExprPtr> makeSums(std::size_t count) {
  std::vector<ExprPtr> sums;
  for (std::size_t i = 0; i < count; ++i) {
    const auto id = static_cast<SignalId>(i);
    sums.push_back(makeBinary(OpKind::Add, makeSignalRef(id, 8), makeConstant(i, 8)));
  }
  return sums;
}

void expectSums(const std::vector<ExprPtr>& sums) {
  for (std::size_t i = 0; i < sums.size(); ++i) {
    const auto id = static_cast<SignalId>(i);
    const ExprPtr fresh = makeBinary(OpKind::Add, makeSignalRef(id, 8), makeConstant(i, 8));
    ASSERT_TRUE(structurallyEqual(*sums[i], *fresh)) << i;
  }
}

void recycleAll(std::vector<ExprPtr>& exprs) {
  for (ExprPtr& expr : exprs) recycle(std::move(expr));
  exprs.clear();
}

TEST(ExprNodeCacheTest, OnlyRecycledNodesAreParked) {
  onFreshThread([] {
    std::vector<ExprPtr> sums = makeSums(100);
    sums.clear();  // plain destruction: back to the heap
    EXPECT_EQ(cachedExprNodes(), 0u);
    sums = makeSums(100);
    recycleAll(sums);
    EXPECT_EQ(cachedExprNodes(), parked(200) + parked(100));
  });
}

TEST(ExprNodeCacheTest, CapBoundsEachSizeClass) {
  onFreshThread([] {
    EXPECT_EQ(cachedExprNodes(), 0u);
    // Leaves share one size class, binary nodes fill another.
    const std::size_t count = kExprNodeCacheCap + 100;
    std::vector<ExprPtr> sums = makeSums(count);
    recycleAll(sums);
    EXPECT_EQ(cachedExprNodes(), parked(2 * count) + parked(count));

    // Building drains the lists; the nodes it gets back are whole.
    sums = makeSums(50);
    EXPECT_EQ(cachedExprNodes(), parked(2 * count) + parked(count) - parked(3 * 50));
    expectSums(sums);
  });
}

TEST(ExprNodeCacheTest, NodesBuiltOnOneThreadAreRecycledOnAnother) {
  std::vector<ExprPtr> sums;
  onFreshThread([&sums] { sums = makeSums(1000); });
  onFreshThread([&sums] {
    recycleAll(sums);
    EXPECT_EQ(cachedExprNodes(), parked(2000) + parked(1000));
    sums = makeSums(1000);  // served from the blocks the other thread built
    EXPECT_EQ(cachedExprNodes(), 0u);
    expectSums(sums);
  });
  expectSums(sums);
  sums.clear();  // and freed on a third thread
}

TEST(ExprNodeCacheTest, ExitingThreadsReleaseCachedNodes) {
  const std::size_t releasedBefore = exprNodesReleasedAtThreadExit();
  std::vector<ExprPtr> survivors;
  onFreshThread([&survivors] {
    std::vector<ExprPtr> sums = makeSums(400);
    survivors = makeSums(10);  // built on this thread, outlive it
    recycleAll(sums);
    EXPECT_EQ(cachedExprNodes(), parked(800) + parked(400));
  });
  EXPECT_EQ(exprNodesReleasedAtThreadExit() - releasedBefore, parked(800) + parked(400));
  expectSums(survivors);
  survivors.clear();
}

/// Recycles its nodes when its thread tears down.
struct RecycleAtExit {
  std::vector<ExprPtr> exprs;
  ~RecycleAtExit() { recycleAll(exprs); }
};

TEST(ExprNodeCacheTest, NodesRecycledDuringThreadTeardownAreSafe) {
  // Thread-local owners may recycle nodes before or after the thread's lists
  // are released; both orders must be safe.
  onFreshThread([] {
    thread_local RecycleAtExit early;
    early.exprs = makeSums(20);
    std::vector<ExprPtr> sums = makeSums(20);
    recycleAll(sums);  // the first recycle arms the release
    thread_local RecycleAtExit late;
    late.exprs = makeSums(20);
  });
}

}  // namespace
}  // namespace rtlock::rtl
