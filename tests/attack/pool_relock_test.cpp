// Differential suite for tree-free relock rounds: PoolRelocker must draw
// exactly what LockEngine + assureRandomLock draw and emit exactly the rows
// LocalityHarvester harvests (the tree path, run here as the oracle) on
// every target — registry designs, the external fixtures, and random
// modules whose lockable operations nest — and snapshotAttack must give the
// tree path's result.
#include "attack/pool_relock.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "attack/harvest.hpp"
#include "attack/snapshot.hpp"
#include "core/algorithms.hpp"
#include "designs/random.hpp"
#include "designs/registry.hpp"
#include "rtl/builder.hpp"
#include "verilog/parser.hpp"

namespace rtlock::attack {
namespace {

using rtl::OpKind;

constexpr lock::Algorithm kAlgorithms[] = {lock::Algorithm::AssureSerial, lock::Algorithm::Hra,
                                           lock::Algorithm::Era};
constexpr std::size_t kAllRows = std::numeric_limits<std::size_t>::max();

rtl::Module lockedWith(rtl::Module module, lock::Algorithm algorithm, std::uint64_t seed) {
  lock::LockEngine engine{module, lock::PairTable::fixed()};
  support::Rng rng{seed};
  const int budget = std::max(1, static_cast<int>(0.75 * engine.initialLockableOps()));
  (void)lock::lockWithAlgorithm(engine, algorithm, budget, rng, lock::ReportDetail::Summary);
  return module;
}

int roundBudget(int lockableOps) { return std::max(1, static_cast<int>(0.75 * lockableOps)); }

/// The tree path, the oracle: relock the live module, harvest, undo.
ml::Dataset relockOnTree(rtl::Module& target, const lock::PairTable& table,
                         const LocalityConfig& config, int rounds, support::Rng& rng) {
  lock::LockEngine engine{target, table};
  LocalityHarvester harvester{engine, config};
  ml::Dataset rows{featureCount(config)};
  for (int round = 0; round < rounds; ++round) {
    const std::size_t checkpoint = engine.checkpoint();
    harvester.beginRound();
    (void)lock::assureRandomLock(engine, roundBudget(engine.totalLockableOps()), rng,
                                 lock::ReportDetail::Summary);
    harvester.harvestInto(rows);
    engine.undoTo(checkpoint);
  }
  return rows;
}

void relockRounds(PoolRelocker& relocker, int rounds, support::Rng& rng) {
  for (int round = 0; round < rounds; ++round) {
    relocker.relockRound(roundBudget(relocker.totalLockableOps()), rng);
  }
}

/// The rows ml::forEachSampledRow keeps from the row store, materialized
/// through PoolRelocker::row at their visit weights (every row at weight 1
/// when `maxRows` is kAllRows).
ml::Dataset keptRows(const PoolRelocker& relocker, const LocalityConfig& config,
                     std::size_t maxRows, support::Rng& rng) {
  ml::Dataset rows{featureCount(config)};
  std::array<double, 6> features{};
  ml::forEachSampledRow(relocker.rowCount(), maxRows, rng, [&](std::size_t i, double weight) {
    const int label = relocker.row(i, features);
    rows.add(ml::RowView{features.data(), static_cast<std::size_t>(rows.featureCount())}, label,
             weight);
  });
  return rows;
}

std::uint64_t bitsOf(double value) { return std::bit_cast<std::uint64_t>(value); }

/// Equal row count, and per row equal feature bits, label and weight bits.
void expectSameRows(const ml::Dataset& actual, const ml::Dataset& expected,
                    const std::string& context) {
  ASSERT_EQ(actual.featureCount(), expected.featureCount()) << context;
  ASSERT_EQ(actual.size(), expected.size()) << context;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    ASSERT_TRUE(std::ranges::equal(actual.row(i), expected.row(i), {}, bitsOf, bitsOf))
        << context << " row " << i;
    ASSERT_EQ(actual.label(i), expected.label(i)) << context << " row " << i;
    ASSERT_EQ(bitsOf(actual.weight(i)), bitsOf(expected.weight(i))) << context << " row " << i;
  }
}

/// Rounds in which key indices repeated, and in which rows of one key
/// differed.
struct Ties {
  std::size_t rounds = 0;
  std::size_t ordered = 0;
  Ties& operator+=(const Ties& other) {
    rounds += other.rounds;
    ordered += other.ordered;
    return *this;
  }
};

/// Compares both paths on one target: rows, labels, weights and the final
/// Rng state.
Ties matchesTreePath(const rtl::Module& locked, const LocalityConfig& config, int rounds,
                     std::uint64_t seed, const std::string& context,
                     const lock::PairTable& table = lock::PairTable::fixed()) {
  const PoolRelocker relocker = PoolRelocker::build(locked, table, config);
  rtl::Module tree = locked.clone();
  {
    const lock::LockEngine engine{tree, table};
    EXPECT_EQ(relocker.totalLockableOps(), engine.totalLockableOps()) << context;
  }
  support::Rng treeRng{seed};
  support::Rng poolRng{seed};
  const ml::Dataset expected = relockOnTree(tree, table, config, rounds, treeRng);
  PoolRelocker relocked = relocker;
  relockRounds(relocked, rounds, poolRng);
  const ml::Dataset actual = keptRows(relocked, config, kAllRows, poolRng);
  expectSameRows(actual, expected, context);
  EXPECT_TRUE(poolRng == treeRng) << context << ": Rng states differ";
  return {relocked.tieRounds(), relocked.orderedTieRounds()};
}

/// Both feature sets.
Ties matchesTreePathBothFeatures(const rtl::Module& locked, int rounds, std::uint64_t seed,
                                 const std::string& context,
                                 const lock::PairTable& table = lock::PairTable::fixed()) {
  Ties ties;
  for (const bool extended : {false, true}) {
    LocalityConfig config;
    config.extendedFeatures = extended;
    ties += matchesTreePath(locked, config, rounds, seed,
                            context + (extended ? " extended" : " basic"), table);
  }
  return ties;
}

TEST(PoolRelockTest, RowsMatchTreePathOnEveryRegistryDesign) {
  Ties ties;
  for (const std::string& name : designs::benchmarkNames()) {
    Ties designTies;
    for (const lock::Algorithm algorithm : kAlgorithms) {
      for (const std::uint64_t seed : {1u, 2u, 3u}) {
        const rtl::Module locked = lockedWith(designs::makeBenchmark(name), algorithm, seed);
        std::string context = name + " " + std::string{lock::algorithmName(algorithm)};
        context += " seed " + std::to_string(seed);
        designTies += matchesTreePathBothFeatures(locked, 50, seed + 1000, context);
      }
    }
    // Dummies clone key muxes only where lockable operations nest.
    if (name == "SASC" || name == "SIM_SPI") {
      EXPECT_GT(designTies.rounds, 0u) << name;
    }
    ties += designTies;
  }
  // Both orders occur: rows of one key all equal, and rows of one key that
  // differ, which only the tree path's tie order places.
  EXPECT_GT(ties.rounds, ties.ordered);
  EXPECT_GT(ties.ordered, 0u);
}

std::string readFixture(const char* name) {
  std::ifstream in{std::string{RTLOCK_EXAMPLES_DIR} + "/external/" + name};
  EXPECT_TRUE(in.good()) << name;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(PoolRelockTest, RowsMatchTreePathOnExternalFixtures) {
  Ties ties;
  for (const char* file : {"alu8.v", "conv3.v"}) {
    const rtl::Design design = verilog::parseDesign(readFixture(file));
    for (std::size_t m = 0; m < design.moduleCount(); ++m) {
      const rtl::Module& module = design.module(m);
      ties += matchesTreePathBothFeatures(module, 40, 5, std::string{file} + " unlocked");
      for (const lock::Algorithm algorithm : kAlgorithms) {
        for (const std::uint64_t seed : {1u, 2u}) {
          const rtl::Module locked = lockedWith(module.clone(), algorithm, seed);
          std::string context = std::string{file} + " " + module.name() + " ";
          context += std::string{lock::algorithmName(algorithm)} + " seed " + std::to_string(seed);
          ties += matchesTreePathBothFeatures(locked, 40, seed + 50, context);
        }
      }
    }
  }
  EXPECT_GT(ties.rounds, 0u);
}

/// Non-leaf operands (cloned into every dummy) and lockable operations
/// under non-lockable constructs, all inside the precondition.
rtl::Module deepOperandModule() {
  rtl::ModuleBuilder b{"deep"};
  const auto a = b.input("a", 8);
  const auto c = b.input("c", 12);
  const auto sel = b.input("sel", 1);
  const auto y = b.output("y", 12);
  const auto z = b.output("z", 1);
  const auto w = b.output("w", 12);
  const auto v = b.output("v", 12);
  b.assign(y, b.notE(b.add(b.bin(OpKind::AShr, b.ref(a), b.lit(1, 2)), b.ref(c))));
  b.assign(z, b.bin(OpKind::Lt, b.bin(OpKind::AShr, b.ref(a), b.lit(2, 2)),
                    b.slice(b.ref(c), 9, 2)));
  b.assign(w, b.bin(OpKind::AShr, b.add(b.ref(a), b.ref(c)), b.lit(2, 2)));
  b.assign(v, b.mux(b.ref(sel), b.mul(b.ref(a), b.ref(c)), b.sub(b.ref(c), b.notE(b.ref(a)))));
  return b.take();
}

TEST(PoolRelockTest, RowsMatchTreePathWithDeepOperands) {
  for (const bool extended : {false, true}) {
    LocalityConfig config;
    config.extendedFeatures = extended;
    for (const std::uint64_t seed : {4u, 5u, 6u}) {
      (void)matchesTreePath(deepOperandModule(), config, 60, seed, "deep");
      const rtl::Module locked = lockedWith(deepOperandModule(), lock::Algorithm::Hra, seed);
      (void)matchesTreePath(locked, config, 60, seed, "deep locked");
    }
  }
}

TEST(PoolRelockTest, RowsMatchTreePathWhenMuxesWidenOperands) {
  // A ** mux is as wide as its % dummy, max(4, 12) bits, not 4: once a
  // round wraps the **, a clone of the + above it is 12 bits wide while the
  // + itself keeps its 4, and the + mux's width bucket follows the clone.
  rtl::ModuleBuilder b{"widening"};
  const auto a = b.input("a", 4);
  const auto c = b.input("c", 12);
  const auto d = b.input("d", 4);
  for (int i = 0; i < 8; ++i) {
    b.assign(b.output("y" + std::to_string(i), 16),
             b.add(b.bin(OpKind::Pow, b.ref(a), b.ref(c)), b.ref(d)));
  }
  const rtl::Module module = b.take();
  LocalityConfig extended;
  extended.extendedFeatures = true;
  (void)matchesTreePath(module, extended, 40, 26, "widening");
  const rtl::Module locked = lockedWith(module.clone(), lock::Algorithm::AssureSerial, 27);
  (void)matchesTreePath(locked, extended, 40, 28, "widening locked");
}

TEST(PoolRelockTest, RowsMatchTreePathUnderOriginalAssurePairs) {
  // The leaky table is not involutive: (*, +) makes a dummy of another
  // lockable kind, and >>> stays unlockable.
  const lock::PairTable& table = lock::PairTable::assureOriginal();
  for (const bool extended : {false, true}) {
    LocalityConfig config;
    config.extendedFeatures = extended;
    for (const char* name : {"FIR", "MD5", "RSA", "N_1023"}) {
      rtl::Module locked = designs::makeBenchmark(name);
      lock::LockEngine engine{locked, table};
      support::Rng rng{21};
      (void)lock::assureRandomLock(engine, roundBudget(engine.initialLockableOps()), rng);
      (void)matchesTreePath(locked, config, 50, 22, name, table);
    }
  }
}

TEST(PoolRelockTest, RowsMatchTreePathThroughTransitiveDummyKinds) {
  // Under the leaky table a ** lock makes a * dummy, whose lock makes a +
  // dummy, whose lock makes a - dummy: a round over a module of ** alone
  // draws from four kinds, three of them two or more dummy steps away.
  // Rows and labels must match, not only the final Rng state: a bound that
  // misses a kind changes which entry is drawn, not how far the Rng moves.
  rtl::ModuleBuilder b{"pow_only"};
  const auto a = b.input("a", 4);
  const auto c = b.input("c", 3);
  for (int i = 0; i < 6; ++i) {
    b.assign(b.output("y" + std::to_string(i), 8), b.bin(OpKind::Pow, b.ref(a), b.ref(c)));
  }
  const rtl::Module module = b.take();
  for (const bool extended : {false, true}) {
    LocalityConfig config;
    config.extendedFeatures = extended;
    (void)matchesTreePath(module, config, 20, 23, "pow_only", lock::PairTable::assureOriginal());
  }
}

TEST(PoolRelockTest, RowsMatchTreePathOnRandomModules) {
  // Fixed-seed differential sweep over flat random modules, under both pair
  // tables and both feature sets.
  support::Rng moduleRng{24};
  for (int i = 0; i < 200; ++i) {
    const rtl::Module module = designs::makeRandomModule(moduleRng);
    for (const lock::PairTable* table :
         {&lock::PairTable::fixed(), &lock::PairTable::assureOriginal()}) {
      for (const bool extended : {false, true}) {
        LocalityConfig config;
        config.extendedFeatures = extended;
        std::string context = "random module " + std::to_string(i);
        context += table == &lock::PairTable::fixed() ? " fixed" : " assureOriginal";
        context += extended ? " extended" : " basic";
        (void)matchesTreePath(module, config, 20, 1000 + i, context, *table);
        ASSERT_FALSE(HasFailure()) << context;
      }
    }
  }
}

/// A random module whose lockable operations nest: expression trees up to
/// four levels deep over lockable and unlockable operators, unary and
/// slice wrappers, design ternaries and key muxes, in continuous
/// assignments and in the statements of a combinational and a sequential
/// process.  Test-local, so designs::makeRandomModule stays as it is.
class NestedModuleGenerator {
 public:
  explicit NestedModuleGenerator(support::Rng& rng) : rng_(rng) {}

  rtl::Module make(int index) {
    rtl::ModuleBuilder b{"nested" + std::to_string(index)};
    builder_ = &b;
    keyBits_ = 0;
    inputs_.clear();
    const int inputCount = 2 + static_cast<int>(rng_.below(3));
    for (int i = 0; i < inputCount; ++i) {
      inputs_.push_back(b.input("i" + std::to_string(i), 1 + static_cast<int>(rng_.below(12))));
    }
    sel_ = b.input("sel", 1);
    const rtl::SignalId clk = b.input("clk", 1);
    const int assigns = 1 + static_cast<int>(rng_.below(4));
    for (int i = 0; i < assigns; ++i) {
      b.assign(b.output("y" + std::to_string(i), 16), expr(1 + static_cast<int>(rng_.below(4))));
    }
    const rtl::SignalId comb = b.outputReg("c", 16);
    std::vector<rtl::StmtPtr> body;
    body.push_back(rtl::makeAssign(rtl::LValue{comb, std::nullopt}, expr(3), false));
    body.push_back(
        rtl::makeIf(expr(2), rtl::makeAssign(rtl::LValue{comb, std::nullopt}, expr(3), false),
                    rtl::makeAssign(rtl::LValue{comb, std::nullopt}, expr(1), false)));
    b.combProcess(rtl::makeBlock(std::move(body)));
    b.regAssign(clk, b.outputReg("q", 16), expr(3));
    rtl::Module module = b.take();
    if (keyBits_ > 0) (void)module.allocateKeyBits(keyBits_);
    return module;
  }

 private:
  rtl::ExprPtr leaf() {
    const rtl::SignalId input = inputs_[rng_.below(inputs_.size())];
    switch (rng_.below(4)) {
      case 0: return builder_->lit(rng_.below(16), 4);
      case 1: {
        const int width = builder_->module().signal(input).width;
        return width > 1 ? builder_->slice(builder_->ref(input), width - 1, 1)
                         : builder_->ref(input);
      }
      default: return builder_->ref(input);
    }
  }

  rtl::ExprPtr expr(int depth) {
    if (depth == 0) return leaf();
    static constexpr OpKind kKinds[] = {OpKind::Add, OpKind::Sub, OpKind::Mul, OpKind::Div,
                                        OpKind::And, OpKind::Or,  OpKind::Xor, OpKind::Shl,
                                        OpKind::Shr, OpKind::AShr, OpKind::Lt, OpKind::Eq,
                                        OpKind::Pow, OpKind::Mod, OpKind::LAnd, OpKind::Xnor};
    switch (rng_.below(8)) {
      case 0: return leaf();
      case 1: return builder_->notE(expr(depth - 1));
      case 2: return builder_->mux(builder_->ref(sel_), expr(depth - 1), expr(depth - 1));
      case 3: {
        // A key mux of the target's own key, as locking leaves one.
        const int key = keyBits_++;
        return builder_->mux(rtl::makeKeyRef(key), expr(depth - 1), expr(depth - 1));
      }
      default: {
        const OpKind kind = kKinds[rng_.below(std::size(kKinds))];
        return builder_->bin(kind, expr(depth - 1), expr(depth - 1));
      }
    }
  }

  support::Rng& rng_;
  rtl::ModuleBuilder* builder_ = nullptr;
  std::vector<rtl::SignalId> inputs_;
  rtl::SignalId sel_{};
  int keyBits_ = 0;
};

TEST(PoolRelockTest, RowsMatchTreePathOnNestedRandomModules) {
  support::Rng moduleRng{25};
  NestedModuleGenerator generator{moduleRng};
  Ties ties;
  for (int i = 0; i < 200; ++i) {
    rtl::Module module = generator.make(i);
    // Three in four modules are locked first, as an attacked target is.
    if (i % 4 != 0) module = lockedWith(std::move(module), kAlgorithms[i % 3], 100 + i);
    for (const lock::PairTable* table :
         {&lock::PairTable::fixed(), &lock::PairTable::assureOriginal()}) {
      std::string context = "nested module " + std::to_string(i);
      context += table == &lock::PairTable::fixed() ? " fixed" : " assureOriginal";
      ties += matchesTreePathBothFeatures(module, 20, 2000 + i, context, *table);
      ASSERT_FALSE(HasFailure()) << context;
    }
  }
  // Rounds whose dummies clone a mux of the same round, so the tie order is
  // exercised.
  EXPECT_GT(ties.ordered, 0u);
}

TEST(PoolRelockTest, RowsMatchTreePathOnLockedRegistryDesignsAtAnotherSeed) {
  // Every registry design locked at another seed, relocked with the
  // default (basic) features.
  for (const std::string& name : designs::benchmarkNames()) {
    for (const lock::Algorithm algorithm : kAlgorithms) {
      const rtl::Module locked = lockedWith(designs::makeBenchmark(name), algorithm, 7);
      (void)matchesTreePath(locked, {}, 30, 7,
                            name + " " + std::string{lock::algorithmName(algorithm)});
    }
  }
}

TEST(PoolRelockTest, RowsMatchTreePathWithLockableOperationInsideOperand) {
  rtl::ModuleBuilder b{"nested"};
  const auto a = b.input("a", 8);
  const auto c = b.input("c", 8);
  const auto y = b.output("y", 8);
  b.assign(y, b.mul(b.add(b.ref(a), b.ref(c)), b.ref(c)));
  const rtl::Module module = b.take();
  (void)matchesTreePathBothFeatures(module, 40, 8, "nested");
}

TEST(PoolRelockTest, RowsMatchTreePathWithKeyMuxInsideOperand) {
  rtl::ModuleBuilder b{"keyed"};
  const auto a = b.input("a", 8);
  const auto c = b.input("c", 8);
  const auto y = b.output("y", 8);
  b.assign(y, b.add(b.mux(rtl::makeKeyRef(0), b.ref(a), b.ref(c)), b.ref(c)));
  rtl::Module module = b.take();
  (void)module.allocateKeyBits(1);
  (void)matchesTreePathBothFeatures(module, 40, 9, "keyed");
}

/// snapshotAttack's steps, all on the tree path.
SnapshotResult treeReferenceAttack(rtl::Module& target, const std::vector<lock::LockRecord>& truth,
                                   const SnapshotConfig& config, support::Rng& rng) {
  const std::vector<Locality> localities = extractLocalities(target, config.locality);
  const ml::Dataset training =
      relockOnTree(target, lock::PairTable::fixed(), config.locality, config.relockRounds, rng);
  const ml::AutoMlResult automl = ml::autoSelect(training, config.automl, rng);
  SnapshotResult result;
  result.modelName = automl.bestName;
  result.cvAccuracy = automl.bestCvAccuracy;
  result.trainingRows = training.size();
  for (const lock::LockRecord& record : truth) {
    const auto it = std::ranges::find_if(
        localities, [&record](const Locality& l) { return l.keyIndex == record.keyIndex; });
    result.predictions.push_back(automl.model->predict(it->features));
  }
  return result;
}

TEST(PoolRelockTest, SnapshotSamplingBranchMatchesTreePath) {
  for (const bool extended : {false, true}) {
    SnapshotConfig config;
    config.relockRounds = 30;
    config.automl.folds = 2;
    config.automl.maxTrainingRows = 257;  // far below the ~30 * budget rows harvested
    config.locality.extendedFeatures = extended;
    for (const char* name : {"FIR", "MD5", "N_1023", "SASC"}) {
      rtl::Module module = designs::makeBenchmark(name);
      lock::LockEngine engine{module, lock::PairTable::fixed()};
      support::Rng lockRng{11};
      (void)lock::lockWithAlgorithm(engine, lock::Algorithm::AssureSerial,
                                    roundBudget(engine.initialLockableOps()), lockRng);
      const std::vector<lock::LockRecord> truth = engine.records();

      support::Rng attackRng{12};
      const SnapshotResult actual =
          snapshotAttack(module, truth, lock::PairTable::fixed(), config, attackRng);
      rtl::Module reference = module.clone();
      support::Rng referenceRng{12};
      const SnapshotResult expected = treeReferenceAttack(reference, truth, config, referenceRng);

      EXPECT_GT(actual.trainingRows, config.automl.maxTrainingRows) << name;
      EXPECT_EQ(actual.trainingRows, expected.trainingRows) << name;
      EXPECT_EQ(actual.modelName, expected.modelName) << name;
      EXPECT_EQ(actual.cvAccuracy, expected.cvAccuracy) << name;
      EXPECT_EQ(actual.predictions, expected.predictions) << name;
      EXPECT_TRUE(attackRng == referenceRng) << name;
    }
  }
}

TEST(PoolRelockTest, FoldAggregatesMatchMaterializedRows) {
  for (const bool extended : {false, true}) {
    LocalityConfig config;
    config.extendedFeatures = extended;
    for (const char* name : {"FIR", "MD5", "N_1023", "SASC"}) {
      const rtl::Module locked =
          lockedWith(designs::makeBenchmark(name), lock::Algorithm::AssureSerial, 11);
      PoolRelocker relocker = PoolRelocker::build(locked, lock::PairTable::fixed(), config);
      support::Rng roundRng{31};
      relockRounds(relocker, 30, roundRng);
      const std::size_t rows = relocker.rowCount();
      // Under the cap (whole, and exactly at it) and over it (a third, and
      // a cap of 257 that keeps few duplicates).
      for (const std::size_t maxRows : {kAllRows, rows, rows / 3, std::size_t{257}}) {
        for (const int folds : {2, 5}) {
          std::string context = std::string{name} + (extended ? " extended" : " basic");
          context += " maxRows " + std::to_string(std::min(maxRows, rows)) + " of " +
                     std::to_string(rows) + " folds " + std::to_string(folds);
          support::Rng rng{32};
          support::Rng oracleRng{32};
          const ml::KFoldAggregates actual = relocker.foldAggregates(maxRows, folds, rng);
          const ml::KFoldAggregates expected =
              keptRows(relocker, config, maxRows, oracleRng).kFoldAggregated(folds, oracleRng);
          expectSameRows(actual.all, expected.all, context + " all");
          ASSERT_EQ(actual.folds.size(), expected.folds.size()) << context;
          for (std::size_t f = 0; f < actual.folds.size(); ++f) {
            const std::string fold = context + " fold " + std::to_string(f);
            expectSameRows(actual.folds[f].first, expected.folds[f].first, fold + " train");
            expectSameRows(actual.folds[f].second, expected.folds[f].second, fold + " validation");
          }
          EXPECT_TRUE(rng == oracleRng) << context << ": Rng states differ";
        }
      }
    }
  }
}

TEST(PoolRelockTest, SnapshotLeavesTargetUntouched) {
  for (const char* name : {"DFT", "USB_PHY", "SASC"}) {
    const rtl::Module locked = lockedWith(designs::makeBenchmark(name), lock::Algorithm::Era, 13);
    rtl::Module target = locked.clone();
    std::vector<lock::LockRecord> truth;  // scoring is not under test
    SnapshotConfig config;
    config.relockRounds = 20;
    config.automl.folds = 2;
    support::Rng rng{14};
    (void)snapshotAttack(target, truth, lock::PairTable::fixed(), config, rng);
    EXPECT_TRUE(structurallyEqual(target, locked)) << name;
  }
}

}  // namespace
}  // namespace rtlock::attack
