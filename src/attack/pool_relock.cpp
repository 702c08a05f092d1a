#include "attack/pool_relock.hpp"

#include <algorithm>
#include <tuple>

#include "rtl/traverse.hpp"
#include "support/diagnostics.hpp"
#include "support/probe_table.hpp"

namespace rtlock::attack {

namespace {

using rtl::Expr;
using rtl::ExprKind;
using rtl::OpKind;

static_assert(kMuxCode < 256 && 1 + rtl::kOpKindCount < 256, "codes are stored as bytes");

/// Builds the pools in LockEngine::buildIndex order (pre-order over every
/// expression slot, continuous assignments first) while checking the
/// precondition: nothing lockable and no key mux below a lockable operation.
struct TargetWalk {
  const lock::PairTable& table;
  std::vector<std::tuple<const rtl::BinaryExpr*, int>>& ops;  // (operation, parent code)
  std::vector<std::tuple<const Expr*, int, bool>> pending;    // (node, parent, in operand)

  [[nodiscard]] bool visitTree(const Expr& root) {
    pending.clear();
    pending.emplace_back(&root, kTopCode, false);
    while (!pending.empty()) {
      const auto [expr, parent, inOperand] = pending.back();
      pending.pop_back();
      bool lockableHere = false;
      if (expr->kind() == ExprKind::Binary) {
        const auto& binary = static_cast<const rtl::BinaryExpr&>(*expr);
        lockableHere = table.lockable(binary.op());
        if (lockableHere) {
          if (inOperand) return false;
          ops.emplace_back(&binary, parent);
        }
      } else if (inOperand && expr->kind() == ExprKind::Ternary &&
                 static_cast<const rtl::TernaryExpr&>(*expr).isKeyMux()) {
        return false;
      }
      const int myCode = constructCode(*expr);
      for (int i = expr->exprSlotCount() - 1; i >= 0; --i) {
        pending.emplace_back(&expr->exprAt(i), myCode, inOperand || lockableHere);
      }
    }
    return true;
  }
};

/// A row's (codes, label) and, under extended features, its two depths,
/// packed into integers.
struct TupleKey {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  bool operator==(const TupleKey&) const = default;
};

/// splitmix64's finalizer over both words: ProbeTable takes slots from the
/// low bits, which a bare product would leave to the last code alone.
[[nodiscard]] std::uint64_t hashKey(const TupleKey& key) noexcept {
  std::uint64_t z = key.lo ^ key.hi * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

std::optional<PoolRelocker> PoolRelocker::build(const rtl::Module& lockedTarget,
                                                const lock::PairTable& table,
                                                const LocalityConfig& config) {
  std::vector<std::tuple<const rtl::BinaryExpr*, int>> ops;
  TargetWalk walk{table, ops, {}};
  for (const auto& assign : lockedTarget.contAssigns()) {
    if (!walk.visitTree(assign->value())) return std::nullopt;
  }
  bool qualifies = true;
  rtl::forEachStmt(lockedTarget, [&walk, &qualifies](const rtl::Stmt& stmt) {
    for (int i = 0; qualifies && i < stmt.exprSlotCount(); ++i) {
      qualifies = walk.visitTree(stmt.exprAt(i));
    }
  });
  if (!qualifies) return std::nullopt;

  PoolRelocker relocker{config};
  for (std::size_t k = 0; k < relocker.lockable_.size(); ++k) {
    const auto kind = static_cast<OpKind>(k);
    if (!table.lockable(kind)) continue;
    relocker.lockable_[k] = true;
    relocker.dummyFor_[k] = table.dummyFor(kind);
  }
  relocker.meta_.reserve(ops.size());
  for (const auto& [op, parentCode] : ops) {
    RTLOCK_REQUIRE(parentCode >= 0 && parentCode < 256, "construct code outside the byte range");
    const auto meta = static_cast<std::uint32_t>(relocker.meta_.size());
    const int depth = config.extendedFeatures ? rtl::exprDepth(*op) : 0;
    relocker.meta_.push_back(OpMeta{op->lhs().width(), op->rhs().width(), depth, parentCode});
    relocker.pools_[static_cast<std::size_t>(op->op())].push_back(PoolEntry{meta});
  }
  for (std::size_t k = 0; k < relocker.pools_.size(); ++k) {
    relocker.baseSizes_[k] = relocker.pools_[k].size();
  }
  relocker.baseTotal_ = static_cast<int>(ops.size());
  return relocker;
}

void PoolRelocker::relockRound(int budget, support::Rng& rng) {
  ++round_;
  locks_.clear();
  for (std::size_t k = 0; k < pools_.size(); ++k) pools_[k].resize(baseSizes_[k]);
  total_ = baseTotal_;
  // assureRandomLock's loop around LockEngine::lockRandomOp.
  for (int bitsUsed = 0; bitsUsed < budget && total_ > 0; ++bitsUsed) {
    std::uint64_t target = rng.below(static_cast<std::uint64_t>(total_));
    std::size_t k = 0;
    while (target >= pools_[k].size()) target -= pools_[k++].size();
    wrap(static_cast<OpKind>(k), static_cast<std::size_t>(target), rng.coin());
  }
  harvestRound();
}

void PoolRelocker::wrap(OpKind kind, std::size_t index, bool keyValue) {
  const auto self = static_cast<std::uint32_t>(locks_.size());
  PoolEntry& entry = pools_[static_cast<std::size_t>(kind)][index];
  RoundLock record{kind, dummyFor_[static_cast<std::size_t>(kind)], keyValue, entry.meta,
                   meta_[entry.meta].parentCode};
  if (entry.round == round_) {
    // The entry is a branch of an earlier mux of this round: that branch
    // now holds the new mux, which in turn sits below a mux.
    RoundLock& outer = locks_[entry.wrapper];
    (entry.dummyBranch ? outer.nextDummy : outer.nextReal) = static_cast<int>(self);
    record.parentCode = kMuxCode;
  }
  entry.round = round_;
  entry.wrapper = self;
  entry.dummyBranch = false;
  if (lockable_[static_cast<std::size_t>(record.dummyKind)]) {
    pools_[static_cast<std::size_t>(record.dummyKind)].push_back(
        PoolEntry{record.meta, round_, self, true});
    ++total_;
  }
  locks_.push_back(record);
}

void PoolRelocker::harvestRound() {
  const bool extended = config_.extendedFeatures;
  // A branch that a later lock wrapped holds that lock's mux; otherwise the
  // operation (or its dummy clone, of the same depth).
  const auto branchDepth = [this](int next, const RoundLock& lock) {
    return next >= 0 ? muxDepth_[static_cast<std::size_t>(next)] : meta_[lock.meta].depth;
  };
  if (extended) {
    // Mux depths depend on the muxes nested into them later in the round,
    // so resolve from the last lock backwards.
    muxDepth_.resize(locks_.size());
    for (std::size_t i = locks_.size(); i-- > 0;) {
      const int real = branchDepth(locks_[i].nextReal, locks_[i]);
      const int dummy = branchDepth(locks_[i].nextDummy, locks_[i]);
      muxDepth_[i] = 1 + std::max({1, real, dummy});  // key ref, then, else
    }
  }
  for (const RoundLock& lock : locks_) {
    const int realCode = lock.nextReal >= 0 ? kMuxCode : 1 + static_cast<int>(lock.realKind);
    const int dummyCode = lock.nextDummy >= 0 ? kMuxCode : 1 + static_cast<int>(lock.dummyKind);
    codes_.push_back(static_cast<std::uint8_t>(lock.keyValue ? realCode : dummyCode));
    codes_.push_back(static_cast<std::uint8_t>(lock.keyValue ? dummyCode : realCode));
    labels_.push_back(lock.keyValue ? 1 : 0);
    if (!extended) continue;
    const int realDepth = branchDepth(lock.nextReal, lock);
    const int dummyDepth = branchDepth(lock.nextDummy, lock);
    depths_.push_back(static_cast<std::uint32_t>(lock.keyValue ? realDepth : dummyDepth));
    depths_.push_back(static_cast<std::uint32_t>(lock.keyValue ? dummyDepth : realDepth));
    const OpMeta& meta = meta_[lock.meta];
    const int width = std::max(rtl::resultWidth(lock.realKind, meta.lhsWidth, meta.rhsWidth),
                               rtl::resultWidth(lock.dummyKind, meta.lhsWidth, meta.rhsWidth));
    codes_.push_back(static_cast<std::uint8_t>(lock.parentCode));
    codes_.push_back(static_cast<std::uint8_t>(widthBucket(width)));
  }
}

void PoolRelocker::reserveRows(std::size_t rows) {
  codes_.reserve(codes_.size() + rows * codeStride());
  if (config_.extendedFeatures) depths_.reserve(depths_.size() + rows * 2);
  labels_.reserve(labels_.size() + rows);
}

int PoolRelocker::row(std::size_t i, std::span<double> features) const {
  RTLOCK_REQUIRE(features.size() >= static_cast<std::size_t>(featureCount(config_)),
                 "feature buffer shorter than a row");
  const std::uint8_t* codes = codes_.data() + i * codeStride();
  features[0] = codes[0];
  features[1] = codes[1];
  if (config_.extendedFeatures) {
    features[2] = depths_[2 * i];
    features[3] = depths_[2 * i + 1];
    features[4] = codes[2];
    features[5] = codes[3];
  }
  return labels_[i];
}

ml::KFoldAggregates PoolRelocker::foldAggregates(std::size_t maxRows, int folds,
                                                 support::Rng& rng) const {
  // Two rows are one aggregated tuple exactly when their integer keys are
  // equal: every feature is an integer below 2^32, so its double is exact.
  const std::size_t stride = codeStride();
  const auto keyOf = [this, stride](std::size_t i) {
    const std::uint8_t* codes = codes_.data() + i * stride;
    TupleKey key{labels_[i], 0};
    for (std::size_t c = 0; c < stride; ++c) key.lo = key.lo << 8 | codes[c];
    if (config_.extendedFeatures) {
      key.hi = std::uint64_t{depths_[2 * i]} << 32 | depths_[2 * i + 1];
    }
    return key;
  };

  // Kept rows in visit order, as their tuple ids and weights; per tuple its
  // first row and its weight sum, accumulated in row order as Dataset
  // aggregation accumulates it.
  const std::size_t kept = std::min(rowCount(), maxRows);
  std::vector<std::uint32_t> tupleOf;
  std::vector<double> weights;
  tupleOf.reserve(kept);
  weights.reserve(kept);
  std::vector<std::size_t> firstRow;
  std::vector<TupleKey> tupleKey;
  std::vector<double> tupleWeight;
  support::ProbeTable tuples;
  ml::forEachSampledRow(rowCount(), maxRows, rng, [&](std::size_t i, double weight) {
    const TupleKey key = keyOf(i);
    const std::uint32_t tuple =
        tuples.intern(hashKey(key), [&](std::uint32_t id) { return tupleKey[id] == key; });
    if (tuple == firstRow.size()) {
      firstRow.push_back(i);
      tupleKey.push_back(key);
      tupleWeight.push_back(weight);
    } else {
      tupleWeight[tuple] += weight;
    }
    tupleOf.push_back(tuple);
    weights.push_back(weight);
  });

  const int features = featureCount(config_);
  ml::Dataset all{features};
  all.reserveRows(firstRow.size());
  std::array<double, 6> values{};
  for (std::size_t tuple = 0; tuple < firstRow.size(); ++tuple) {
    const int label = row(firstRow[tuple], values);
    all.add(ml::RowView{values.data(), static_cast<std::size_t>(features)}, label,
            tupleWeight[tuple]);
  }
  return ml::aggregateFolds(std::move(all), tupleOf, weights, folds, rng);
}

}  // namespace rtlock::attack
