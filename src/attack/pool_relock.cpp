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

// Row byte layout (see the header comment).
constexpr std::uint8_t kKindMask = 0x1f;
constexpr std::uint8_t kKeyBit = 0x20;
constexpr std::uint8_t kRealWrapped = 0x40;
constexpr std::uint8_t kDummyWrapped = 0x80;
static_assert(rtl::kOpKindCount <= kKindMask + 1, "a real kind fits the row byte's low bits");

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
  // Live kinds: every base kind and, transitively, the dummy kinds its
  // locks add to the pools.  One dummy per kind makes each closure a chain.
  std::array<bool, rtl::kOpKindCount> live{};
  for (const auto& [op, parentCode] : ops) {
    for (OpKind kind = op->op(); table.lockable(kind) && !live[static_cast<std::size_t>(kind)];
         kind = table.dummyFor(kind)) {
      live[static_cast<std::size_t>(kind)] = true;
    }
  }
  std::array<std::size_t, rtl::kOpKindCount> slotOf{};
  for (std::size_t k = 0; k < live.size(); ++k) {
    const auto kind = static_cast<OpKind>(k);
    if (table.lockable(kind)) relocker.dummyFor_[k] = table.dummyFor(kind);
    if (!live[k]) continue;
    slotOf[k] = relocker.live_.size();
    relocker.live_.emplace_back().kind = static_cast<std::uint8_t>(k);
  }
  // A lockable dummy kind is live by the closure.
  for (LiveKind& kind : relocker.live_) {
    const OpKind dummy = relocker.dummyFor_[kind.kind];
    kind.dummySlot =
        table.lockable(dummy) ? slotOf[static_cast<std::size_t>(dummy)] : relocker.live_.size();
  }
  relocker.meta_.reserve(ops.size());
  for (const auto& [op, parentCode] : ops) {
    RTLOCK_REQUIRE(parentCode >= 0 && parentCode < 256, "construct code outside the byte range");
    LiveKind& kind = relocker.live_[slotOf[static_cast<std::size_t>(op->op())]];
    kind.pool.push_back(0);
    if (config.extendedFeatures) {
      kind.meta.push_back(static_cast<std::uint32_t>(relocker.meta_.size()));
      relocker.meta_.push_back(
          OpMeta{op->lhs().width(), op->rhs().width(), rtl::exprDepth(*op), parentCode});
    }
  }
  for (LiveKind& kind : relocker.live_) {
    kind.baseSize = static_cast<std::uint32_t>(kind.pool.size());
  }
  relocker.poolStart_.resize(relocker.live_.size() + 1);
  relocker.baseTotal_ = static_cast<int>(ops.size());

  for (std::size_t byte = 0; byte < relocker.decoded_.size(); ++byte) {
    const std::size_t real = byte & kKindMask;
    if (real >= live.size() || !table.lockable(static_cast<OpKind>(real))) continue;
    const int realCode = (byte & kRealWrapped) != 0 ? kMuxCode : 1 + static_cast<int>(real);
    const int dummyCode =
        (byte & kDummyWrapped) != 0 ? kMuxCode : 1 + static_cast<int>(relocker.dummyFor_[real]);
    const bool key = (byte & kKeyBit) != 0;
    relocker.decoded_[byte] = static_cast<std::uint32_t>(key ? realCode : dummyCode) |
                              static_cast<std::uint32_t>(key ? dummyCode : realCode) << 8 |
                              std::uint32_t{key} << 16;
  }
  return relocker;
}

void PoolRelocker::relockRound(int budget, support::Rng& rng) {
  ++round_;
  const bool extended = config_.extendedFeatures;
  const std::uint64_t stamp = std::uint64_t{round_} << 32;
  // assureRandomLock's loop around LockEngine::lockRandomOp.  Wrapping never
  // shrinks the pools, so a target with lockable operations takes exactly
  // `budget` locks, and each lock adds at most one dummy to one pool.
  const int locks = baseTotal_ > 0 ? std::max(budget, 0) : 0;
  if (locks == 0) return;
  const auto lockCount = static_cast<std::size_t>(locks);
  const std::size_t kinds = live_.size();
  std::uint64_t* const start = poolStart_.data();
  for (std::size_t slot = 0; slot < kinds; ++slot) {
    LiveKind& kind = live_[slot];
    if (kind.pool.size() < kind.baseSize + lockCount) kind.pool.resize(kind.baseSize + lockCount);
    start[slot + 1] = start[slot] + kind.baseSize;
  }
  const std::size_t roundBase = rows_.size();
  rows_.resize(roundBase + lockCount);
  std::uint8_t* const rows = rows_.data() + roundBase;
  if (extended) {
    lockMeta_.resize(lockCount);
    nextWrapper_.assign(lockCount, {-1, -1});
    lockParent_.resize(lockCount);
  }
  // total is start[kinds], kept apart so that the next draw's bound does
  // not wait on this lock's kind.
  auto total = static_cast<std::uint64_t>(baseTotal_);
  for (int lock = 0; lock < locks; ++lock) {
    const std::uint64_t target = rng.below(total);
    // The live kind whose pool holds `target`, counted rather than searched
    // so that no branch depends on the draw.
    std::size_t slot = 0;
    for (std::size_t s = 1; s < kinds; ++s) slot += target >= start[s] ? 1 : 0;
    LiveKind& kind = live_[slot];
    const auto index = static_cast<std::size_t>(target - start[slot]);
    std::uint64_t& entry = kind.pool[index];
    const bool key = rng.coin();
    const std::uint64_t self = static_cast<std::uint64_t>(lock) << 1;
    // An entry stamped this round is a branch of an earlier mux of this
    // round, and that branch now holds the new mux.
    const bool nested = entry >> 32 == round_;
    const std::size_t wrapper = static_cast<std::uint32_t>(entry) >> 1;
    if (nested) rows[wrapper] |= (entry & 1) != 0 ? kDummyWrapped : kRealWrapped;
    if (extended) {
      const auto at = static_cast<std::size_t>(lock);
      if (nested) nextWrapper_[wrapper][entry & 1] = lock;
      lockMeta_[at] = nested ? lockMeta_[wrapper] : kind.meta[index];
      lockParent_[at] =
          static_cast<std::uint8_t>(nested ? kMuxCode : meta_[lockMeta_[at]].parentCode);
    }
    entry = stamp | self;
    const std::size_t dummy = kind.dummySlot;
    if (dummy < kinds) {
      live_[dummy].pool[start[dummy + 1] - start[dummy]] = stamp | self | 1;
      ++total;
    }
    for (std::size_t s = 1; s <= kinds; ++s) start[s] += s > dummy ? 1 : 0;
    rows[lock] = static_cast<std::uint8_t>(kind.kind | (key ? kKeyBit : 0));
  }
  if (extended) resolveExtended(roundBase);
}

void PoolRelocker::resolveExtended(std::size_t roundBase) {
  const std::size_t locks = rows_.size() - roundBase;
  // A branch that a later lock wrapped holds that lock's mux; otherwise the
  // operation (or its dummy clone, of the same depth).
  const auto branchDepth = [this](int next, std::size_t lock) {
    return next >= 0 ? muxDepth_[static_cast<std::size_t>(next)] : meta_[lockMeta_[lock]].depth;
  };
  // Mux depths depend on the muxes nested into them later in the round,
  // so resolve from the last lock backwards.
  muxDepth_.resize(locks);
  for (std::size_t i = locks; i-- > 0;) {
    const int real = branchDepth(nextWrapper_[i][0], i);
    const int dummy = branchDepth(nextWrapper_[i][1], i);
    muxDepth_[i] = 1 + std::max({1, real, dummy});  // key ref, then, else
  }
  for (std::size_t i = 0; i < locks; ++i) {
    const std::uint8_t row = rows_[roundBase + i];
    const bool key = (row & kKeyBit) != 0;
    const int realDepth = branchDepth(nextWrapper_[i][0], i);
    const int dummyDepth = branchDepth(nextWrapper_[i][1], i);
    depths_.push_back(static_cast<std::uint32_t>(key ? realDepth : dummyDepth));
    depths_.push_back(static_cast<std::uint32_t>(key ? dummyDepth : realDepth));
    const OpMeta& meta = meta_[lockMeta_[i]];
    const auto realKind = static_cast<OpKind>(row & kKindMask);
    const OpKind dummyKind = dummyFor_[static_cast<std::size_t>(realKind)];
    const int width = std::max(rtl::resultWidth(realKind, meta.lhsWidth, meta.rhsWidth),
                               rtl::resultWidth(dummyKind, meta.lhsWidth, meta.rhsWidth));
    context_.push_back(lockParent_[i]);
    context_.push_back(static_cast<std::uint8_t>(widthBucket(width)));
  }
}

void PoolRelocker::reserveRows(std::size_t rows) {
  rows_.reserve(rows_.size() + rows);
  if (!config_.extendedFeatures) return;
  depths_.reserve(depths_.size() + rows * 2);
  context_.reserve(context_.size() + rows * 2);
}

int PoolRelocker::row(std::size_t i, std::span<double> features) const {
  RTLOCK_REQUIRE(features.size() >= static_cast<std::size_t>(featureCount(config_)),
                 "feature buffer shorter than a row");
  const std::uint32_t decoded = decoded_[rows_[i]];
  features[0] = decoded & 0xff;
  features[1] = decoded >> 8 & 0xff;
  if (config_.extendedFeatures) {
    features[2] = depths_[2 * i];
    features[3] = depths_[2 * i + 1];
    features[4] = context_[2 * i];
    features[5] = context_[2 * i + 1];
  }
  return static_cast<int>(decoded >> 16);
}

ml::KFoldAggregates PoolRelocker::foldAggregates(std::size_t maxRows, int folds,
                                                 support::Rng& rng) const {
  // Two rows are one aggregated tuple exactly when their decoded integer
  // keys are equal: every feature is an integer below 2^32, so its double
  // is exact.
  const bool extended = config_.extendedFeatures;
  const auto keyOf = [this, extended](std::size_t i) {
    TupleKey key{decoded_[rows_[i]], 0};
    if (extended) {
      key.lo |= std::uint64_t{context_[2 * i]} << 24 | std::uint64_t{context_[2 * i + 1]} << 32;
      key.hi = std::uint64_t{depths_[2 * i]} << 32 | depths_[2 * i + 1];
    }
    return key;
  };

  // Kept rows in visit order, as their tuple ids and weights; per tuple its
  // first row and its weight sum, accumulated in row order as Dataset
  // aggregation accumulates it.  A basic row's tuple follows from its byte
  // alone, so each byte is interned once.
  const std::size_t kept = std::min(rowCount(), maxRows);
  std::vector<std::uint32_t> tupleOf;
  std::vector<double> weights;
  tupleOf.reserve(kept);
  weights.reserve(kept);
  std::vector<std::size_t> firstRow;
  std::vector<TupleKey> tupleKey;
  std::vector<double> tupleWeight;
  support::ProbeTable tuples;
  constexpr std::uint32_t kUnseen = UINT32_MAX;
  std::array<std::uint32_t, 256> byteTuple;
  byteTuple.fill(kUnseen);
  const auto intern = [&](std::size_t i) {
    const TupleKey key = keyOf(i);
    const std::uint32_t tuple =
        tuples.intern(hashKey(key), [&](std::uint32_t id) { return tupleKey[id] == key; });
    if (tuple == firstRow.size()) {
      firstRow.push_back(i);
      tupleKey.push_back(key);
      tupleWeight.push_back(0.0);
    }
    return tuple;
  };
  ml::forEachSampledRow(rowCount(), maxRows, rng, [&](std::size_t i, double weight) {
    std::uint32_t tuple = kUnseen;
    if (extended) {
      tuple = intern(i);
    } else {
      std::uint32_t& cached = byteTuple[rows_[i]];
      if (cached == kUnseen) cached = intern(i);
      tuple = cached;
    }
    tupleWeight[tuple] += weight;
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
