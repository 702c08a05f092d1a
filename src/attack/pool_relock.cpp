#include "attack/pool_relock.hpp"

#include <algorithm>

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

/// The nodes of the arena: lockable operations and key muxes.
[[nodiscard]] bool isNode(const Expr& expr, const lock::PairTable& table) {
  if (expr.kind() == ExprKind::Binary) {
    return table.lockable(static_cast<const rtl::BinaryExpr&>(expr).op());
  }
  return expr.kind() == ExprKind::Ternary &&
         static_cast<const rtl::TernaryExpr&>(expr).isKeyMux();
}

/// exprDepth of `expr` with every node below it counted as depth 0.
[[nodiscard]] int staticDepth(const Expr& expr, const lock::PairTable& table) {
  int deepest = 0;
  for (int i = 0; i < expr.exprSlotCount(); ++i) {
    const Expr& child = expr.exprAt(i);
    if (!isNode(child, table)) deepest = std::max(deepest, staticDepth(child, table));
  }
  return deepest + 1;
}

/// WidthStep::op.
enum WidthOp : std::uint8_t { kLeaf, kLink, kUnary, kBinary, kTernary, kConcat, kSlice };

/// Appends the postfix width program of `expr` (an operand of a node):
/// nodes below it are read from the links, numbered in pre-order.
template <typename Step>
void emitWidths(const Expr& expr, const lock::PairTable& table, std::int32_t& link,
                std::vector<Step>& tape) {
  if (isNode(expr, table)) {
    tape.push_back(Step{kLink, 0, link++});
    return;
  }
  for (int i = 0; i < expr.exprSlotCount(); ++i) emitWidths(expr.exprAt(i), table, link, tape);
  switch (expr.kind()) {
    case ExprKind::Constant:
    case ExprKind::SignalRef:
    case ExprKind::KeyRef: tape.push_back(Step{kLeaf, 0, expr.width()}); break;
    case ExprKind::Slice: tape.push_back(Step{kSlice, 0, expr.width()}); break;
    case ExprKind::Unary:
      tape.push_back(Step{kUnary,
                          static_cast<std::uint8_t>(static_cast<const rtl::UnaryExpr&>(expr).op()),
                          0});
      break;
    case ExprKind::Binary:
      tape.push_back(Step{kBinary,
                          static_cast<std::uint8_t>(static_cast<const rtl::BinaryExpr&>(expr).op()),
                          0});
      break;
    case ExprKind::Ternary: tape.push_back(Step{kTernary, 0, 0}); break;
    case ExprKind::Concat: tape.push_back(Step{kConcat, 0, expr.exprSlotCount()}); break;
  }
}

/// The target's nodes in LockEngine::buildIndex order (pre-order over every
/// expression slot, continuous assignments first), each with the node that
/// contains it, how many edges below that node it sits and the code of the
/// expression holding it.
struct TargetWalk {
  struct Found {
    const Expr* expr;
    std::uint32_t owner;
    std::uint32_t offset;
    int holderCode;
  };
  static constexpr std::uint32_t kRoot = UINT32_MAX;

  const lock::PairTable& table;
  std::vector<Found> found;
  std::vector<Found> pending;

  void visitTree(const Expr& root) {
    pending.clear();
    pending.push_back(Found{&root, kRoot, 0, kTopCode});
    while (!pending.empty()) {
      const Found next = pending.back();
      pending.pop_back();
      std::uint32_t owner = next.owner;
      std::uint32_t offset = next.offset + 1;
      if (isNode(*next.expr, table)) {
        owner = static_cast<std::uint32_t>(found.size());
        offset = 1;
        found.push_back(next);
      }
      const int code = constructCode(*next.expr);
      for (int i = next.expr->exprSlotCount() - 1; i >= 0; --i) {
        pending.push_back(Found{&next.expr->exprAt(i), owner, offset, code});
      }
    }
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

PoolRelocker PoolRelocker::build(const rtl::Module& lockedTarget, const lock::PairTable& table,
                                 const LocalityConfig& config) {
  TargetWalk walk{table, {}, {}};
  for (const auto& assign : lockedTarget.contAssigns()) walk.visitTree(assign->value());
  rtl::forEachStmt(lockedTarget, [&walk](const rtl::Stmt& stmt) {
    for (int i = 0; i < stmt.exprSlotCount(); ++i) walk.visitTree(stmt.exprAt(i));
  });
  const std::vector<TargetWalk::Found>& found = walk.found;
  RTLOCK_REQUIRE(found.size() < kArmBase / 8, "target too large for the relock arena");

  PoolRelocker relocker{config};
  // Links: the root links first, then each node's run, in pre-order.
  const auto nodeCount = static_cast<std::uint32_t>(found.size());
  std::vector<std::uint32_t> nextLink(nodeCount + 1, 0);  // per owner, root last
  const auto ownerSlot = [nodeCount](std::uint32_t owner) {
    return owner == TargetWalk::kRoot ? nodeCount : owner;
  };
  for (const TargetWalk::Found& node : found) ++nextLink[ownerSlot(node.owner)];
  // Link 0 is a sink that wraps in round mux arms write through.
  std::vector<std::uint32_t> linkCount = nextLink;
  std::uint32_t running = 1 + linkCount[nodeCount];
  nextLink[nodeCount] = 1;
  for (std::uint32_t i = 0; i < nodeCount; ++i) {
    nextLink[i] = running;
    running += linkCount[i];
  }
  relocker.nodes_.resize(nodeCount);
  relocker.links_.resize(running);
  relocker.baseParent_.resize(nodeCount);
  // The round muxes' shape: a key ref beside the two arms it reads.
  relocker.widthTape_ = {WidthStep{kLink, 0, 0}, WidthStep{kLink, 0, 1}};
  relocker.shapes_ = {Shape{0, 2, 2, 0, 0}};
  for (std::uint32_t i = 0; i < nodeCount; ++i) {
    const TargetWalk::Found& entry = found[i];
    Node& node = relocker.nodes_[i];
    node.firstLink = nextLink[i];
    node.linkCount = linkCount[i];
    node.shape = static_cast<std::uint32_t>(relocker.shapes_.size());
    node.width = entry.expr->width();
    node.code = static_cast<std::uint8_t>(constructCode(*entry.expr));
    Shape& shape = relocker.shapes_.emplace_back();
    shape.staticDepth = staticDepth(*entry.expr, table);
    const Expr* operands[2] = {nullptr, nullptr};
    if (entry.expr->kind() == ExprKind::Binary) {
      const auto& op = static_cast<const rtl::BinaryExpr&>(*entry.expr);
      node.kind = static_cast<std::uint8_t>(op.op());
      shape.lhsWidth = op.lhs().width();
      shape.rhsWidth = op.rhs().width();
      operands[0] = &op.lhs();
      operands[1] = &op.rhs();
    } else {
      const auto& mux = static_cast<const rtl::TernaryExpr&>(*entry.expr);
      RTLOCK_REQUIRE(static_cast<const rtl::KeyRefExpr&>(mux.cond()).firstBit() <
                         lockedTarget.keyWidth(),
                     "key mux reads a key bit outside the key");
      operands[0] = &mux.thenExpr();
      operands[1] = &mux.elseExpr();
    }
    shape.tape = static_cast<std::uint32_t>(relocker.widthTape_.size());
    std::int32_t links = 0;
    for (const Expr* operand : operands) emitWidths(*operand, table, links, relocker.widthTape_);
    RTLOCK_REQUIRE(static_cast<std::uint32_t>(links) == node.linkCount,
                   "width program and links disagree");
    shape.tapeSize = static_cast<std::uint32_t>(relocker.widthTape_.size()) - shape.tape;
    RTLOCK_REQUIRE(entry.holderCode >= 0 && entry.holderCode < 256,
                   "construct code outside the byte range");
    const std::uint32_t link = nextLink[ownerSlot(entry.owner)]++;
    relocker.links_[link] =
        Link{i, entry.owner, entry.offset, static_cast<std::uint8_t>(entry.holderCode)};
    node.at = link;
    relocker.baseParent_[i] = entry.owner;
  }
  // Target depths bottom-up: a node's links hold later nodes.
  relocker.baseDepth_.resize(nodeCount);
  for (std::uint32_t i = nodeCount; i-- > 0;) {
    const Node& node = relocker.nodes_[i];
    std::int32_t depth = relocker.shapes_[node.shape].staticDepth;
    for (std::uint32_t l = node.firstLink; l < node.firstLink + node.linkCount; ++l) {
      const Link& link = relocker.links_[l];
      depth = std::max(depth, static_cast<std::int32_t>(link.offset) +
                                  relocker.baseDepth_[link.content]);
    }
    relocker.baseDepth_[i] = depth;
  }
  // Only an operation with links clones, so only then do the nodes and
  // links of a basic round need to exist.
  relocker.arena_ =
      config.extendedFeatures ||
      std::any_of(relocker.nodes_.begin(), relocker.nodes_.end(),
                  [](const Node& node) { return node.code != kMuxCode && node.linkCount > 0; });
  relocker.baseNodes_ = nodeCount;
  relocker.baseLinks_ = running;
  relocker.dirty_.assign(nodeCount, 0);

  // Live kinds: every base kind and, transitively, the dummy kinds its
  // locks add to the pools.  One dummy per kind makes each closure a chain.
  std::array<bool, rtl::kOpKindCount> live{};
  for (const Node& node : relocker.nodes_) {
    if (node.code == kMuxCode) continue;
    for (auto kind = static_cast<OpKind>(node.kind);
         table.lockable(kind) && !live[static_cast<std::size_t>(kind)];
         kind = table.dummyFor(kind)) {
      live[static_cast<std::size_t>(kind)] = true;
    }
  }
  for (std::size_t k = 0; k < live.size(); ++k) {
    const auto kind = static_cast<OpKind>(k);
    if (table.lockable(kind)) relocker.dummyFor_[k] = table.dummyFor(kind);
    if (!live[k]) continue;
    relocker.slotOf_[k] = relocker.live_.size();
    relocker.live_.emplace_back().kind = static_cast<std::uint8_t>(k);
  }
  for (std::size_t k = 0; k < live.size(); ++k) {
    if (!live[k]) relocker.slotOf_[k] = relocker.live_.size();
  }
  // A lockable dummy kind is live by the closure.
  for (LiveKind& kind : relocker.live_) {
    kind.dummySlot = relocker.slotOf_[static_cast<std::size_t>(relocker.dummyFor_[kind.kind])];
  }
  for (std::uint32_t i = 0; i < nodeCount; ++i) {
    const Node& node = relocker.nodes_[i];
    if (node.code != kMuxCode) {
      relocker.live_[relocker.slotOf_[node.kind]].base.push_back(
          Entry{node.linkCount > 0 ? i | kHasLinks : i, node.at});
    }
  }
  for (LiveKind& kind : relocker.live_) {
    kind.pool = kind.base;
    relocker.baseTotal_ += static_cast<int>(kind.base.size());
  }
  relocker.poolStart_.resize(relocker.live_.size() + 1);

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
  // assureRandomLock's loop around LockEngine::lockRandomOp.  Wrapping never
  // shrinks the pools, so a target with lockable operations takes exactly
  // `budget` locks.
  const int locks = baseTotal_ > 0 ? std::max(budget, 0) : 0;
  if (locks == 0) return;
  const std::size_t kinds = live_.size();
  std::uint64_t* const start = poolStart_.data();
  for (std::size_t slot = 0; slot < kinds; ++slot) {
    start[slot + 1] = start[slot] + live_[slot].base.size();
  }
  clonedRoundMux_ = false;
  roundRows_.assign(1, 0);
  rowNode_.assign(1, kNone);
  armContent_.assign(2, kNone);
  rowContext_.assign(1, {0, 0});
  // total is start[kinds], kept apart so that the next draw's bound does
  // not wait on this lock's appends.
  std::uint64_t total = start[kinds];
  for (int lock = 0; lock < locks; ++lock) {
    const std::uint64_t target = rng.below(total);
    // The live kind whose pool holds `target`, counted rather than searched
    // so that no branch depends on the draw.
    std::size_t slot = 0;
    for (std::size_t s = 1; s < kinds; ++s) slot += target >= start[s] ? 1 : 0;
    LiveKind& kind = live_[slot];
    Entry& entry = kind.pool[static_cast<std::size_t>(target - start[slot])];
    const bool key = rng.coin();
    const Entry drawn = entry;
    const auto row = static_cast<std::uint32_t>(roundRows_.size());
    const std::uint32_t thenArm = kArmBase + 2 * row;
    entry.at = key ? thenArm : thenArm + 1;

    // The new mux takes the operation's place.  An arm of a round mux now
    // holds a nested mux; its row's then arm is the real one exactly when
    // the key bit is set.  Outside round mux arms the bit lands in the sink
    // row.
    const std::uint32_t arm = isArm(drawn.at) ? drawn.at - kArmBase : 0;
    const std::uint8_t byte = roundRows_[arm >> 1];
    const bool realSide = ((arm & 1) == 0) == ((byte & kKeyBit) != 0);
    roundRows_[arm >> 1] =
        static_cast<std::uint8_t>(byte | (realSide ? kRealWrapped : kDummyWrapped));
    roundRows_.push_back(static_cast<std::uint8_t>(kind.kind | (key ? kKeyBit : 0)));

    // The dummy joins its pool first; the arena's nodes (the mux, then the
    // dummy) and the clones follow.
    const auto dummy = static_cast<std::uint32_t>(nodes_.size()) + 1;
    const std::size_t dummySlot = kind.dummySlot;
    if (dummySlot < kinds) {
      live_[dummySlot].pool.push_back(
          Entry{dummy | (drawn.node & kHasLinks), key ? thenArm + 1 : thenArm});
      // Every offset past the dummy's pool moves; a fixed trip count keeps
      // the loop exit off the draw.
      for (std::size_t s = 1; s <= kinds; ++s) start[s] += s > dummySlot ? 1 : 0;
      ++total;
    }
    if (arena_) {
      wrapInArena(drawn, live_[slot].kind, key, static_cast<std::uint32_t>(lock));
      total = start[kinds];
    }
  }
  endRound(static_cast<std::size_t>(locks));
}

void PoolRelocker::wrapInArena(Entry drawn, std::uint8_t kind, bool key, std::uint32_t lock) {
  const bool extended = config_.extendedFeatures;
  const std::uint32_t op = drawn.node & ~kHasLinks;
  const bool hasLinks = (drawn.node & kHasLinks) != 0;
  const std::uint32_t at = drawn.at;
  const auto mux = static_cast<std::uint32_t>(nodes_.size());
  const std::uint32_t dummy = mux + 1;
  const auto row = static_cast<std::uint32_t>(roundRows_.size() - 1);
  const std::uint32_t thenArm = kArmBase + 2 * row;
  const std::uint32_t realArm = key ? thenArm : thenArm + 1;
  const std::uint32_t dummyArm = key ? thenArm + 1 : thenArm;

  // The mux lands in the operation's link (outside round mux arms the arm
  // write lands in the sink row's arm, inside the link write in sink link
  // 0), and the mux and the dummy become nodes.
  const bool inArm = isArm(at);
  armContent_[inArm ? at - kArmBase : 0] = mux;
  links_[inArm ? 0 : at].content = mux;
  restore_.push_back({at, op});
  std::uint32_t firstLink = 0;
  std::uint32_t linkCount = 0;
  std::uint32_t shape = 0;
  std::int32_t realWidth = 0;
  if (hasLinks || extended) {
    Node& real = nodes_[op];
    real.at = realArm;
    firstLink = real.firstLink;
    linkCount = real.linkCount;
    shape = real.shape;
    realWidth = real.width;
  }
  const OpKind dummyKind = dummyFor_[kind];
  const auto dummyCode = static_cast<std::uint8_t>(1 + static_cast<int>(dummyKind));
  // Widths feed only the extended width bucket.  The dummy's follows from
  // the operation's operand widths; with links, settleCloneWidths redoes it
  // from the clones.
  std::int32_t dummyWidth = 0;
  if (extended) {
    const Shape& operands = shapes_[shape];
    dummyWidth = rtl::resultWidth(dummyKind, operands.lhsWidth, operands.rhsWidth);
    if (at < baseLinks_) markDirty(at);
  }
  const std::int32_t muxWidth = std::max(realWidth, dummyWidth);
  const auto dummyLinks = static_cast<std::uint32_t>(links_.size());
  nodes_.emplace_back(at, thenArm, 2u, 0u, muxWidth, row, lock,
                      static_cast<std::uint8_t>(kMuxCode), std::uint8_t{0});
  nodes_.emplace_back(dummyArm, dummyLinks, linkCount, shape, dummyWidth, 0u, 0u, dummyCode,
                      static_cast<std::uint8_t>(dummyKind));
  armContent_.push_back(key ? op : dummy);
  armContent_.push_back(key ? dummy : op);
  rowNode_.push_back(mux);
  if (extended) {
    const auto parentCode = static_cast<std::uint8_t>(inArm ? kMuxCode : links_[at].holderCode);
    rowContext_.push_back({parentCode, static_cast<std::uint8_t>(widthBucket(muxWidth))});
  }
  if (!hasLinks) return;

  // The clones of the operation's operands, in pre-order after the dummy.
  for (std::uint32_t i = 0; i < linkCount; ++i) {
    const Link source = links_[firstLink + i];
    links_.emplace_back(kNone, dummy, source.offset,
                        source.offset == 1 ? dummyCode : source.holderCode);
  }
  for (std::uint32_t i = 0; i < linkCount; ++i) {
    cloneInto(links_[firstLink + i].content, dummyLinks + i);
  }
  if (extended) settleCloneWidths(dummy);
}

std::array<std::int32_t, 2> PoolRelocker::operandWidths(const Node& node) {
  const Shape& shape = shapes_[node.shape];
  if (node.linkCount == 0 && node.code != kMuxCode) return {shape.lhsWidth, shape.rhsWidth};
  widthStack_.clear();
  for (std::uint32_t i = shape.tape; i < shape.tape + shape.tapeSize; ++i) {
    const WidthStep step = widthTape_[i];
    switch (step.op) {
      case kLeaf: widthStack_.push_back(step.arg); break;
      case kLink:
        widthStack_.push_back(
            nodes_[contentOf(node.firstLink + static_cast<std::uint32_t>(step.arg))].width);
        break;
      case kUnary:
        widthStack_.back() =
            rtl::unaryResultWidth(static_cast<rtl::UnaryOp>(step.sub), widthStack_.back());
        break;
      case kSlice: widthStack_.back() = step.arg; break;
      case kBinary: {
        const std::int32_t rhs = widthStack_.back();
        widthStack_.pop_back();
        widthStack_.back() =
            rtl::resultWidth(static_cast<OpKind>(step.sub), widthStack_.back(), rhs);
        break;
      }
      case kTernary: {
        const std::int32_t otherwise = widthStack_.back();
        widthStack_.pop_back();
        const std::int32_t then = widthStack_.back();
        widthStack_.pop_back();
        widthStack_.back() = std::max(then, otherwise);
        break;
      }
      case kConcat: {
        std::int32_t total = 0;
        for (std::int32_t part = 0; part < step.arg; ++part) {
          total += widthStack_.back();
          widthStack_.pop_back();
        }
        widthStack_.push_back(total);
        break;
      }
      default: RTLOCK_UNREACHABLE("unknown width step");
    }
  }
  RTLOCK_REQUIRE(widthStack_.size() == 2, "a width program leaves two operand widths");
  return {widthStack_[0], widthStack_[1]};
}

void PoolRelocker::settleCloneWidths(std::uint32_t dummy) {
  // Expr::clone rebuilds every node, so a clone's width follows its cloned
  // operands, which a nested mux may have widened since the source was
  // made.  Contents follow their holders in the arena, so one backward pass
  // settles the clones, then the dummy, then the new mux.
  for (auto node = static_cast<std::uint32_t>(nodes_.size()); node-- > dummy - 1;) {
    Node& settled = nodes_[node];
    const std::array<std::int32_t, 2> operands = operandWidths(settled);
    settled.width =
        settled.code == kMuxCode
            ? std::max(operands[0], operands[1])
            : rtl::resultWidth(static_cast<OpKind>(settled.kind), operands[0], operands[1]);
    if (settled.row > 0) {
      rowContext_[settled.row][1] =
          static_cast<std::uint8_t>(widthBucket(settled.width));
    }
  }
}

void PoolRelocker::append(std::size_t slot, std::uint32_t node, std::uint32_t at) {
  live_[slot].pool.push_back(Entry{node, at});
  for (std::size_t s = 1; s < poolStart_.size(); ++s) poolStart_[s] += s > slot ? 1 : 0;
}

void PoolRelocker::cloneInto(std::uint32_t source, std::uint32_t link) {
  work_.clear();
  work_.push_back({source, link});
  while (!work_.empty()) {
    const auto [from, into] = work_.back();
    work_.pop_back();
    const auto copy = static_cast<std::uint32_t>(nodes_.size());
    Node node = nodes_[from];
    const std::uint32_t firstSource = node.firstLink;
    node.at = into;
    contentOf(into) = copy;
    if (node.row > 0) {
      // A clone of a mux of this round: the same key bit, a row (and arms)
      // of its own.
      const std::uint32_t original = node.row;
      const std::uint8_t byte = roundRows_[original];
      node.row = static_cast<std::uint32_t>(roundRows_.size());
      node.firstLink = kArmBase + 2 * node.row;
      roundRows_.push_back(byte);
      rowNode_.push_back(copy);
      armContent_.push_back(kNone);
      armContent_.push_back(kNone);
      if (config_.extendedFeatures) {
        const auto parentCode =
            static_cast<std::uint8_t>(isArm(into) ? kMuxCode : links_[into].holderCode);
        rowContext_.push_back({parentCode, rowContext_[original][1]});
      }
      clonedRoundMux_ = true;
    } else {
      node.firstLink = static_cast<std::uint32_t>(links_.size());
      for (std::uint32_t i = 0; i < node.linkCount; ++i) {
        Link copied = links_[firstSource + i];
        copied.owner = copy;
        links_.push_back(copied);
      }
    }
    nodes_.push_back(node);
    if (node.code != kMuxCode && slotOf_[node.kind] < live_.size()) {
      append(slotOf_[node.kind], node.linkCount > 0 ? copy | kHasLinks : copy, into);
    }
    for (std::uint32_t i = node.linkCount; i-- > 0;) {
      work_.push_back({contentOf(firstSource + i), node.firstLink + i});
    }
  }
}

void PoolRelocker::markDirty(std::uint32_t link) {
  for (std::uint32_t node = links_[link].owner; node != kNone && dirty_[node] != round_;
       node = baseParent_[node]) {
    dirty_[node] = round_;
  }
}

void PoolRelocker::orderTies(std::size_t locks) {
  ++tieRounds_;
  // The rows by key, stable in row order (a counting sort over lock indices).
  keyStart_.assign(locks + 1, 0);
  for (std::size_t row = 1; row < rowNode_.size(); ++row) {
    ++keyStart_[nodes_[rowNode_[row]].key + 1];
  }
  for (std::size_t key = 1; key <= locks; ++key) keyStart_[key] += keyStart_[key - 1];
  order_.resize(rowNode_.size() - 1);
  for (std::size_t row = 1; row < rowNode_.size(); ++row) {
    order_[keyStart_[nodes_[rowNode_[row]].key]++] = row;
  }
  // Rows of one key that are equal leave in any order alike; only rows of
  // one key that differ need the tree path's tie order.
  const bool extended = config_.extendedFeatures;
  const auto same = [&](std::uint64_t a, std::uint64_t b) {
    return decoded_[roundRows_[a]] == decoded_[roundRows_[b]] &&
           (!extended || (rowDepth_[a] == rowDepth_[b] && rowContext_[a] == rowContext_[b]));
  };
  for (std::size_t i = 1; i < order_.size(); ++i) {
    const std::uint32_t key = nodes_[rowNode_[order_[i]]].key;
    if (key == nodes_[rowNode_[order_[i - 1]]].key && !same(order_[i], order_[i - 1])) {
      sortTies();
      return;
    }
  }
}

void PoolRelocker::sortTies() {
  ++orderedTieRounds_;
  ++epoch_;
  if (stamp_.size() < nodes_.size()) stamp_.resize(nodes_.size(), 0);
  // The rows' muxes and their ancestors, up to the root links.
  roots_.clear();
  for (std::size_t row = 1; row < rowNode_.size(); ++row) {
    for (std::uint32_t node = rowNode_[row]; stamp_[node] != epoch_;) {
      stamp_[node] = epoch_;
      const std::uint32_t at = nodes_[node].at;
      node = ownerOf(at);
      if (node == kNone) {
        roots_.push_back(at);
        break;
      }
    }
  }
  // Root links are numbered in module pre-order; walk the marked nodes below
  // them in pre-order, listing the round's muxes as (key << 32 | row).
  std::sort(roots_.begin(), roots_.end());
  order_.clear();
  for (const std::uint32_t root : roots_) {
    stack_.assign(1, links_[root].content);
    while (!stack_.empty()) {
      const Node& visit = nodes_[stack_.back()];
      stack_.pop_back();
      if (visit.row > 0) order_.push_back(std::uint64_t{visit.key} << 32 | visit.row);
      for (std::uint32_t i = visit.linkCount; i-- > 0;) {
        const std::uint32_t child = contentOf(visit.firstLink + i);
        if (stamp_[child] == epoch_) stack_.push_back(child);
      }
    }
  }
  RTLOCK_REQUIRE(order_.size() + 1 == rowNode_.size(), "a round mux fell outside the tree walk");
  // extractLocalities' comparator on the key alone, so std::sort's tie order.
  std::sort(order_.begin(), order_.end(),
            [](std::uint64_t a, std::uint64_t b) { return a >> 32 < b >> 32; });
  for (std::uint64_t& entry : order_) entry &= UINT32_MAX;
}

std::int32_t PoolRelocker::depthOf(std::uint32_t node) {
  const auto settled = [this](std::uint32_t n) {
    return (n < baseNodes_ && dirty_[n] != round_) || stamp_[n] == epoch_;
  };
  const auto depth = [this](std::uint32_t n) {
    return n < baseNodes_ && dirty_[n] != round_ ? baseDepth_[n] : depth_[n];
  };
  if (settled(node)) return depth(node);
  // Post-order over the unsettled nodes below `node`: each is a tree, so
  // each node is pushed once.
  work_.clear();
  work_.push_back({node, 0});
  while (!work_.empty()) {
    auto& [current, next] = work_.back();
    const Node& visit = nodes_[current];
    if (next < visit.linkCount) {
      const std::uint32_t child = contentOf(visit.firstLink + next);
      ++next;
      if (!settled(child)) work_.push_back({child, 0});
      continue;
    }
    std::int32_t deepest = shapes_[visit.shape].staticDepth;
    for (std::uint32_t l = visit.firstLink; l < visit.firstLink + visit.linkCount; ++l) {
      deepest = std::max(deepest, static_cast<std::int32_t>(offsetOf(l)) + depth(contentOf(l)));
    }
    depth_[current] = deepest;
    stamp_[current] = epoch_;
    work_.pop_back();
  }
  return depth_[node];
}

void PoolRelocker::endRound(std::size_t locks) {
  const bool extended = config_.extendedFeatures;
  const std::size_t rows = roundRows_.size() - 1;
  if (extended) {
    ++epoch_;
    if (stamp_.size() < nodes_.size()) stamp_.resize(nodes_.size(), 0);
    if (depth_.size() < nodes_.size()) depth_.resize(nodes_.size());
    rowDepth_.resize(rows + 1);
    for (std::size_t row = 1; row <= rows; ++row) {
      const Node& mux = nodes_[rowNode_[row]];
      rowDepth_[row] = {depthOf(contentOf(mux.firstLink)), depthOf(contentOf(mux.firstLink + 1))};
    }
  }
  // Rows leave in key order: lock order, unless clones repeated keys.
  if (clonedRoundMux_) orderTies(locks);
  if (!clonedRoundMux_ && !extended) {
    rows_.insert(rows_.end(), roundRows_.begin() + 1, roundRows_.end());
  }
  for (std::size_t i = 0; (clonedRoundMux_ || extended) && i < rows; ++i) {
    const auto row = static_cast<std::uint32_t>(clonedRoundMux_ ? order_[i] : i + 1);
    rows_.push_back(roundRows_[row]);
    if (!extended) continue;
    depths_.push_back(static_cast<std::uint32_t>(rowDepth_[row][0]));
    depths_.push_back(static_cast<std::uint32_t>(rowDepth_[row][1]));
    context_.push_back(rowContext_[row][0]);
    context_.push_back(rowContext_[row][1]);
  }

  // Back to the target: undo the wraps, drop what the round appended.
  for (auto it = restore_.rbegin(); it != restore_.rend(); ++it) {
    const auto [link, node] = *it;
    if (isArm(link)) continue;
    links_[link].content = node;
    nodes_[node].at = link;
  }
  restore_.clear();
  nodes_.resize(baseNodes_);
  links_.resize(baseLinks_);
  for (LiveKind& kind : live_) kind.pool.assign(kind.base.begin(), kind.base.end());
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
