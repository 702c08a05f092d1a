// Tree-free relock rounds — the SnapShot attack's training-set builder.
//
// A relock round (attack/snapshot.hpp, step 2) only has to reproduce two
// things: the Rng draws of lock::assureRandomLock, and the features of every
// key mux it inserts.  Both follow from an index arena that mirrors the
// parts of the target that locking can touch, so no expression node is
// built, no undo runs and the module is never touched:
//
//  * Nodes and links.  build() walks the target once, in
//    LockEngine::buildIndex order, and makes a node of every lockable
//    operation and every key mux.  Each node owns a contiguous run of links,
//    one per lockable operation or key mux in its operands (a key mux's are
//    its two arms), in pre-order; a link records how many edges below its
//    owner it sits and the code of the construct holding it, and root links
//    (no owner) hold the nodes no other node contains.  A node's static
//    depth is its exprDepth with every linked node counted as depth 0, so
//    depth(node) = max(static depth, offset + depth(content)) over its links.
//  * Locks.  Wrapping operation n puts a new mux node in n's link, with two
//    arms holding n and n's dummy.  The dummy copies n's link pattern,
//    and the nodes in n's operands are cloned into the copied links (cloned
//    muxes keep both arms), exactly as LockEngine::lockOpAt clones operand
//    subtrees.  The dummy, then every lockable clone, is appended to the
//    pools in forEachExprSlotIn pre-order (dummy root first, then lhs, then
//    rhs), as lockOpAt appends them.  Pools hold node ids, base entries in
//    LockEngine::buildIndex order; wrapping never moves a pool entry.
//  * Live kinds.  build() keeps only the op kinds a round can ever draw:
//    the target's base kinds plus the transitive closure of dummyFor over
//    lockable kinds (under PairTable::assureOriginal a ** lock makes a *
//    dummy, whose lock makes a + dummy, then a -), in pool order.  Clones
//    copy existing kinds, so the closure covers them.
//  * Draws.  Each lock draws below(total) and then coin(), and walks the
//    live kinds in pool order exactly as LockEngine::lockRandomOp walks
//    every kind (empty pools never stop the walk).
//  * Rows are one byte each: bits 0-4 the real kind, bit 5 the key bit
//    (the label), bit 6 "real arm wrapped later", bit 7 "dummy arm wrapped
//    later".  Wrapping an operation that sits in an arm of a round mux
//    back-patches that mux's byte: the arm now holds a nested mux, so its
//    C1/C2 code is kMuxCode; an untouched arm keeps 1 + kind (the dummy kind
//    follows from the real one).  A clone of a round mux is a row of its own
//    (the same key bit, so the same label), starting from the byte of the
//    mux it copies.  row() and foldAggregates decode a byte through a
//    256-entry table to (C1, C2, label); that triple, not the byte, is the
//    tuple, as two rows of different real kinds with both arms wrapped are
//    equal.  Clones of the target's own key muxes carry key bits below the
//    round's and yield no row, as the tree path filters them.
//  * Extended features keep, per row, the parent code (the holder of the
//    link the mux landed in) and the width bucket, and resolve both arm
//    depths through the links once the round ends: a base node no lock of
//    the round reached below keeps its target depth, every other node is
//    recomputed from its links.  Widths are what Expr::width() reads: fixed
//    when a node is made, except that clones recompute theirs from their
//    cloned operands, as Expr::clone does, through a per-node postfix width
//    program (a % or ** mux is wider than the ** it wraps).
//  * Tie order.  Rows come out in key order.  A round in which no round mux
//    was cloned has distinct keys, so that is lock order.  When a dummy
//    clones a round mux, keys repeat, and the tree path emits the round as
//    extractLocalities does: std::sort (not stable) by key index over the
//    round's muxes in module pre-order.  Rows of one key that are all equal
//    leave alike in any order, so a counting sort by key serves.  Otherwise
//    the round lists its mux rows in module pre-order (marking their
//    ancestors up to the root links, then one walk down the marked nodes)
//    and std::sorts (key, row) pairs with the same comparator: libstdc++'s
//    introsort permutes by comparison outcomes only, so both sorts leave
//    duplicates in the same order.
//  * Rounds end by restoring the base links a lock wrapped and dropping
//    every node, link and pool entry the round appended.
//  * A target whose operations have no links never clones, so its basic
//    rounds read only pool entries (a node and the link holding it; a
//    round mux's arms are links kArmBase + 2·row and + 1, so a wrap there
//    back-patches the row without a load) and row bytes: they leave the
//    arena untouched, as a packed kernel would.
//
// LockEngine + LocalityHarvester (attack/harvest.hpp) stay the row-for-row
// oracle this model is tested against (tests/attack/pool_relock_test.cpp).
//
// Rows are never turned into an ml::Dataset: foldAggregates walks the rows
// auto-ml keeps (ml::forEachSampledRow, the one row-cap rule) straight into
// auto-ml's fold aggregates, interning each kept row's decoded key to a
// dense tuple id and handing the ids to ml::aggregateFolds.  Only the few
// hundred distinct tuples are ever turned into doubles.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "attack/locality.hpp"
#include "core/pairs.hpp"
#include "support/rng.hpp"

namespace rtlock::attack {

class PoolRelocker {
 public:
  /// One walk over `lockedTarget`.  Keeps no reference to the module or the
  /// table.
  [[nodiscard]] static PoolRelocker build(const rtl::Module& lockedTarget,
                                          const lock::PairTable& table,
                                          const LocalityConfig& config);

  /// Lockable operations of the target — LockEngine::totalLockableOps() at
  /// the start of every round.
  [[nodiscard]] int totalLockableOps() const noexcept { return baseTotal_; }

  /// One relock round: the Rng draws of lock::assureRandomLock(engine,
  /// budget, rng) on a LockEngine over the target, and the rows
  /// LocalityHarvester::harvestInto appends for that round, kept as row
  /// bytes (plus the extended side columns).
  void relockRound(int budget, support::Rng& rng);

  /// Rows harvested so far (one per round mux, clones included).
  [[nodiscard]] std::size_t rowCount() const noexcept { return rows_.size(); }

  /// Rounds so far in which a dummy cloned a mux of the same round, so that
  /// key indices repeated, and of those the rounds in which rows of one key
  /// differed, so that the tie order decided the rows' order.
  [[nodiscard]] std::size_t tieRounds() const noexcept { return tieRounds_; }
  [[nodiscard]] std::size_t orderedTieRounds() const noexcept { return orderedTieRounds_; }

  /// Pre-grows the row store for `rows` additional rows.
  void reserveRows(std::size_t rows);

  /// Row `i` (< rowCount()) as LocalityHarvester harvests it: writes its
  /// featureCount(config) features to the front of `features` and returns
  /// its label.
  [[nodiscard]] int row(std::size_t i, std::span<double> features) const;

  /// Auto-ml's folds over the rows it trains on: equal, row for row and bit
  /// for bit, and with the same draws from `rng`, to materializing every
  /// row ml::forEachSampledRow(rowCount(), maxRows, rng, ...) keeps into a
  /// Dataset (row(i) at the visit's weight) and calling its
  /// kFoldAggregated(folds, rng) — without that Dataset.
  [[nodiscard]] ml::KFoldAggregates foldAggregates(std::size_t maxRows, int folds,
                                                   support::Rng& rng) const;

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  /// A lockable operation (or a dummy of an unlockable kind) or a key mux.
  struct Node {
    std::uint32_t at = 0;         // the link holding it; kept for nodes with links and muxes
    std::uint32_t firstLink = 0;  // its links: firstLink .. firstLink + linkCount - 1
    std::uint32_t linkCount = 0;
    std::uint32_t shape = 0;      // shapes_ entry, shared with its dummies and clones
    std::int32_t width = 0;       // Expr::width()
    // (shape and width are kept under extended features and for nodes with links)
    std::uint32_t row = 0;        // round muxes: their row in the round; 0 otherwise
    std::uint32_t key = 0;        // round muxes: their lock (key bit) in the round
    std::uint8_t code = 0;        // constructCode: 1 + kind, or kMuxCode
    std::uint8_t kind = 0;        // operations: the OpKind
  };
  /// What a node, its dummies and its clones share: the structure between
  /// the node and its links.
  struct Shape {
    std::uint32_t tape = 0;  // widthTape_[tape, tape + tapeSize): its operands' widths
    std::uint32_t tapeSize = 0;
    std::int32_t staticDepth = 0;
    std::int32_t lhsWidth = 0;  // operations without links: operand widths
    std::int32_t rhsWidth = 0;
  };
  /// One step of a postfix program that recomputes the widths of a node's
  /// two operands (a mux's two arms) from the widths of its links' contents,
  /// as Expr::clone recomputes every width below a cloned node.
  struct WidthStep {
    std::uint8_t op = 0;   // WidthOp
    std::uint8_t sub = 0;  // UnaryOp / OpKind
    std::int32_t arg = 0;  // width, link index or part count
  };
  /// A position that holds a node.  The arms of a round's mux in row r are
  /// not stored here: they are links kArmBase + 2r (then) and + 1 (else),
  /// owned by rowNode_[r], holding armContent_[2r + arm].
  struct Link {
    std::uint32_t content = kNone;
    std::uint32_t owner = kNone;  // kNone for root links
    std::uint32_t offset = 0;     // edges from the owner down to the position
    std::uint8_t holderCode = 0;  // constructCode of the expression holding it
  };
  /// A pool entry: a lockable operation (kHasLinks set when it has links)
  /// and the link holding it.
  struct Entry {
    std::uint32_t node = 0;
    std::uint32_t at = 0;
  };
  static constexpr std::uint32_t kArmBase = 1u << 30;
  static constexpr std::uint32_t kHasLinks = 1u << 31;
  /// A kind some round can draw: its pool (base entries, then this round's
  /// appends) and where a lock of it puts its dummy.
  struct LiveKind {
    std::vector<Entry> pool;
    std::vector<Entry> base;  // the base entries as every round starts them
    std::uint8_t kind = 0;
    std::size_t dummySlot = 0;  // live slot of dummyFor(kind); live_.size() when not lockable
  };

  explicit PoolRelocker(const LocalityConfig& config) : config_(config) {}

  void wrapInArena(Entry drawn, std::uint8_t kind, bool key, std::uint32_t lock);
  void append(std::size_t slot, std::uint32_t node, std::uint32_t at);
  void cloneInto(std::uint32_t source, std::uint32_t link);
  [[nodiscard]] static bool isArm(std::uint32_t link) noexcept { return link >= kArmBase; }
  [[nodiscard]] std::uint32_t& contentOf(std::uint32_t link) {
    return isArm(link) ? armContent_[link - kArmBase] : links_[link].content;
  }
  [[nodiscard]] std::uint32_t ownerOf(std::uint32_t link) const {
    return isArm(link) ? rowNode_[(link - kArmBase) >> 1] : links_[link].owner;
  }
  [[nodiscard]] std::uint32_t offsetOf(std::uint32_t link) const {
    return isArm(link) ? 1 : links_[link].offset;
  }
  [[nodiscard]] std::array<std::int32_t, 2> operandWidths(const Node& node);
  void settleCloneWidths(std::uint32_t dummy);
  void markDirty(std::uint32_t link);
  void orderTies(std::size_t locks);
  void sortTies();
  [[nodiscard]] std::int32_t depthOf(std::uint32_t node);
  void endRound(std::size_t locks);

  LocalityConfig config_;
  std::vector<LiveKind> live_;  // in pool order
  std::array<std::size_t, rtl::kOpKindCount> slotOf_{};  // live slot per kind; live_.size() if none
  std::array<rtl::OpKind, rtl::kOpKindCount> dummyFor_{};
  std::vector<std::uint64_t> poolStart_;  // running pool offsets, this round
  int baseTotal_ = 0;
  std::uint32_t round_ = 0;
  std::size_t tieRounds_ = 0;
  std::size_t orderedTieRounds_ = 0;
  /// Per row byte: C1, C2 and label, packed as C1 | C2 << 8 | label << 16.
  std::array<std::uint32_t, 256> decoded_{};

  // The arena: base nodes and links first, then this round's.
  std::vector<Node> nodes_;
  std::vector<Link> links_;
  std::uint32_t baseNodes_ = 0;
  std::uint32_t baseLinks_ = 0;
  std::vector<Shape> shapes_;               // the round muxes' shape first
  std::vector<WidthStep> widthTape_;        // the round muxes' tape first
  std::vector<std::int32_t> baseDepth_;      // exprDepth in the target
  std::vector<std::uint32_t> baseParent_;    // owner of the base link
  std::vector<std::uint32_t> dirty_;         // round that reached below the base node
  std::vector<std::array<std::uint32_t, 2>> restore_;  // (link, content) before each wrap

  // This round, per row: its byte, its mux node, its two arms' contents and,
  // extended, its parent code and width bucket.  Row 0 is a sink that takes
  // the bits of wraps outside round mux arms.
  std::vector<std::uint8_t> roundRows_;
  std::vector<std::uint32_t> rowNode_;
  std::vector<std::uint32_t> armContent_;
  std::vector<std::array<std::uint8_t, 2>> rowContext_;
  bool clonedRoundMux_ = false;
  /// Whether rounds keep the arena.  Extended features read it for depths,
  /// and a target whose operations have links clones; a basic round of any
  /// other target reads nothing but pool entries and row bytes.
  bool arena_ = true;

  // Scratch: clone, width and depth walks, the depth memo and the tie
  // order's marks, and the order rows leave the round in.
  std::vector<std::array<std::uint32_t, 2>> work_;
  std::vector<std::int32_t> widthStack_;
  std::vector<std::int32_t> depth_;
  std::vector<std::uint32_t> stamp_;  // epoch_ of the walk that marked or settled a node
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> roots_;
  std::vector<std::uint32_t> stack_;
  std::vector<std::uint64_t> order_;  // rows in leaving order (key << 32 | row while sorting)
  std::vector<std::uint32_t> keyStart_;
  std::vector<std::array<std::int32_t, 2>> rowDepth_;  // extended: arm depths per row

  // Row store: one byte per row; extended, per row the two arm depths and
  // the parent code and width bucket bytes.
  std::vector<std::uint8_t> rows_;
  std::vector<std::uint32_t> depths_;
  std::vector<std::uint8_t> context_;
};

}  // namespace rtlock::attack
