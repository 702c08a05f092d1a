#include "attack/locality.hpp"

#include <algorithm>

#include "rtl/traverse.hpp"
#include "support/diagnostics.hpp"

namespace rtlock::attack {

namespace {

using rtl::Expr;
using rtl::ExprKind;

constexpr int kConstantCode = 101;
constexpr int kSignalCode = 102;
constexpr int kKeyRefCode = 103;
constexpr int kUnaryCode = 104;
constexpr int kDesignTernaryCode = 105;
constexpr int kConcatCode = 106;
constexpr int kSliceCode = 107;

/// Walks expression trees with an explicit work list — locked designs nest
/// muxes arbitrarily deep (every relock adds a level), and the collector must
/// not be the component that overflows the stack on pathological chains.
struct Collector {
  const LocalityConfig& config;
  std::vector<Locality>& out;
  int minKeyIndex;
  std::vector<std::pair<const Expr*, int>> pending;  // (node, parent code)

  void visitTree(const Expr& root, int parentCode) {
    pending.clear();
    pending.emplace_back(&root, parentCode);
    while (!pending.empty()) {
      const auto [expr, parent] = pending.back();
      pending.pop_back();
      if (expr->kind() == ExprKind::Ternary) {
        const auto& ternary = static_cast<const rtl::TernaryExpr&>(*expr);
        if (ternary.isKeyMux()) {
          const int keyIndex =
              static_cast<const rtl::KeyRefExpr&>(ternary.cond()).firstBit();
          if (keyIndex >= minKeyIndex) {
            Locality locality;
            locality.keyIndex = keyIndex;
            appendLocalityFeatures(ternary, parent, config, locality.features);
            out.push_back(std::move(locality));
          }
        }
      }
      const int myCode = constructCode(*expr);
      // Reverse push keeps the historical pre-order (left-to-right) visit.
      for (int i = expr->exprSlotCount() - 1; i >= 0; --i) {
        pending.emplace_back(&expr->child(i), myCode);
      }
    }
  }
};

}  // namespace

int widthBucket(int width) noexcept {
  if (width <= 1) return 0;
  if (width <= 8) return 1;
  if (width <= 16) return 2;
  if (width <= 32) return 3;
  return 4;
}

int featureCount(const LocalityConfig& config) noexcept { return config.extendedFeatures ? 6 : 2; }

int constructCode(const rtl::Expr& expr) noexcept {
  switch (expr.kind()) {
    case ExprKind::Binary:
      return 1 + static_cast<int>(static_cast<const rtl::BinaryExpr&>(expr).op());
    case ExprKind::Ternary:
      return static_cast<const rtl::TernaryExpr&>(expr).isKeyMux() ? kMuxCode
                                                                   : kDesignTernaryCode;
    case ExprKind::Constant: return kConstantCode;
    case ExprKind::SignalRef: return kSignalCode;
    case ExprKind::KeyRef: return kKeyRefCode;
    case ExprKind::Unary: return kUnaryCode;
    case ExprKind::Concat: return kConcatCode;
    case ExprKind::Slice: return kSliceCode;
  }
  return kTopCode;
}

void appendLocalityFeatures(const rtl::TernaryExpr& mux, int parentCode,
                            const LocalityConfig& config, ml::FeatureRow& out) {
  out.push_back(static_cast<double>(constructCode(mux.thenExpr())));
  out.push_back(static_cast<double>(constructCode(mux.elseExpr())));
  if (config.extendedFeatures) {
    out.push_back(static_cast<double>(rtl::exprDepth(mux.thenExpr())));
    out.push_back(static_cast<double>(rtl::exprDepth(mux.elseExpr())));
    out.push_back(static_cast<double>(parentCode));
    out.push_back(static_cast<double>(widthBucket(mux.width())));
  }
}

std::vector<Locality> extractLocalities(const rtl::Module& module, const LocalityConfig& config,
                                        int minKeyIndex) {
  std::vector<Locality> localities;
  Collector collector{config, localities, minKeyIndex, {}};
  for (const auto& assign : module.contAssigns()) {
    collector.visitTree(assign->value(), kTopCode);
  }
  rtl::forEachStmt(module, [&collector](const rtl::Stmt& stmt) {
    for (int i = 0; i < stmt.exprSlotCount(); ++i) {
      collector.visitTree(stmt.exprAt(i), kTopCode);
    }
  });
  // NOTE: deliberately std::sort, not stable_sort.  Duplicate key indices
  // (cloned muxes in non-three-address operand subtrees, e.g. SASC) land in
  // implementation-defined relative order — and that exact order is baked
  // into the committed BENCH_baseline.json quality rows, which the
  // incremental harvester reproduces by routing clone rounds through this
  // extractor (attack/harvest.cpp).  Changing the tie behaviour here is a
  // one-way re-baselining event.
  std::sort(localities.begin(), localities.end(),
            [](const Locality& a, const Locality& b) { return a.keyIndex < b.keyIndex; });
  return localities;
}

}  // namespace rtlock::attack
