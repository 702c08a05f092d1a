// Locality extraction — the RTL adaptation of SnapShot's netlist sub-graph
// encoding (Sec. 5 of the paper: "[K[i], C1, C2], where K[i] is the key-bit
// value and C1, C2 are encodings for an operation pair").
//
// A locality is produced for every key-controlled multiplexer in the design.
// C1/C2 encode the top construct of the true/false branch; nested locking
// muxes (relocked pairs, Fig. 3b) appear as a dedicated MUX code, exactly as
// an attacker parsing the locked RTL would see them.  The extended feature
// set adds structural context (branch depths, parent construct, width
// bucket) for ablation studies.
#pragma once

#include <vector>

#include "ml/dataset.hpp"
#include "rtl/module.hpp"

namespace rtlock::attack {

struct LocalityConfig {
  /// Basic = [C1, C2] (the paper's encoding); extended adds
  /// [depth(C1), depth(C2), parent code, width bucket].
  bool extendedFeatures = false;
};

/// Number of features produced under a config.
[[nodiscard]] int featureCount(const LocalityConfig& config) noexcept;

/// Encoding of an expression construct for C1/C2: binary operations map to
/// 1 + OpKind; special constructs (mux, constant, ...) use codes >= 100.
[[nodiscard]] int constructCode(const rtl::Expr& expr) noexcept;

/// Extended-feature bucket of a key mux's bit width (1, <=8, <=16, <=32, >32).
[[nodiscard]] int widthBucket(int width) noexcept;

/// Code assigned to nested key muxes.
inline constexpr int kMuxCode = 100;

/// Parent code for expression roots (continuous-assignment values,
/// statement expression slots).
inline constexpr int kTopCode = 0;

struct Locality {
  int keyIndex = 0;
  ml::FeatureRow features;
};

/// Appends the feature encoding of one key mux to `out`: [C1, C2] and, under
/// extended features, [depth(C1), depth(C2), parentCode, widthBucket].
/// Shared by the full-walk extractor below and the incremental harvester
/// (attack/harvest.hpp), which guarantees the two produce identical rows for
/// the same mux by construction.
void appendLocalityFeatures(const rtl::TernaryExpr& mux, int parentCode,
                            const LocalityConfig& config, ml::FeatureRow& out);

/// Extracts one locality per key mux with key index >= minKeyIndex, in
/// ascending key-index order.
[[nodiscard]] std::vector<Locality> extractLocalities(const rtl::Module& module,
                                                      const LocalityConfig& config,
                                                      int minKeyIndex = 0);

}  // namespace rtlock::attack
