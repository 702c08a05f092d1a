// Golden bit patterns for the auto-ml kernels.
//
// The fitting kernels behind auto-ml (MLP and logistic-regression training,
// decision-tree threshold search, k-fold aggregation) may be restructured for
// speed only under the determinism contract of src/ml/README.md: not one bit
// of any result may move.  This suite pins that on small fixed datasets
// shaped like the SnapShot attack's aggregated training folds:
//
//   - the 64-bit pattern of predictProba for every row, for every
//     defaultPortfolio() candidate fitted on the dataset;
//   - autoSelect's leaderboard accuracies (bit patterns), its winner and the
//     refit winner's predictions;
//   - the predictions of an MLP whose hidden units do not fill whole
//     four-unit lane blocks.
//
// The tables were recorded from the plain per-row kernels; the dense-values
// table (features with more than 64 distinct values, so the trees' threshold
// search subsamples) from the per-threshold tree search before the CART
// kernel replaced it.  On a mismatch
// the test prints the observed table in the same syntax; replacing a table
// is a behaviour change and needs the quality re-baseline (BENCH_baseline).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "ml/automl.hpp"
#include "ml/mlp.hpp"

namespace rtlock::ml {
namespace {

using Bits = std::vector<std::uint64_t>;

// ---------------------------------------------------------------------------
// Inputs.  Only Rng::below and exact arithmetic build them, so they are the
// same on every platform.

/// 2-feature (C1, C2) code tuples, each present with both labels, integer
/// weights, in shuffled (not sorted) first-seen order.
Dataset codeTuples() {
  support::Rng rng{101};
  std::vector<std::pair<int, int>> tuples;
  for (int c1 = 0; c1 < 6; ++c1) {
    for (int c2 = 0; c2 < 4; ++c2) tuples.emplace_back(c1, c2);
  }
  rng.shuffle(tuples);
  Dataset data{2};
  for (const auto& [c1, c2] : tuples) {
    const double row[] = {static_cast<double>(c1), static_cast<double>(c2)};
    const int majority = (c1 * c2 + c1) % 3 == 0 ? 1 : 0;
    data.add(row, majority, 8.0 + static_cast<double>(rng.below(30)));
    data.add(row, 1 - majority, 1.0 + static_cast<double>(rng.below(12)));
  }
  return data;
}

/// 6-feature extended-style rows (codes, depth, parent code, position,
/// width bucket); most tuples carry both labels.
Dataset extendedRows() {
  support::Rng rng{202};
  Dataset data{6};
  for (int t = 0; t < 24; ++t) {
    const double row[] = {static_cast<double>(rng.below(8)), static_cast<double>(rng.below(8)),
                          static_cast<double>(1 + rng.below(3)), static_cast<double>(rng.below(6)),
                          static_cast<double>(rng.below(2)), static_cast<double>(rng.below(4))};
    const int majority = row[0] + row[3] > row[1] + 2.0 ? 1 : 0;
    data.add(row, majority, 5.0 + static_cast<double>(rng.below(50)));
    if (t % 4 != 3) data.add(row, 1 - majority, 1.0 + static_cast<double>(rng.below(20)));
  }
  return data;
}

/// 2-feature tuples with non-integer weights (counts scaled by rows/maxRows,
/// as auto-ml's row cap does) and both -0.0 and 0.0 as feature values.
Dataset scaledWeights() {
  support::Rng rng{303};
  const double scale = 100003.0 / 100000.0;
  const double firsts[] = {-0.0, 0.0, 1.0, 2.0, 3.0, 5.0};
  std::vector<std::pair<double, int>> tuples;
  for (const double c1 : firsts) {
    for (int c2 = 0; c2 < 4; ++c2) tuples.emplace_back(c1, c2);
  }
  rng.shuffle(tuples);
  Dataset data{2};
  for (const auto& [c1, c2] : tuples) {
    const double row[] = {c1, static_cast<double>(c2)};
    const int majority = c1 > static_cast<double>(c2) ? 1 : 0;
    data.add(row, majority, static_cast<double>(6 + rng.below(40)) * scale);
    data.add(row, 1 - majority, static_cast<double>(1 + rng.below(15)) * scale);
  }
  return data;
}

/// Raw, unaggregated locality rows: duplicates galore, so auto-ml's fold
/// aggregation and (with a small row cap) its sampling path both run.
Dataset rawCodes() {
  support::Rng rng{404};
  Dataset data{2};
  for (int i = 0; i < 400; ++i) {
    const auto c1 = rng.below(5);
    const auto c2 = rng.below(5);
    const bool biased = (c1 + 2 * c2) % 3 == 0;
    data.add({static_cast<double>(c1), static_cast<double>(c2)},
             rng.below(10) < (biased ? 8u : 3u) ? 1 : 0);
  }
  return data;
}

/// 2-feature rows whose features take more than 64 distinct values, so the
/// tree learners' threshold search subsamples (step > 1) at the top nodes:
/// feature 0 is a shuffled ramp of 96 distinct quarter steps, feature 1
/// draws from 150 values; integer weights, labels from a noisy band.
Dataset denseValues() {
  support::Rng rng{505};
  std::vector<int> ramp(96);
  for (int i = 0; i < 96; ++i) ramp[static_cast<std::size_t>(i)] = i;
  rng.shuffle(ramp);
  Dataset data{2};
  for (const int step : ramp) {
    const double x = 0.25 * static_cast<double>(step) - 9.0;
    const double y = static_cast<double>(rng.below(150)) * 0.5 - 30.0;
    const bool band = x * 3.0 > y && y > -x - 12.0;
    data.add({x, y}, (rng.below(10) < (band ? 8u : 2u)) ? 1 : 0,
             1.0 + static_cast<double>(rng.below(9)));
  }
  return data;
}

// ---------------------------------------------------------------------------
// Golden tables.

/// predictProba bits per portfolio candidate (portfolio order), per row.
const std::vector<Bits> kCodeTuplesProba = {
    // majority
    {0x3fe05ac0d9ced78aull, 0x3fe05ac0d9ced78aull, 0x3fe05ac0d9ced78aull,
     0x3fe05ac0d9ced78aull, 0x3fe05ac0d9ced78aull, 0x3fe05ac0d9ced78aull,
     0x3fe05ac0d9ced78aull, 0x3fe05ac0d9ced78aull, 0x3fe05ac0d9ced78aull,
     0x3fe05ac0d9ced78aull, 0x3fe05ac0d9ced78aull, 0x3fe05ac0d9ced78aull,
     0x3fe05ac0d9ced78aull, 0x3fe05ac0d9ced78aull, 0x3fe05ac0d9ced78aull,
     0x3fe05ac0d9ced78aull, 0x3fe05ac0d9ced78aull, 0x3fe05ac0d9ced78aull,
     0x3fe05ac0d9ced78aull, 0x3fe05ac0d9ced78aull, 0x3fe05ac0d9ced78aull,
     0x3fe05ac0d9ced78aull, 0x3fe05ac0d9ced78aull, 0x3fe05ac0d9ced78aull,
     0x3fe05ac0d9ced78aull, 0x3fe05ac0d9ced78aull, 0x3fe05ac0d9ced78aull,
     0x3fe05ac0d9ced78aull, 0x3fe05ac0d9ced78aull, 0x3fe05ac0d9ced78aull,
     0x3fe05ac0d9ced78aull, 0x3fe05ac0d9ced78aull, 0x3fe05ac0d9ced78aull,
     0x3fe05ac0d9ced78aull, 0x3fe05ac0d9ced78aull, 0x3fe05ac0d9ced78aull,
     0x3fe05ac0d9ced78aull, 0x3fe05ac0d9ced78aull, 0x3fe05ac0d9ced78aull,
     0x3fe05ac0d9ced78aull, 0x3fe05ac0d9ced78aull, 0x3fe05ac0d9ced78aull,
     0x3fe05ac0d9ced78aull, 0x3fe05ac0d9ced78aull, 0x3fe05ac0d9ced78aull,
     0x3fe05ac0d9ced78aull, 0x3fe05ac0d9ced78aull, 0x3fe05ac0d9ced78aull},
    // histogram(smoothing=1.000000)
    {0x3fc8f7b913f51374ull, 0x3fc8f7b913f51374ull, 0x3fe98a19e3f40f7bull,
     0x3fe98a19e3f40f7bull, 0x3fe14b4f64df504dull, 0x3fe14b4f64df504dull,
     0x3fa9ca00742a0c8eull, 0x3fa9ca00742a0c8eull, 0x3fe89586e33519fbull,
     0x3fe89586e33519fbull, 0x3fe58d562fc3084aull, 0x3fe58d562fc3084aull,
     0x3fc9e70af74d84bbull, 0x3fc9e70af74d84bbull, 0x3fc560556fbbfb18ull,
     0x3fc560556fbbfb18ull, 0x3fd093800f056ff8ull, 0x3fd093800f056ff8ull,
     0x3fd6e4125de2eff5ull, 0x3fd6e4125de2eff5ull, 0x3feb25564c40a532ull,
     0x3feb25564c40a532ull, 0x3fb9ae57f7453894ull, 0x3fb9ae57f7453894ull,
     0x3fd15ce5677be74bull, 0x3fd15ce5677be74bull, 0x3fea82d606ce76bcull,
     0x3fea82d606ce76bcull, 0x3fe8981131050b80ull, 0x3fe8981131050b80ull,
     0x3fceab9bf95b9febull, 0x3fceab9bf95b9febull, 0x3fc17f5d31ac7737ull,
     0x3fc17f5d31ac7737ull, 0x3fe8ae72b3bdf3a5ull, 0x3fe8ae72b3bdf3a5ull,
     0x3feacf119f0b9230ull, 0x3feacf119f0b9230ull, 0x3fed40ec2ad22abeull,
     0x3fed40ec2ad22abeull, 0x3feda850f758e838ull, 0x3feda850f758e838ull,
     0x3fd3743258b3588aull, 0x3fd3743258b3588aull, 0x3fd88325bf4582c5ull,
     0x3fd88325bf4582c5ull, 0x3fe8067b7d45a1afull, 0x3fe8067b7d45a1afull},
    // histogram(smoothing=0.100000)
    {0x3fc6d6b52a859642ull, 0x3fc6d6b52a859642ull, 0x3fe9b8018769f55dull,
     0x3fe9b8018769f55dull, 0x3fe1544b2834e876ull, 0x3fe1544b2834e876ull,
     0x3fa27e6455df62f2ull, 0x3fa27e6455df62f2ull, 0x3fe8db7e5999cbe5ull,
     0x3fe8db7e5999cbe5ull, 0x3fe5bd0bfcc9bf95ull, 0x3fe5bd0bfcc9bf95ull,
     0x3fc9218d0ea97fedull, 0x3fc9218d0ea97fedull, 0x3fc42438a2373686ull,
     0x3fc42438a2373686ull, 0x3fd00f38f2100c78ull, 0x3fd00f38f2100c78ull,
     0x3fd67387a6773b75ull, 0x3fd67387a6773b75ull, 0x3feb95d72bd86499ull,
     0x3feb95d72bd86499ull, 0x3fb6e7da7bb9c77full, 0x3fb6e7da7bb9c77full,
     0x3fd0c3d557381808ull, 0x3fd0c3d557381808ull, 0x3feace14602f95afull,
     0x3feace14602f95afull, 0x3fe8c7688a703c8cull, 0x3fe8c7688a703c8cull,
     0x3fcd415a5e4b9011ull, 0x3fcd415a5e4b9011ull, 0x3fc027694818e85eull,
     0x3fc027694818e85eull, 0x3fe9018047de8a5bull, 0x3fe9018047de8a5bull,
     0x3feb0cac0869f0d7ull, 0x3feb0cac0869f0d7ull, 0x3fedaaaf9abd51daull,
     0x3fedaaaf9abd51daull, 0x3fee04ea27542752ull, 0x3fee04ea27542752ull,
     0x3fd30380f3700cedull, 0x3fd30380f3700cedull, 0x3fd80dd90dd60c37ull,
     0x3fd80dd90dd60c37ull, 0x3fe88d6522e24fd0ull, 0x3fe88d6522e24fd0ull},
    // categorical-nb(alpha=1.000000)
    {0x3fcbb1d81b1e9c86ull, 0x3fcbb1d81b1e9c86ull, 0x3fe695ddcfbaf3cdull,
     0x3fe695ddcfbaf3cdull, 0x3fe25e2f90283888ull, 0x3fe25e2f90283888ull,
     0x3fc0040bddac2b23ull, 0x3fc0040bddac2b23ull, 0x3fee626e19dd2293ull,
     0x3fee626e19dd2293ull, 0x3fe58bb371619201ull, 0x3fe58bb371619201ull,
     0x3fd7b554a3b1abd3ull, 0x3fd7b554a3b1abd3ull, 0x3fc8f49368bef468ull,
     0x3fc8f49368bef468ull, 0x3fd3615f01ba791aull, 0x3fd3615f01ba791aull,
     0x3fd766c1d5bc462cull, 0x3fd766c1d5bc462cull, 0x3fe9a8a91094ad0bull,
     0x3fe9a8a91094ad0bull, 0x3fcd6e235b0de144ull, 0x3fcd6e235b0de144ull,
     0x3fc60b676de07346ull, 0x3fc60b676de07346ull, 0x3fedc5031416959eull,
     0x3fedc5031416959eull, 0x3fe7bc076719f4bbull, 0x3fe7bc076719f4bbull,
     0x3fd3a8fb3d0cea76ull, 0x3fd3a8fb3d0cea76ull, 0x3fd57ddef4a1c199ull,
     0x3fd57ddef4a1c199ull, 0x3fe2c243ba89abecull, 0x3fe2c243ba89abecull,
     0x3fe76eb50e7a3b26ull, 0x3fe76eb50e7a3b26ull, 0x3fe98da770e88113ull,
     0x3fe98da770e88113ull, 0x3fe79b81f488d62dull, 0x3fe79b81f488d62dull,
     0x3fd5c97928e414c9ull, 0x3fd5c97928e414c9ull, 0x3fcde66f1a7f7026ull,
     0x3fcde66f1a7f7026ull, 0x3fe4f5e621e0d66bull, 0x3fe4f5e621e0d66bull},
    // categorical-nb(alpha=0.100000)
    {0x3fcb43c4333a29a9ull, 0x3fcb43c4333a29a9ull, 0x3fe6a6cb0dbc17e0ull,
     0x3fe6a6cb0dbc17e0ull, 0x3fe26eb4d43c31baull, 0x3fe26eb4d43c31baull,
     0x3fbf103630d87551ull, 0x3fbf103630d87551ull, 0x3fee7b862b2ba0afull,
     0x3fee7b862b2ba0afull, 0x3fe593e14ebae9b8ull, 0x3fe593e14ebae9b8ull,
     0x3fd798717b7a3964ull, 0x3fd798717b7a3964ull, 0x3fc887d42baea98eull,
     0x3fc887d42baea98eull, 0x3fd32f334ea33f8aull, 0x3fd32f334ea33f8aull,
     0x3fd7494b96a08906ull, 0x3fd7494b96a08906ull, 0x3fe9e4defa74dc20ull,
     0x3fe9e4defa74dc20ull, 0x3fccea6a703bf524ull, 0x3fccea6a703bf524ull,
     0x3fc58fb6aba5285aull, 0x3fc58fb6aba5285aull, 0x3fedd9a4d6943690ull,
     0x3fedd9a4d6943690ull, 0x3fe7dc36bb466094ull, 0x3fe7dc36bb466094ull,
     0x3fd3771270bdc082ull, 0x3fd3771270bdc082ull, 0x3fd55c9a18f9fe74ull,
     0x3fd55c9a18f9fe74ull, 0x3fe2bacca7c59e88ull, 0x3fe2bacca7c59e88ull,
     0x3fe780da6d4fe77full, 0x3fe780da6d4fe77full, 0x3fe9ca60673cc850ull,
     0x3fe9ca60673cc850ull, 0x3fe7bbb6395038c8ull, 0x3fe7bbb6395038c8ull,
     0x3fd5a8b03d352965ull, 0x3fd5a8b03d352965ull, 0x3fcd625ac1c7bf6eull,
     0x3fcd625ac1c7bf6eull, 0x3fe535882e8144cbull, 0x3fe535882e8144cbull},
    // gaussian-nb
    {0x3fd777bf326b688eull, 0x3fd777bf326b688eull, 0x3fe45303208ade85ull,
     0x3fe45303208ade85ull, 0x3fdb134f3feac107ull, 0x3fdb134f3feac107ull,
     0x3fd3f7ee8ade6987ull, 0x3fd3f7ee8ade6987ull, 0x3fe5d8e97b00cbe4ull,
     0x3fe5d8e97b00cbe4ull, 0x3fe2a626ff9cfac3ull, 0x3fe2a626ff9cfac3ull,
     0x3fd8ae8745291118ull, 0x3fd8ae8745291118ull, 0x3fe11a2fed8c9b0eull,
     0x3fe11a2fed8c9b0eull, 0x3fe2dbb5102b5d83ull, 0x3fe2dbb5102b5d83ull,
     0x3fde5991d1de7085ull, 0x3fde5991d1de7085ull, 0x3fe3650d83e16b70ull,
     0x3fe3650d83e16b70ull, 0x3fda7ec66c099c09ull, 0x3fda7ec66c099c09ull,
     0x3fdeaff06eb57127ull, 0x3fdeaff06eb57127ull, 0x3fe0d8fb1941e2ecull,
     0x3fe0d8fb1941e2ecull, 0x3fdc5874adfc58c7ull, 0x3fdc5874adfc58c7ull,
     0x3fdffae4c1690ca1ull, 0x3fdffae4c1690ca1ull, 0x3fe485fb919f8af2ull,
     0x3fe485fb919f8af2ull, 0x3fda13ea26f724ddull, 0x3fda13ea26f724ddull,
     0x3fddeb90af8819a6ull, 0x3fddeb90af8819a6ull, 0x3fe6087e82a33272ull,
     0x3fe6087e82a33272ull, 0x3fe10ff95245a971ull, 0x3fe10ff95245a971ull,
     0x3fe1be6d14048879ull, 0x3fe1be6d14048879ull, 0x3fd5187dcff54525ull,
     0x3fd5187dcff54525ull, 0x3fe2c5a788efd084ull, 0x3fe2c5a788efd084ull},
    // logistic(lr=0.500000,l2=0.000100)
    {0x3fdb561f4b009303ull, 0x3fdb561f4b009303ull, 0x3fe31137bf693094ull,
     0x3fe31137bf693094ull, 0x3fdee8c216e0db65ull, 0x3fdee8c216e0db65ull,
     0x3fd7e0eb2d3f5357ull, 0x3fd7e0eb2d3f5357ull, 0x3fe4c29b255ce7f4ull,
     0x3fe4c29b255ce7f4ull, 0x3fe14cc65807d887ull, 0x3fe14cc65807d887ull,
     0x3fdb9a9034247675ull, 0x3fdb9a9034247675ull, 0x3fe305ffd14415cfull,
     0x3fe305ffd14415cfull, 0x3fe15855de5c47faull, 0x3fe15855de5c47faull,
     0x3fdb83bb3741e8e6ull, 0x3fdb83bb3741e8e6ull, 0x3fe4d7ca2ba79b53ull,
     0x3fe4d7ca2ba79b53ull, 0x3fd80c8af35d17f1ull, 0x3fd80c8af35d17f1ull,
     0x3fe1413573c55998ull, 0x3fe1413573c55998ull, 0x3fdf00037eb93fddull,
     0x3fdf00037eb93fddull, 0x3fdf2e8961fab732ull, 0x3fdf2e8961fab732ull,
     0x3fe163e3fac61924ull, 0x3fe163e3fac61924ull, 0x3fe31c6c8ceb1c78ull,
     0x3fe31c6c8ceb1c78ull, 0x3fd7f6b7141e8636ull, 0x3fd7f6b7141e8636ull,
     0x3fdb6ceae1fa6f20ull, 0x3fdb6ceae1fa6f20ull, 0x3fe4cd34f87fea57ull,
     0x3fe4cd34f87fea57ull, 0x3fdf1745f5469996ull, 0x3fdf1745f5469996ull,
     0x3fe3279e2f40b63bull, 0x3fe3279e2f40b63bull, 0x3fd82266b8335a19ull,
     0x3fd82266b8335a19ull, 0x3fe4b7fcba75cea7ull, 0x3fe4b7fcba75cea7ull},
    // logistic(lr=0.100000,l2=0.001000)
    {0x3fdb5c5bf84bfb38ull, 0x3fdb5c5bf84bfb38ull, 0x3fe30e16b6cad2b6ull,
     0x3fe30e16b6cad2b6ull, 0x3fdeeaeeccf0b1f8ull, 0x3fdeeaeeccf0b1f8ull,
     0x3fd7eaceb3f97a15ull, 0x3fd7eaceb3f97a15ull, 0x3fe4bdbb6af83732ull,
     0x3fe4bdbb6af83732ull, 0x3fe14ba1b4c8b8dbull, 0x3fe14ba1b4c8b8dbull,
     0x3fdb9ffaa6865ed3ull, 0x3fdb9ffaa6865ed3ull, 0x3fe30300fd44e461ull,
     0x3fe30300fd44e461ull, 0x3fe1570d43afdcfaull, 0x3fe1570d43afdcfaull,
     0x3fdb896bdffa6621ull, 0x3fdb896bdffa6621ull, 0x3fe4d2ac92fb7cdbull,
     0x3fe4d2ac92fb7cdbull, 0x3fd815ed27a70ed0ull, 0x3fd815ed27a70ed0ull,
     0x3fe14034d19885c7ull, 0x3fe14034d19885c7ull, 0x3fdf01e7a94a68dbull,
     0x3fdf01e7a94a68dbull, 0x3fdf2fdc5ce731adull, 0x3fdf2fdc5ce731adull,
     0x3fe1627772bfc1b2ull, 0x3fe1627772bfc1b2ull, 0x3fe3192965f93a76ull,
     0x3fe3192965f93a76ull, 0x3fd8005a0e690451ull, 0x3fd8005a0e690451ull,
     0x3fdb72e19e9a8b7full, 0x3fdb72e19e9a8b7full, 0x3fe4c8363eb9295full,
     0x3fe4c8363eb9295full, 0x3fdf18e18bd5a435ull, 0x3fdf18e18bd5a435ull,
     0x3fe3243900a50b50ull, 0x3fe3243900a50b50ull, 0x3fd82b87ed8cffa1ull,
     0x3fd82b87ed8cffa1ull, 0x3fe4b33c1fab661dull, 0x3fe4b33c1fab661dull},
    // tree(depth=6)
    {0x3fc6969696969697ull, 0x3fc6969696969697ull, 0x3fe9bd37a6f4de9cull,
     0x3fe9bd37a6f4de9cull, 0x3fe1555555555555ull, 0x3fe1555555555555ull,
     0x3fa1a7b9611a7b96ull, 0x3fa1a7b9611a7b96ull, 0x3fe8e38e38e38e39ull,
     0x3fe8e38e38e38e39ull, 0x3fe5c28f5c28f5c3ull, 0x3fe5c28f5c28f5c3ull,
     0x3fc90b21642c8591ull, 0x3fc90b21642c8591ull, 0x3fc4000000000000ull,
     0x3fc4000000000000ull, 0x3fc7777777777777ull, 0x3fc7777777777777ull,
     0x3fd6666666666666ull, 0x3fd6666666666666ull, 0x3feba2e8ba2e8ba3ull,
     0x3feba2e8ba2e8ba3ull, 0x3fb6969696969697ull, 0x3fb6969696969697ull,
     0x3fd0b21642c8590bull, 0x3fd0b21642c8590bull, 0x3fead6b5ad6b5ad7ull,
     0x3fead6b5ad6b5ad7ull, 0x3fe8cccccccccccdull, 0x3fe8cccccccccccdull,
     0x3fd0fac687d6343full, 0x3fd0fac687d6343full, 0x3fc7777777777777ull,
     0x3fc7777777777777ull, 0x3fe90b21642c8591ull, 0x3fe90b21642c8591ull,
     0x3feb13b13b13b13bull, 0x3feb13b13b13b13bull, 0x3fedb6db6db6db6eull,
     0x3fedb6db6db6db6eull, 0x3fee0f83e0f83e10ull, 0x3fee0f83e0f83e10ull,
     0x3fd0fac687d6343full, 0x3fd0fac687d6343full, 0x3fd8000000000000ull,
     0x3fd8000000000000ull, 0x3fe89d89d89d89d9ull, 0x3fe89d89d89d89d9ull},
    // tree(depth=12)
    {0x3fc6969696969697ull, 0x3fc6969696969697ull, 0x3fe9bd37a6f4de9cull,
     0x3fe9bd37a6f4de9cull, 0x3fe1555555555555ull, 0x3fe1555555555555ull,
     0x3fa1a7b9611a7b96ull, 0x3fa1a7b9611a7b96ull, 0x3fe8e38e38e38e39ull,
     0x3fe8e38e38e38e39ull, 0x3fe5c28f5c28f5c3ull, 0x3fe5c28f5c28f5c3ull,
     0x3fc90b21642c8591ull, 0x3fc90b21642c8591ull, 0x3fc4000000000000ull,
     0x3fc4000000000000ull, 0x3fd0000000000000ull, 0x3fd0000000000000ull,
     0x3fd6666666666666ull, 0x3fd6666666666666ull, 0x3feba2e8ba2e8ba3ull,
     0x3feba2e8ba2e8ba3ull, 0x3fb6969696969697ull, 0x3fb6969696969697ull,
     0x3fd0b21642c8590bull, 0x3fd0b21642c8590bull, 0x3fead6b5ad6b5ad7ull,
     0x3fead6b5ad6b5ad7ull, 0x3fe8cccccccccccdull, 0x3fe8cccccccccccdull,
     0x3fcd1745d1745d17ull, 0x3fcd1745d1745d17ull, 0x3fc0000000000000ull,
     0x3fc0000000000000ull, 0x3fe90b21642c8591ull, 0x3fe90b21642c8591ull,
     0x3feb13b13b13b13bull, 0x3feb13b13b13b13bull, 0x3fedb6db6db6db6eull,
     0x3fedb6db6db6db6eull, 0x3fee0f83e0f83e10ull, 0x3fee0f83e0f83e10ull,
     0x3fd2f684bda12f68ull, 0x3fd2f684bda12f68ull, 0x3fd8000000000000ull,
     0x3fd8000000000000ull, 0x3fe89d89d89d89d9ull, 0x3fe89d89d89d89d9ull},
    // forest(trees=15,depth=10)
    {0x3fd5f556c8bed5f5ull, 0x3fd5f556c8bed5f5ull, 0x3fe0cb08b474776eull,
     0x3fe0cb08b474776eull, 0x3fdc3a372f361070ull, 0x3fdc3a372f361070ull,
     0x3fc529c4d39e0157ull, 0x3fc529c4d39e0157ull, 0x3fe3c030601d47a6ull,
     0x3fe3c030601d47a6ull, 0x3fe18e0fa32a2dbeull, 0x3fe18e0fa32a2dbeull,
     0x3fca53d5f5ef75a1ull, 0x3fca53d5f5ef75a1ull, 0x3fdf7ee55f804da0ull,
     0x3fdf7ee55f804da0ull, 0x3fde04e04e04e04eull, 0x3fde04e04e04e04eull,
     0x3fdf33a428ea61fbull, 0x3fdf33a428ea61fbull, 0x3fde4ebbf5fcd071ull,
     0x3fde4ebbf5fcd071ull, 0x3fd4879c27623f71ull, 0x3fd4879c27623f71ull,
     0x3fdd00f3fbe7b2d1ull, 0x3fdd00f3fbe7b2d1ull, 0x3fde7c53fe08083aull,
     0x3fde7c53fe08083aull, 0x3fe03151b6056ef8ull, 0x3fe03151b6056ef8ull,
     0x3fca2ab9f1708b65ull, 0x3fca2ab9f1708b65ull, 0x3fe039f1e2b719b5ull,
     0x3fe039f1e2b719b5ull, 0x3fe38dbe7a30ca35ull, 0x3fe38dbe7a30ca35ull,
     0x3fe68119c34de690ull, 0x3fe68119c34de690ull, 0x3fdbbaf04e4ed98dull,
     0x3fdbbaf04e4ed98dull, 0x3fea07ccff23ba61ull, 0x3fea07ccff23ba61ull,
     0x3fd64a383f7e0a97ull, 0x3fd64a383f7e0a97ull, 0x3fda6b6c883ce0e5ull,
     0x3fda6b6c883ce0e5ull, 0x3fe06e46e46e46e4ull, 0x3fe06e46e46e46e4ull},
    // knn(k=5)
    {0x3fcdae6076b981dbull, 0x3fcdae6076b981dbull, 0x3feaaaaaaaaaaaabull,
     0x3feaaaaaaaaaaaabull, 0x3fd1a7b9611a7b96ull, 0x3fd1a7b9611a7b96ull,
     0x3fd6000000000000ull, 0x3fd6000000000000ull, 0x3feb26c9b26c9b27ull,
     0x3feb26c9b26c9b27ull, 0x3fe2c8590b21642dull, 0x3fe2c8590b21642dull,
     0x3fdf02a3a0fd5c5full, 0x3fdf02a3a0fd5c5full, 0x3fdc4b73dfa9c4b7ull,
     0x3fdc4b73dfa9c4b7ull, 0x3fd5f15f15f15f16ull, 0x3fd5f15f15f15f16ull,
     0x3fc51d07eae2f815ull, 0x3fc51d07eae2f815ull, 0x3fe4de9bd37a6f4eull,
     0x3fe4de9bd37a6f4eull, 0x3fd8e38e38e38e39ull, 0x3fd8e38e38e38e39ull,
     0x3fe2000000000000ull, 0x3fe2000000000000ull, 0x3fe8e38e38e38e39ull,
     0x3fe8e38e38e38e39ull, 0x3fd8dab7ec1dd343ull, 0x3fd8dab7ec1dd343ull,
     0x3fe0fcd6e9e06523ull, 0x3fe0fcd6e9e06523ull, 0x3fda814afd6a052cull,
     0x3fda814afd6a052cull, 0x3fcd4d1bc2503159ull, 0x3fcd4d1bc2503159ull,
     0x3fe0b21642c8590bull, 0x3fe0b21642c8590bull, 0x3fec8a60dd67c8a6ull,
     0x3fec8a60dd67c8a6ull, 0x3fe06eb3e45306ebull, 0x3fe06eb3e45306ebull,
     0x3fda2e8ba2e8ba2full, 0x3fda2e8ba2e8ba2full, 0x3fc4a5294a5294a5ull,
     0x3fc4a5294a5294a5ull, 0x3fdd9ca81e9131acull, 0x3fdd9ca81e9131acull},
    // knn(k=15)
    {0x3fe028f5c28f5c29ull, 0x3fe028f5c28f5c29ull, 0x3fe077f76e538c51ull,
     0x3fe077f76e538c51ull, 0x3fdd7842add7842bull, 0x3fdd7842add7842bull,
     0x3fdf656f1826a43aull, 0x3fdf656f1826a43aull, 0x3fe40939a85c4094ull,
     0x3fe40939a85c4094ull, 0x3fddf984dc5abbf3ull, 0x3fddf984dc5abbf3ull,
     0x3fe064b8a7de6d1dull, 0x3fe064b8a7de6d1dull, 0x3fe0000000000000ull,
     0x3fe0000000000000ull, 0x3fe46318c6318c63ull, 0x3fe46318c6318c63ull,
     0x3fe35f244a8b479aull, 0x3fe35f244a8b479aull, 0x3fe1111111111111ull,
     0x3fe1111111111111ull, 0x3fdd0ac19d0ac19dull, 0x3fdd0ac19d0ac19dull,
     0x3fdf44f7d13df44full, 0x3fdf44f7d13df44full, 0x3fe3cf3cf3cf3cf4ull,
     0x3fe3cf3cf3cf3cf4ull, 0x3fdf10112358e75dull, 0x3fdf10112358e75dull,
     0x3fdb04325c53ef37ull, 0x3fdb04325c53ef37ull, 0x3fe32c234f72c235ull,
     0x3fe32c234f72c235ull, 0x3fdcb08d3dcb08d4ull, 0x3fdcb08d3dcb08d4ull,
     0x3fde34a2b10bf66eull, 0x3fde34a2b10bf66eull, 0x3fe3333333333333ull,
     0x3fe3333333333333ull, 0x3fe1111111111111ull, 0x3fe1111111111111ull,
     0x3fe29386822b63ccull, 0x3fe29386822b63ccull, 0x3fe1bc2503159722ull,
     0x3fe1bc2503159722ull, 0x3fe195e8efdb195full, 0x3fe195e8efdb195full},
    // mlp(hidden=16)
    {0x3fc5daa4d80f9f5bull, 0x3fc5daa4d80f9f5bull, 0x3fe93a51e4096f60ull,
     0x3fe93a51e4096f60ull, 0x3fe0cad76f8f140eull, 0x3fe0cad76f8f140eull,
     0x3fa1d5481f662364ull, 0x3fa1d5481f662364ull, 0x3fe84b6b2c356e31ull,
     0x3fe84b6b2c356e31ull, 0x3fe51fb74e29e37cull, 0x3fe51fb74e29e37cull,
     0x3fd0adce660cc3aeull, 0x3fd0adce660cc3aeull, 0x3fc2e27c973a2949ull,
     0x3fc2e27c973a2949ull, 0x3fcf6c775467dab8ull, 0x3fcf6c775467dab8ull,
     0x3fd50daa592f682cull, 0x3fd50daa592f682cull, 0x3feb814539868982ull,
     0x3feb814539868982ull, 0x3fb91fe3ff5cacadull, 0x3fb91fe3ff5cacadull,
     0x3fcf2d545e638bf2ull, 0x3fcf2d545e638bf2ull, 0x3feaa951f37a8637ull,
     0x3feaa951f37a8637ull, 0x3fe8a91fb3a70dfaull, 0x3fe8a91fb3a70dfaull,
     0x3fcc6628f826d45full, 0x3fcc6628f826d45full, 0x3fbe3f95946645f0ull,
     0x3fbe3f95946645f0ull, 0x3fe9141d34bea999ull, 0x3fe9141d34bea999ull,
     0x3feb12f5c807ea5full, 0x3feb12f5c807ea5full, 0x3fed9273e660c0abull,
     0x3fed9273e660c0abull, 0x3fee2b5e9bc2341cull, 0x3fee2b5e9bc2341cull,
     0x3fd280c40591baabull, 0x3fd280c40591baabull, 0x3fcc42e9ed3e78b9ull,
     0x3fcc42e9ed3e78b9ull, 0x3fe83d48cf9d2b29ull, 0x3fe83d48cf9d2b29ull},
};

const std::vector<Bits> kExtendedRowsProba = {
    // majority
    {0x3fe0c288717a4232ull, 0x3fe0c288717a4232ull, 0x3fe0c288717a4232ull,
     0x3fe0c288717a4232ull, 0x3fe0c288717a4232ull, 0x3fe0c288717a4232ull,
     0x3fe0c288717a4232ull, 0x3fe0c288717a4232ull, 0x3fe0c288717a4232ull,
     0x3fe0c288717a4232ull, 0x3fe0c288717a4232ull, 0x3fe0c288717a4232ull,
     0x3fe0c288717a4232ull, 0x3fe0c288717a4232ull, 0x3fe0c288717a4232ull,
     0x3fe0c288717a4232ull, 0x3fe0c288717a4232ull, 0x3fe0c288717a4232ull,
     0x3fe0c288717a4232ull, 0x3fe0c288717a4232ull, 0x3fe0c288717a4232ull,
     0x3fe0c288717a4232ull, 0x3fe0c288717a4232ull, 0x3fe0c288717a4232ull,
     0x3fe0c288717a4232ull, 0x3fe0c288717a4232ull, 0x3fe0c288717a4232ull,
     0x3fe0c288717a4232ull, 0x3fe0c288717a4232ull, 0x3fe0c288717a4232ull,
     0x3fe0c288717a4232ull, 0x3fe0c288717a4232ull, 0x3fe0c288717a4232ull,
     0x3fe0c288717a4232ull, 0x3fe0c288717a4232ull, 0x3fe0c288717a4232ull,
     0x3fe0c288717a4232ull, 0x3fe0c288717a4232ull, 0x3fe0c288717a4232ull,
     0x3fe0c288717a4232ull, 0x3fe0c288717a4232ull, 0x3fe0c288717a4232ull},
    // histogram(smoothing=1.000000)
    {0x3fee8614438bd212ull, 0x3fee8614438bd212ull, 0x3fd14f761904e3edull,
     0x3fd14f761904e3edull, 0x3fe7df7ba82a90e2ull, 0x3fe7df7ba82a90e2ull,
     0x3f8860c676834903ull, 0x3fe7320f290d9594ull, 0x3fe7320f290d9594ull,
     0x3fe6a59ac61eb2d6ull, 0x3fe6a59ac61eb2d6ull, 0x3fd6735e6df7157bull,
     0x3fd6735e6df7157bull, 0x3f8573e1d8ee6936ull, 0x3fcccb62449e1ac9ull,
     0x3fcccb62449e1ac9ull, 0x3fd430a21c5e908cull, 0x3fd430a21c5e908cull,
     0x3fed8614438bd212ull, 0x3fed8614438bd212ull, 0x3fefb1f87d264901ull,
     0x3fe8b2c5af651818ull, 0x3fe8b2c5af651818ull, 0x3fdaf0d7b728802dull,
     0x3fdaf0d7b728802dull, 0x3fd5b9f84962b9f3ull, 0x3fd5b9f84962b9f3ull,
     0x3fefb060d34ba350ull, 0x3fc566a00a163ec6ull, 0x3fc566a00a163ec6ull,
     0x3fdd065623303711ull, 0x3fdd065623303711ull, 0x3fd126d0c3ca26cdull,
     0x3fd126d0c3ca26cdull, 0x3f9860c676834903ull, 0x3fdebae0b41f8584ull,
     0x3fdebae0b41f8584ull, 0x3fec45802dfd278aull, 0x3fec45802dfd278aull,
     0x3fea081b04ba6d6dull, 0x3fea081b04ba6d6dull, 0x3fedd2a5c711772bull},
    // histogram(smoothing=0.100000)
    {0x3feeec0bf67cb05eull, 0x3feeec0bf67cb05eull, 0x3fd1036639d087d5ull,
     0x3fd1036639d087d5ull, 0x3fe7fcb2360c89eeull, 0x3fe7fcb2360c89eeull,
     0x3f53e8dfdbbdc867ull, 0x3fe7e91e21018266ull, 0x3fe7e91e21018266ull,
     0x3fe6d5dfb03ba6f4ull, 0x3fe6d5dfb03ba6f4ull, 0x3fd61bba8f4b9dedull,
     0x3fd61bba8f4b9dedull, 0x3f517a09d8df6c22ull, 0x3fcb91cd1a369487ull,
     0x3fcb91cd1a369487ull, 0x3fd28012441913e5ull, 0x3fd28012441913e5ull,
     0x3fede4a36c329af7ull, 0x3fede4a36c329af7ull, 0x3feff80dd57a40c9ull,
     0x3fe901f34abe0927ull, 0x3fe901f34abe0927ull, 0x3fdab1f242ccf6fdull,
     0x3fdab1f242ccf6fdull, 0x3fd55fb2a92715b4ull, 0x3fd55fb2a92715b4ull,
     0x3feff7e38b258288ull, 0x3fc4782fad6ffbf5ull, 0x3fc4782fad6ffbf5ull,
     0x3fdcd2cfaf9ddf8cull, 0x3fdcd2cfaf9ddf8cull, 0x3fd0cd3cd9039f06ull,
     0x3fd0cd3cd9039f06ull, 0x3f64559357ef53f4ull, 0x3fde9f0d5f2e7ee9ull,
     0x3fde9f0d5f2e7ee9ull, 0x3fec7f08a02d3ee5ull, 0x3fec7f08a02d3ee5ull,
     0x3fea649517c393aeull, 0x3fea649517c393aeull, 0x3fefc00aa155f04dull},
    // categorical-nb(alpha=1.000000)
    {0x3fe448afe39a4414ull, 0x3fe448afe39a4414ull, 0x3fa71b1f986ea517ull,
     0x3fa71b1f986ea517ull, 0x3fe89cfb22418812ull, 0x3fe89cfb22418812ull,
     0x3f87a7b4f6558c90ull, 0x3fee88152d894b9dull, 0x3fee88152d894b9dull,
     0x3fe7e0b87e218a77ull, 0x3fe7e0b87e218a77ull, 0x3fc9e3be48fe010eull,
     0x3fc9e3be48fe010eull, 0x3f9620d593527797ull, 0x3fcf66c5d37e2783ull,
     0x3fcf66c5d37e2783ull, 0x3fdab671054bbc66ull, 0x3fdab671054bbc66ull,
     0x3fef7232af577e98ull, 0x3fef7232af577e98ull, 0x3fefb3ef72d059f3ull,
     0x3feacb3357483114ull, 0x3feacb3357483114ull, 0x3fb43bcb4d725781ull,
     0x3fb43bcb4d725781ull, 0x3fc2f006b5a3d321ull, 0x3fc2f006b5a3d321ull,
     0x3fef4337d7141ce9ull, 0x3fde9342dbcc94ecull, 0x3fde9342dbcc94ecull,
     0x3fe5cf16969912aaull, 0x3fe5cf16969912aaull, 0x3fddf1640f40281dull,
     0x3fddf1640f40281dull, 0x3fc9ad93884b3fadull, 0x3fd01293d081a3d1ull,
     0x3fd01293d081a3d1ull, 0x3fef4610f02d4329ull, 0x3fef4610f02d4329ull,
     0x3fea0e720bfeae9full, 0x3fea0e720bfeae9full, 0x3feedc83d4831dcbull},
    // categorical-nb(alpha=0.100000)
    {0x3fe4532a3b00a06bull, 0x3fe4532a3b00a06bull, 0x3fa62648bede6555ull,
     0x3fa62648bede6555ull, 0x3fe8ac84be907f90ull, 0x3fe8ac84be907f90ull,
     0x3f866daa03aeb2d0ull, 0x3feea60c693cd705ull, 0x3feea60c693cd705ull,
     0x3fe8189cebc3f0e3ull, 0x3fe8189cebc3f0e3ull, 0x3fc9d0fac8d3f37full,
     0x3fc9d0fac8d3f37full, 0x3f9421f83b86f0ceull, 0x3fcf5547043a82d7ull,
     0x3fcf5547043a82d7ull, 0x3fdab5f90b8b70f2ull, 0x3fdab5f90b8b70f2ull,
     0x3fef82e754b40f5cull, 0x3fef82e754b40f5cull, 0x3fefbb92734f76e4ull,
     0x3feb6be3b846f917ull, 0x3feb6be3b846f917ull, 0x3fb385b33ef4c66aull,
     0x3fb385b33ef4c66aull, 0x3fc1f69a496bee78ull, 0x3fc1f69a496bee78ull,
     0x3fef4e5347f4e15aull, 0x3fde77acc9190508ull, 0x3fde77acc9190508ull,
     0x3fe609c6682f559full, 0x3fe609c6682f559full, 0x3fddd6269c7aa4ebull,
     0x3fddd6269c7aa4ebull, 0x3fc95157de5898ccull, 0x3fcfa40d2478afc7ull,
     0x3fcfa40d2478afc7ull, 0x3fef5a7f2716e9c1ull, 0x3fef5a7f2716e9c1ull,
     0x3fea23db9ae2f06cull, 0x3fea23db9ae2f06cull, 0x3feef47d076994a0ull},
    // gaussian-nb
    {0x3fe845bed8b53e00ull, 0x3fe845bed8b53e00ull, 0x3fa994efcff2b4b5ull,
     0x3fa994efcff2b4b5ull, 0x3febc7fce21816aaull, 0x3febc7fce21816aaull,
     0x3f9cda23a6996656ull, 0x3fefd3e6a24930e3ull, 0x3fefd3e6a24930e3ull,
     0x3fd6bcc76688f70cull, 0x3fd6bcc76688f70cull, 0x3fb54bda3129fec4ull,
     0x3fb54bda3129fec4ull, 0x3fb9e0709d020577ull, 0x3fce7d4533eeca67ull,
     0x3fce7d4533eeca67ull, 0x3fd3fa36729a95dbull, 0x3fd3fa36729a95dbull,
     0x3fef25d6d20254bdull, 0x3fef25d6d20254bdull, 0x3fefd952fad6976aull,
     0x3fe42f0e2be06280ull, 0x3fe42f0e2be06280ull, 0x3fb457e48d277001ull,
     0x3fb457e48d277001ull, 0x3fd46a6bdcc2160cull, 0x3fd46a6bdcc2160cull,
     0x3feeb77602b39814ull, 0x3fd6e9c1fe036303ull, 0x3fd6e9c1fe036303ull,
     0x3fc3781a83de7f2bull, 0x3fc3781a83de7f2bull, 0x3fd3b0ed0168fa68ull,
     0x3fd3b0ed0168fa68ull, 0x3fe3c9a53ba212edull, 0x3fca04415fffb47bull,
     0x3fca04415fffb47bull, 0x3fefdccc9001a690ull, 0x3fefdccc9001a690ull,
     0x3fef2fc942010d41ull, 0x3fef2fc942010d41ull, 0x3fef9a948009da05ull},
    // logistic(lr=0.500000,l2=0.000100)
    {0x3fee439597be7102ull, 0x3fee439597be7102ull, 0x3fc70abe21c62035ull,
     0x3fc70abe21c62035ull, 0x3fe9b0f535033aedull, 0x3fe9b0f535033aedull,
     0x3fa6feafbe0e5f6full, 0x3fedd05e156bf36cull, 0x3fedd05e156bf36cull,
     0x3fde7d2ff4c1895dull, 0x3fde7d2ff4c1895dull, 0x3fc5b8e3abcc8967ull,
     0x3fc5b8e3abcc8967ull, 0x3fcae1a9d169fab5ull, 0x3fd4b83428cb57eaull,
     0x3fd4b83428cb57eaull, 0x3fe3d523e1da721dull, 0x3fe3d523e1da721dull,
     0x3fea041fabd967c9ull, 0x3fea041fabd967c9ull, 0x3fed66a807851606ull,
     0x3fe420299b1cf494ull, 0x3fe420299b1cf494ull, 0x3fd139f62e1262cdull,
     0x3fd139f62e1262cdull, 0x3fd3a210a0ba4b4aull, 0x3fd3a210a0ba4b4aull,
     0x3fe915494ac203bfull, 0x3fdbcdfc245803dcull, 0x3fdbcdfc245803dcull,
     0x3fc53a771be5af01ull, 0x3fc53a771be5af01ull, 0x3fd223993dde78eaull,
     0x3fd223993dde78eaull, 0x3fe2b50c93f5601aull, 0x3fd5f70024787c7dull,
     0x3fd5f70024787c7dull, 0x3fedcfa5b8d6efe0ull, 0x3fedcfa5b8d6efe0ull,
     0x3feef96258d44b70ull, 0x3feef96258d44b70ull, 0x3fea79718033d4eeull},
    // logistic(lr=0.100000,l2=0.001000)
    {0x3fed8a084130c07bull, 0x3fed8a084130c07bull, 0x3fc6ffe6fa3a7124ull,
     0x3fc6ffe6fa3a7124ull, 0x3fe96620f11f595aull, 0x3fe96620f11f595aull,
     0x3fae90c35acff9e3ull, 0x3feda2592d8f675bull, 0x3feda2592d8f675bull,
     0x3fdce656df7d3110ull, 0x3fdce656df7d3110ull, 0x3fc5f7e0002c2d52ull,
     0x3fc5f7e0002c2d52ull, 0x3fcbbe035db82bbaull, 0x3fd588bbe20169e4ull,
     0x3fd588bbe20169e4ull, 0x3fe2b89a1213c3ddull, 0x3fe2b89a1213c3ddull,
     0x3fe9a60f7b6e41b2ull, 0x3fe9a60f7b6e41b2ull, 0x3fed80c3f439b47aull,
     0x3fe48df762459950ull, 0x3fe48df762459950ull, 0x3fd0734617bd9be7ull,
     0x3fd0734617bd9be7ull, 0x3fd2c26962e14ca9ull, 0x3fd2c26962e14ca9ull,
     0x3fe921a898e49d0dull, 0x3fdc024389a94354ull, 0x3fdc024389a94354ull,
     0x3fc73b8395971c07ull, 0x3fc73b8395971c07ull, 0x3fd2eea5436c1ebfull,
     0x3fd2eea5436c1ebfull, 0x3fe29632599fe9a6ull, 0x3fd6148d92ab1857ull,
     0x3fd6148d92ab1857ull, 0x3fedaaa0d4fcc8a7ull, 0x3fedaaa0d4fcc8a7ull,
     0x3feec68f8acfe50dull, 0x3feec68f8acfe50dull, 0x3feaf5ce71e3620eull},
    // tree(depth=6)
    {0x3feef7bdef7bdef8ull, 0x3feef7bdef7bdef8ull, 0x3fd0fac687d6343full,
     0x3fd0fac687d6343full, 0x3fe8000000000000ull, 0x3fe8000000000000ull,
     0x0000000000000000ull, 0x3fe8000000000000ull, 0x3fe8000000000000ull,
     0x3fe6db6db6db6db7ull, 0x3fe6db6db6db6db7ull, 0x3fd611a7b9611a7cull,
     0x3fd611a7b9611a7cull, 0x0000000000000000ull, 0x3fcb6db6db6db6dbull,
     0x3fcb6db6db6db6dbull, 0x3fd2492492492492ull, 0x3fd2492492492492ull,
     0x3fedef7bdef7bdefull, 0x3fedef7bdef7bdefull, 0x3ff0000000000000ull,
     0x3fe90b21642c8591ull, 0x3fe90b21642c8591ull, 0x3fdaaaaaaaaaaaabull,
     0x3fdaaaaaaaaaaaabull, 0x3fd5555555555555ull, 0x3fd5555555555555ull,
     0x3ff0000000000000ull, 0x3fc45d1745d1745dull, 0x3fc45d1745d1745dull,
     0x3fddc47711dc4771ull, 0x3fddc47711dc4771ull, 0x3fd0c30c30c30c31ull,
     0x3fd0c30c30c30c31ull, 0x0000000000000000ull, 0x3fddc47711dc4771ull,
     0x3fddc47711dc4771ull, 0x3fec8590b21642c8ull, 0x3fec8590b21642c8ull,
     0x3fea6f4de9bd37a7ull, 0x3fea6f4de9bd37a7ull, 0x3ff0000000000000ull},
    // tree(depth=12)
    {0x3feef7bdef7bdef8ull, 0x3feef7bdef7bdef8ull, 0x3fd0fac687d6343full,
     0x3fd0fac687d6343full, 0x3fe8000000000000ull, 0x3fe8000000000000ull,
     0x0000000000000000ull, 0x3fe8000000000000ull, 0x3fe8000000000000ull,
     0x3fe6db6db6db6db7ull, 0x3fe6db6db6db6db7ull, 0x3fd611a7b9611a7cull,
     0x3fd611a7b9611a7cull, 0x0000000000000000ull, 0x3fcb6db6db6db6dbull,
     0x3fcb6db6db6db6dbull, 0x3fd2492492492492ull, 0x3fd2492492492492ull,
     0x3fedef7bdef7bdefull, 0x3fedef7bdef7bdefull, 0x3ff0000000000000ull,
     0x3fe90b21642c8591ull, 0x3fe90b21642c8591ull, 0x3fdaaaaaaaaaaaabull,
     0x3fdaaaaaaaaaaaabull, 0x3fd5555555555555ull, 0x3fd5555555555555ull,
     0x3ff0000000000000ull, 0x3fc45d1745d1745dull, 0x3fc45d1745d1745dull,
     0x3fdccccccccccccdull, 0x3fdccccccccccccdull, 0x3fd0c30c30c30c31ull,
     0x3fd0c30c30c30c31ull, 0x0000000000000000ull, 0x3fde9bd37a6f4deaull,
     0x3fde9bd37a6f4deaull, 0x3fec8590b21642c8ull, 0x3fec8590b21642c8ull,
     0x3fea6f4de9bd37a7ull, 0x3fea6f4de9bd37a7ull, 0x3ff0000000000000ull},
    // forest(trees=15,depth=10)
    {0x3feb1f64beed4dbcull, 0x3feb1f64beed4dbcull, 0x3fd8320c2baf613full,
     0x3fd8320c2baf613full, 0x3fe37450dea78411ull, 0x3fe37450dea78411ull,
     0x3fc9c72fe1a8ea62ull, 0x3fe0c9a633fcd967ull, 0x3fe0c9a633fcd967ull,
     0x3fe033e4fd25ee4cull, 0x3fe033e4fd25ee4cull, 0x3fd17bf97b7e7f29ull,
     0x3fd17bf97b7e7f29ull, 0x3fc1e93a35fd2f76ull, 0x3fc6757bd29e7195ull,
     0x3fc6757bd29e7195ull, 0x3fd5697e6444ec1bull, 0x3fd5697e6444ec1bull,
     0x3fe262776cc65c51ull, 0x3fe262776cc65c51ull, 0x3ff0000000000000ull,
     0x3fdf71fb3d7ec2dbull, 0x3fdf71fb3d7ec2dbull, 0x3fd631efa6dce99cull,
     0x3fd631efa6dce99cull, 0x3fe0369d0369d036ull, 0x3fe0369d0369d036ull,
     0x3fee1cd45401e1cdull, 0x3fd90be5bae885daull, 0x3fd90be5bae885daull,
     0x3fe0191d888173a5ull, 0x3fe0191d888173a5ull, 0x3fd7254f27bd76dfull,
     0x3fd7254f27bd76dfull, 0x3fd1c71c71c71c71ull, 0x3fe446ea58c3c407ull,
     0x3fe446ea58c3c407ull, 0x3fe7dd8b8be8fe63ull, 0x3fe7dd8b8be8fe63ull,
     0x3fe68c5e8877e3a7ull, 0x3fe68c5e8877e3a7ull, 0x3fedb7bf06269b0dull},
    // knn(k=5)
    {0x3feca1af286bca1bull, 0x3feca1af286bca1bull, 0x3fc82192e29f79b4ull,
     0x3fc82192e29f79b4ull, 0x3fe8d8d8d8d8d8d9ull, 0x3fe8d8d8d8d8d8d9ull,
     0x3fb2492492492492ull, 0x3feb78121fb78122ull, 0x3feb78121fb78122ull,
     0x3fd28ac42fd9b839ull, 0x3fd28ac42fd9b839ull, 0x3fd684bda12f684cull,
     0x3fd684bda12f684cull, 0x3fb5789157891579ull, 0x3fe4444444444444ull,
     0x3fe4444444444444ull, 0x3fe60864b8a7de6dull, 0x3fe60864b8a7de6dull,
     0x3fee353f7ced9168ull, 0x3fee353f7ced9168ull, 0x3fed99999999999aull,
     0x3fe8d8d8d8d8d8d9ull, 0x3fe8d8d8d8d8d8d9ull, 0x3fc82192e29f79b4ull,
     0x3fc82192e29f79b4ull, 0x3fd39ce739ce739dull, 0x3fd39ce739ce739dull,
     0x3fe91fbc4c2a5066ull, 0x3fc882b931057262ull, 0x3fc882b931057262ull,
     0x3fc5195195195195ull, 0x3fc5195195195195ull, 0x3fc882b931057262ull,
     0x3fc882b931057262ull, 0x3fdbf86a314dbf87ull, 0x3fd1dc47711dc477ull,
     0x3fd1dc47711dc477ull, 0x3fedcdcdcdcdcdceull, 0x3fedcdcdcdcdcdceull,
     0x3fee7254813e22ccull, 0x3fee7254813e22ccull, 0x3feeaaaaaaaaaaabull},
    // knn(k=15)
    {0x3fdce4a9027c4598ull, 0x3fdce4a9027c4598ull, 0x3fcaaaaaaaaaaaabull,
     0x3fcaaaaaaaaaaaabull, 0x3fea5a5a5a5a5a5aull, 0x3fea5a5a5a5a5a5aull,
     0x3fca50475bdfe375ull, 0x3fec780e1fc780e2ull, 0x3fec780e1fc780e2ull,
     0x3fdc61f2a4bafdc6ull, 0x3fdc61f2a4bafdc6ull, 0x3fd32bfb7d2e3ce6ull,
     0x3fd32bfb7d2e3ce6ull, 0x3fc8ea80fa232cf2ull, 0x3fd8cfc4a33f128dull,
     0x3fd8cfc4a33f128dull, 0x3fd772c234f72c23ull, 0x3fd772c234f72c23ull,
     0x3fe60798b03cc582ull, 0x3fe60798b03cc582ull, 0x3fec944daec944dbull,
     0x3fe916872b020c4aull, 0x3fe916872b020c4aull, 0x3fcaaaaaaaaaaaabull,
     0x3fcaaaaaaaaaaaabull, 0x3fc8d2403e4bec88ull, 0x3fc8d2403e4bec88ull,
     0x3fe6636636636636ull, 0x3fdbc090fdbc0910ull, 0x3fdbc090fdbc0910ull,
     0x3fc8dc08767ab5f3ull, 0x3fc8dc08767ab5f3ull, 0x3fdbc090fdbc0910ull,
     0x3fdbc090fdbc0910ull, 0x3fde0c7ce0c7ce0cull, 0x3fca77569dd5a775ull,
     0x3fca77569dd5a775ull, 0x3feafd8bdc034585ull, 0x3feafd8bdc034585ull,
     0x3fec944daec944dbull, 0x3fec944daec944dbull, 0x3fec3c3c3c3c3c3cull},
    // mlp(hidden=16)
    {0x3feeee32d219f55cull, 0x3feeee32d219f55cull, 0x3fd1cb3647ddcfe7ull,
     0x3fd1cb3647ddcfe7ull, 0x3fe804cf95454893ull, 0x3fe804cf95454893ull,
     0x3f40f4ae6753d621ull, 0x3fe82680d79e25f0ull, 0x3fe82680d79e25f0ull,
     0x3fe6de7b96a77265ull, 0x3fe6de7b96a77265ull, 0x3fd5e8837aa7b8c1ull,
     0x3fd5e8837aa7b8c1ull, 0x3f653e0852d82941ull, 0x3fcc9f4b65479d1full,
     0x3fcc9f4b65479d1full, 0x3fd228bc87e68756ull, 0x3fd228bc87e68756ull,
     0x3fedea1f2addd0a1ull, 0x3fedea1f2addd0a1ull, 0x3feffe2c3161e4dcull,
     0x3fe95018f0b1fc7bull, 0x3fe95018f0b1fc7bull, 0x3fda7c697e9cbc4eull,
     0x3fda7c697e9cbc4eull, 0x3fd6ba685f3feb25ull, 0x3fd6ba685f3feb25ull,
     0x3feffbb35da59727ull, 0x3fc42e22a8dc5a2dull, 0x3fc42e22a8dc5a2dull,
     0x3fdca1b0417754ddull, 0x3fdca1b0417754ddull, 0x3fd079b90cc2d65aull,
     0x3fd079b90cc2d65aull, 0x3f4c2aeede4cfc25ull, 0x3fded5d08f92f19eull,
     0x3fded5d08f92f19eull, 0x3fecf456ea0a8d97ull, 0x3fecf456ea0a8d97ull,
     0x3fea8ecb835572d6ull, 0x3fea8ecb835572d6ull, 0x3fefedf3e99cd8afull},
};

const std::vector<Bits> kScaledWeightsProba = {
    // majority
    {0x3fe017c94aa126f3ull, 0x3fe017c94aa126f3ull, 0x3fe017c94aa126f3ull,
     0x3fe017c94aa126f3ull, 0x3fe017c94aa126f3ull, 0x3fe017c94aa126f3ull,
     0x3fe017c94aa126f3ull, 0x3fe017c94aa126f3ull, 0x3fe017c94aa126f3ull,
     0x3fe017c94aa126f3ull, 0x3fe017c94aa126f3ull, 0x3fe017c94aa126f3ull,
     0x3fe017c94aa126f3ull, 0x3fe017c94aa126f3ull, 0x3fe017c94aa126f3ull,
     0x3fe017c94aa126f3ull, 0x3fe017c94aa126f3ull, 0x3fe017c94aa126f3ull,
     0x3fe017c94aa126f3ull, 0x3fe017c94aa126f3ull, 0x3fe017c94aa126f3ull,
     0x3fe017c94aa126f3ull, 0x3fe017c94aa126f3ull, 0x3fe017c94aa126f3ull,
     0x3fe017c94aa126f3ull, 0x3fe017c94aa126f3ull, 0x3fe017c94aa126f3ull,
     0x3fe017c94aa126f3ull, 0x3fe017c94aa126f3ull, 0x3fe017c94aa126f3ull,
     0x3fe017c94aa126f3ull, 0x3fe017c94aa126f3ull, 0x3fe017c94aa126f3ull,
     0x3fe017c94aa126f3ull, 0x3fe017c94aa126f3ull, 0x3fe017c94aa126f3ull,
     0x3fe017c94aa126f3ull, 0x3fe017c94aa126f3ull, 0x3fe017c94aa126f3ull,
     0x3fe017c94aa126f3ull, 0x3fe017c94aa126f3ull, 0x3fe017c94aa126f3ull,
     0x3fe017c94aa126f3ull, 0x3fe017c94aa126f3ull, 0x3fe017c94aa126f3ull,
     0x3fe017c94aa126f3ull, 0x3fe017c94aa126f3ull, 0x3fe017c94aa126f3ull},
    // histogram(smoothing=1.000000)
    {0x3fed7a853e1660ffull, 0x3fed7a853e1660ffull, 0x3feb8f8c6f7776eeull,
     0x3feb8f8c6f7776eeull, 0x3fd22acbdd8edf40ull, 0x3fd22acbdd8edf40ull,
     0x3fb17cf96fbc293cull, 0x3fb17cf96fbc293cull, 0x3fe8fbed61c82d23ull,
     0x3fe8fbed61c82d23ull, 0x3fd4e0ac5cf2ef33ull, 0x3fd4e0ac5cf2ef33ull,
     0x3feb33ad6c3211ddull, 0x3feb33ad6c3211ddull, 0x3fd461684e82c3d6ull,
     0x3fd461684e82c3d6ull, 0x3fe7bc2178d0667aull, 0x3fe7bc2178d0667aull,
     0x3fc2ae9dce499062ull, 0x3fc2ae9dce499062ull, 0x3fd10674de1ab4f7ull,
     0x3fd10674de1ab4f7ull, 0x3fe933cbe14906cbull, 0x3fe933cbe14906cbull,
     0x3fcf76c2c9a08c6aull, 0x3fcf76c2c9a08c6aull, 0x3fbbdbb7d35e1320ull,
     0x3fbbdbb7d35e1320ull, 0x3fec7d75e4ee240eull, 0x3fec7d75e4ee240eull,
     0x3fd33441449cb5c0ull, 0x3fd33441449cb5c0ull, 0x3fd4aba7ea5dd420ull,
     0x3fd4aba7ea5dd420ull, 0x3fd3d7fd538c8e56ull, 0x3fd3d7fd538c8e56ull,
     0x3fbeec0d96304bfeull, 0x3fbeec0d96304bfeull, 0x3fe39a320139176eull,
     0x3fe39a320139176eull, 0x3fed256cad4c7052ull, 0x3fed256cad4c7052ull,
     0x3fe6b8cbf76b7505ull, 0x3fe6b8cbf76b7505ull, 0x3fd4ee22533def81ull,
     0x3fd4ee22533def81ull, 0x3fd86d0a315c40c8ull, 0x3fd86d0a315c40c8ull},
    // histogram(smoothing=0.100000)
    {0x3fee24e7ce611583ull, 0x3fee24e7ce611583ull, 0x3fec2a0eca242e7dull,
     0x3fec2a0eca242e7dull, 0x3fd1d15401a7e433ull, 0x3fd1d15401a7e433ull,
     0x3fa97c55e5f851ceull, 0x3fa97c55e5f851ceull, 0x3fe920711a7da76aull,
     0x3fe920711a7da76aull, 0x3fd46ac8f4eeb03eull, 0x3fd46ac8f4eeb03eull,
     0x3feb67cde1840bfaull, 0x3feb67cde1840bfaull, 0x3fd3541d150d2217ull,
     0x3fd3541d150d2217ull, 0x3fe7d9ec01f7f2fcull, 0x3fe7d9ec01f7f2fcull,
     0x3fc0e6ebcf0f8112ull, 0x3fc0e6ebcf0f8112ull, 0x3fd0bab04968ec17ull,
     0x3fd0bab04968ec17ull, 0x3fe9697908421690ull, 0x3fe9697908421690ull,
     0x3fcef4443f36d56full, 0x3fcef4443f36d56full, 0x3fb7bffd15e88505ull,
     0x3fb7bffd15e88505ull, 0x3fecc4b0200e2800ull, 0x3fecc4b0200e2800ull,
     0x3fd2f06f260bbb4dull, 0x3fd2f06f260bbb4dull, 0x3fd47353f709b3d3ull,
     0x3fd47353f709b3d3ull, 0x3fd39e138a19db80ull, 0x3fd39e138a19db80ull,
     0x3fbbca0333cbbedaull, 0x3fbbca0333cbbedaull, 0x3fe3aedfcbd9bf6dull,
     0x3fe3aedfcbd9bf6dull, 0x3fed9465eb090251ull, 0x3fed9465eb090251ull,
     0x3fe6d7e6e39e0d9full, 0x3fe6d7e6e39e0d9full, 0x3fd486d1938ae1f1ull,
     0x3fd486d1938ae1f1ull, 0x3fd83cd9b6232899ull, 0x3fd83cd9b6232899ull},
    // categorical-nb(alpha=1.000000)
    {0x3fe91143ea64471dull, 0x3fe91143ea64471dull, 0x3fe6d9dbc254c579ull,
     0x3fe6d9dbc254c579ull, 0x3fcf8a5c6644f1a8ull, 0x3fcf8a5c6644f1a8ull,
     0x3fd56ade89f1069eull, 0x3fd56ade89f1069eull, 0x3fe96419b7efe10bull,
     0x3fe96419b7efe10bull, 0x3fd56ade89f1069eull, 0x3fd56ade89f1069eull,
     0x3fe6dd5402f64089ull, 0x3fe6dd5402f64089ull, 0x3fe3d1c279681ed8ull,
     0x3fe3d1c279681ed8ull, 0x3fe90340c2b49789ull, 0x3fe90340c2b49789ull,
     0x3fc16531ab5796fbull, 0x3fc16531ab5796fbull, 0x3fd77c0c03a4666dull,
     0x3fd77c0c03a4666dull, 0x3fde0193eaad2da8ull, 0x3fde0193eaad2da8ull,
     0x3fd546442cb7f73eull, 0x3fd546442cb7f73eull, 0x3fcbe80773a89d56ull,
     0x3fcbe80773a89d56ull, 0x3fe6732963686cb0ull, 0x3fe6732963686cb0ull,
     0x3fde2a98c609cf67ull, 0x3fde2a98c609cf67ull, 0x3fd546442cb7f73eull,
     0x3fd546442cb7f73eull, 0x3fc16531ab5796fbull, 0x3fc16531ab5796fbull,
     0x3fdc1912f8f9ab24ull, 0x3fdc1912f8f9ab24ull, 0x3fe176a2d6fbcfa6ull,
     0x3fe176a2d6fbcfa6ull, 0x3fe6cc7f65a36f77ull, 0x3fe6cc7f65a36f77ull,
     0x3fe956917f4fb6e7ull, 0x3fe956917f4fb6e7ull, 0x3fcf8a5c6644f1a8ull,
     0x3fcf8a5c6644f1a8ull, 0x3fe0fb360b8ca8eaull, 0x3fe0fb360b8ca8eaull},
    // categorical-nb(alpha=0.100000)
    {0x3fe926cb7aefef9cull, 0x3fe926cb7aefef9cull, 0x3fe6ee21b5a93b5full,
     0x3fe6ee21b5a93b5full, 0x3fcf54ada6ccc942ull, 0x3fcf54ada6ccc942ull,
     0x3fd558c6174b0ea4ull, 0x3fd558c6174b0ea4ull, 0x3fe979853a61dd7full,
     0x3fe979853a61dd7full, 0x3fd558c6174b0ea4ull, 0x3fd558c6174b0ea4ull,
     0x3fe6f1f64cda57a8ull, 0x3fe6f1f64cda57a8ull, 0x3fe3e22a40a8cacfull,
     0x3fe3e22a40a8cacfull, 0x3fe917b90fbc7627ull, 0x3fe917b90fbc7627ull,
     0x3fc127296b85ee63ull, 0x3fc127296b85ee63ull, 0x3fd762acc770a629ull,
     0x3fd762acc770a629ull, 0x3fddf2b251596445ull, 0x3fddf2b251596445ull,
     0x3fd53122845aa253ull, 0x3fd53122845aa253ull, 0x3fcb99deefbd0368ull,
     0x3fcb99deefbd0368ull, 0x3fe687246fcdfa8full, 0x3fe687246fcdfa8full,
     0x3fde1f306de30fecull, 0x3fde1f306de30fecull, 0x3fd53122845aa253ull,
     0x3fd53122845aa253ull, 0x3fc127296b85ee63ull, 0x3fc127296b85ee63ull,
     0x3fdc1da199fbc588ull, 0x3fdc1da199fbc588ull, 0x3fe180570d968fd4ull,
     0x3fe180570d968fd4ull, 0x3fe6dfcbd601fd21ull, 0x3fe6dfcbd601fd21ull,
     0x3fe96af93996de29ull, 0x3fe96af93996de29ull, 0x3fcf54ada6ccc942ull,
     0x3fcf54ada6ccc942ull, 0x3fe103fd376e13efull, 0x3fe103fd376e13efull},
    // gaussian-nb
    {0x3fe5a5fd6a705b96ull, 0x3fe5a5fd6a705b96ull, 0x3feabdb9e17d47a6ull,
     0x3feabdb9e17d47a6ull, 0x3fd06837a083225full, 0x3fd06837a083225full,
     0x3fd5f459b7c84a2bull, 0x3fd5f459b7c84a2bull, 0x3fec5299e1aca7f1ull,
     0x3fec5299e1aca7f1ull, 0x3fd5f459b7c84a2bull, 0x3fd5f459b7c84a2bull,
     0x3fe1974e6dbfac35ull, 0x3fe1974e6dbfac35ull, 0x3fdc901b84ee6b5bull,
     0x3fdc901b84ee6b5bull, 0x3fe73318c796d9d0ull, 0x3fe73318c796d9d0ull,
     0x3fc4626327bec6f3ull, 0x3fc4626327bec6f3ull, 0x3fd58bfcf7224285ull,
     0x3fd58bfcf7224285ull, 0x3fdf7f3eb9ec9337ull, 0x3fdf7f3eb9ec9337ull,
     0x3fd967751f4bebe6ull, 0x3fd967751f4bebe6ull, 0x3fcbe969edbe4bf0ull,
     0x3fcbe969edbe4bf0ull, 0x3fe28f043f0f7fafull, 0x3fe28f043f0f7fafull,
     0x3fdbd0fb921633eaull, 0x3fdbd0fb921633eaull, 0x3fd967751f4bebe6ull,
     0x3fd967751f4bebe6ull, 0x3fc4626327bec6f3ull, 0x3fc4626327bec6f3ull,
     0x3fd3a4d9bbff1c4bull, 0x3fd3a4d9bbff1c4bull, 0x3fe790c4959383f2ull,
     0x3fe790c4959383f2ull, 0x3fe365714fabd934ull, 0x3fe365714fabd934ull,
     0x3fed030345e18ad9ull, 0x3fed030345e18ad9ull, 0x3fd06837a083225full,
     0x3fd06837a083225full, 0x3fdb9bb471c1f709ull, 0x3fdb9bb471c1f709ull},
    // logistic(lr=0.500000,l2=0.000100)
    {0x3fe578e655c13420ull, 0x3fe578e655c13420ull, 0x3fe8eb914c45fd43ull,
     0x3fe8eb914c45fd43ull, 0x3fce3659e01cf8ddull, 0x3fce3659e01cf8ddull,
     0x3fd492e9976c6112ull, 0x3fd492e9976c6112ull, 0x3feaff814c65fd29ull,
     0x3feaff814c65fd29ull, 0x3fd492e9976c6112ull, 0x3fd492e9976c6112ull,
     0x3fe1cd32770ad83dull, 0x3fe1cd32770ad83dull, 0x3fdcca03fc32ac84ull,
     0x3fdcca03fc32ac84ull, 0x3fe83f4d224cf417ull, 0x3fe83f4d224cf417ull,
     0x3fc576fee42ff02cull, 0x3fc576fee42ff02cull, 0x3fd56842881dcecdull,
     0x3fd56842881dcecdull, 0x3fe1555c2a1a3c76ull, 0x3fe1555c2a1a3c76ull,
     0x3fdaee3bb179a9f8ull, 0x3fdaee3bb179a9f8ull, 0x3fcf98e6fc37afccull,
     0x3fcf98e6fc37afccull, 0x3fe2443d6709ec21ull, 0x3fe2443d6709ec21ull,
     0x3fdbdb36eebbb420ull, 0x3fdbdb36eebbb420ull, 0x3fdaee3bb179a9f8ull,
     0x3fdaee3bb179a9f8ull, 0x3fc576fee42ff02cull, 0x3fc576fee42ff02cull,
     0x3fd641d1f13aa669ull, 0x3fd641d1f13aa669ull, 0x3fe64a221d4a0486ull,
     0x3fe64a221d4a0486ull, 0x3fe50cfcf9ebd3cbull, 0x3fe50cfcf9ebd3cbull,
     0x3fec8ceec0a7f2a2ull, 0x3fec8ceec0a7f2a2ull, 0x3fce3659e01cf8ddull,
     0x3fce3659e01cf8ddull, 0x3fddba3c7223b6c3ull, 0x3fddba3c7223b6c3ull},
    // logistic(lr=0.100000,l2=0.001000)
    {0x3fe5660a0c40071full, 0x3fe5660a0c40071full, 0x3fe8d3aa18768c7dull,
     0x3fe8d3aa18768c7dull, 0x3fce87875828f746ull, 0x3fce87875828f746ull,
     0x3fd4af3e5f84a469ull, 0x3fd4af3e5f84a469ull, 0x3feae6de2534681aull,
     0x3feae6de2534681aull, 0x3fd4af3e5f84a469ull, 0x3fd4af3e5f84a469ull,
     0x3fe1c47f32f48955ull, 0x3fe1c47f32f48955ull, 0x3fdccffb02ea09edull,
     0x3fdccffb02ea09edull, 0x3fe826dcc33be046ull, 0x3fe826dcc33be046ull,
     0x3fc5d094a8a5a2feull, 0x3fc5d094a8a5a2feull, 0x3fd583f0abb97eebull,
     0x3fd583f0abb97eebull, 0x3fe14d4b4905e7c2ull, 0x3fe14d4b4905e7c2ull,
     0x3fdaf6cb777f008full, 0x3fdaf6cb777f008full, 0x3fcfea85f2b4a2ccull,
     0x3fcfea85f2b4a2ccull, 0x3fe23aedc163360cull, 0x3fe23aedc163360cull,
     0x3fdbe27e807e918cull, 0x3fdbe27e807e918cull, 0x3fdaf6cb777f008full,
     0x3fdaf6cb777f008full, 0x3fc5d094a8a5a2feull, 0x3fc5d094a8a5a2feull,
     0x3fd65cc4f4126c8dull, 0x3fd65cc4f4126c8dull, 0x3fe636e67b506bb8ull,
     0x3fe636e67b506bb8ull, 0x3fe4fa61e7383adbull, 0x3fe4fa61e7383adbull,
     0x3fec764e279e6af9ull, 0x3fec764e279e6af9ull, 0x3fce87875828f746ull,
     0x3fce87875828f746ull, 0x3fddbedc4034bcadull, 0x3fddbedc4034bcadull},
    // tree(depth=6)
    {0x3fee38e38e38e38full, 0x3fee38e38e38e38full, 0x3fec3c3c3c3c3c3cull,
     0x3fec3c3c3c3c3c3cull, 0x3fd2e29f79b47583ull, 0x3fd2e29f79b47583ull,
     0x3fc7d05f417d05f4ull, 0x3fc7d05f417d05f4ull, 0x3fe9249249249249ull,
     0x3fe9249249249249ull, 0x3fc7d05f417d05f4ull, 0x3fc7d05f417d05f4ull,
     0x3feb6db6db6db6dbull, 0x3feb6db6db6db6dbull, 0x3fd3333333333334ull,
     0x3fd3333333333334ull, 0x3fe7dd49c34115b2ull, 0x3fe7dd49c34115b2ull,
     0x3fd0000000000000ull, 0x3fd0000000000000ull, 0x3fd0b21642c8590cull,
     0x3fd0b21642c8590cull, 0x3fe96f96f96f96f9ull, 0x3fe96f96f96f96f9ull,
     0x3fd1ad1ad1ad1ad1ull, 0x3fd1ad1ad1ad1ad1ull, 0x3fb745d1745d1746ull,
     0x3fb745d1745d1746ull, 0x3fecccccccccccccull, 0x3fecccccccccccccull,
     0x3fd2e8ba2e8ba2e9ull, 0x3fd2e8ba2e8ba2e9ull, 0x3fd1ad1ad1ad1ad1ull,
     0x3fd1ad1ad1ad1ad1ull, 0x3fd0000000000000ull, 0x3fd0000000000000ull,
     0x3fbb6db6db6db6dcull, 0x3fbb6db6db6db6dcull, 0x3fe3b13b13b13b14ull,
     0x3fe3b13b13b13b14ull, 0x3feda12f684bda13ull, 0x3feda12f684bda13ull,
     0x3fe6db6db6db6db7ull, 0x3fe6db6db6db6db7ull, 0x3fd2e29f79b47583ull,
     0x3fd2e29f79b47583ull, 0x3fd83759f2298376ull, 0x3fd83759f2298376ull},
    // tree(depth=12)
    {0x3fee38e38e38e38full, 0x3fee38e38e38e38full, 0x3fec3c3c3c3c3c3cull,
     0x3fec3c3c3c3c3c3cull, 0x3fd2e29f79b47583ull, 0x3fd2e29f79b47583ull,
     0x3fc7d05f417d05f4ull, 0x3fc7d05f417d05f4ull, 0x3fe9249249249249ull,
     0x3fe9249249249249ull, 0x3fc7d05f417d05f4ull, 0x3fc7d05f417d05f4ull,
     0x3feb6db6db6db6dbull, 0x3feb6db6db6db6dbull, 0x3fd3333333333334ull,
     0x3fd3333333333334ull, 0x3fe7dd49c34115b2ull, 0x3fe7dd49c34115b2ull,
     0x3fd0000000000000ull, 0x3fd0000000000000ull, 0x3fd0b21642c8590cull,
     0x3fd0b21642c8590cull, 0x3fe96f96f96f96f9ull, 0x3fe96f96f96f96f9ull,
     0x3fd1ad1ad1ad1ad1ull, 0x3fd1ad1ad1ad1ad1ull, 0x3fb745d1745d1746ull,
     0x3fb745d1745d1746ull, 0x3fecccccccccccccull, 0x3fecccccccccccccull,
     0x3fd2e8ba2e8ba2e9ull, 0x3fd2e8ba2e8ba2e9ull, 0x3fd1ad1ad1ad1ad1ull,
     0x3fd1ad1ad1ad1ad1ull, 0x3fd0000000000000ull, 0x3fd0000000000000ull,
     0x3fbb6db6db6db6dcull, 0x3fbb6db6db6db6dcull, 0x3fe3b13b13b13b14ull,
     0x3fe3b13b13b13b14ull, 0x3feda12f684bda13ull, 0x3feda12f684bda13ull,
     0x3fe6db6db6db6db7ull, 0x3fe6db6db6db6db7ull, 0x3fd2e29f79b47583ull,
     0x3fd2e29f79b47583ull, 0x3fd83759f2298376ull, 0x3fd83759f2298376ull},
    // forest(trees=15,depth=10)
    {0x3fe6a89a2507d0f0ull, 0x3fe6a89a2507d0f0ull, 0x3fdd6cc171b87007ull,
     0x3fdd6cc171b87007ull, 0x3fd6706e4975d20aull, 0x3fd6706e4975d20aull,
     0x3fc758beef720df9ull, 0x3fc758beef720df9ull, 0x3fe600ede9860ca2ull,
     0x3fe600ede9860ca2ull, 0x3fc758beef720df9ull, 0x3fc758beef720df9ull,
     0x3fea76a76a76a76bull, 0x3fea76a76a76a76bull, 0x3fe1d751690a849cull,
     0x3fe1d751690a849cull, 0x3fe2ed44c819dc86ull, 0x3fe2ed44c819dc86ull,
     0x3fd64900b7d3b0a1ull, 0x3fd64900b7d3b0a1ull, 0x3fe233ccba25acf3ull,
     0x3fe233ccba25acf3ull, 0x3fe39514477693bcull, 0x3fe39514477693bcull,
     0x3fde737250d4d674ull, 0x3fde737250d4d674ull, 0x3fde8c746a2f5d24ull,
     0x3fde8c746a2f5d24ull, 0x3fdca649f3e814deull, 0x3fdca649f3e814deull,
     0x3fcd11509de1d6abull, 0x3fcd11509de1d6abull, 0x3fde737250d4d674ull,
     0x3fde737250d4d674ull, 0x3fd64900b7d3b0a1ull, 0x3fd64900b7d3b0a1ull,
     0x3fce7fa57de51496ull, 0x3fce7fa57de51496ull, 0x3fd46a6f76bc0f00ull,
     0x3fd46a6f76bc0f00ull, 0x3fe78ea82cc32d36ull, 0x3fe78ea82cc32d36ull,
     0x3fdd17b38a3126d0ull, 0x3fdd17b38a3126d0ull, 0x3fd6706e4975d20aull,
     0x3fd6706e4975d20aull, 0x3fde222b650d69abull, 0x3fde222b650d69abull},
    // knn(k=5)
    {0x3fedb195e8efdb19ull, 0x3fedb195e8efdb19ull, 0x3feb61a6449e59bbull,
     0x3feb61a6449e59bbull, 0x3fcc71c71c71c71cull, 0x3fcc71c71c71c71cull,
     0x3fbdae6076b981daull, 0x3fbdae6076b981daull, 0x3febda12f684bda1ull,
     0x3febda12f684bda1ull, 0x3fbdae6076b981daull, 0x3fbdae6076b981daull,
     0x3fe983759f229838ull, 0x3fe983759f229838ull, 0x3fdef7bdef7bdef8ull,
     0x3fdef7bdef7bdef8ull, 0x3feafafafafafafbull, 0x3feafafafafafafbull,
     0x3fc7829cbc14e5e1ull, 0x3fc7829cbc14e5e1ull, 0x3fcfa3f47e8fd1fbull,
     0x3fcfa3f47e8fd1fbull, 0x3fd6800000000000ull, 0x3fd6800000000000ull,
     0x3fcdb22d0e560419ull, 0x3fcdb22d0e560419ull, 0x3fb033d91d2a2067ull,
     0x3fb033d91d2a2067ull, 0x3fea17a17a17a179ull, 0x3fea17a17a17a179ull,
     0x3fc6666666666667ull, 0x3fc6666666666667ull, 0x3fcdb22d0e560419ull,
     0x3fcdb22d0e560419ull, 0x3fc7829cbc14e5e1ull, 0x3fc7829cbc14e5e1ull,
     0x3fba7b9611a7b962ull, 0x3fba7b9611a7b962ull, 0x3fea8f5c28f5c28full,
     0x3fea8f5c28f5c28full, 0x3fed99999999999aull, 0x3fed99999999999aull,
     0x3fe9111111111111ull, 0x3fe9111111111111ull, 0x3fcc71c71c71c71cull,
     0x3fcc71c71c71c71cull, 0x3fdf5f5f5f5f5f60ull, 0x3fdf5f5f5f5f5f60ull},
    // knn(k=15)
    {0x3fe74862de74862dull, 0x3fe74862de74862dull, 0x3fe86d3a06d3a06cull,
     0x3fe86d3a06d3a06cull, 0x3fcd9ead7cd391feull, 0x3fcd9ead7cd391feull,
     0x3fce53d8c0ab42e8ull, 0x3fce53d8c0ab42e8ull, 0x3fe6db6db6db6db6ull,
     0x3fe6db6db6db6db6ull, 0x3fce53d8c0ab42e8ull, 0x3fce53d8c0ab42e8ull,
     0x3fe512073615a242ull, 0x3fe512073615a242ull, 0x3fde29f79b475821ull,
     0x3fde29f79b475821ull, 0x3feafa7c7494160dull, 0x3feafa7c7494160dull,
     0x3fcb8b577e613719ull, 0x3fcb8b577e613719ull, 0x3fcca3a728e9ca3bull,
     0x3fcca3a728e9ca3bull, 0x3fdf92c5f92c5f92ull, 0x3fdf92c5f92c5f92ull,
     0x3fd96cb65b2d96caull, 0x3fd96cb65b2d96caull, 0x3fca98ef606a63beull,
     0x3fca98ef606a63beull, 0x3fe6e9e06522c3f2ull, 0x3fe6e9e06522c3f2ull,
     0x3fdc1f07c1f07c1eull, 0x3fdc1f07c1f07c1eull, 0x3fd96cb65b2d96caull,
     0x3fd96cb65b2d96caull, 0x3fcb8b577e613719ull, 0x3fcb8b577e613719ull,
     0x3fdc71c71c71c71cull, 0x3fdc71c71c71c71cull, 0x3fe6480f2b9d6480ull,
     0x3fe6480f2b9d6480ull, 0x3fe34f72c234f72cull, 0x3fe34f72c234f72cull,
     0x3fe958b67ebb907aull, 0x3fe958b67ebb907aull, 0x3fcd9ead7cd391feull,
     0x3fcd9ead7cd391feull, 0x3fe1745d1745d175ull, 0x3fe1745d1745d175ull},
    // mlp(hidden=16)
    {0x3fed08eb75c277c7ull, 0x3fed08eb75c277c7ull, 0x3feca2a9245e43b8ull,
     0x3feca2a9245e43b8ull, 0x3fd3b8870c8ae82cull, 0x3fd3b8870c8ae82cull,
     0x3fc65f8204e25647ull, 0x3fc65f8204e25647ull, 0x3fe95787db36def1ull,
     0x3fe95787db36def1ull, 0x3fc65f8204e25647ull, 0x3fc65f8204e25647ull,
     0x3feb18391bea7494ull, 0x3feb18391bea7494ull, 0x3fd8216e4236d677ull,
     0x3fd8216e4236d677ull, 0x3fe940ddd6d07a90ull, 0x3fe940ddd6d07a90ull,
     0x3fcfde5bb71ec522ull, 0x3fcfde5bb71ec522ull, 0x3fcd5a0587f2a3dfull,
     0x3fcd5a0587f2a3dfull, 0x3fe96e4d29f16c14ull, 0x3fe96e4d29f16c14ull,
     0x3fd182ca2ff80aadull, 0x3fd182ca2ff80aadull, 0x3fbc7e82bd710d89ull,
     0x3fbc7e82bd710d89ull, 0x3fec71c8a303bfc0ull, 0x3fec71c8a303bfc0ull,
     0x3fd4dc364a4fb036ull, 0x3fd4dc364a4fb036ull, 0x3fd182ca2ff80aadull,
     0x3fd182ca2ff80aadull, 0x3fcfde5bb71ec522ull, 0x3fcfde5bb71ec522ull,
     0x3fbb201d48b5309cull, 0x3fbb201d48b5309cull, 0x3fe3bd5cd2c068afull,
     0x3fe3bd5cd2c068afull, 0x3fec7db9aab5fd3aull, 0x3fec7db9aab5fd3aull,
     0x3fe60b4c3e533f47ull, 0x3fe60b4c3e533f47ull, 0x3fd3b8870c8ae82cull,
     0x3fd3b8870c8ae82cull, 0x3fd7cf5083e7cdc9ull, 0x3fd7cf5083e7cdc9ull},
};

const std::vector<Bits> kDenseValuesProba = {
    // majority
    {0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull,
     0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull,
     0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull,
     0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull,
     0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull,
     0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull,
     0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull,
     0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull,
     0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull,
     0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull,
     0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull,
     0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull,
     0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull,
     0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull,
     0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull,
     0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull,
     0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull,
     0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull,
     0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull,
     0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull,
     0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull,
     0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull,
     0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull,
     0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull,
     0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull,
     0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull,
     0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull,
     0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull,
     0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull,
     0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull,
     0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull,
     0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull, 0x3fd6ac0c6fef6ac1ull},
    // histogram(smoothing=1.000000)
    {0x3fb6ac0c6fef6ac1ull, 0x3fedef009f325ef0ull, 0x3fc6ac0c6fef6ac1ull,
     0x3febde013e64bde0ull, 0x3fb6ac0c6fef6ac1ull, 0x3fae3abb3fe9e3acull,
     0x3fed6ac0c6fef6acull, 0x3fa427277ff14273ull, 0x3fedb4399470db44ull,
     0x3fec8e565ea948e5ull, 0x3fb2233d26592234ull, 0x3fedb4399470db44ull,
     0x3fb2233d26592234ull, 0x3fed0c4a07fed0c5ull, 0x3fc6ac0c6fef6ac1ull,
     0x3fead5818dfded58ull, 0x3febde013e64bde0ull, 0x3fbe3abb3fe9e3acull,
     0x3fe5ab031bfbdab0ull, 0x3fb2233d26592234ull, 0x3fa427277ff14273ull,
     0x3fa9e932c9119e93ull, 0x3fc6ac0c6fef6ac1ull, 0x3fa427277ff14273ull,
     0x3fb6ac0c6fef6ac1ull, 0x3fbe3abb3fe9e3acull, 0x3febde013e64bde0ull,
     0x3fbe3abb3fe9e3acull, 0x3fedef009f325ef0ull, 0x3fc6ac0c6fef6ac1ull,
     0x3fbe3abb3fe9e3acull, 0x3fbe3abb3fe9e3acull, 0x3febde013e64bde0ull,
     0x3fb2233d26592234ull, 0x3fa9e932c9119e93ull, 0x3fae3abb3fe9e3acull,
     0x3fe91cacbd5291cbull, 0x3fb6ac0c6fef6ac1ull, 0x3fc6ac0c6fef6ac1ull,
     0x3fec8e565ea948e5ull, 0x3fae3abb3fe9e3acull, 0x3fe5ab031bfbdab0ull,
     0x3fae3abb3fe9e3acull, 0x3fa9e932c9119e93ull, 0x3fa2233d26592234ull,
     0x3fb6ac0c6fef6ac1ull, 0x3fa2233d26592234ull, 0x3fa427277ff14273ull,
     0x3fa2233d26592234ull, 0x3fa2233d26592234ull, 0x3fa2233d26592234ull,
     0x3fec8e565ea948e5ull, 0x3fe5ab031bfbdab0ull, 0x3fead5818dfded58ull,
     0x3fae3abb3fe9e3acull, 0x3fe5ab031bfbdab0ull, 0x3fa427277ff14273ull,
     0x3fed6ac0c6fef6acull, 0x3fedb4399470db44ull, 0x3fe5ab031bfbdab0ull,
     0x3fa9e932c9119e93ull, 0x3fa9e932c9119e93ull, 0x3fead5818dfded58ull,
     0x3fa2233d26592234ull, 0x3fae3abb3fe9e3acull, 0x3fec8e565ea948e5ull,
     0x3fb6ac0c6fef6ac1ull, 0x3fa427277ff14273ull, 0x3fb6ac0c6fef6ac1ull,
     0x3fa2233d26592234ull, 0x3fa427277ff14273ull, 0x3fead5818dfded58ull,
     0x3fa427277ff14273ull, 0x3fedb4399470db44ull, 0x3fa6ac0c6fef6ac1ull,
     0x3fa2233d26592234ull, 0x3fb6ac0c6fef6ac1ull, 0x3fe5ab031bfbdab0ull,
     0x3fa427277ff14273ull, 0x3fa427277ff14273ull, 0x3fa2233d26592234ull,
     0x3fbe3abb3fe9e3acull, 0x3fa9e932c9119e93ull, 0x3fed0c4a07fed0c5ull,
     0x3fb6ac0c6fef6ac1ull, 0x3fa9e932c9119e93ull, 0x3fec8e565ea948e5ull,
     0x3fedb4399470db44ull, 0x3fae3abb3fe9e3acull, 0x3fedef009f325ef0ull,
     0x3fb2233d26592234ull, 0x3fedb4399470db44ull, 0x3fa2233d26592234ull,
     0x3fec8e565ea948e5ull, 0x3fedb4399470db44ull, 0x3fc6ac0c6fef6ac1ull},
    // histogram(smoothing=0.100000)
    {0x3f876746a5182c22ull, 0x3fefc5de4f625ed4ull, 0x3fa07d2051684da3ull,
     0x3fef7ef9e863b341ull, 0x3f876746a5182c22ull, 0x3f7c73830efa3fb1ull,
     0x3fefb57e48e6a4cfull, 0x3f71e9ea38d673f4ull, 0x3fefbeb1107e5140ull,
     0x3fef9846657d53dfull, 0x3f81b1fd38250227ull, 0x3fefbeb1107e5140ull,
     0x3f81b1fd38250227ull, 0x3fefa947723a9e41ull, 0x3fa07d2051684da3ull,
     0x3fef555b0a103fa8ull, 0x3fef7ef9e863b341ull, 0x3f914621db611462ull,
     0x3fee1f17d68ae1f1ull, 0x3f81b1fd38250227ull, 0x3f71e9ea38d673f4ull,
     0x3f77c97e5c428930ull, 0x3fa07d2051684da3ull, 0x3f71e9ea38d673f4ull,
     0x3f876746a5182c22ull, 0x3f914621db611462ull, 0x3fef7ef9e863b341ull,
     0x3f914621db611462ull, 0x3fefc5de4f625ed4ull, 0x3fa07d2051684da3ull,
     0x3f914621db611462ull, 0x3f914621db611462ull, 0x3fef7ef9e863b341ull,
     0x3f81b1fd38250227ull, 0x3f77c97e5c428930ull, 0x3f7c73830efa3fb1ull,
     0x3fef0418ad54f042ull, 0x3f876746a5182c22ull, 0x3fa07d2051684da3ull,
     0x3fef9846657d53dfull, 0x3f7c73830efa3fb1ull, 0x3fee1f17d68ae1f1ull,
     0x3f7c73830efa3fb1ull, 0x3f77c97e5c428930ull, 0x3f6fe3efbc647467ull,
     0x3f876746a5182c22ull, 0x3f6fe3efbc647467ull, 0x3f71e9ea38d673f4ull,
     0x3f6fe3efbc647467ull, 0x3f6fe3efbc647467ull, 0x3f6fe3efbc647467ull,
     0x3fef9846657d53dfull, 0x3fee1f17d68ae1f1ull, 0x3fef555b0a103fa8ull,
     0x3f7c73830efa3fb1ull, 0x3fee1f17d68ae1f1ull, 0x3f71e9ea38d673f4ull,
     0x3fefb57e48e6a4cfull, 0x3fefbeb1107e5140ull, 0x3fee1f17d68ae1f1ull,
     0x3f77c97e5c428930ull, 0x3f77c97e5c428930ull, 0x3fef555b0a103fa8ull,
     0x3f6fe3efbc647467ull, 0x3f7c73830efa3fb1ull, 0x3fef9846657d53dfull,
     0x3f876746a5182c22ull, 0x3f71e9ea38d673f4ull, 0x3f876746a5182c22ull,
     0x3f6fe3efbc647467ull, 0x3f71e9ea38d673f4ull, 0x3fef555b0a103fa8ull,
     0x3f71e9ea38d673f4ull, 0x3fefbeb1107e5140ull, 0x3f746fd185599d87ull,
     0x3f6fe3efbc647467ull, 0x3f876746a5182c22ull, 0x3fee1f17d68ae1f1ull,
     0x3f71e9ea38d673f4ull, 0x3f71e9ea38d673f4ull, 0x3f6fe3efbc647467ull,
     0x3f914621db611462ull, 0x3f77c97e5c428930ull, 0x3fefa947723a9e41ull,
     0x3f876746a5182c22ull, 0x3f77c97e5c428930ull, 0x3fef9846657d53dfull,
     0x3fefbeb1107e5140ull, 0x3f7c73830efa3fb1ull, 0x3fefc5de4f625ed4ull,
     0x3f81b1fd38250227ull, 0x3fefbeb1107e5140ull, 0x3f6fe3efbc647467ull,
     0x3fef9846657d53dfull, 0x3fefbeb1107e5140ull, 0x3fa07d2051684da3ull},
    // categorical-nb(alpha=1.000000)
    {0x3fd846c8ba4a1dbaull, 0x3fef383410aad78aull, 0x3fe2e8cfa83213e5ull,
     0x3fed8e9f3ca8462full, 0x3fd37a94ec16c334ull, 0x3fdcdadb48e20f5eull,
     0x3fec65aa81164c07ull, 0x3fcb1f815c968651ull, 0x3feb1bc3c24ab781ull,
     0x3fea99a60fb97222ull, 0x3fc4002ed94ab2efull, 0x3fefe204b24b47bdull,
     0x3fe3c3d8be96b5c8ull, 0x3fec0009b76bfc78ull, 0x3feb08df820ce81aull,
     0x3fef49f68d6fdea9ull, 0x3fe0d7aa5bc3c151ull, 0x3fb6af36277cee96ull,
     0x3fd3b160ece29d64ull, 0x3f8897510f83586bull, 0x3f929e73e9938a83ull,
     0x3f80356de855482cull, 0x3fcce777edd2b3eaull, 0x3fb4d815977caf89ull,
     0x3fc04aa07d408777ull, 0x3fa3cd4a0fe2b6edull, 0x3fe7cd8bd3b0b8daull,
     0x3fcd4212c5de5ea2ull, 0x3fef56b26f1c2a3aull, 0x3f7a0e01630180d1ull,
     0x3fb5763fc8a43e23ull, 0x3f964304ce4c10fbull, 0x3fee412e78e31c16ull,
     0x3f892c8c0d09393dull, 0x3fb2f6b57c984334ull, 0x3fe22999436749c2ull,
     0x3fefbc2d0163ff7full, 0x3f95a80f89dbb769ull, 0x3fd03fccc413086full,
     0x3fe81c1e87fa7866ull, 0x3f818c40976872afull, 0x3fe999a7d05ab5f3ull,
     0x3fccc1f8b5bc2e44ull, 0x3fb1c98c995bbd94ull, 0x3f6c38bef57937dfull,
     0x3f7eff80daa63c05ull, 0x3fa15091612a3ba8ull, 0x3f6d64b267e12a82ull,
     0x3f664be2f469f099ull, 0x3f762898fa6d10b7ull, 0x3f60ddd9317a1f9full,
     0x3feeb85554d0abdcull, 0x3fce1e5e0e9bb9e3ull, 0x3fefe204b24b47bdull,
     0x3fc8d62fedfba983ull, 0x3fe6f2a8d1fd3ed7ull, 0x3f9cac5590447190ull,
     0x3feb5eb490390534ull, 0x3fee16f1e1ee5293ull, 0x3fd3002516a1fd98ull,
     0x3fcaf2c1cc7cab72ull, 0x3f719f94a0cce2faull, 0x3fee7456843983a7ull,
     0x3f685730aeb58786ull, 0x3fb45d4b4f56035cull, 0x3fefece534fb58edull,
     0x3f7e6807c5c79faaull, 0x3f78d606aa078318ull, 0x3fe2dd0d69fb2b33ull,
     0x3fb377ebda693685ull, 0x3f774ae8be72aebcull, 0x3fef505332dc945bull,
     0x3f5d3e536371364bull, 0x3feab3c1ad4a9464ull, 0x3f75213df0df9a24ull,
     0x3fe07f182c2fc2cfull, 0x3f75ee071a310cd2ull, 0x3fe37a8476d12fa9ull,
     0x3fce1e5e0e9bb9e3ull, 0x3f6f586c83c6d57eull, 0x3f664be2f469f099ull,
     0x3fb6af36277cee9bull, 0x3fce1e5e0e9bb9e3ull, 0x3fef1920e589c2dfull,
     0x3faaf2cd9c9455b8ull, 0x3f7086be96b0bdc0ull, 0x3fefd4b574b21119ull,
     0x3fef56b26f1c2a3aull, 0x3f75213df0df9a24ull, 0x3fe6398e80da04f5ull,
     0x3fb65dace2728d93ull, 0x3feb1194590c83b2ull, 0x3f7a60d7f2c4e9bcull,
     0x3febd1cb54183c42ull, 0x3feef073ff13dc3cull, 0x3fb91dd8a12b6f54ull},
    // categorical-nb(alpha=0.100000)
    {0x3fd5099bee1d03d2ull, 0x3fefee1906528e13ull, 0x3fcf3ba99260041bull,
     0x3fefbb8db1945cd8ull, 0x3fafa4306325f562ull, 0x3fbc5ac028581944ull,
     0x3fed555acc296abeull, 0x3fa1aa93e147ebf5ull, 0x3fec1eac040957d0ull,
     0x3feba5cb97fec635ull, 0x3f985ed60c0358cdull, 0x3feffe67d8523c60ull,
     0x3fe4c16d388d058aull, 0x3fedbe496bd47289ull, 0x3fe51b8688985520ull,
     0x3fefefdde4187452ull, 0x3fe1bc530f0b1dc6ull, 0x3f882ada181ee63bull,
     0x3fe3f0776d65b7e0ull, 0x3f25e103bbc556f3ull, 0x3f5627771ebced8eull,
     0x3f424ffbbc804346ull, 0x3fa3b5eedcf52c06ull, 0x3fab7cd6d067b482ull,
     0x3f927f57d2da3b88ull, 0x3f72f364050b1e99ull, 0x3fe8effe5ac53071ull,
     0x3fc73df9bbf06972ull, 0x3feff0ae137af97full, 0x3f3ce5e8e31f7308ull,
     0x3f868492975510eaull, 0x3f5b03e2cbc6e0f5ull, 0x3fefd301b7b8379full,
     0x3f27bd146c1c3902ull, 0x3f8400021aacf193ull, 0x3fe32629abd1618bull,
     0x3feffc32592863e5ull, 0x3f5a23b879b63e69ull, 0x3faf945efe5da35dull,
     0x3fe9aa1e9141abebull, 0x3f1f9c9dcd465bb3ull, 0x3feed233d58494a1ull,
     0x3fa36f350a44dc40ull, 0x3f8262fb1760c189ull, 0x3f06c51ceed06fa4ull,
     0x3f1a40a9d556e65full, 0x3f7040ea10d8fb16ull, 0x3f07c171b32cb0dcull,
     0x3f01d0dfff607735ull, 0x3f1281d26cefd2daull, 0x3efa9bfb1eaf2988ull,
     0x3fefe01c86bebf96ull, 0x3fc6be19fe7ce440ull, 0x3feffe67d8523c60ull,
     0x3f9fbcfffc0825afull, 0x3fee1bc055f83675ull, 0x3f61e65c2fe79c4cull,
     0x3fec579ae73f2b95ull, 0x3fefcec4f2273c88ull, 0x3fcd7543eafa9d99ull,
     0x3fa197f9180b2cc6ull, 0x3f0d0cf16e72215cull, 0x3fefd69c290bb5ebull,
     0x3f0387607fb406bcull, 0x3f8536f483cf81e7ull, 0x3fefffcfdd8e208aull,
     0x3f1a53847d8123d2ull, 0x3f14aad906e33fc1ull, 0x3fe3e34529d945b6ull,
     0x3fa97e6c3043be3dull, 0x3f134c7c7d5712e4ull, 0x3feff155113f421aull,
     0x3ef6f3a58bcbf951ull, 0x3fef5b4372c008c4ull, 0x3f11b7a9ad8c5c64ull,
     0x3fe16e8292d4648eull, 0x3f1219a51cf4210aull, 0x3fecd0907eb52109ull,
     0x3fc66ca3fb7b26f6ull, 0x3f30fc0413359dc4ull, 0x3f01d0dfff607735ull,
     0x3f87fddc36a1e525ull, 0x3fc6be19fe7ce440ull, 0x3fefeae9d0c106dbull,
     0x3f73c338d72a7490ull, 0x3f0ae6e460a39dedull, 0x3fefff8d25dfc112ull,
     0x3feff0ae137af97full, 0x3f1189e316275ebbull, 0x3fe74c5b2d1c2da1ull,
     0x3f88fb5c9c6f2886ull, 0x3fec07da8abcac9bull, 0x3f1651a81fdd3648ull,
     0x3feceeab6b1b3dd1ull, 0x3fefe60ec4591c02ull, 0x3f8aefb6a45220adull},
    // gaussian-nb
    {0x3fcd72f44085528full, 0x3fe12e437e20523bull, 0x3fde83e62a1d275eull,
     0x3fb81903dbc0736aull, 0x3fe2b9fda54dd00full, 0x3fd8f6a4478d3715ull,
     0x3fe431b75376dabbull, 0x3fb896938086fdebull, 0x3fd6356e36c0ea38ull,
     0x3fe32762416587a7ull, 0x3fe2f86fdafdd39bull, 0x3fdc53dcb958fefbull,
     0x3fd9aa59fa4b8413ull, 0x3fe57cf90c0caf1full, 0x3fd5534fd18413c7ull,
     0x3fe2458f784b9d75ull, 0x3fe496577b1d82e1ull, 0x3fccae2a59e63e97ull,
     0x3fc55c075270b924ull, 0x3fd48ca6212ac08aull, 0x3fd5100ba0d0ffacull,
     0x3fce87d9e7f82bfaull, 0x3fde4e3ab7db284bull, 0x3fd7207777276ab5ull,
     0x3fe53ba909c19dfcull, 0x3fcc69bf75c9f114ull, 0x3fbf4b6503881486ull,
     0x3fd36a3bb9bcee25ull, 0x3fcf59b7aaef158eull, 0x3fbae45c970c97b0ull,
     0x3fd6a9a14b793c0aull, 0x3fdb736303517e78ull, 0x3fe1874ba25581e7ull,
     0x3fcec103041fd382ull, 0x3fca23dc0fbcfb5eull, 0x3fd736c6f66e8158ull,
     0x3fddd91709c17c0bull, 0x3fcc5cc0f312a368ull, 0x3fd40ef86f6d57b9ull,
     0x3fe341dbd066a0c1ull, 0x3fd09a4619b6303full, 0x3fe5e92a934da5b3ull,
     0x3fe46cb0af494a36ull, 0x3fc01c7b8d476844ull, 0x3fc2cab27dcbda6dull,
     0x3fd2e54c561b17abull, 0x3fd1e0a72c7fa5caull, 0x3fcaaa4dd7c79212ull,
     0x3fd62087e0b57330ull, 0x3fcd64fdc83efe87ull, 0x3fbdb4f6ee7115d8ull,
     0x3fe28648795bc44cull, 0x3fe404d0c4fd408cull, 0x3fdcbe48a8461a75ull,
     0x3fe11e2cb82e5ddaull, 0x3fb973e2829a7fc6ull, 0x3fbd7be8b16e2978ull,
     0x3fcf4240dde2e2bbull, 0x3fe508bbb8cf647full, 0x3fe07968f338ccafull,
     0x3fdd86a0c1d8300eull, 0x3fd30e8361857794ull, 0x3fd76705ca7d9f67ull,
     0x3fc07f66144f38d2ull, 0x3fc685fc8e564bb7ull, 0x3fe8eaf81ad0c9e2ull,
     0x3fd02583e4f9c4d3ull, 0x3fd676a908e405e4ull, 0x3fdbcceb15d8bfe4ull,
     0x3fe03d26ac7b6638ull, 0x3fce7150ae4d3b6cull, 0x3fcab4c5e8b272acull,
     0x3fc89873987dc25cull, 0x3fd1998313280b65ull, 0x3fd3173ef88a717dull,
     0x3fd1c58e9caca1dfull, 0x3fd965a798b27e3aull, 0x3fcc3a043364b644ull,
     0x3fd52099645faedcull, 0x3fbfbf14450c1511ull, 0x3fd1133d70e034b1ull,
     0x3fcb162cd8cb5a49ull, 0x3fe3b87a8dbdc99eull, 0x3fe2eba5ef981a84ull,
     0x3fdd0a06b95469efull, 0x3fd5bd9d4cf8e141ull, 0x3fe8b7ceed0cfafcull,
     0x3fcefc27d799a7d0ull, 0x3fcd3d6de8261de2ull, 0x3fe2ec7f315a9bc7ull,
     0x3fc6089ed3d4bbb4ull, 0x3fe10dd9f5a9fbf5ull, 0x3fc9998e2ecd1738ull,
     0x3fc1ef64b118de58ull, 0x3fdbd55b2c551ad0ull, 0x3fe2fbe3f244c73aull},
    // logistic(lr=0.500000,l2=0.000100)
    {0x3fd1ba302c089a84ull, 0x3fdf654796994b75ull, 0x3fdd6aa912b7e6b4ull,
     0x3fc0ac815803b08aull, 0x3fe0c2e5c38e80abull, 0x3fd5e9f385240f67ull,
     0x3fe4e46b8f3ac661ull, 0x3fbf4d8c9f7b3908ull, 0x3fd5b034c11ed5acull,
     0x3fe4ce6e4d3502acull, 0x3fe5823b6c2a96a3ull, 0x3fd8f655c5a24f42ull,
     0x3fd71bb057141053ull, 0x3fe298586511ca88ull, 0x3fdc830dfbc213a8ull,
     0x3fdfeb634ed2fbd0ull, 0x3fe5c10ec2b48de7ull, 0x3fc9d9f555a32417ull,
     0x3fd08a19dcfc8707ull, 0x3fd1afc5373ae6b1ull, 0x3fda57a56980ce20ull,
     0x3fd10a73fafe1b4eull, 0x3fe33344c3f216ebull, 0x3fdf26e58d6c1162ull,
     0x3fe25ea159df5280ull, 0x3fd4ba41b44605beull, 0x3fc692081d92ffadull,
     0x3fd5e194f83cde20ull, 0x3fc8a98e2a838cd0ull, 0x3fc61e8ec2e62118ull,
     0x3fdeb7c7e7dc82d0ull, 0x3fdee9ff8de25d2aull, 0x3fde736f7532e3eeull,
     0x3fc587e7bbbab107ull, 0x3fd06468d742b987ull, 0x3fd6c7b916280965ull,
     0x3fda9a1504fa6eeaull, 0x3fc1fedfe67f8e15ull, 0x3fd192676e53bf2aull,
     0x3fe2b090d62ba48bull, 0x3fd334f9e28ac02bull, 0x3fe28fb8cfea2411ull,
     0x3fe269c62e2eb272ull, 0x3fc80f2e959d74f0ull, 0x3fc8b1b64c93a5aaull,
     0x3fd859b6d8ccbd30ull, 0x3fcd4d1f1abbcd46ull, 0x3fd483630c4479faull,
     0x3fd489716346c7c3ull, 0x3fc5560ae7e362bdull, 0x3fc359ecd0023072ull,
     0x3fe0081626c9b942ull, 0x3fe3b1ce19298623ull, 0x3fd950f668d2b7d4ull,
     0x3fde86f51ad1a260ull, 0x3fc44741e48bc2edull, 0x3fc5b8955baf3f74ull,
     0x3fd9b41d0e8fc710ull, 0x3fe1fc9995979c69ull, 0x3fdcefc52dfc35ddull,
     0x3fe18dc4190b79f4ull, 0x3fd12a2da78401d1ull, 0x3fd7b6d4d1d34b3eull,
     0x3fc706ab2eda0ebaull, 0x3fcf629b053dc3a6ull, 0x3fe4cf0e149fd6f7ull,
     0x3fc83ba084ee2c33ull, 0x3fdd4ac9788061caull, 0x3fe2a3e9a4343f38ull,
     0x3fe2acb71ba717c4ull, 0x3fce9fad038fed65ull, 0x3fcb59d8d0d2e6a4ull,
     0x3fd1f55bb4b5cd52ull, 0x3fd00f18b9e7cd07ull, 0x3fd6d86ab8a7a327ull,
     0x3fccf0247b4b447full, 0x3fd9a7fd56502d86ull, 0x3fc1863b8042c034ull,
     0x3fd2b8b5261f1ee2ull, 0x3fcaccbfe5e21493ull, 0x3fce56b0a83f68a0ull,
     0x3fd412db422fab98ull, 0x3fe37f2e1690b0d2ull, 0x3fe202172be69d49ull,
     0x3fdafdcde70b6c78ull, 0x3fd320491d54e67eull, 0x3fe4d380c3566999ull,
     0x3fc825ea6fac7372ull, 0x3fc5f9f399f2e389ull, 0x3fe0568915b0ad6full,
     0x3fca6aab7314e8d0ull, 0x3fddcf281453da13ull, 0x3fd0491bbf7f2a5bull,
     0x3fc1156ad737c5e1ull, 0x3fd88624116138d7ull, 0x3fe0748d2f7e48fdull},
    // logistic(lr=0.100000,l2=0.001000)
    {0x3fd1d3b3b384ef5eull, 0x3fdf5d2a63c9f551ull, 0x3fdd68208e183b79ull,
     0x3fc0ee76a4b340dcull, 0x3fe0bc06d7f335afull, 0x3fd5f8a210429607ull,
     0x3fe4d1f767fd231dull, 0x3fbfcfad0655842bull, 0x3fd5c0d8584add38ull,
     0x3fe4bc072e67aed7ull, 0x3fe56e6bbcca1d6aull, 0x3fd8fda57a8f1036ull,
     0x3fd7284e3853fba1ull, 0x3fe28bcf68a51464ull, 0x3fdc7e2a6165f67bull,
     0x3fdfdfffa963bc99ull, 0x3fe5acf83aa90310ull, 0x3fca18844d7d2e70ull,
     0x3fd0a626e46d820dull, 0x3fd1c6e707e89f16ull, 0x3fda5e3ddf3193ccull,
     0x3fd12155063a4462ull, 0x3fe3240a89a5aa3bull, 0x3fdf2176a3382989ull,
     0x3fe252a8adbc2990ull, 0x3fd4ce6e7dc6571bull, 0x3fc6cca8881cb93aull,
     0x3fd5ee5f46567379ull, 0x3fc8e8105bafd0b7ull, 0x3fc6619ee3fbfd9full,
     0x3fdeacdc13c553eaull, 0x3fdedf3bcdf9d93full, 0x3fde6c9cf607a1feull,
     0x3fc5c73516ab88c7ull, 0x3fd07c151dc13235ull, 0x3fd6d5e13b4e1e75ull,
     0x3fda9cb6388899a6ull, 0x3fc23d7bee8af874ull, 0x3fd1a9835e4a8d9full,
     0x3fe2a56f3b8171c7ull, 0x3fd34b9b725eff5eull, 0x3fe283f4011f3775ull,
     0x3fe25ef496a92d72ull, 0x3fc848bc3ede83e2ull, 0x3fc8eb252d13bc5full,
     0x3fd8654f3b5efba6ull, 0x3fcd84d171166367ull, 0x3fd4926d7e878d36ull,
     0x3fd49c49113758d5ull, 0x3fc5961c8b3bb015ull, 0x3fc39cb81d25c1b4ull,
     0x3fe0025920d50f58ull, 0x3fe3a20564ecc5f7ull, 0x3fd9576be8ad2d3full,
     0x3fde7ef6ed49692bull, 0x3fc48a8c9fdccb63ull, 0x3fc5f3930e17e732ull,
     0x3fd9b62d5e8082ffull, 0x3fe1f1c0e6b10148ull, 0x3fdced41b037f1a2ull,
     0x3fe182b35372691bull, 0x3fd141c067884edeull, 0x3fd7bfab99eb09aaull,
     0x3fc748f740c53a2cull, 0x3fcf93be110dffa4ull, 0x3fe4be105abf8d56ull,
     0x3fc878b248847cc2ull, 0x3fdd43dcf161b3afull, 0x3fe295ec78666e9aull,
     0x3fe2a2118a4a312full, 0x3fced94f10df7e8eull, 0x3fcb91bf01b0985aull,
     0x3fd20eeee742ec22ull, 0x3fd0285a280592acull, 0x3fd6e2aca114e4adull,
     0x3fcd29f2edb1ecbcull, 0x3fd9af5a0bf33a0full, 0x3fc1c5a30eda2d74ull,
     0x3fd2cef3570d07b5ull, 0x3fcb0cf828dfd3e1ull, 0x3fce8fb83b17e29aull,
     0x3fd422f5fd6446e3ull, 0x3fe36fd3d95e37e6ull, 0x3fe1f87b39d53b18ull,
     0x3fdb012af3524bbeull, 0x3fd3348c4a1b09acull, 0x3fe4c241ca885fd0ull,
     0x3fc864c85535d831ull, 0x3fc63797d09eb446ull, 0x3fe05054fb755cbbull,
     0x3fcaa2d76b06a42eull, 0x3fddca47ab560393ull, 0x3fd0652392801f3eull,
     0x3fc156c6932eb288ull, 0x3fd88e9a067e6102ull, 0x3fe06e2368611e7eull},
    // tree(depth=6)
    {0x0000000000000000ull, 0x3ff0000000000000ull, 0x3fdc28f5c28f5c29ull,
     0x3ff0000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
     0x3ff0000000000000ull, 0x0000000000000000ull, 0x3ff0000000000000ull,
     0x3ff0000000000000ull, 0x0000000000000000ull, 0x3ff0000000000000ull,
     0x0000000000000000ull, 0x3fe0000000000000ull, 0x0000000000000000ull,
     0x3ff0000000000000ull, 0x3ff0000000000000ull, 0x0000000000000000ull,
     0x3ff0000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
     0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
     0x0000000000000000ull, 0x0000000000000000ull, 0x3ff0000000000000ull,
     0x0000000000000000ull, 0x3ff0000000000000ull, 0x0000000000000000ull,
     0x0000000000000000ull, 0x0000000000000000ull, 0x3ff0000000000000ull,
     0x0000000000000000ull, 0x0000000000000000ull, 0x3fdc28f5c28f5c29ull,
     0x3ff0000000000000ull, 0x3fd0000000000000ull, 0x0000000000000000ull,
     0x3fdc28f5c28f5c29ull, 0x0000000000000000ull, 0x3ff0000000000000ull,
     0x3fdc28f5c28f5c29ull, 0x0000000000000000ull, 0x0000000000000000ull,
     0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
     0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
     0x3ff0000000000000ull, 0x3ff0000000000000ull, 0x3ff0000000000000ull,
     0x0000000000000000ull, 0x3ff0000000000000ull, 0x0000000000000000ull,
     0x3ff0000000000000ull, 0x3ff0000000000000ull, 0x3ff0000000000000ull,
     0x0000000000000000ull, 0x0000000000000000ull, 0x3ff0000000000000ull,
     0x0000000000000000ull, 0x0000000000000000ull, 0x3ff0000000000000ull,
     0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
     0x0000000000000000ull, 0x0000000000000000ull, 0x3ff0000000000000ull,
     0x0000000000000000ull, 0x3ff0000000000000ull, 0x0000000000000000ull,
     0x0000000000000000ull, 0x3fdc28f5c28f5c29ull, 0x3fd0000000000000ull,
     0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
     0x0000000000000000ull, 0x3fe0000000000000ull, 0x3fdc28f5c28f5c29ull,
     0x0000000000000000ull, 0x0000000000000000ull, 0x3ff0000000000000ull,
     0x3ff0000000000000ull, 0x0000000000000000ull, 0x3ff0000000000000ull,
     0x0000000000000000ull, 0x3ff0000000000000ull, 0x0000000000000000ull,
     0x3ff0000000000000ull, 0x3ff0000000000000ull, 0x0000000000000000ull},
    // tree(depth=12)
    {0x0000000000000000ull, 0x3ff0000000000000ull, 0x0000000000000000ull,
     0x3ff0000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
     0x3ff0000000000000ull, 0x0000000000000000ull, 0x3ff0000000000000ull,
     0x3ff0000000000000ull, 0x0000000000000000ull, 0x3ff0000000000000ull,
     0x0000000000000000ull, 0x3ff0000000000000ull, 0x0000000000000000ull,
     0x3ff0000000000000ull, 0x3ff0000000000000ull, 0x0000000000000000ull,
     0x3ff0000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
     0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
     0x0000000000000000ull, 0x0000000000000000ull, 0x3ff0000000000000ull,
     0x0000000000000000ull, 0x3ff0000000000000ull, 0x0000000000000000ull,
     0x0000000000000000ull, 0x0000000000000000ull, 0x3ff0000000000000ull,
     0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
     0x3ff0000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
     0x3ff0000000000000ull, 0x0000000000000000ull, 0x3ff0000000000000ull,
     0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
     0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
     0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
     0x3ff0000000000000ull, 0x3ff0000000000000ull, 0x3ff0000000000000ull,
     0x0000000000000000ull, 0x3ff0000000000000ull, 0x0000000000000000ull,
     0x3ff0000000000000ull, 0x3ff0000000000000ull, 0x3ff0000000000000ull,
     0x0000000000000000ull, 0x0000000000000000ull, 0x3ff0000000000000ull,
     0x0000000000000000ull, 0x0000000000000000ull, 0x3ff0000000000000ull,
     0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
     0x0000000000000000ull, 0x0000000000000000ull, 0x3ff0000000000000ull,
     0x0000000000000000ull, 0x3ff0000000000000ull, 0x0000000000000000ull,
     0x0000000000000000ull, 0x0000000000000000ull, 0x3ff0000000000000ull,
     0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull,
     0x0000000000000000ull, 0x0000000000000000ull, 0x3ff0000000000000ull,
     0x0000000000000000ull, 0x0000000000000000ull, 0x3ff0000000000000ull,
     0x3ff0000000000000ull, 0x0000000000000000ull, 0x3ff0000000000000ull,
     0x0000000000000000ull, 0x3ff0000000000000ull, 0x0000000000000000ull,
     0x3ff0000000000000ull, 0x3ff0000000000000ull, 0x0000000000000000ull},
    // forest(trees=15,depth=10)
    {0x0000000000000000ull, 0x3fe999999999999aull, 0x3fc1111111111111ull,
     0x3fe7777777777777ull, 0x3fc999999999999aull, 0x3fb1111111111111ull,
     0x3feddddddddddddeull, 0x3fc1111111111111ull, 0x3fe5555555555555ull,
     0x3fe999999999999aull, 0x3fdddddddddddddeull, 0x3feddddddddddddeull,
     0x3fc999999999999aull, 0x3fe5555555555555ull, 0x3fb1111111111111ull,
     0x3febbbbbbbbbbbbcull, 0x3fe7777777777777ull, 0x0000000000000000ull,
     0x3febbbbbbbbbbbbcull, 0x0000000000000000ull, 0x0000000000000000ull,
     0x3fb1111111111111ull, 0x3fb1111111111111ull, 0x3fc1111111111111ull,
     0x3fd1111111111111ull, 0x0000000000000000ull, 0x3fe7777777777777ull,
     0x3fb1111111111111ull, 0x3ff0000000000000ull, 0x3fd999999999999aull,
     0x0000000000000000ull, 0x0000000000000000ull, 0x3ff0000000000000ull,
     0x3fc1111111111111ull, 0x0000000000000000ull, 0x3fd1111111111111ull,
     0x3fe5555555555555ull, 0x3fd5555555555555ull, 0x0000000000000000ull,
     0x3fe999999999999aull, 0x0000000000000000ull, 0x3ff0000000000000ull,
     0x3fdddddddddddddeull, 0x3fd1111111111111ull, 0x0000000000000000ull,
     0x3fb1111111111111ull, 0x3fb1111111111111ull, 0x0000000000000000ull,
     0x0000000000000000ull, 0x3fd1111111111111ull, 0x3fd999999999999aull,
     0x3ff0000000000000ull, 0x3fe1111111111111ull, 0x3ff0000000000000ull,
     0x3fd5555555555555ull, 0x3fe999999999999aull, 0x3fd1111111111111ull,
     0x3febbbbbbbbbbbbcull, 0x3febbbbbbbbbbbbcull, 0x3feddddddddddddeull,
     0x3fc1111111111111ull, 0x3fb1111111111111ull, 0x3febbbbbbbbbbbbcull,
     0x3fc1111111111111ull, 0x0000000000000000ull, 0x3feddddddddddddeull,
     0x3fc1111111111111ull, 0x3fb1111111111111ull, 0x3fb1111111111111ull,
     0x3fc999999999999aull, 0x0000000000000000ull, 0x3fe5555555555555ull,
     0x3fb1111111111111ull, 0x3fe999999999999aull, 0x3fb1111111111111ull,
     0x3fb1111111111111ull, 0x3fc1111111111111ull, 0x3fe999999999999aull,
     0x0000000000000000ull, 0x3fc999999999999aull, 0x0000000000000000ull,
     0x0000000000000000ull, 0x3fc999999999999aull, 0x3fe7777777777777ull,
     0x3fb1111111111111ull, 0x0000000000000000ull, 0x3feddddddddddddeull,
     0x3ff0000000000000ull, 0x3fc1111111111111ull, 0x3ff0000000000000ull,
     0x0000000000000000ull, 0x3ff0000000000000ull, 0x0000000000000000ull,
     0x3febbbbbbbbbbbbcull, 0x3fe7777777777777ull, 0x3fdddddddddddddeull},
    // knn(k=5)
    {0x0000000000000000ull, 0x3fdb6db6db6db6dbull, 0x3fdb6db6db6db6dbull,
     0x3fcbd37a6f4de9bdull, 0x3fdb6db6db6db6dbull, 0x3fe9d89d89d89d8aull,
     0x3fe7a6f4de9bd37aull, 0x3fcbd37a6f4de9bdull, 0x3fd2492492492492ull,
     0x3fe8618618618618ull, 0x3fe0f0f0f0f0f0f1ull, 0x3fea492492492492ull,
     0x3fd3333333333333ull, 0x3fe684bda12f684cull, 0x3fd2aaaaaaaaaaabull,
     0x3fe90b21642c8591ull, 0x3fe8618618618618ull, 0x3fcc71c71c71c71cull,
     0x3fa2492492492492ull, 0x0000000000000000ull, 0x0000000000000000ull,
     0x3fc0000000000000ull, 0x3fe0f0f0f0f0f0f1ull, 0x0000000000000000ull,
     0x3fe5c28f5c28f5c3ull, 0x3fa745d1745d1746ull, 0x3fc0000000000000ull,
     0x3fc3333333333333ull, 0x3fd8ba2e8ba2e8baull, 0x3fcbd37a6f4de9bdull,
     0x3fd2aaaaaaaaaaabull, 0x3fa5555555555555ull, 0x3ff0000000000000ull,
     0x3fa3b13b13b13b14ull, 0x0000000000000000ull, 0x3fd999999999999aull,
     0x3fe90b21642c8591ull, 0x0000000000000000ull, 0x0000000000000000ull,
     0x3fda12f684bda12full, 0x0000000000000000ull, 0x3fee666666666666ull,
     0x3fe4000000000000ull, 0x3fc0000000000000ull, 0x3fc2492492492492ull,
     0x0000000000000000ull, 0x0000000000000000ull, 0x3fd0000000000000ull,
     0x3fcaf286bca1af28ull, 0x3fe0000000000000ull, 0x3fc4a5294a5294a5ull,
     0x3ff0000000000000ull, 0x3fd745d1745d1746ull, 0x3fea492492492492ull,
     0x3fe286bca1af286cull, 0x3fcd1745d1745d17ull, 0x3fc0000000000000ull,
     0x3fd6666666666666ull, 0x3fec000000000000ull, 0x3fee9bd37a6f4deaull,
     0x3fcd1745d1745d17ull, 0x3fd1a7b9611a7b96ull, 0x3fdb13b13b13b13bull,
     0x3fa2492492492492ull, 0x0000000000000000ull, 0x3ff0000000000000ull,
     0x0000000000000000ull, 0x0000000000000000ull, 0x3fd5555555555555ull,
     0x3fc364d9364d9365ull, 0x3fd2492492492492ull, 0x3fc2492492492492ull,
     0x3fa642c8590b2164ull, 0x3fde9bd37a6f4deaull, 0x0000000000000000ull,
     0x3fd94d653594d653ull, 0x3fe4ec4ec4ec4ec5ull, 0x3fd294a5294a5295ull,
     0x0000000000000000ull, 0x3fb999999999999aull, 0x3fdd67c8a60dd67dull,
     0x3fd0000000000000ull, 0x3fd745d1745d1746ull, 0x3fe199999999999aull,
     0x3fe36db6db6db6dbull, 0x3fb745d1745d1746ull, 0x3fec71c71c71c71cull,
     0x3fd8ba2e8ba2e8baull, 0x3fd0842108421084ull, 0x3fee666666666666ull,
     0x3fbc71c71c71c71cull, 0x3fee9bd37a6f4deaull, 0x3fa3b13b13b13b14ull,
     0x3fc0000000000000ull, 0x3fea492492492492ull, 0x3fee666666666666ull},
    // knn(k=15)
    {0x3fc4d653594d6536ull, 0x3fe0000000000000ull, 0x3fd83759f2298376ull,
     0x3fc286bca1af286cull, 0x3fe0000000000000ull, 0x3fe1eb851eb851ecull,
     0x3fd8000000000000ull, 0x3fc286bca1af286cull, 0x3fca895da895da89ull,
     0x3fd8000000000000ull, 0x3fd7a17a17a17a18ull, 0x3fe8348348348348ull,
     0x3fe10b21642c8591ull, 0x3fe8000000000000ull, 0x3fd15f15f15f15f1ull,
     0x3fe8000000000000ull, 0x3fd8000000000000ull, 0x3fd46cefa8d9df52ull,
     0x3fb3716aefcc26e3ull, 0x3fd8bf258bf258bfull, 0x3fc1a7b9611a7b96ull,
     0x3fc83759f2298376ull, 0x3fd7a17a17a17a18ull, 0x3fc2121212121212ull,
     0x3fe8000000000000ull, 0x3f98618618618618ull, 0x3fc5555555555555ull,
     0x3fc93d4bb7e327a9ull, 0x3fd0fac687d6343full, 0x3fc1d2a2067b23a5ull,
     0x3fd5f85bb39503d2ull, 0x3fd0000000000000ull, 0x3feb9dcee773b9ddull,
     0x3fd3205e293205e3ull, 0x3fc6f96f96f96f97ull, 0x3fca895da895da89ull,
     0x3fe52edf8c9ea5dcull, 0x3fc2c5f92c5f92c6ull, 0x3fd5a240e6c2b448ull,
     0x3fd0690690690690ull, 0x3fc93d4bb7e327a9ull, 0x3feb1c71c71c71c7ull,
     0x3fd9c71c71c71c72ull, 0x3fc6aefcc26e2d5eull, 0x3fc5555555555555ull,
     0x3fc1a7b9611a7b96ull, 0x3fd59c427e56710aull, 0x3fc0f6bf3a9a3785ull,
     0x3fd79435e50d7943ull, 0x3fd58b67ebb9079bull, 0x3fc286bca1af286cull,
     0x3feadd3c0ca4587eull, 0x3fd5b1e5f75270d0ull, 0x3fe8348348348348ull,
     0x3fe5555555555555ull, 0x3fc1d2a2067b23a5ull, 0x3fc6aefcc26e2d5eull,
     0x3fb7e4b17e4b17e5ull, 0x3feaaaaaaaaaaaabull, 0x3fe3884fcace213full,
     0x3fd8000000000000ull, 0x3fcf07c1f07c1f08ull, 0x3fcb6db6db6db6dbull,
     0x3fc286bca1af286cull, 0x3fc5555555555555ull, 0x3fee2be2be2be2beull,
     0x3fd06eb3e45306ebull, 0x3fd226357e16ece5ull, 0x3fd64d9364d9364eull,
     0x3fc2f684bda12f68ull, 0x3fd68ba2e8ba2e8cull, 0x3fc79435e50d7943ull,
     0x3fb3716aefcc26e3ull, 0x3fc93d4bb7e327a9ull, 0x3fb7a17a17a17a18ull,
     0x3fd999999999999aull, 0x3fd7e4b17e4b17e5ull, 0x3fd1840ac7691841ull,
     0x3fdc83cd4e930289ull, 0x3fc1d2a2067b23a5ull, 0x3fd5204f88b2f393ull,
     0x3fc0f6bf3a9a3785ull, 0x3fd5b1e5f75270d0ull, 0x3fd79435e50d7943ull,
     0x3fd6276276276276ull, 0x3fdbacf914c1bad0ull, 0x3fec962fc962fc96ull,
     0x3fd0fac687d6343full, 0x3fcf81f81f81f820ull, 0x3fe76fc64f52edf9ull,
     0x3fc6f96f96f96f97ull, 0x3fe6cb65b2d96cb6ull, 0x3fb6666666666666ull,
     0x3fc161f9add3c0caull, 0x3fe8348348348348ull, 0x3fe435e50d79435eull},
    // mlp(hidden=16)
    {0x3fa9460212db4d11ull, 0x3fe88071acb06245ull, 0x3f932a50e1b81592ull,
     0x3fc24db4d0669668ull, 0x3fe099f0c4bf8446ull, 0x3fb31d97ebae80efull,
     0x3fe575a0540a794aull, 0x3fdad77b542609e0ull, 0x3fe037c286827b11ull,
     0x3fe45a60866679a7ull, 0x3fe8c6ed740d536full, 0x3fee9604f129c97cull,
     0x3fb2f99d242ae06dull, 0x3fe69b3c50e91213ull, 0x3fd280f8901a6697ull,
     0x3fed73f04e6134f2ull, 0x3fea8f4c233de0cbull, 0x3fc94893daafed79ull,
     0x3f8c18583fd03970ull, 0x3f5958da12fa24d9ull, 0x3f712245aa445e9full,
     0x3fa40896e3ec95ccull, 0x3fc7c7bfd4be7fffull, 0x3f5271386c2fa47dull,
     0x3fe90d874a64d867ull, 0x3fbadcba12566223ull, 0x3fc7092b1150a9fdull,
     0x3fb1ffbec4165610ull, 0x3fe8cf24047f287cull, 0x3fa36bf6157ee7bbull,
     0x3fb821cc82dc32bfull, 0x3f94721ba0691b7dull, 0x3fef81ac2cc880f1ull,
     0x3fa8384f4c67c8e9ull, 0x3f83172e6ade8bacull, 0x3fdccab15ba2908eull,
     0x3fd7c872a3f2e63dull, 0x3fa1dd0b9fc72f55ull, 0x3fae73f331ccbb26ull,
     0x3febdc8175831ec2ull, 0x3fc5d58de2e20ad5ull, 0x3feafe43b831419bull,
     0x3fde5801f5b6825aull, 0x3faf6c35d68c7a32ull, 0x3fc1c1ae37dd90bfull,
     0x3fa539baf22f170aull, 0x3f826c995173d9f5ull, 0x3f75da02ff977458ull,
     0x3fb44b371e37964bull, 0x3fd715075b707f0full, 0x3fb220684e574e61ull,
     0x3fef9b6edcb3b802ull, 0x3fd2c38a61623006ull, 0x3fef2a829b2192ebull,
     0x3fd0a80b339d02f0ull, 0x3fa5c54a84835688ull, 0x3fcccc9d2e7e242cull,
     0x3fe6c9c4fd8a8f0cull, 0x3fefb4fb15b40972ull, 0x3fef60a4e78a9f04ull,
     0x3fa4d987c9b93966ull, 0x3fdb588df853d7bfull, 0x3fd3c1337c08599aull,
     0x3fa5710309ae38faull, 0x3f77e24996a775a8ull, 0x3feee6a470a9a80cull,
     0x3f920b88fe2da96bull, 0x3fc13b9798982f88ull, 0x3fbc62b4c2b8578full,
     0x3f8b37d471fdaac6ull, 0x3fa645032005d890ull, 0x3fea04862755189bull,
     0x3f928b0de8ebf3b4ull, 0x3fe43f3c20dd6dbcull, 0x3fc69c35e5a38dbdull,
     0x3fa2819a8a7b6373ull, 0x3faf630b7f984e55ull, 0x3fc0fe15928fe8f8ull,
     0x3f8416abb40243bdull, 0x3f9b32c3327b7a15ull, 0x3fb4537e15bfc771ull,
     0x3f7317dd1c3c9bbeull, 0x3fceb66901eb2472ull, 0x3fe5f97465861c3aull,
     0x3fce3181739f6957ull, 0x3f857cf53e0dfaaeull, 0x3fefac30b96d7553ull,
     0x3fe8fd866d88ddbbull, 0x3f94494cb8b13d13ull, 0x3fef16a1164fd4d9ull,
     0x3fc8e208d7516621ull, 0x3fef5ce23ff45fb1ull, 0x3fa29ee3f1ece15eull,
     0x3feb1c279e3db3c7ull, 0x3feeb6a3f886a86dull, 0x3fee798e8cd06437ull},
};

struct AutoMlGolden {
  std::string winner;
  std::uint64_t bestCvAccuracy;
  std::vector<std::pair<std::string, std::uint64_t>> leaderboard;
  Bits refitProba;
};

const AutoMlGolden kCodeTuplesAutoMl = {
    "categorical-nb(alpha=1.000000)",
    0x3fdeb949bcb0f80full,
    {
     {"majority", 0x3fd8c4a1d7ead300ull},
     {"histogram(smoothing=1.000000)", 0x3fb955d6679c2bddull},
     {"histogram(smoothing=0.100000)", 0x3fb955d6679c2bddull},
     {"categorical-nb(alpha=1.000000)", 0x3fdeb949bcb0f80full},
     {"categorical-nb(alpha=0.100000)", 0x3fdeb949bcb0f80full},
     {"gaussian-nb", 0x3fd4e46557599e71ull},
     {"logistic(lr=0.500000,l2=0.000100)", 0x3fd48397a238b888ull},
     {"logistic(lr=0.100000,l2=0.001000)", 0x3fd48397a238b888ull},
     {"tree(depth=6)", 0x3fc61f01e40489a4ull},
     {"tree(depth=12)", 0x3fc1348fb158dcd5ull},
     {"forest(trees=15,depth=10)", 0x3fc256f8d0bb8e8full},
     {"knn(k=5)", 0x3fdc4410a35b21a8ull},
     {"knn(k=15)", 0x3fd3f26312875fabull},
     {"mlp(hidden=16)", 0x3fbea1164f68be95ull}},
    {0x3fcbb1d81b1e9c86ull, 0x3fcbb1d81b1e9c86ull, 0x3fe695ddcfbaf3cdull,
     0x3fe695ddcfbaf3cdull, 0x3fe25e2f90283888ull, 0x3fe25e2f90283888ull,
     0x3fc0040bddac2b23ull, 0x3fc0040bddac2b23ull, 0x3fee626e19dd2293ull,
     0x3fee626e19dd2293ull, 0x3fe58bb371619201ull, 0x3fe58bb371619201ull,
     0x3fd7b554a3b1abd3ull, 0x3fd7b554a3b1abd3ull, 0x3fc8f49368bef468ull,
     0x3fc8f49368bef468ull, 0x3fd3615f01ba791aull, 0x3fd3615f01ba791aull,
     0x3fd766c1d5bc462cull, 0x3fd766c1d5bc462cull, 0x3fe9a8a91094ad0bull,
     0x3fe9a8a91094ad0bull, 0x3fcd6e235b0de144ull, 0x3fcd6e235b0de144ull,
     0x3fc60b676de07346ull, 0x3fc60b676de07346ull, 0x3fedc5031416959eull,
     0x3fedc5031416959eull, 0x3fe7bc076719f4bbull, 0x3fe7bc076719f4bbull,
     0x3fd3a8fb3d0cea76ull, 0x3fd3a8fb3d0cea76ull, 0x3fd57ddef4a1c199ull,
     0x3fd57ddef4a1c199ull, 0x3fe2c243ba89abecull, 0x3fe2c243ba89abecull,
     0x3fe76eb50e7a3b26ull, 0x3fe76eb50e7a3b26ull, 0x3fe98da770e88113ull,
     0x3fe98da770e88113ull, 0x3fe79b81f488d62dull, 0x3fe79b81f488d62dull,
     0x3fd5c97928e414c9ull, 0x3fd5c97928e414c9ull, 0x3fcde66f1a7f7026ull,
     0x3fcde66f1a7f7026ull, 0x3fe4f5e621e0d66bull, 0x3fe4f5e621e0d66bull}};

const AutoMlGolden kExtendedRowsAutoMl = {
    "knn(k=15)",
    0x3fe866ab91396a0cull,
    {
     {"majority", 0x3fda4231fbf27da3ull},
     {"histogram(smoothing=1.000000)", 0x3fc67587c48f32a9ull},
     {"histogram(smoothing=0.100000)", 0x3fc67587c48f32a9ull},
     {"categorical-nb(alpha=1.000000)", 0x3fe36b65fea629e1ull},
     {"categorical-nb(alpha=0.100000)", 0x3fe36b65fea629e1ull},
     {"gaussian-nb", 0x3fe5f3d778e85bddull},
     {"logistic(lr=0.500000,l2=0.000100)", 0x3fe0edc3355c89cbull},
     {"logistic(lr=0.100000,l2=0.001000)", 0x3fe2be7aef1d0b7cull},
     {"tree(depth=6)", 0x3fda2c949a0159d6ull},
     {"tree(depth=12)", 0x3fd78e85bdce040eull},
     {"forest(trees=15,depth=10)", 0x3fd23ccaa37634b0ull},
     {"knn(k=5)", 0x3fe5b2ff5314f077ull},
     {"knn(k=15)", 0x3fe866ab91396a0cull},
     {"mlp(hidden=16)", 0x3fcd0b7b9c081b05ull}},
    {0x3fdce4a9027c4598ull, 0x3fdce4a9027c4598ull, 0x3fcaaaaaaaaaaaabull,
     0x3fcaaaaaaaaaaaabull, 0x3fea5a5a5a5a5a5aull, 0x3fea5a5a5a5a5a5aull,
     0x3fca50475bdfe375ull, 0x3fec780e1fc780e2ull, 0x3fec780e1fc780e2ull,
     0x3fdc61f2a4bafdc6ull, 0x3fdc61f2a4bafdc6ull, 0x3fd32bfb7d2e3ce6ull,
     0x3fd32bfb7d2e3ce6ull, 0x3fc8ea80fa232cf2ull, 0x3fd8cfc4a33f128dull,
     0x3fd8cfc4a33f128dull, 0x3fd772c234f72c23ull, 0x3fd772c234f72c23ull,
     0x3fe60798b03cc582ull, 0x3fe60798b03cc582ull, 0x3fec944daec944dbull,
     0x3fe916872b020c4aull, 0x3fe916872b020c4aull, 0x3fcaaaaaaaaaaaabull,
     0x3fcaaaaaaaaaaaabull, 0x3fc8d2403e4bec88ull, 0x3fc8d2403e4bec88ull,
     0x3fe6636636636636ull, 0x3fdbc090fdbc0910ull, 0x3fdbc090fdbc0910ull,
     0x3fc8dc08767ab5f3ull, 0x3fc8dc08767ab5f3ull, 0x3fdbc090fdbc0910ull,
     0x3fdbc090fdbc0910ull, 0x3fde0c7ce0c7ce0cull, 0x3fca77569dd5a775ull,
     0x3fca77569dd5a775ull, 0x3feafd8bdc034585ull, 0x3feafd8bdc034585ull,
     0x3fec944daec944dbull, 0x3fec944daec944dbull, 0x3fec3c3c3c3c3c3cull}};

const AutoMlGolden kScaledWeightsAutoMl = {
    "knn(k=5)",
    0x3fe4970b004c1db9ull,
    {
     {"majority", 0x3fd600983b773a91ull},
     {"histogram(smoothing=1.000000)", 0x3fb9de1ac273f54bull},
     {"histogram(smoothing=0.100000)", 0x3fb9de1ac273f54bull},
     {"categorical-nb(alpha=1.000000)", 0x3fd8748d8748d873ull},
     {"categorical-nb(alpha=0.100000)", 0x3fd8748d8748d873ull},
     {"gaussian-nb", 0x3fe0c30c30c30c30ull},
     {"logistic(lr=0.500000,l2=0.000100)", 0x3fe1a765639ae882ull},
     {"logistic(lr=0.100000,l2=0.001000)", 0x3fe1a765639ae882ull},
     {"tree(depth=6)", 0x3fcdbb9d4970b003ull},
     {"tree(depth=12)", 0x3fcb34a08eb7bfc6ull},
     {"forest(trees=15,depth=10)", 0x3fc437e5d5c781edull},
     {"knn(k=5)", 0x3fe4970b004c1db9ull},
     {"knn(k=15)", 0x3fe21991fd06d6abull},
     {"mlp(hidden=16)", 0x3fcac273f54bd19dull}},
    {0x3fedb195e8efdb19ull, 0x3fedb195e8efdb19ull, 0x3feb61a6449e59bbull,
     0x3feb61a6449e59bbull, 0x3fcc71c71c71c71cull, 0x3fcc71c71c71c71cull,
     0x3fbdae6076b981daull, 0x3fbdae6076b981daull, 0x3febda12f684bda1ull,
     0x3febda12f684bda1ull, 0x3fbdae6076b981daull, 0x3fbdae6076b981daull,
     0x3fe983759f229838ull, 0x3fe983759f229838ull, 0x3fdef7bdef7bdef8ull,
     0x3fdef7bdef7bdef8ull, 0x3feafafafafafafbull, 0x3feafafafafafafbull,
     0x3fc7829cbc14e5e1ull, 0x3fc7829cbc14e5e1ull, 0x3fcfa3f47e8fd1fbull,
     0x3fcfa3f47e8fd1fbull, 0x3fd6800000000000ull, 0x3fd6800000000000ull,
     0x3fcdb22d0e560419ull, 0x3fcdb22d0e560419ull, 0x3fb033d91d2a2067ull,
     0x3fb033d91d2a2067ull, 0x3fea17a17a17a179ull, 0x3fea17a17a17a179ull,
     0x3fc6666666666667ull, 0x3fc6666666666667ull, 0x3fcdb22d0e560419ull,
     0x3fcdb22d0e560419ull, 0x3fc7829cbc14e5e1ull, 0x3fc7829cbc14e5e1ull,
     0x3fba7b9611a7b962ull, 0x3fba7b9611a7b962ull, 0x3fea8f5c28f5c28full,
     0x3fea8f5c28f5c28full, 0x3fed99999999999aull, 0x3fed99999999999aull,
     0x3fe9111111111111ull, 0x3fe9111111111111ull, 0x3fcc71c71c71c71cull,
     0x3fcc71c71c71c71cull, 0x3fdf5f5f5f5f5f60ull, 0x3fdf5f5f5f5f5f60ull}};

const AutoMlGolden kSampledRawAutoMl = {
    "mlp(hidden=16)",
    0x3fe64b17e4b17e4aull,
    {
     {"majority", 0x3fe06d3a06d3a06aull},
     {"histogram(smoothing=1.000000)", 0x3fe62fc962fc962eull},
     {"histogram(smoothing=0.100000)", 0x3fe62fc962fc962eull},
     {"categorical-nb(alpha=1.000000)", 0x3fe1d0369d0369ceull},
     {"categorical-nb(alpha=0.100000)", 0x3fe1d0369d0369ceull},
     {"gaussian-nb", 0x3fde4b17e4b17e49ull},
     {"logistic(lr=0.500000,l2=0.000100)", 0x3fdeb851eb851eb6ull},
     {"logistic(lr=0.100000,l2=0.001000)", 0x3fdeb851eb851eb6ull},
     {"tree(depth=6)", 0x3fe5555555555553ull},
     {"tree(depth=12)", 0x3fe62fc962fc962eull},
     {"forest(trees=15,depth=10)", 0x3fe51eb851eb851cull},
     {"knn(k=5)", 0x3fe0a3d70a3d70a1ull},
     {"knn(k=15)", 0x3fd962fc962fc963ull},
     {"mlp(hidden=16)", 0x3fe64b17e4b17e4aull}},
    {0x3fe99bc19852c20bull, 0x3fd011648a5d3d4dull, 0x3fe0fdca8571fb6aull,
     0x3fed782334e4c52cull, 0x3fd8c82afb29f0e0ull, 0x3fcd01fcc0168d53ull,
     0x3fe64d9c6d8de799ull, 0x3fdf4232e33f46c6ull, 0x3fdd906c1f6004d2ull,
     0x3fe389eb1deebb55ull, 0x3fcd3d37dfef2de7ull, 0x3fda2dc1628d53d8ull,
     0x3fea15c4f4c675a4ull, 0x3fd677ff97acb3a5ull, 0x3fd10bbf9a7f5964ull,
     0x3fe75b05fd34eb94ull, 0x3fe1f4b99a1ad616ull, 0x3fc0920b5caeaa6aull,
     0x3fe98bdef7d6199bull, 0x3fe2cb7809f41e6dull, 0x3fd39a5af1ed4424ull,
     0x3fec8f9d31b6465eull, 0x3fc4f4bd164b5bfaull, 0x3fcb44980541a42aull,
     0x3fed71133d07964aull}};

/// predictProba bits per row of an MLP with 6 hidden units (one four-unit
/// lane block plus two units on their own) fitted for 80 epochs on
/// extendedRows(), seed 4242.
const Bits kPartialLaneMlpProba = {
    0x3fee7ce776bc3a11ull, 0x3fee7ce776bc3a11ull, 0x3fc8b17e449d8b84ull,
     0x3fc8b17e449d8b84ull, 0x3fe7d7a9ceb40d8dull, 0x3fe7d7a9ceb40d8dull,
     0x3fa00f15b04020c6ull, 0x3fe98f2bffdf28e7ull, 0x3fe98f2bffdf28e7ull,
     0x3fe5ce92f0419a4eull, 0x3fe5ce92f0419a4eull, 0x3fd3eec0b398938full,
     0x3fd3eec0b398938full, 0x3fb18171966b5d41ull, 0x3fcd01a51e8c84cbull,
     0x3fcd01a51e8c84cbull, 0x3fd1a610e84bf825ull, 0x3fd1a610e84bf825ull,
     0x3fee442ae9627564ull, 0x3fee442ae9627564ull, 0x3fef95ccb88f7e3dull,
     0x3fe73538e18eecbbull, 0x3fe73538e18eecbbull, 0x3fd3bc3c794fd2b3ull,
     0x3fd3bc3c794fd2b3ull, 0x3fd4eb326c9af3f7ull, 0x3fd4eb326c9af3f7ull,
     0x3fef72e164796c6bull, 0x3fc6633a3f3f119eull, 0x3fc6633a3f3f119eull,
     0x3fd3509f599ad3c8ull, 0x3fd3509f599ad3c8ull, 0x3fce3afafad1e0a5ull,
     0x3fce3afafad1e0a5ull, 0x3fd44fb701139249ull, 0x3fde07b535503b16ull,
     0x3fde07b535503b16ull, 0x3fec780b5ea77871ull, 0x3fec780b5ea77871ull,
     0x3fef17c67a628ac5ull, 0x3fef17c67a628ac5ull, 0x3fee5bb37978f8c1ull};

// ---------------------------------------------------------------------------
// Checks.

std::uint64_t bitsOf(double value) { return std::bit_cast<std::uint64_t>(value); }

std::string hex(std::uint64_t bits) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "0x%016llxull", static_cast<unsigned long long>(bits));
  return buffer;
}

std::string formatBits(const Bits& bits) {
  std::string out = "{";
  for (std::size_t i = 0; i < bits.size(); ++i) {
    out += (i == 0 ? "" : i % 3 == 0 ? ",\n     " : ", ") + hex(bits[i]);
  }
  return out + "}";
}

/// predictProba bits of every row, for every portfolio candidate fitted on
/// `data` with a fixed seed.
std::vector<Bits> portfolioPredictions(const Dataset& data) {
  std::vector<Bits> table;
  for (const auto& candidate : defaultPortfolio()) {
    auto model = candidate->fresh();
    support::Rng rng{4242};
    model->fit(data, rng);
    Bits bits;
    for (std::size_t i = 0; i < data.size(); ++i) {
      bits.push_back(bitsOf(model->predictProba(data.row(i))));
    }
    table.push_back(std::move(bits));
  }
  return table;
}

void expectPortfolioGolden(const char* tableName, const Dataset& data,
                           const std::vector<Bits>& golden) {
  const std::vector<Bits> actual = portfolioPredictions(data);
  const auto portfolio = defaultPortfolio();
  bool same = actual.size() == golden.size();
  for (std::size_t c = 0; same && c < actual.size(); ++c) {
    same = actual[c] == golden[c];
    EXPECT_EQ(actual[c], golden[c]) << portfolio[c]->name();
  }
  if (same) return;
  std::string dump = std::string{"const std::vector<Bits> "} + tableName + " = {\n";
  for (std::size_t c = 0; c < actual.size(); ++c) {
    dump += "    // " + portfolio[c]->name() + "\n    " + formatBits(actual[c]) + ",\n";
  }
  ADD_FAILURE() << "observed table:\n" << dump << "};";
}

void expectAutoMlGolden(const char* tableName, const Dataset& data, const AutoMlConfig& config,
                        const std::vector<RowView>& probes, const AutoMlGolden& golden) {
  support::Rng rng{777};
  const AutoMlResult result = autoSelect(data, config, rng);
  AutoMlGolden actual{result.bestName, bitsOf(result.bestCvAccuracy), {}, {}};
  for (const auto& entry : result.leaderboard) {
    actual.leaderboard.emplace_back(entry.model, bitsOf(entry.cvAccuracy));
  }
  for (const RowView probe : probes) {
    actual.refitProba.push_back(bitsOf(result.model->predictProba(probe)));
  }
  EXPECT_EQ(actual.winner, golden.winner);
  EXPECT_EQ(actual.bestCvAccuracy, golden.bestCvAccuracy);
  EXPECT_EQ(actual.leaderboard, golden.leaderboard);
  EXPECT_EQ(actual.refitProba, golden.refitProba);
  if (actual.winner == golden.winner && actual.bestCvAccuracy == golden.bestCvAccuracy &&
      actual.leaderboard == golden.leaderboard && actual.refitProba == golden.refitProba) {
    return;
  }
  std::string dump = std::string{"const AutoMlGolden "} + tableName + " = {\n    \"" +
                     actual.winner + "\",\n    " + hex(actual.bestCvAccuracy) + ",\n    {";
  for (std::size_t i = 0; i < actual.leaderboard.size(); ++i) {
    const auto& [model, accuracy] = actual.leaderboard[i];
    dump += (i == 0 ? "\n     {\"" : ",\n     {\"") + model + "\", " + hex(accuracy) + "}";
  }
  dump += "},\n    " + formatBits(actual.refitProba) + "};";
  ADD_FAILURE() << "observed table:\n" << dump;
}

std::vector<RowView> rowsOf(const Dataset& data) {
  std::vector<RowView> rows;
  for (std::size_t i = 0; i < data.size(); ++i) rows.push_back(data.row(i));
  return rows;
}

TEST(KernelGoldenTest, PortfolioPredictionsOnCodeTuples) {
  expectPortfolioGolden("kCodeTuplesProba", codeTuples(), kCodeTuplesProba);
}

TEST(KernelGoldenTest, PortfolioPredictionsOnExtendedRows) {
  expectPortfolioGolden("kExtendedRowsProba", extendedRows(), kExtendedRowsProba);
}

TEST(KernelGoldenTest, PortfolioPredictionsOnScaledWeightsWithSignedZero) {
  expectPortfolioGolden("kScaledWeightsProba", scaledWeights(), kScaledWeightsProba);
}

TEST(KernelGoldenTest, PortfolioPredictionsOnDenseValues) {
  expectPortfolioGolden("kDenseValuesProba", denseValues(), kDenseValuesProba);
}

TEST(KernelGoldenTest, MlpWithPartialLaneBlockOnExtendedRows) {
  const Dataset data = extendedRows();
  MlpClassifier model{MlpHyper{6, 0.05, 80, 1e-5}};
  support::Rng rng{4242};
  model.fit(data, rng);
  Bits actual;
  for (std::size_t i = 0; i < data.size(); ++i) {
    actual.push_back(bitsOf(model.predictProba(data.row(i))));
  }
  EXPECT_EQ(actual, kPartialLaneMlpProba) << "observed table:\n" << formatBits(actual);
}

TEST(KernelGoldenTest, AutoSelectOnCodeTuples) {
  const Dataset data = codeTuples();
  expectAutoMlGolden("kCodeTuplesAutoMl", data, {}, rowsOf(data), kCodeTuplesAutoMl);
}

TEST(KernelGoldenTest, AutoSelectOnExtendedRows) {
  const Dataset data = extendedRows();
  expectAutoMlGolden("kExtendedRowsAutoMl", data, {}, rowsOf(data), kExtendedRowsAutoMl);
}

TEST(KernelGoldenTest, AutoSelectOnScaledWeightsWithSignedZero) {
  const Dataset data = scaledWeights();
  expectAutoMlGolden("kScaledWeightsAutoMl", data, {}, rowsOf(data), kScaledWeightsAutoMl);
}

TEST(KernelGoldenTest, AutoSelectOnSampledRawRows) {
  // 400 raw rows under a 300-row cap: sampled, scaled weights, then folded.
  const Dataset data = rawCodes();
  AutoMlConfig config;
  config.maxTrainingRows = 300;
  Dataset grid{2};
  for (int c1 = 0; c1 < 5; ++c1) {
    for (int c2 = 0; c2 < 5; ++c2) grid.add({static_cast<double>(c1), static_cast<double>(c2)}, 0);
  }
  expectAutoMlGolden("kSampledRawAutoMl", data, config, rowsOf(grid), kSampledRawAutoMl);
}

}  // namespace
}  // namespace rtlock::ml
