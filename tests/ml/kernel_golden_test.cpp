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
// The tables were recorded from the plain per-row kernels.  On a mismatch
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
