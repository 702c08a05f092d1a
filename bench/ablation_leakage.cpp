// Sec. 3.2 — ASSURE pair-table leakage ablation.
//
// "ASSURE assumes these pairs: (*, +), (+, -), (-, +). [...] if the locked
// pair (*, +) is encountered, the attacker can infer * as the correct
// operation [...] currently ASSURE can be broken by analyzing operation
// pairs."
//
// The bench locks an operator-rich design with (a) the original leaky table
// and (b) the fixed involutive table, attacks both, and reports KPA per real
// operation kind.  Expected: near-100 % KPA on the asymmetric kinds (mul,
// div, mod, pow, xor) under the original table; markedly lower under the fix.
#include <iostream>
#include <map>

#include "attack/snapshot.hpp"
#include "common.hpp"
#include "core/algorithms.hpp"
#include "designs/networks.hpp"

namespace {

using namespace rtlock;

// Balanced per fixed pair so that under the involutive table no distribution
// signal exists (KPA ~50 everywhere) — any KPA gained under the original
// table is pure pair-asymmetry leakage, isolating the Sec. 3.2 effect.
rtl::Module operatorRichDesign() {
  using rtl::OpKind;
  return designs::makeOperationNetwork("leakage_probe",
                                       {{OpKind::Add, 18},
                                        {OpKind::Sub, 18},
                                        {OpKind::Mul, 10},
                                        {OpKind::Div, 10},
                                        {OpKind::Mod, 6},
                                        {OpKind::Pow, 6},
                                        {OpKind::Xor, 12},
                                        {OpKind::Xnor, 12},
                                        {OpKind::And, 10},
                                        {OpKind::Or, 10},
                                        {OpKind::Shl, 8},
                                        {OpKind::Shr, 8}});
}

struct PerKind {
  int correct = 0;
  int total = 0;
};

std::map<rtl::OpKind, PerKind> attackAndScore(const lock::PairTable& table, int samples,
                                              int relocks, support::Rng& rng) {
  std::map<rtl::OpKind, PerKind> scores;
  for (int sample = 0; sample < samples; ++sample) {
    rtl::Module locked = operatorRichDesign();
    lock::LockEngine engine{locked, table};
    const int budget = static_cast<int>(0.75 * engine.initialLockableOps());
    lock::assureRandomLock(engine, budget, rng);
    const auto truth = engine.records();

    attack::SnapshotConfig config;
    config.relockRounds = relocks;
    config.automl.folds = 3;
    const auto result = attack::snapshotAttack(locked, truth, table, config, rng);

    for (std::size_t i = 0; i < truth.size(); ++i) {
      auto& entry = scores[truth[i].realOp];
      ++entry.total;
      if (result.predictions[i] == (truth[i].keyValue ? 1 : 0)) ++entry.correct;
    }
  }
  return scores;
}

}  // namespace

int main(int argc, char** argv) {
  return rtlock::bench::runBench([&] {
    const support::CliArgs args(argc, argv, {"seed", "csv", "samples", "relocks", "threads"});
    const std::uint64_t seed = args.getU64("seed", 1);
    const bool csv = args.getBool("csv", false);
    const int samples = bench::countFlag(args, "samples", 3, service::kMaxSamples);
    const int relocks = bench::countFlag(args, "relocks", 80, service::kMaxRounds);
    const int threads = support::requestedThreads(args);

    rtlock::bench::banner(
        "Sec. 3.2 — pair-table leakage (original ASSURE vs. involutive fix)",
        "Sisejkovic et al., DAC'22, Sec. 3.2",
        "leaky kinds (mul/div/mod/pow/xor) ~100% KPA under the original table; "
        "reduced under the fixed table");

    // The two table configurations have always owned dedicated seeds (seed,
    // seed + 1), so sharding them preserves every score bit-for-bit.
    support::TaskPool pool{support::threadsForTasks(threads, 2)};
    const auto scores = pool.map(2, [&](std::size_t index) {
      support::Rng rng{seed + index};
      return attackAndScore(
          index == 0 ? lock::PairTable::assureOriginal() : lock::PairTable::fixed(), samples,
          relocks, rng);
    });
    const auto& leaky = scores[0];
    const auto& fixed = scores[1];

    support::Table table{{"real op", "locked bits", "KPA% (original table)",
                          "KPA% (fixed table)", "leaky by construction"}};
    PerKind leakyAsymmetric;
    PerKind leakySymmetric;
    PerKind fixedAll;
    for (const auto& [kind, leakyScore] : leaky) {
      const auto it = fixed.find(kind);
      const double leakyKpa = 100.0 * leakyScore.correct / std::max(1, leakyScore.total);
      const double fixedKpa =
          it == fixed.end() ? 0.0 : 100.0 * it->second.correct / std::max(1, it->second.total);
      const auto& original = lock::PairTable::assureOriginal();
      const bool asymmetric =
          original.dummyFor(original.dummyFor(kind)) != kind;
      table.addRow({std::string{rtl::opName(kind)}, std::to_string(leakyScore.total),
                    support::formatDouble(leakyKpa, 2), support::formatDouble(fixedKpa, 2),
                    asymmetric ? "yes" : "no"});
      auto& bucket = asymmetric ? leakyAsymmetric : leakySymmetric;
      bucket.correct += leakyScore.correct;
      bucket.total += leakyScore.total;
      if (it != fixed.end()) {
        fixedAll.correct += it->second.correct;
        fixedAll.total += it->second.total;
      }
    }
    rtlock::bench::emit(table, csv);

    std::cout << "\nsummary (aggregated over kinds):\n";
    support::Table summary{{"group", "KPA%"}};
    summary.addRow({"asymmetric (leaky) kinds, original table",
                    support::formatDouble(
                        100.0 * leakyAsymmetric.correct / std::max(1, leakyAsymmetric.total), 2)});
    summary.addRow({"symmetric kinds, original table",
                    support::formatDouble(
                        100.0 * leakySymmetric.correct / std::max(1, leakySymmetric.total), 2)});
    summary.addRow({"all kinds, fixed involutive table (balanced design)",
                    support::formatDouble(100.0 * fixedAll.correct / std::max(1, fixedAll.total),
                                          2)});
    rtlock::bench::emit(summary, csv);
  });
}
