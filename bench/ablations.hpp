// One implementation per ablation.  Each run function builds the tables
// `ablation <name>` prints and the headline values the baseline runner
// gates from the same cells, so a printed table and a gated row can never
// come from different code.  Grids that fan out shard their cells over a
// TaskPool with a fixed stream per cell, so results are bit-identical at
// every thread count; the rest run serially on one Rng.
//
// Four banners claim more than their gated values show (docs/REPRODUCING.md
// states each): overhead's ops per key bit is 1.08-1.30 on SASC and SIM_SPI,
// not 1; Greedy's sequences differ across seeds (runHra shuffles the valid
// pairs before its argmax, so ties break by the Rng); features lifts ERA on
// FIR and SHA256 but not on MD5; oracle probing stays near random on
// N_ADD_128 under ASSURE and HRA.
#pragma once

#include <algorithm>
#include <array>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "attack/oracle.hpp"
#include "attack/snapshot.hpp"
#include "common.hpp"
#include "core/metric.hpp"
#include "figures.hpp"
#include "rtl/stats.hpp"
#include "sim/harness.hpp"

namespace rtlock::bench {

using Flags = service::FieldValues;
using support::formatDouble;

/// A headline number the baseline runner gates.
struct GatedValue {
  std::string config;
  std::string metric;
  double value = 0.0;
};

struct AblationOutput {
  std::vector<std::pair<std::string, support::Table>> tables;  // (caption, table) in print order
  std::vector<GatedValue> gated;
};

struct Ablation {
  service::Schema schema;  // the command is the ablation's name
  std::string_view title, paperRef, expectation;  // the banner
  /// `gate` asks for the grid the baseline runner gates; only oracle shrinks it.
  AblationOutput (*run)(const Flags& flags, bool gate);
};

inline std::string nameOf(lock::Algorithm algorithm) {
  return std::string{lock::algorithmName(algorithm)};
}

/// The SnapShot setup the evaluateBenchmark-based ablations share.
inline attack::EvaluationConfig ablationConfig(int samples, int relocks) {
  attack::EvaluationConfig config;
  config.testLocks = samples;
  config.snapshot.relockRounds = relocks;
  config.snapshot.automl.folds = 2;
  return config;
}

// --- leakage: Sec. 3.2, "ASSURE can be broken by analyzing operation pairs" --

struct KpaTally {
  int correct = 0;
  int total = 0;
  [[nodiscard]] double percent() const { return 100.0 * correct / std::max(1, total); }
  void add(const KpaTally& other) {
    correct += other.correct;
    total += other.total;
  }
};

/// ASSURE-random locks of a probe balanced per fixed pair, attacked and
/// scored per real op kind.  Under the involutive table no distribution
/// signal exists, so any KPA gained under the original table is
/// pair-asymmetry leakage.
inline std::map<rtl::OpKind, KpaTally> leakageTallies(const lock::PairTable& table, int samples,
                                                      int relocks, support::Rng& rng) {
  using rtl::OpKind;
  std::map<OpKind, KpaTally> tallies;
  for (int sample = 0; sample < samples; ++sample) {
    rtl::Module locked = designs::makeOperationNetwork(
        "leakage_probe", {{OpKind::Add, 18}, {OpKind::Sub, 18}, {OpKind::Mul, 10},
                          {OpKind::Div, 10}, {OpKind::Mod, 6}, {OpKind::Pow, 6},
                          {OpKind::Xor, 12}, {OpKind::Xnor, 12}, {OpKind::And, 10},
                          {OpKind::Or, 10}, {OpKind::Shl, 8}, {OpKind::Shr, 8}});
    lock::LockEngine engine{locked, table};
    lock::assureRandomLock(engine, lock::keyBudget(0.75, engine.initialLockableOps()), rng);
    const auto truth = engine.records();

    attack::SnapshotConfig config;
    config.relockRounds = relocks;
    config.automl.folds = 3;
    const auto result = attack::snapshotAttack(locked, truth, table, config, rng);
    for (std::size_t i = 0; i < truth.size(); ++i) {
      auto& tally = tallies[truth[i].realOp];
      ++tally.total;
      if (result.predictions[i] == (truth[i].keyValue ? 1 : 0)) ++tally.correct;
    }
  }
  return tallies;
}

/// The original table runs on Rng{seed}, the fixed one on Rng{seed + 1}.
inline AblationOutput leakage(const Flags& flags, bool) {
  support::TaskPool pool{support::threadsForTasks(flags.integer("threads"), 2)};
  const auto tallies = pool.map(2, [&](std::size_t index) {
    support::Rng rng{flags.count("seed") + index};
    return leakageTallies(
        index == 0 ? lock::PairTable::assureOriginal() : lock::PairTable::fixed(),
        flags.integer("samples"), flags.integer("relocks"), rng);
  });
  const auto& original = lock::PairTable::assureOriginal();
  support::Table table{{"real op", "locked bits", "KPA% (original table)", "KPA% (fixed table)",
                        "leaky by construction"}};
  KpaTally asymmetric;
  KpaTally symmetric;
  KpaTally fixedAll;
  for (const auto& [kind, tally] : tallies[0]) {
    const auto fixed = tallies[1].find(kind);
    const bool leaky = original.dummyFor(original.dummyFor(kind)) != kind;
    table.addRow({std::string{rtl::opName(kind)}, std::to_string(tally.total),
                  formatDouble(tally.percent(), 2),
                  formatDouble(fixed == tallies[1].end() ? 0.0 : fixed->second.percent(), 2),
                  leaky ? "yes" : "no"});
    (leaky ? asymmetric : symmetric).add(tally);
    if (fixed != tallies[1].end()) fixedAll.add(fixed->second);
  }
  support::Table summary{{"group", "KPA%"}};
  summary.addRow({"asymmetric (leaky) kinds, original table",
                  formatDouble(asymmetric.percent(), 2)});
  summary.addRow({"symmetric kinds, original table", formatDouble(symmetric.percent(), 2)});
  summary.addRow({"all kinds, fixed involutive table (balanced design)",
                  formatDouble(fixedAll.percent(), 2)});
  return {{{"", table}, {"\nsummary (aggregated over kinds):\n", summary}},
          {{"original table, asymmetric kinds", "kpa_percent", asymmetric.percent()},
           {"fixed table, all kinds", "kpa_percent", fixedAll.percent()}}};
}

// --- budget_sweep: Sec. 5.1, "half measures are not effective" ---------------

/// Cell 3b + a runs kFig6Algorithms[a] at kPercents[b] of the key budget
/// (the relock budget stays 0.75) on root.substream(cell).
inline AblationOutput budgetSweep(const Flags& flags, bool) {
  constexpr std::array<int, 6> kPercents{10, 25, 50, 75, 90, 100};
  constexpr std::size_t kAlgorithms = kFig6Algorithms.size();
  const std::string benchmark = flags.text("benchmark");
  const rtl::Module original = designs::makeBenchmark(benchmark);
  const support::Rng root{flags.count("seed")};
  support::TaskPool pool{
      support::threadsForTasks(flags.integer("threads"), kPercents.size() * kAlgorithms)};
  const auto cells = pool.map(kPercents.size() * kAlgorithms, [&](std::size_t index) {
    attack::EvaluationConfig config =
        ablationConfig(flags.integer("samples"), flags.integer("relocks"));
    config.keyBudgetFraction = kPercents[index / kAlgorithms] / 100.0;
    config.snapshot.relockBudgetFraction = 0.75;
    support::Rng rng = root.substream(index);
    return attack::evaluateBenchmark(original, benchmark, kFig6Algorithms[index % kAlgorithms],
                                     lock::PairTable::fixed(), config, rng);
  });
  support::Table table{{"budget %", "ASSURE KPA%", "HRA KPA%", "HRA M^g", "ERA KPA%",
                        "ERA bits used"}};
  for (std::size_t b = 0; b < kPercents.size(); ++b) {
    const attack::EvaluationResult* cell = &cells[b * kAlgorithms];
    table.addRow({std::to_string(kPercents[b]), formatDouble(cell[0].meanKpa, 2),
                  formatDouble(cell[1].meanKpa, 2), formatDouble(cell[1].meanGlobalMetric, 1),
                  formatDouble(cell[2].meanKpa, 2), formatDouble(cell[2].meanBitsUsed, 0)});
  }
  return {{{"", table}},
          {{"ASSURE / " + benchmark + " @ 50%", "mean_kpa_percent", cells[6].meanKpa},
           {"ERA / " + benchmark + " @ 50%", "mean_kpa_percent", cells[8].meanKpa}}};
}

// --- training_size: how many of Sec. 5's 1000 relocks the attack needs -------

/// One cell per round count on root.substream(cell); ASSURE then ERA share
/// the cell's stream.  Training rows are the ASSURE cell's harvested rows.
inline AblationOutput trainingSize(const Flags& flags, bool) {
  constexpr std::array<int, 6> kRounds{5, 10, 25, 50, 100, 200};
  const std::string benchmark = flags.text("benchmark");
  const rtl::Module original = designs::makeBenchmark(benchmark);
  const support::Rng root{flags.count("seed")};
  support::TaskPool pool{support::threadsForTasks(flags.integer("threads"), kRounds.size())};
  const auto cells = pool.map(kRounds.size(), [&](std::size_t index) {
    const attack::EvaluationConfig config =
        ablationConfig(flags.integer("samples"), kRounds[index]);
    support::Rng rng = root.substream(index);
    std::array<attack::EvaluationResult, 2> cell;
    for (std::size_t a = 0; a < cell.size(); ++a) {
      cell[a] = attack::evaluateBenchmark(
          original, benchmark, a == 0 ? lock::Algorithm::AssureSerial : lock::Algorithm::Era,
          lock::PairTable::fixed(), config, rng);
    }
    return cell;
  });
  support::Table table{{"relock rounds", "training rows", "ASSURE KPA%", "ERA KPA%"}};
  for (std::size_t index = 0; index < kRounds.size(); ++index) {
    const auto& [assure, era] = cells[index];
    table.addRow({std::to_string(kRounds[index]), formatDouble(assure.meanTrainingRows, 0),
                  formatDouble(assure.meanKpa, 2), formatDouble(era.meanKpa, 2)});
  }
  return {{{"", table}},
          {{"ASSURE / " + benchmark + " @ 5 rounds", "mean_training_rows",
            cells.front()[0].meanTrainingRows},
           {"ERA / " + benchmark + " @ 200 rounds", "mean_kpa_percent", cells.back()[1].meanKpa}}};
}

// --- features: basic [C1,C2] vs extended locality encoding -------------------
//
// The extended encoding adds branch depths, the parent construct and a width
// bucket.  When an already-locked pair is relocked, the real branch is a
// nested mux while the fresh dummy is a shallow clone: a key-correlated depth
// asymmetry that Def. 1's count balancing cannot remove.

/// Cell k runs benchmark k / 4 under algorithm k / 2 % 2, with extended
/// features iff k is odd, from Rng{seed} as it stood before its k-th fork
/// (evaluateBenchmark forks once a call): the serial loop's stream.
inline AblationOutput features(const Flags& flags, bool) {
  constexpr std::array<const char*, 3> kNames{"FIR", "MD5", "SHA256"};
  constexpr std::array<lock::Algorithm, 2> kAlgorithms{lock::Algorithm::AssureSerial,
                                                       lock::Algorithm::Era};
  constexpr std::size_t kCells = 12;
  std::vector<rtl::Module> originals;
  for (const char* name : kNames) originals.push_back(designs::makeBenchmark(name));
  std::vector<support::Rng> cellRngs;
  support::Rng rng{flags.count("seed")};
  for (std::size_t k = 0; k < kCells; ++k) {
    cellRngs.push_back(rng);
    (void)rng.fork();
  }
  support::TaskPool pool{support::threadsForTasks(flags.integer("threads"), kCells)};
  const auto kpas = pool.map(kCells, [&](std::size_t k) {
    attack::EvaluationConfig config =
        ablationConfig(flags.integer("samples"), flags.integer("relocks"));
    config.snapshot.locality.extendedFeatures = k % 2 == 1;
    return attack::evaluateBenchmark(originals[k / 4], kNames[k / 4], kAlgorithms[k / 2 % 2],
                                     lock::PairTable::fixed(), config, cellRngs[k])
        .meanKpa;
  });
  support::Table table{{"benchmark", "algorithm", "KPA% basic", "KPA% extended"}};
  for (std::size_t row = 0; row < kCells / 2; ++row) {
    table.addRow({kNames[row / 2], nameOf(kAlgorithms[row % 2]), formatDouble(kpas[2 * row], 2),
                  formatDouble(kpas[2 * row + 1], 2)});
  }
  return {{{"", table}},
          {{"ERA / MD5, basic", "mean_kpa_percent", kpas[6]},
           {"ERA / MD5, extended", "mean_kpa_percent", kpas[7]}}};
}

// --- greedy_reversal: Sec. 4.4, greedy reversibility -------------------------
//
// An attacker who knows the algorithm and the initial distribution replays
// the observed sequence of locked pairs with the greedy rule (steepest M^g
// ascent: reduce a pair of maximal magnitude) and counts the steps it
// predicts.  Trial t locks half the ops on Rng{seed + t}.

inline AblationOutput greedyReversal(const Flags& flags, bool) {
  const int trials = flags.integer("trials");
  support::Table table{{"benchmark", "algorithm", "steps", "replay agreement %",
                        "cross-seed sequence equality"}};
  AblationOutput output;
  for (const char* name : {"FIR", "MD5", "SHA256"}) {
    const rtl::Module original = designs::makeBenchmark(name);
    rtl::Module probeModule = original.clone();
    const lock::LockEngine probe{probeModule, lock::PairTable::fixed()};
    const int budget = probe.initialLockableOps() / 2;

    for (const auto algorithm : {lock::Algorithm::Greedy, lock::Algorithm::Hra}) {
      double agreement = 0.0;
      int equalSequences = 0;  // trials 1.. whose sequence equals trial 0's
      std::vector<int> reference;
      std::size_t steps = 0;
      for (int trial = 0; trial < trials; ++trial) {
        rtl::Module module = original.clone();
        lock::LockEngine engine{module, lock::PairTable::fixed()};
        support::Rng rng{flags.count("seed") + static_cast<std::uint64_t>(trial)};
        lock::lockWithAlgorithm(engine, algorithm, budget, rng);
        std::vector<int> sequence;
        for (const auto& record : engine.records()) {
          sequence.push_back(lock::PairTable::fixed().pairIndexOf(record.realOp));
        }
        // Replay, advancing the attacker's model with the observed decision.
        std::vector<int> magnitudes = probe.initialMagnitudes();
        int agree = 0;
        for (const int actual : sequence) {
          const int maxMagnitude = *std::max_element(magnitudes.begin(), magnitudes.end());
          if (actual < 0) continue;
          int& magnitude = magnitudes[static_cast<std::size_t>(actual)];
          if (magnitude == maxMagnitude) ++agree;
          if (magnitude > 0) --magnitude;
        }
        agreement += sequence.empty() ? 0.0 : static_cast<double>(agree) / sequence.size();
        steps = sequence.size();
        if (trial == 0) {
          reference = sequence;
        } else if (sequence == reference) {
          ++equalSequences;
        }
      }
      const double agreementPercent = 100.0 * agreement / trials;
      table.addRow({name, nameOf(algorithm), std::to_string(steps),
                    formatDouble(agreementPercent, 1),
                    std::to_string(equalSequences) + "/" + std::to_string(trials - 1)});
      if (std::string_view{name} != "FIR") continue;
      const std::string config = nameOf(algorithm) + " / FIR";
      output.gated.push_back({config, "replay_agreement_percent", agreementPercent});
      if (algorithm == lock::Algorithm::Greedy) {
        output.gated.push_back(
            {config, "equal_sequences_of_4", static_cast<double>(equalSequences)});
      }
    }
  }
  output.tables.emplace_back("", table);
  return output;
}

// --- global_bias: Sec. 5.1, "is there a 'global bias' among designs?" --------
//
// Per benchmark: the Euclidean distance of the initial ODT magnitudes to the
// balanced optimum, that distance per operation, and the dominant pair.

inline AblationOutput globalBias(const Flags&, bool) {
  const auto& pairs = lock::PairTable::fixed().pairs();
  support::Table table{{"benchmark", "ops", "initial distance d(v_i, v_o)", "bias per op",
                        "dominant pair", "dominant |ODT|"}};
  AblationOutput output;
  for (const auto& name : designs::benchmarkNames()) {
    rtl::Module module = designs::makeBenchmark(name);
    const lock::LockEngine engine{module, lock::PairTable::fixed()};
    const std::vector<int>& magnitudes = engine.initialMagnitudes();
    const double distance =
        lock::modifiedEuclidean(magnitudes, lock::PairMask(magnitudes.size(), true));
    const auto dominant = std::max_element(magnitudes.begin(), magnitudes.end());
    const auto& [first, second] = pairs[static_cast<std::size_t>(dominant - magnitudes.begin())];
    const int ops = engine.initialLockableOps();
    table.addRow({name, std::to_string(ops), formatDouble(distance, 2),
                  formatDouble(ops == 0 ? 0.0 : distance / ops, 3),
                  "(" + std::string{rtl::opName(first)} + "," + std::string{rtl::opName(second)} +
                      ")",
                  std::to_string(*dominant)});
    if (name == "MD5" || name == "N_1023") {
      output.gated.push_back({name, "initial_distance", distance});
    }
  }
  output.tables.emplace_back("", table);
  return output;
}

// --- corruption: wrong-key output corruption (Sec. 5.1 objectives) -----------

/// Every cell locks on one shared Rng{seed}; each cell restarts a fresh
/// Rng{seed + 77} stimulus stream for its correct, random and flipped keys.
inline AblationOutput corruption(const Flags& flags, bool) {
  sim::EquivalenceOptions options;
  options.vectors = flags.integer("vectors");
  options.cyclesPerVector = 40;
  const double budget = budgetFraction(flags);
  support::Table table{{"benchmark", "algorithm", "key bits", "corrupt% (correct key)",
                        "corrupt% (random key)", "corrupt% (flipped key)"}};
  std::vector<std::array<double, 3>> cells;  // corrupt % per key, in table order
  support::Rng rng{flags.count("seed")};
  for (const char* name : {"FIR", "IIR", "MD5", "SHA256", "DES3", "RSA"}) {
    const rtl::Module original = designs::makeBenchmark(name);
    for (const auto algorithm : kFig6Algorithms) {
      rtl::Module locked = original.clone();
      lock::LockEngine engine{locked, lock::PairTable::fixed()};
      lock::lockWithAlgorithm(engine, algorithm,
                              lock::keyBudget(budget, engine.initialLockableOps()), rng);
      sim::BitVector correct{locked.keyWidth()};
      sim::BitVector flipped{locked.keyWidth()};
      for (const auto& record : engine.records()) {
        correct.setBit(record.keyIndex, record.keyValue);
        flipped.setBit(record.keyIndex, !record.keyValue);
      }
      const sim::BitVector randomKey = sim::BitVector::random(locked.keyWidth(), rng);
      const std::array<const sim::BitVector*, 3> keys{&correct, &randomKey, &flipped};
      support::Rng simRng{flags.count("seed") + 77};
      std::vector<std::string> row{name, nameOf(algorithm), std::to_string(locked.keyWidth())};
      auto& percents = cells.emplace_back();
      for (std::size_t k = 0; k < keys.size(); ++k) {
        percents[k] = 100.0 * sim::outputCorruption(original, locked, *keys[k], options, simRng);
        row.push_back(formatDouble(percents[k], 2));
      }
      table.addRow(std::move(row));
    }
  }
  double worstCorrect = 0.0;
  for (const auto& percents : cells) worstCorrect = std::max(worstCorrect, percents[0]);
  return {{{"", table}},
          {{"every cell, correct key", "max_corrupt_percent", worstCorrect},
           {"ASSURE / FIR, random key", "corrupt_percent", cells[0][1]}}};
}

// --- oracle: Sec. 5.1 open question, oracle-guided attacks -------------------
//
// Per-bit corruption hill-climbing against a working oracle.  Bits whose
// corruption does not reach an output within the probing window stay at a
// coin flip.

/// Every cell locks and attacks on one shared Rng{seed}, so the gated grid,
/// N_ADD_128 alone, prints the first rows of the full one.
inline AblationOutput oracle(const Flags& flags, bool gate) {
  const std::vector<std::string> benchmarks =
      gate ? std::vector<std::string>{"N_ADD_128"}
           : std::vector<std::string>{"N_ADD_128", "FIR", "MD5", "DES3", "I2C_SL"};
  attack::OracleAttackConfig config;
  config.trials = flags.integer("trials");
  config.vectors = flags.integer("vectors");
  config.cyclesPerVector = 40;  // cover the deepest pipeline (32-tap FIR)
  const double budget = budgetFraction(flags);
  support::Table table{{"benchmark", "algorithm", "key bits", "oracle KPA%", "SnapShot-context"}};
  AblationOutput output;
  support::Rng rng{flags.count("seed")};
  for (const auto& name : benchmarks) {
    const rtl::Module original =
        name == "N_ADD_128" ? designs::makePlusNetwork(128) : designs::makeBenchmark(name);
    for (const auto algorithm : kFig6Algorithms) {
      rtl::Module locked = original.clone();
      lock::LockEngine engine{locked, lock::PairTable::fixed()};
      lock::lockWithAlgorithm(engine, algorithm,
                              lock::keyBudget(budget, engine.initialLockableOps()), rng);
      const auto result =
          attack::oracleGuidedAttack(original, locked, engine.records(), config, rng);
      table.addRow({name, nameOf(algorithm), std::to_string(result.keyBits),
                    formatDouble(result.kpa, 2),
                    algorithm == lock::Algorithm::Era ? "SnapShot fails (~50%)"
                                                      : "SnapShot succeeds"});
      if (name == "N_ADD_128") {
        output.gated.push_back(
            {nameOf(algorithm) + " / N_ADD_128", "oracle_kpa_percent", result.kpa});
      }
    }
  }
  output.tables.emplace_back("", table);
  return output;
}

// --- overhead: Sec. 5 cost claim, "a locking pair per key bit" ---------------

/// Every benchmark x algorithm cell locks on one shared Rng{seed}.
inline AblationOutput overhead(const Flags& flags, bool) {
  const double budget = budgetFraction(flags);
  support::Table table{{"benchmark", "algorithm", "ops before", "key bits", "ops added",
                        "ops/bit", "nodes before", "nodes after", "M^g", "M^r"}};
  AblationOutput output;
  support::Rng rng{flags.count("seed")};
  for (const auto& name : designs::benchmarkNames()) {
    for (const auto algorithm : {lock::Algorithm::AssureSerial, lock::Algorithm::Hra,
                                 lock::Algorithm::Greedy, lock::Algorithm::Era}) {
      rtl::Module module = designs::makeBenchmark(name);
      const int nodesBefore = rtl::computeStats(module).exprNodes;
      lock::LockEngine engine{module, lock::PairTable::fixed()};
      const int opsBefore = engine.initialLockableOps();
      const auto report =
          lock::lockWithAlgorithm(engine, algorithm, lock::keyBudget(budget, opsBefore), rng);
      const int opsAdded = engine.totalLockableOps() - opsBefore;  // dummies an attacker sees
      const double opsPerBit =
          report.bitsUsed == 0
              ? 0.0
              : static_cast<double>(opsAdded) / static_cast<double>(report.bitsUsed);
      table.addRow({name, nameOf(algorithm), std::to_string(opsBefore),
                    std::to_string(report.bitsUsed), std::to_string(opsAdded),
                    formatDouble(opsPerBit, 3), std::to_string(nodesBefore),
                    std::to_string(rtl::computeStats(module).exprNodes),
                    formatDouble(report.finalGlobalMetric, 1),
                    formatDouble(report.finalRestrictedMetric, 1)});
      const std::string config = name + " / " + nameOf(algorithm);
      if (config == "FIR / ERA" || config == "SASC / ERA" || config == "SIM_SPI / Greedy") {
        output.gated.push_back({config, "ops_per_key_bit", opsPerBit});
      }
    }
  }
  output.tables.emplace_back("", table);
  return output;
}

/// Every ablation with the flags it takes (--csv, and for some --seed and
/// --threads, with common.hpp's meaning); --trials and --vectors take
/// [1, 10^6].
inline const std::vector<Ablation>& ablations() {
  const Field& seed = kSeedField;
  const Field& csv = kCsvField;
  const Field& threads = kThreadsField;
  const Field benchmark = textField("benchmark", "FIR");
  const auto budget = [](std::string_view fallback) { return textField("budget", fallback); };
  const auto probes = [](std::string_view name, std::string_view fallback) {
    return countField(name, fallback, service::kMaxSamples);
  };
  static const std::vector<Ablation> table{
      {{"leakage", "", {seed, csv, samplesField("3"), relocksField("80"), threads}},
       "Sec. 3.2 — pair-table leakage (original ASSURE vs. involutive fix)",
       "Sisejkovic et al., DAC'22, Sec. 3.2",
       "leaky kinds (mul/div/mod/pow/xor) ~100% KPA under the original table; "
       "reduced under the fixed table",
       leakage},
      {{"budget_sweep", "",
        {seed, csv, samplesField("2"), relocksField("50"), benchmark, threads}},
       "Key-budget sweep — the 'half measures' claim",
       "Sisejkovic et al., DAC'22, Sec. 5.1 (lessons learned)",
       "ASSURE/HRA exploitable at every partial budget; ERA ~50% throughout", budgetSweep},
      {{"training_size", "", {seed, csv, samplesField("2"), benchmark, threads}},
       "Training-set size sweep",
       "Sisejkovic et al., DAC'22, Sec. 5 (attack setup: 1000 relocks)",
       "ASSURE KPA saturates quickly; ERA flat at ~50% for any volume", trainingSize},
      {{"features", "", {seed, csv, samplesField("2"), relocksField("60"), threads}},
       "Locality feature-set ablation (basic [C1,C2] vs extended)",
       "extension of Sisejkovic et al., DAC'22, Sec. 5 (SnapShot adaptation)",
       "extended features lift KPA against ERA by ~10-20 points: nested-mux "
       "depth asymmetry is key-correlated residue that count balancing misses",
       features},
      // The budget is half the ops by design, so there is no --budget.
      {{"greedy_reversal", "", {seed, csv, probes("trials", "5")}},
       "Greedy reversibility vs. HRA randomization", "Sisejkovic et al., DAC'22, Sec. 4.4",
       "greedy decision sequence ~100% predictable; HRA agreement far lower; "
       "greedy runs are seed-independent, HRA runs diverge across seeds",
       greedyReversal},
      {{"global_bias", "", {csv}}, "Global bias across benchmark designs",
       "Sisejkovic et al., DAC'22, Sec. 5.1 (limitations & opportunities)",
       "nonzero initial distance everywhere except N_1023; domain-typical dominant pairs",
       globalBias},
      {{"corruption", "", {seed, csv, budget("0.75"), probes("vectors", "16")}},
       "Wrong-key output corruption",
       "extension of Sisejkovic et al., DAC'22, Sec. 5.1 (objectives discussion)",
       "0% corruption under the correct key; substantial corruption under wrong "
       "keys for every algorithm",
       corruption},
      {{"oracle", "", {seed, csv, budget("0.5"), probes("trials", "6"), probes("vectors", "8")}},
       "Oracle-guided attack vs. ML-resilient locking",
       "Sisejkovic et al., DAC'22, Sec. 5.1 (limitations & opportunities)",
       "corruption hill-climbing beats random on every scheme (ERA included) wherever "
       "the corruption gradient is smooth (arithmetic chains); avalanche-style designs "
       "(MD5/DES3) resist naive probing — full oracle analysis needs SAT-style attacks",
       oracle},
      {{"overhead", "", {seed, csv, budget("0.75")}}, "Locking overhead — cost per key bit",
       "Sisejkovic et al., DAC'22, Sec. 5 (cost discussion)",
       "one locking pair (one dummy op, one mux) per key bit for every algorithm", overhead},
  };
  return table;
}

}  // namespace rtlock::bench
