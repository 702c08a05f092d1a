// One implementation per paper figure, shared by the figure benches
// (fig4_observations, fig5_metric, fig6_kpa) and the baseline runner's
// quality gate (run_baseline), so a printed figure and a gated row can
// never come from different code:
//   * Fig. 4: the relocking thought experiment of Sec. 3 — lock a pure '+'
//     network, relock it `rounds` times with known keys, and accumulate
//     P(key = 1 | locality) observations.
//   * Fig. 5: the metric evolution of ERA, HRA and Greedy on the paper's
//     example design.
//   * Fig. 6: the SnapShot-RTL KPA grid over (algorithm, benchmark) cells.
// Every grid shards its cells over a TaskPool with a fixed seed per cell, so
// results are bit-identical at every thread count.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "attack/locality.hpp"
#include "attack/pipeline.hpp"
#include "core/algorithms.hpp"
#include "designs/networks.hpp"
#include "designs/registry.hpp"
#include "support/task_pool.hpp"

namespace rtlock::bench {

// --- Fig. 4 -----------------------------------------------------------------

enum class Fig4Scenario { SerialSerial, RandomRandom, SerialDisjoint };

/// The three scenarios in figure order; scenario i runs on rng{seed + i}.
inline constexpr std::array<Fig4Scenario, 3> kFig4Scenarios{
    Fig4Scenario::SerialSerial, Fig4Scenario::RandomRandom, Fig4Scenario::SerialDisjoint};

struct Fig4Observation {
  int ones = 0;
  int total = 0;
  [[nodiscard]] double pOne() const {
    return total == 0 ? 0.5 : static_cast<double>(ones) / total;
  }
  friend bool operator==(const Fig4Observation&, const Fig4Observation&) = default;
};

using Fig4Observations = std::map<std::pair<int, int>, Fig4Observation>;

/// Runs one scenario: test-set lock + `rounds` relocking rounds, keyed by
/// the (C1, C2) locality codes an attacker would extract.
inline Fig4Observations observeFig4(Fig4Scenario scenario, int networkSize, int testBits,
                                    int rounds, support::Rng& rng) {
  rtl::Module network = designs::makePlusNetwork(networkSize);
  lock::LockEngine engine{network, lock::PairTable::fixed()};

  // Test-set locking (the design under attack).
  if (scenario == Fig4Scenario::RandomRandom) {
    lock::assureRandomLock(engine, testBits, rng);
  } else {
    lock::assureSerialLock(engine, testBits, rng);
  }

  Fig4Observations observations;
  for (int round = 0; round < rounds; ++round) {
    const std::size_t checkpoint = engine.checkpoint();
    const int keyStart = network.keyWidth();

    switch (scenario) {
      case Fig4Scenario::SerialSerial:
        // Deterministic order: relocking extends the same leading operations
        // (both branches of each test mux), yielding balanced observations.
        lock::assureSerialLock(engine, testBits, rng);
        break;
      case Fig4Scenario::RandomRandom:
        lock::assureRandomLock(engine, testBits, rng);
        break;
      case Fig4Scenario::SerialDisjoint:
        // Training touches only operations the serial test lock skipped:
        // pool positions testBits.. of the '+' pool are still unwrapped.
        for (int position = testBits; position < networkSize; ++position) {
          engine.lockOpAt(rtl::OpKind::Add, static_cast<std::size_t>(position), rng.coin());
        }
        break;
    }

    std::map<int, bool> labels;
    for (std::size_t i = checkpoint; i < engine.records().size(); ++i) {
      labels[engine.records()[i].keyIndex] = engine.records()[i].keyValue;
    }
    for (const auto& locality : attack::extractLocalities(network, {}, keyStart)) {
      auto& entry = observations[{static_cast<int>(locality.features[0]),
                                  static_cast<int>(locality.features[1])}];
      ++entry.total;
      if (labels.at(locality.keyIndex)) ++entry.ones;
    }
    engine.undoTo(checkpoint);
  }
  return observations;
}

/// Every scenario of kFig4Scenarios, in that order.
inline std::vector<Fig4Observations> observeFig4Scenarios(std::uint64_t seed, int networkSize,
                                                          int testBits, int rounds,
                                                          int threads) {
  support::TaskPool pool{support::threadsForTasks(threads, kFig4Scenarios.size())};
  return pool.map(kFig4Scenarios.size(), [&](std::size_t index) {
    support::Rng rng{seed + index};
    return observeFig4(kFig4Scenarios[index], networkSize, testBits, rounds, rng);
  });
}

/// Headline number: max |P(key=1 | locality) - 0.5| over observed localities.
/// Resilient configurations sit near 0, fully leaky ones at 0.5.
inline double fig4WorstBias(const Fig4Observations& observations) {
  double worstBias = 0.0;
  for (const auto& [locality, observation] : observations) {
    worstBias = std::max(worstBias, std::abs(observation.pOne() - 0.5));
  }
  return worstBias;
}

// --- Fig. 5 -----------------------------------------------------------------

/// The paper's example design: |ODT[(+,-)]| = 25, |ODT[(<<,>>)]| = 10.
inline rtl::Module fig5Design() {
  return designs::makeOperationNetwork("fig5",
                                       {{rtl::OpKind::Add, 25}, {rtl::OpKind::Shl, 10}});
}

struct Fig5Run {
  lock::Algorithm algorithm;
  lock::AlgorithmReport report;
};

/// ERA, HRA and Greedy on fig5Design() within `budget` key bits; every
/// algorithm restarts from a fresh rng{seed}.
inline std::vector<Fig5Run> evolveFig5(std::uint64_t seed, int budget, int threads) {
  const std::vector<lock::Algorithm> algorithms{
      lock::Algorithm::Era, lock::Algorithm::Hra, lock::Algorithm::Greedy};
  support::TaskPool pool{support::threadsForTasks(threads, algorithms.size())};
  return pool.map(algorithms.size(), [&](std::size_t index) {
    rtl::Module design = fig5Design();
    lock::LockEngine engine{design, lock::PairTable::fixed()};
    support::Rng rng{seed};
    return Fig5Run{algorithms[index],
                   lock::lockWithAlgorithm(engine, algorithms[index], budget, rng)};
  });
}

// --- Fig. 6 -----------------------------------------------------------------

/// The locking algorithms of Fig. 6, in column order.
inline constexpr std::array<lock::Algorithm, 3> kFig6Algorithms{
    lock::Algorithm::AssureSerial, lock::Algorithm::Hra, lock::Algorithm::Era};

/// The Fig. 6 setup at `samples` locked samples and `relocks` training
/// rounds per sample, with 3-fold auto-ml.
inline attack::EvaluationConfig fig6Config(int samples, int relocks, double budget = 0.75,
                                           bool extendedFeatures = false) {
  attack::EvaluationConfig config;
  config.testLocks = samples;
  config.keyBudgetFraction = budget;
  config.snapshot.relockRounds = relocks;
  config.snapshot.relockBudgetFraction = budget;
  config.snapshot.locality.extendedFeatures = extendedFeatures;
  config.snapshot.automl.folds = 3;
  return config;
}

struct Fig6Grid {
  std::vector<std::string> benchmarks;
  /// One result per (algorithm a, benchmark b) cell at index a * B + b.
  std::vector<attack::EvaluationResult> cells;

  [[nodiscard]] const attack::EvaluationResult& at(std::size_t a, std::size_t b) const {
    return cells[a * benchmarks.size() + b];
  }
  /// Fig. 6b: algorithm a's KPA averaged over the benchmarks.
  [[nodiscard]] double meanKpa(std::size_t a) const {
    double sum = 0.0;
    for (std::size_t b = 0; b < benchmarks.size(); ++b) sum += at(a, b).meanKpa;
    return sum / static_cast<double>(benchmarks.size());
  }
};

/// Runs every kFig6Algorithms x `benchmarks` cell; cell i draws only from
/// root.substream(i), so the grid is bit-identical at every thread count.
inline Fig6Grid runFig6(const std::vector<std::string>& benchmarks,
                        const attack::EvaluationConfig& config, const support::Rng& root,
                        int threads) {
  // Build each benchmark once; tasks clone from the shared const module.
  std::vector<rtl::Module> originals;
  originals.reserve(benchmarks.size());
  for (const auto& name : benchmarks) originals.push_back(designs::makeBenchmark(name));

  const std::size_t cellCount = kFig6Algorithms.size() * benchmarks.size();
  support::TaskPool pool{support::threadsForTasks(threads, cellCount)};
  Fig6Grid grid{benchmarks, {}};
  grid.cells = pool.map(cellCount, [&](std::size_t index) {
    const std::size_t b = index % benchmarks.size();
    support::Rng cellRng = root.substream(index);
    return attack::evaluateBenchmark(originals[b], benchmarks[b],
                                     kFig6Algorithms[index / benchmarks.size()],
                                     lock::PairTable::fixed(), config, cellRng);
  });
  return grid;
}

}  // namespace rtlock::bench
