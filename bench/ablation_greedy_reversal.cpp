// Sec. 4.4 — "a greedy approach has a negative consequence: reversibility.
// An attacker can reverse the locking procedure alongside the steepest
// decreasing direction.  Therefore, including random locking decisions within
// HRA (variable P) thwarts reversibility."
//
// Operationalization: the locking decision sequence (which pair is locked at
// each step) is replayed by an attacker who knows the algorithm and the
// initial operation distribution.  For Greedy the sequence is a deterministic
// function of the ODT, so the replay agrees ~100 %; HRA's coin-flip steps cut
// the agreement roughly in half and also randomize the following state.
#include "common.hpp"
#include "core/algorithms.hpp"
#include "core/metric.hpp"
#include "designs/registry.hpp"

namespace {

using namespace rtlock;

/// Runs the algorithm and logs the pair index chosen at every step.
std::vector<int> decisionSequence(lock::Algorithm algorithm, const rtl::Module& original,
                                  int budget, support::Rng& rng) {
  rtl::Module module = original.clone();
  lock::LockEngine engine{module, lock::PairTable::fixed()};
  std::vector<int> sequence;
  const std::size_t before = engine.records().size();
  lock::lockWithAlgorithm(engine, algorithm, budget, rng);
  for (std::size_t i = before; i < engine.records().size(); ++i) {
    sequence.push_back(lock::PairTable::fixed().pairIndexOf(engine.records()[i].realOp));
  }
  return sequence;
}

/// Attacker's replay: simulate the *greedy* decision rule (steepest M^g
/// ascent on the ODT) from the known initial distribution and compare with
/// the observed sequence.
double replayAgreement(const std::vector<int>& observed, const rtl::Module& original) {
  rtl::Module probe = original.clone();
  lock::LockEngine engine{probe, lock::PairTable::fixed()};
  const std::vector<int> initial = engine.initialMagnitudes();
  std::vector<int> magnitudes = initial;

  int agree = 0;
  for (const int actual : observed) {
    // Greedy rule: reduce a pair of maximal current magnitude (steepest M^g
    // ascent); the attacker predicts the argmax set.
    int maxMagnitude = 0;
    for (const int magnitude : magnitudes) maxMagnitude = std::max(maxMagnitude, magnitude);
    if (actual >= 0 && magnitudes[static_cast<std::size_t>(actual)] == maxMagnitude) {
      ++agree;
    }
    // Advance the attacker's model with the *observed* decision.
    if (actual >= 0 && magnitudes[static_cast<std::size_t>(actual)] > 0) {
      --magnitudes[static_cast<std::size_t>(actual)];
    }
  }
  return observed.empty() ? 0.0 : static_cast<double>(agree) / observed.size();
}

}  // namespace

int main(int argc, char** argv) {
  return rtlock::bench::runBench([&] {
    const support::CliArgs args(argc, argv, {"seed", "csv", "trials"});
    const std::uint64_t seed = args.getU64("seed", 1);
    const bool csv = args.getBool("csv", false);
    const int trials = bench::countFlag(args, "trials", 5, service::kMaxSamples);

    rtlock::bench::banner(
        "Greedy reversibility vs. HRA randomization",
        "Sisejkovic et al., DAC'22, Sec. 4.4",
        "greedy decision sequence ~100% predictable; HRA agreement far lower; "
        "greedy runs are seed-independent, HRA runs diverge across seeds");

    support::Table table{{"benchmark", "algorithm", "steps", "replay agreement %",
                          "cross-seed sequence equality"}};

    for (const auto* name : {"FIR", "MD5", "SHA256"}) {
      const rtl::Module original = designs::makeBenchmark(name);
      rtl::Module probeCopy = original.clone();
      lock::LockEngine probe{probeCopy, lock::PairTable::fixed()};
      const int budget = probe.initialLockableOps() / 2;

      for (const auto algorithm : {lock::Algorithm::Greedy, lock::Algorithm::Hra}) {
        double agreement = 0.0;
        int equalSequences = 0;
        std::vector<int> reference;
        std::size_t steps = 0;
        for (int trial = 0; trial < trials; ++trial) {
          support::Rng rng{seed + static_cast<std::uint64_t>(trial)};
          const auto sequence = decisionSequence(algorithm, original, budget, rng);
          steps = sequence.size();
          agreement += replayAgreement(sequence, original);
          if (trial == 0) {
            reference = sequence;
          } else if (sequence == reference) {
            ++equalSequences;
          }
        }
        table.addRow({name, std::string{lock::algorithmName(algorithm)},
                      std::to_string(steps),
                      support::formatDouble(100.0 * agreement / trials, 1),
                      std::to_string(equalSequences) + "/" + std::to_string(trials - 1)});
      }
    }
    rtlock::bench::emit(table, csv);
  });
}
