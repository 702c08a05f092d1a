#include "attack/oracle.hpp"

namespace rtlock::attack {

OracleAttackResult oracleGuidedAttack(const rtl::Module& oracle, const rtl::Module& locked,
                                      const std::vector<lock::LockRecord>& truth,
                                      const OracleAttackConfig& config, support::Rng& rng) {
  RTLOCK_REQUIRE(locked.keyWidth() > 0, "oracle attack needs a locked design");

  sim::EquivalenceOptions options;
  options.vectors = config.vectors;
  options.cyclesPerVector = config.cyclesPerVector;

  // Compile both designs once; the hill climb then only streams hypothesis
  // keys and stimuli through the tapes (the attack's hot loop).
  sim::Harness harness{oracle, locked};

  // Fixed stimulus seed: every corruption measurement uses identical inputs,
  // so hypothesis comparisons are exact rather than statistical.
  const std::uint64_t stimulusSeed = rng();
  const auto measure = [&](const sim::BitVector& key) {
    support::Rng stimulusRng{stimulusSeed};
    return harness.outputCorruption(key, options, stimulusRng);
  };

  // Multi-pass hill climbing over the key bits with random restarts: flip a
  // bit, keep the flip if the oracle mismatch shrinks.  As the key improves,
  // each remaining wrong bit contributes a larger share of the corruption,
  // so later passes clean up bits whose signal was masked earlier.  Restarts
  // escape the pairwise-cancelling minima typical of xor-heavy datapaths.
  sim::BitVector key{locked.keyWidth()};
  double bestCorruption = 2.0;
  for (int restart = 0; restart < config.restarts && bestCorruption > 0.0; ++restart) {
    sim::BitVector candidate = sim::BitVector::random(locked.keyWidth(), rng);
    double corruption = measure(candidate);
    for (int pass = 0; pass < config.trials && corruption > 0.0; ++pass) {
      bool improved = false;
      for (const lock::LockRecord& record : truth) {
        candidate.setBit(record.keyIndex, !candidate.bit(record.keyIndex));
        const double flipped = measure(candidate);
        if (flipped < corruption) {
          corruption = flipped;
          improved = true;
        } else {
          candidate.setBit(record.keyIndex, !candidate.bit(record.keyIndex));  // revert
        }
      }
      if (!improved) break;
    }
    if (corruption < bestCorruption) {
      bestCorruption = corruption;
      key = candidate;
    }
  }

  OracleAttackResult result;
  result.predictions.reserve(truth.size());
  for (const lock::LockRecord& record : truth) {
    const int predicted = key.bit(record.keyIndex) ? 1 : 0;
    result.predictions.push_back(predicted);
    ++result.keyBits;
    if (predicted == (record.keyValue ? 1 : 0)) ++result.correct;
  }
  result.kpa = result.keyBits == 0 ? 0.0
                                   : 100.0 * static_cast<double>(result.correct) /
                                         static_cast<double>(result.keyBits);
  return result;
}

}  // namespace rtlock::attack
