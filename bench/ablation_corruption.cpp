// Extension study — wrong-key output corruption.
//
// The paper lists output corruptibility among the "multiple security
// objectives" HRA can balance (Sec. 5.1).  This bench measures, per locking
// algorithm, the average fraction of corrupted output bits under (a) a
// uniformly random wrong key and (b) the all-bits-flipped key, plus the
// equivalence check under the correct key (must be 0 corruption).
#include "common.hpp"
#include "core/algorithms.hpp"
#include "designs/registry.hpp"
#include "sim/harness.hpp"

int main(int argc, char** argv) {
  using namespace rtlock;
  return bench::runBench([&] {
    const support::CliArgs args(argc, argv, {"seed", "csv", "budget", "vectors"});
    const std::uint64_t seed = args.getU64("seed", 1);
    const bool csv = args.getBool("csv", false);
    const double budgetFraction = bench::budgetFlag(args, "0.75");

    sim::EquivalenceOptions options;
    options.vectors = bench::countFlag(args, "vectors", 16, service::kMaxSamples);
    options.cyclesPerVector = 40;

    bench::banner("Wrong-key output corruption",
                  "extension of Sisejkovic et al., DAC'22, Sec. 5.1 (objectives discussion)",
                  "0% corruption under the correct key; substantial corruption under wrong "
                  "keys for every algorithm");

    support::Table table{{"benchmark", "algorithm", "key bits", "corrupt% (correct key)",
                          "corrupt% (random key)", "corrupt% (flipped key)"}};

    support::Rng rng{seed};
    for (const auto* name : {"FIR", "IIR", "MD5", "SHA256", "DES3", "RSA"}) {
      const rtl::Module original = designs::makeBenchmark(name);
      for (const auto algorithm :
           {lock::Algorithm::AssureSerial, lock::Algorithm::Hra, lock::Algorithm::Era}) {
        rtl::Module locked = original.clone();
        lock::LockEngine engine{locked, lock::PairTable::fixed()};
        const int budget = lock::keyBudget(budgetFraction, engine.initialLockableOps());
        lock::lockWithAlgorithm(engine, algorithm, budget, rng);

        sim::BitVector correct{locked.keyWidth()};
        sim::BitVector flipped{locked.keyWidth()};
        for (const auto& record : engine.records()) {
          correct.setBit(record.keyIndex, record.keyValue);
          flipped.setBit(record.keyIndex, !record.keyValue);
        }
        const sim::BitVector randomKey = sim::BitVector::random(locked.keyWidth(), rng);

        support::Rng simRng{seed + 77};
        const double okCorruption =
            sim::outputCorruption(original, locked, correct, options, simRng);
        const double randomCorruption =
            sim::outputCorruption(original, locked, randomKey, options, simRng);
        const double flippedCorruption =
            sim::outputCorruption(original, locked, flipped, options, simRng);

        table.addRow({name, std::string{lock::algorithmName(algorithm)},
                      std::to_string(locked.keyWidth()),
                      support::formatDouble(100.0 * okCorruption, 2),
                      support::formatDouble(100.0 * randomCorruption, 2),
                      support::formatDouble(100.0 * flippedCorruption, 2)});
      }
    }
    bench::emit(table, csv);
  });
}
