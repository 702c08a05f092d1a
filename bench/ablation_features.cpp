// Locality-encoding ablation — does a richer locality help SnapShot?
//
// The paper encodes a locality as the operation pair [C1, C2].  The extended
// encoding adds branch depths, the parent construct and a width bucket.
//
// Finding (see EXPERIMENTS.md): the extended encoding measurably re-opens a
// channel against ERA (e.g. MD5 ~43 % -> ~62 % KPA).  Def. 1 balances
// operation-type *counts*, but when an already-locked pair is relocked the
// real branch is a nested mux while the fresh dummy is a shallow clone — a
// key-correlated *depth* asymmetry that count balancing cannot remove.  This
// extends the paper's own warning: "as long as the structural change is
// related to key values, it is possible to use ML to guess the keys."
#include "attack/pipeline.hpp"
#include "common.hpp"
#include "designs/registry.hpp"

int main(int argc, char** argv) {
  using namespace rtlock;
  return bench::runBench([&] {
    const support::CliArgs args(argc, argv, {"seed", "csv", "samples", "relocks", "threads"});
    const std::uint64_t seed = args.getU64("seed", 1);
    const bool csv = args.getBool("csv", false);
    const int threads = support::requestedThreads(args);

    bench::banner("Locality feature-set ablation (basic [C1,C2] vs extended)",
                  "extension of Sisejkovic et al., DAC'22, Sec. 5 (SnapShot adaptation)",
                  "extended features lift KPA against ERA by ~10-20 points: nested-mux "
                  "depth asymmetry is key-correlated residue that count balancing misses");

    support::Table table{{"benchmark", "algorithm", "KPA% basic", "KPA% extended"}};

    support::Rng rng{seed};
    for (const auto* name : {"FIR", "MD5", "SHA256"}) {
      const rtl::Module original = designs::makeBenchmark(name);
      for (const auto algorithm : {lock::Algorithm::AssureSerial, lock::Algorithm::Era}) {
        attack::EvaluationConfig config;
        config.testLocks = bench::countFlag(args, "samples", 2, service::kMaxSamples);
        config.snapshot.relockRounds = bench::countFlag(args, "relocks", 60, service::kMaxRounds);
        config.snapshot.automl.folds = 2;
        // The grid here shares one rng stream serially (cells are compared
        // against each other), so the sample loop is the parallelism level.
        config.threads = threads;

        config.snapshot.locality.extendedFeatures = false;
        const auto basic = attack::evaluateBenchmark(original, name, algorithm,
                                                     lock::PairTable::fixed(), config, rng);
        config.snapshot.locality.extendedFeatures = true;
        const auto extended = attack::evaluateBenchmark(original, name, algorithm,
                                                        lock::PairTable::fixed(), config, rng);
        table.addRow({name, std::string{lock::algorithmName(algorithm)},
                      support::formatDouble(basic.meanKpa, 2),
                      support::formatDouble(extended.meanKpa, 2)});
      }
    }
    bench::emit(table, csv);
  });
}
