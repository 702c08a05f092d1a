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
#include <array>

#include "attack/pipeline.hpp"
#include "common.hpp"
#include "designs/registry.hpp"

int main(int argc, char** argv) {
  using namespace rtlock;
  return bench::runBench([&] {
    const support::CliArgs args(argc, argv, {"seed", "csv", "samples", "relocks", "threads"});
    const std::uint64_t seed = args.getU64("seed", 1);
    const bool csv = args.getBool("csv", false);

    bench::banner("Locality feature-set ablation (basic [C1,C2] vs extended)",
                  "extension of Sisejkovic et al., DAC'22, Sec. 5 (SnapShot adaptation)",
                  "extended features lift KPA against ERA by ~10-20 points: nested-mux "
                  "depth asymmetry is key-correlated residue that count balancing misses");

    // Cells in table order: (design, algorithm, basic/extended).  The table
    // is defined by one Rng shared serially across the cells in that order;
    // evaluateBenchmark forks it exactly once per call, so cell k starts
    // from the stream as it stood before the k-th fork, and the table is
    // byte-identical at every thread count.
    const std::array<const char*, 3> names{"FIR", "MD5", "SHA256"};
    const std::array<lock::Algorithm, 2> algorithms{lock::Algorithm::AssureSerial,
                                                    lock::Algorithm::Era};
    constexpr std::size_t kCells = 3 * 2 * 2;
    std::vector<rtl::Module> originals;
    for (const char* name : names) originals.push_back(designs::makeBenchmark(name));
    std::vector<support::Rng> cellRngs;
    support::Rng rng{seed};
    for (std::size_t k = 0; k < kCells; ++k) {
      cellRngs.push_back(rng);
      (void)rng.fork();
    }

    attack::EvaluationConfig config;
    config.testLocks = bench::countFlag(args, "samples", 2, service::kMaxSamples);
    config.snapshot.relockRounds = bench::countFlag(args, "relocks", 60, service::kMaxRounds);
    config.snapshot.automl.folds = 2;

    support::TaskPool pool{support::threadsForTasks(support::requestedThreads(args), kCells)};
    const auto kpas = pool.map(kCells, [&](std::size_t k) {
      attack::EvaluationConfig cellConfig = config;
      cellConfig.snapshot.locality.extendedFeatures = k % 2 == 1;
      return attack::evaluateBenchmark(originals[k / 4], names[k / 4], algorithms[k / 2 % 2],
                                       lock::PairTable::fixed(), cellConfig, cellRngs[k])
          .meanKpa;
    });

    support::Table table{{"benchmark", "algorithm", "KPA% basic", "KPA% extended"}};
    for (std::size_t row = 0; row < kCells / 2; ++row) {
      table.addRow({names[row / 2], std::string{lock::algorithmName(algorithms[row % 2])},
                    support::formatDouble(kpas[2 * row], 2),
                    support::formatDouble(kpas[2 * row + 1], 2)});
    }
    bench::emit(table, csv);
  });
}
