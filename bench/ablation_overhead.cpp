// Sec. 5 cost claim — "the cost of the proposed algorithms are in line with
// the original ASSURE, as the cost of a locking pair per key bit has not
// changed."
//
// For every benchmark and algorithm the bench reports key bits consumed,
// operations added (dummy ops visible to an attacker), expression-node
// growth, and the ops-added-per-key-bit ratio, which must be 1.0 for every
// algorithm on the three-address benchmark designs.
#include "common.hpp"
#include "core/algorithms.hpp"
#include "designs/registry.hpp"
#include "rtl/stats.hpp"

int main(int argc, char** argv) {
  using namespace rtlock;
  return bench::runBench([&] {
    const support::CliArgs args(argc, argv, {"seed", "csv", "budget"});
    const std::uint64_t seed = args.getU64("seed", 1);
    const bool csv = args.getBool("csv", false);
    const double budgetFraction = bench::budgetFlag(args, "0.75");

    bench::banner("Locking overhead — cost per key bit",
                  "Sisejkovic et al., DAC'22, Sec. 5 (cost discussion)",
                  "one locking pair (one dummy op, one mux) per key bit for every algorithm");

    const std::vector<lock::Algorithm> algorithms{
        lock::Algorithm::AssureSerial, lock::Algorithm::Hra, lock::Algorithm::Greedy,
        lock::Algorithm::Era};

    support::Table table{{"benchmark", "algorithm", "ops before", "key bits", "ops added",
                          "ops/bit", "nodes before", "nodes after", "M^g", "M^r"}};

    support::Rng rng{seed};
    for (const auto& name : designs::benchmarkNames()) {
      for (const auto algorithm : algorithms) {
        rtl::Module module = designs::makeBenchmark(name);
        const rtl::ModuleStats before = rtl::computeStats(module);
        lock::LockEngine engine{module, lock::PairTable::fixed()};
        const int opsBefore = engine.initialLockableOps();
        const int budget = lock::keyBudget(budgetFraction, opsBefore);
        const auto report = lock::lockWithAlgorithm(engine, algorithm, budget, rng);
        const rtl::ModuleStats after = rtl::computeStats(module);

        const int opsAdded = engine.totalLockableOps() - opsBefore;
        table.addRow({name, std::string{lock::algorithmName(algorithm)},
                      std::to_string(opsBefore), std::to_string(report.bitsUsed),
                      std::to_string(opsAdded),
                      support::formatDouble(report.bitsUsed == 0
                                                ? 0.0
                                                : static_cast<double>(opsAdded) /
                                                      static_cast<double>(report.bitsUsed),
                                            3),
                      std::to_string(before.exprNodes), std::to_string(after.exprNodes),
                      support::formatDouble(report.finalGlobalMetric, 1),
                      support::formatDouble(report.finalRestrictedMetric, 1)});
      }
    }
    bench::emit(table, csv);
  });
}
