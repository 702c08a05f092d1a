// Shared plumbing for the figure-reproduction benches.
//
// Every bench accepts:
//   --seed=N       master RNG seed (default 1)
//   --csv          emit CSV instead of an aligned table
//   --samples=N    locked samples per configuration (paper: 10)
//   --relocks=N    training relock rounds per sample (paper: 1000)
// Counts (--samples, --trials, --vectors in [1, 10^6], --relocks in
// [1, 10^9]) and --budget (a fraction: 0.75 or 75%) are read strictly and
// bounded as rtlock's request schema bounds them (countFlag, budgetFlag).
// Benches routed through the experiment engine (fig4/5/6, run_baseline, the
// evaluateBenchmark-based ablations) additionally accept
//   --threads=N    workers for the bench's grid of cells in [0, 4096]
//                  (default: RTLOCK_THREADS env, else hardware concurrency;
//                  1 = serial reference path), resolved by
//                  support::requestedThreads
// The grid is the only level that fans out (a cell's samples run serially),
// and results are bit-identical at every thread count (see
// support/task_pool.hpp).  Other flags are documented in each main().
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "service/schema.hpp"
#include "support/cli.hpp"
#include "support/diagnostics.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "support/task_pool.hpp"

namespace rtlock::bench {

/// Renders a table according to the --csv flag.
inline void emit(const support::Table& table, bool csv) {
  if (csv) {
    table.renderCsv(std::cout);
  } else {
    table.renderText(std::cout);
  }
}

/// Prints the standard bench banner.
inline void banner(const std::string& title, const std::string& paperRef,
                   const std::string& expectation) {
  std::cout << "== " << title << " ==\n"
            << "reproduces: " << paperRef << "\n"
            << "expected shape: " << expectation << "\n\n";
}

/// Count flag `name` in [1, max], read with the strict getU64.
inline int countFlag(const support::CliArgs& args, std::string_view name, int fallback,
                     std::uint64_t max) {
  const std::uint64_t value = args.getU64(name, static_cast<std::uint64_t>(fallback));
  if (value < 1 || value > max) {
    throw support::Error{"--" + std::string{name} + " must be in [1, " + std::to_string(max) +
                         "], got " + std::to_string(value)};
  }
  return static_cast<int>(value);
}

/// --budget as a key budget fraction in (0, 1], parsed as rtlock's --budget
/// is; a bit count is rejected.
inline double budgetFlag(const support::CliArgs& args, std::string_view fallback) {
  const service::BudgetSpec spec = service::parseBudget(args.get("budget", fallback));
  service::requireFraction(spec, "--budget");
  return spec.fraction;
}

/// Wraps main-body execution with uniform error reporting.
template <typename Body>
int runBench(Body&& body) {
  try {
    body();
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "bench failed: " << error.what() << '\n';
    return 1;
  }
}

}  // namespace rtlock::bench
