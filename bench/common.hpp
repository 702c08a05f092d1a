// Shared plumbing for the figure-reproduction benches.
//
// Every bench accepts:
//   --seed=N       master RNG seed (default 1)
//   --csv          emit CSV instead of an aligned table
//   --samples=N    locked samples per configuration (paper: 10)
//   --relocks=N    training relock rounds per sample (paper: 1000)
// Benches routed through the experiment engine (fig4/5/6, run_baseline, the
// evaluateBenchmark-based ablations) additionally accept
//   --threads=N    experiment-engine workers in [0, 4096] (default:
//                  RTLOCK_THREADS env, else hardware concurrency; 1 = serial
//                  reference path), resolved by support::requestedThreads
// and their results are bit-identical at every thread count (see
// support/task_pool.hpp).  Other flags are documented in each main().
#pragma once

#include <iostream>
#include <string>
#include <vector>

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
