// Shared plumbing for the figure-reproduction and ablation benches.
//
// Every bench declares its flags as service::Field rows and decodes them
// with service::decodeFlags, the request-schema mechanism behind rtlock's
// flags: an unknown flag, a malformed value or an out-of-range count is an
// error naming the flag and the rejected value.  Rows most benches share:
//   --seed=N       master RNG seed (default 1)
//   --csv          emit CSV instead of an aligned table
//   --samples=N    locked samples per configuration (paper: 10), in [1, 10^6]
//   --relocks=N    training relock rounds per sample (paper: 1000), in [1, 10^9]
//   --budget=SPEC  key budget fraction: 0.75 or 75% (a bit count is rejected)
//   --threads=N    workers for the bench's grid of cells in [0, 4096]
//                  (default: RTLOCK_THREADS env, else hardware concurrency;
//                  1 = serial reference path)
// The grid is the only level that fans out (a cell's samples run serially),
// and results are bit-identical at every thread count (see
// support/task_pool.hpp).  Other flags are documented with each bench.
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

using service::Field;
using service::FieldKind;

/// A bare --name switch.
inline Field flagField(std::string_view name) {
  return {name, FieldKind::Flag, service::kCli, "", "", ""};
}
inline const Field kSeedField{"seed", FieldKind::Count, service::kCli, "1", "N", ""};
inline const Field kCsvField = flagField("csv");
inline const Field kThreadsField{"threads", FieldKind::Threads, service::kCli, "", "N", "", "", 0,
                                 support::kMaxThreads};

/// A count flag in [min, max], `fallback` when absent.
inline Field countField(std::string_view name, std::string_view fallback, std::uint64_t max,
                        std::uint64_t min = 1) {
  return {name, FieldKind::Count, service::kCli, fallback, "N", "", "", min, max};
}
inline Field samplesField(std::string_view fallback) {
  return countField("samples", fallback, service::kMaxSamples);
}
inline Field relocksField(std::string_view fallback) {
  return countField("relocks", fallback, service::kMaxRounds);
}
inline Field textField(std::string_view name, std::string_view fallback) {
  return {name, FieldKind::Text, service::kCli, fallback, "", ""};
}

/// The --budget row as a key budget fraction in (0, 1], parsed as rtlock's
/// --budget is; a bit count is rejected.
inline double budgetFraction(const service::FieldValues& flags) {
  const service::BudgetSpec spec = service::parseBudget(flags.text("budget"));
  service::requireFraction(spec, "--budget");
  return spec.fraction;
}

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
