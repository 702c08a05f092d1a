// Process and host measurements: CPU seconds, peak RSS, and the run
// fingerprint every result is stamped with.  Numbers are comparable only
// between runs whose fingerprints match.
#pragma once

#include <cstdint>
#include <string>

#include "support/json.hpp"

namespace perfbench {

/// User plus system CPU seconds of the whole process so far.
[[nodiscard]] double processCpuSeconds();

/// High-water resident set size of the process, in MiB.
[[nodiscard]] double peakRssMb();

struct RunIdentity {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string commit;     // git commit, "none" outside a git checkout
  std::string srcDigest;  // digest of the sources the program was built from
};

/// CPU model, logical CPUs, compiler, build type, plus the run identity.
[[nodiscard]] rtlock::support::JsonValue fingerprint(const RunIdentity& run);

}  // namespace perfbench
