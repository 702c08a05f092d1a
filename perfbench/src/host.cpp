#include "host.hpp"

#include <sys/resource.h>

#include <fstream>
#include <thread>

namespace perfbench {

namespace {

std::string cpuModel() {
  std::ifstream in{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string compilerName() {
#if defined(__clang__)
  return std::string{"clang "} + __clang_version__;
#elif defined(__GNUC__)
  return std::string{"gcc "} + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

double processCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

rtlock::support::JsonValue fingerprint(const RunIdentity& run) {
  rtlock::support::JsonValue host;
  host.set("cpu_model", cpuModel());
  host.set("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  host.set("compiler", compilerName());
  host.set("build_type", PERFBENCH_BUILD_TYPE);
  rtlock::support::JsonValue document;
  document.set("host", std::move(host));
  document.set("commit", run.commit);
  document.set("src_digest", run.srcDigest);
  document.set("workload", run.workload);
  document.set("seed", run.seed);
  document.set("seconds", run.seconds);
  document.set("trace", run.trace);
  return document;
}

}  // namespace perfbench
