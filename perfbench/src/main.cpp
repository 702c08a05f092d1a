// rtlock_perfbench — runs one benchmark workload in this process.
//
//   rtlock_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--work-dir DIR] [--commit SHA] [--src-digest HEX]
//
// Workloads: fig6_r1000, fig6_r100, serve_lock (see README.md).  Stdout
// carries informational JSON lines (fingerprint, checks, tail percentile)
// and, last, the result line {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics untraced, the per-layer metrics with --trace 1.
// Exit code 0 when the run completed (correct or not), 2 on usage errors,
// 1 when the workload itself could not run.
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "support/cli.hpp"
#include "workload.hpp"

namespace {

int usage(const std::string& message) {
  std::cerr << "rtlock_perfbench: " << message
            << "\nusage: rtlock_perfbench --workload fig6_r1000|fig6_r100|serve_lock --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--commit SHA] [--src-digest HEX]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args{{"--work-dir", ".bench_build/work"},
                                          {"--commit", "none"},
                                          {"--src-digest", "none"}};
  if (argc % 2 == 0) return usage("flags take one value each");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const bool known = args.count(flag) != 0 || flag == "--workload" || flag == "--seed" ||
                       flag == "--seconds" || flag == "--trace";
    if (!known) return usage("unknown flag " + flag);
    args[flag] = argv[i + 1];
  }
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace"}) {
    if (args.count(required) == 0) return usage(std::string{"missing "} + required);
  }

  perfbench::RunOptions options;
  options.run.workload = args.at("--workload");
  const bool eval = options.run.workload == "fig6_r1000" || options.run.workload == "fig6_r100";
  if (!eval && options.run.workload != "serve_lock") {
    return usage("unknown workload " + options.run.workload);
  }
  const std::optional<std::uint64_t> seed = rtlock::support::parseU64(args.at("--seed"));
  if (!seed) return usage("--seed takes a non-negative integer");
  options.run.seed = *seed;
  const std::optional<std::uint64_t> seconds = rtlock::support::parseU64(args.at("--seconds"));
  if (!seconds || *seconds < 1 || *seconds > 3600) return usage("--seconds must be in [1, 3600]");
  options.run.seconds = static_cast<int>(*seconds);
  const std::string trace = args.at("--trace");
  if (trace != "0" && trace != "1") return usage("--trace takes 0 or 1");
  options.run.trace = trace == "1";
  options.run.commit = args.at("--commit");
  options.run.srcDigest = args.at("--src-digest");
  options.workDir = args.at("--work-dir") + "/" + options.run.workload + "-" +
                    std::to_string(options.run.seed) + "-" + (options.run.trace ? "t" : "u");
  options.traceOut = args.at("--work-dir") + "/" + options.run.workload + ".spans.jsonl";

  try {
    std::filesystem::remove_all(options.workDir);
    std::filesystem::create_directories(args.at("--work-dir"));
    std::cout << rtlock::support::JsonValue{rtlock::support::JsonObject{
                     {"fingerprint", perfbench::fingerprint(options.run)}}}
                     .dumpLine()
              << std::endl;
    perfbench::WorkloadResult result =
        eval ? perfbench::runEvalWorkload(options) : perfbench::runServeWorkload(options);
    std::filesystem::remove_all(options.workDir);
    if (options.run.trace) {
      result.info.set("end_to_end", perfbench::metricsObject(result.endToEnd));
    }
    std::cout << rtlock::support::JsonValue{rtlock::support::JsonObject{{"info", result.info}}}
                     .dumpLine()
              << '\n'
              << perfbench::resultLine(result.correct, result.attempted, result.failed,
                                       options.run.trace ? result.perLayer : result.endToEnd)
              << std::endl;
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "rtlock_perfbench: " << options.run.workload << " failed: " << error.what()
              << '\n';
    return 1;
  }
}
