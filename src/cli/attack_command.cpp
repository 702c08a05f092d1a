// `rtlock attack` — run the full SnapShot-RTL pipeline (relock harvesting,
// auto-ml model selection, per-bit key prediction) against a locked netlist
// and write a report whose rows follow the BENCH_baseline.json schema.
//
// Thin wrapper over service::runAttack (shared with `rtlock serve`).  With
// --key=key.json (the `rtlock lock` provenance file) predictions are scored
// into a Key Prediction Accuracy; without it the attack still runs —
// SnapShot is oracle-less and needs nothing but the locked netlist — and the
// report carries the per-bit predictions unscored.
//
// Determinism: repeat r of --repeats draws only from substream(r) of the
// --seed root and repeats shard across --threads workers, so the quality
// rows (and with --no-wall the whole report file) are bit-identical at every
// thread count.
#include "cli/common.hpp"
#include "service/api.hpp"
#include "support/strings.hpp"

namespace rtlock::cli {

int runAttackCommand(const service::FieldValues& flags, CommandIo& io) {
  const std::string inputPath = flags.positional().front();

  service::AttackRequest request = service::attackRequestFrom(flags);
  request.source = readTextFile(inputPath);
  if (flags.has("key")) {
    request.key = keyFileFromJson(support::parseJson(readTextFile(flags.text("key"))));
  } else {
    io.err << "note: no --key file — KPA cannot be scored, reporting raw predictions\n";
  }

  service::SessionCache cache;
  const service::AttackResponse response = service::runAttack(cache, request);

  writeReports(flags, service::attackReportDocument(request, response, inputPath), response.rows,
               io);
  emitRows(io.out, response.rows, flags.flag("csv"));
  const attack::SnapshotResult& first = response.repeats.front().result;
  io.err << "model: " << first.modelName << " (cv "
         << support::formatDouble(100.0 * first.cvAccuracy, 1) << "%)";
  if (response.scored) {
    double kpaSum = 0.0;
    for (const service::AttackRepeat& repeat : response.repeats) kpaSum += repeat.result.kpa;
    io.err << ", mean KPA "
           << support::formatDouble(kpaSum / static_cast<double>(response.repeats.size()), 1)
           << "% over " << request.repeats << " repeat(s)";
  }
  io.err << "\n";
  return kExitOk;
}

}  // namespace rtlock::cli
