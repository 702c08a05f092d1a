#include "service/api.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <utility>

#include "attack/pipeline.hpp"
#include "campaign/manifest.hpp"
#include "campaign/merge.hpp"
#include "core/algorithms.hpp"
#include "service/build_info.hpp"
#include "service/schema.hpp"
#include "support/strings.hpp"
#include "support/task_pool.hpp"
#include "verilog/writer.hpp"

namespace rtlock::service {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double elapsedMs(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

void checkDeadline(const campaign::CellContext* deadline) {
  if (deadline != nullptr) deadline->checkDeadline();
}

/// The module a request operates on: `name` when given, otherwise the
/// design's only module or (requireKey) its only keyed module.  Throws
/// support::Error listing the candidates when the choice is ambiguous.
[[nodiscard]] const rtl::Module& selectSessionModule(const DesignSession& session,
                                                     const std::string& name, bool requireKey) {
  std::vector<std::string> names;
  names.reserve(session.moduleCount());
  for (std::size_t i = 0; i < session.moduleCount(); ++i) {
    names.push_back(session.module(i).name());
  }
  if (!name.empty()) {
    if (const rtl::Module* module = session.findModule(name)) return *module;
    throw support::Error{"no module named \"" + name +
                         "\" (design has: " + support::join(names, ", ") + ")"};
  }
  const rtl::Module* chosen = nullptr;
  std::size_t eligible = 0;
  for (std::size_t i = 0; i < session.moduleCount(); ++i) {
    const rtl::Module& module = session.module(i);
    if (requireKey && module.keyWidth() == 0) continue;
    ++eligible;
    if (chosen == nullptr) chosen = &module;
  }
  if (chosen == nullptr) {
    throw support::Error{
        requireKey
            ? "no module has a key input — is this netlist locked, and is the key port named "
              "correctly (see --key-port)?"
            : "design contains no modules"};
  }
  if (eligible > 1) {
    throw support::Error{"design has several candidate modules (" + support::join(names, ", ") +
                         ") — pick one with --module=NAME"};
  }
  return *chosen;
}

/// Metrics an eval cell journals, in payload order (also the report-row
/// order).
constexpr const char* kCellMetrics[] = {"mean_kpa_percent",   "min_kpa_percent",
                                        "max_kpa_percent",    "mean_key_bits",
                                        "mean_global_metric", "mean_restricted_metric"};

[[nodiscard]] support::JsonValue payloadFromResult(const attack::EvaluationResult& result) {
  support::JsonValue payload;
  payload.set("mean_kpa_percent", result.meanKpa);
  payload.set("min_kpa_percent", result.minKpa);
  payload.set("max_kpa_percent", result.maxKpa);
  payload.set("mean_key_bits", result.meanKeyBits);
  payload.set("mean_global_metric", result.meanGlobalMetric);
  payload.set("mean_restricted_metric", result.meanRestrictedMetric);
  return payload;
}

}  // namespace

LockResponse runLock(SessionCache& cache, const LockRequest& request,
                     const campaign::CellContext* deadline) {
  validate(request);
  const SessionCache::FetchResult fetched = cache.fetch(request.source, request.session);
  checkDeadline(deadline);

  LockResponse response;
  response.designHash = fetched.session->contentHash();
  response.cacheHit = fetched.hit;
  response.key.algorithm = service::algorithmName(request.algorithm);
  response.key.seed = request.seed;
  response.key.budget = request.budget.describe();
  response.key.input = request.inputLabel;

  // Locking mutates, sessions are immutable: lock a private clone of the
  // cached design (the clone replaces the per-invocation re-parse).
  rtl::Design design = fetched.session->cloneDesign();
  const support::Rng root{request.seed};
  int lockedModules = 0;
  for (std::size_t i = 0; i < design.moduleCount(); ++i) {
    checkDeadline(deadline);
    rtl::Module& module = design.module(i);
    lock::LockEngine engine{module, lock::PairTable::fixed()};
    if (engine.initialLockableOps() == 0) {
      response.notes.push_back("module " + module.name() +
                               " has no lockable operations — skipped");
      continue;
    }
    if (module.keyWidth() != 0) {
      // Relocking would emit a key file whose pre-existing bits are unknown
      // to this invocation — an unusable (silently corrupting) key string.
      // The attack relocks internally; the lock entry point refuses.
      throw support::Error{"module " + module.name() + " already carries " +
                           std::to_string(module.keyWidth()) +
                           " key bits — locking on top would make the emitted key file "
                           "incomplete; lock the original (unlocked) netlist instead"};
    }
    support::Rng moduleRng = root.substream(i);
    const int keyBudget = request.budget.resolve(engine.initialLockableOps());
    const lock::AlgorithmReport report = lock::lockWithAlgorithm(
        engine, request.algorithm, keyBudget, moduleRng, lock::ReportDetail::Summary);

    ModuleKey moduleKey;
    moduleKey.module = module.name();
    moduleKey.keyWidth = module.keyWidth();
    moduleKey.records = engine.records();
    moduleKey.bitsUsed = report.bitsUsed;
    moduleKey.globalMetric = report.finalGlobalMetric;
    moduleKey.restrictedMetric = report.finalRestrictedMetric;
    moduleKey.keyBits.assign(static_cast<std::size_t>(module.keyWidth()), '0');
    for (const lock::LockRecord& record : moduleKey.records) {
      moduleKey.keyBits[static_cast<std::size_t>(record.keyIndex)] = record.keyValue ? '1' : '0';
    }
    response.key.modules.push_back(std::move(moduleKey));
    ++lockedModules;

    LockModuleSummary summary;
    summary.module = module.name();
    summary.lockableOps = engine.initialLockableOps();
    summary.bitsUsed = report.bitsUsed;
    summary.keyWidth = module.keyWidth();
    summary.globalMetric = report.finalGlobalMetric;
    summary.restrictedMetric = report.finalRestrictedMetric;
    response.modules.push_back(std::move(summary));
  }
  if (lockedModules == 0) {
    throw support::Error{"nothing to lock: no module in " + request.inputLabel +
                         " has lockable operations"};
  }

  verilog::WriterOptions writerOptions;
  writerOptions.emitHeaderComment = request.emitBanner;
  response.lockedVerilog = verilog::writeDesign(design, writerOptions);
  return response;
}

AttackResponse runAttack(SessionCache& cache, const AttackRequest& request,
                         const campaign::CellContext* deadline) {
  validate(request);

  attack::SnapshotConfig config;
  config.relockRounds = request.rounds;
  config.relockBudgetFraction = request.relockBudget.fraction;
  config.automl.folds = request.folds;
  config.locality.extendedFeatures = request.extendedFeatures;

  const SessionCache::FetchResult fetched = cache.fetch(request.source, request.session);
  checkDeadline(deadline);
  const rtl::Module& target =
      selectSessionModule(*fetched.session, request.moduleName, /*requireKey=*/true);

  AttackResponse response;
  response.designHash = fetched.session->contentHash();
  response.cacheHit = fetched.hit;
  response.moduleName = target.name();

  // Ground truth: the lock-time records when a key file is given, else
  // unscored pseudo-records derived from the netlist's own key muxes.
  std::vector<lock::LockRecord> truth;
  if (request.key.has_value()) {
    const ModuleKey& moduleKey = moduleKeyFor(*request.key, target.name());
    if (moduleKey.keyWidth != target.keyWidth()) {
      throw support::Error{"key file was made for a " + std::to_string(moduleKey.keyWidth) +
                           "-bit key but " + target.name() + " has " +
                           std::to_string(target.keyWidth()) + " key bits"};
    }
    truth = moduleKey.records;
    response.scored = true;
  } else {
    for (const attack::Locality& locality : attack::extractLocalities(target, config.locality)) {
      lock::LockRecord record;
      record.keyIndex = locality.keyIndex;
      truth.push_back(record);
    }
    response.notes.emplace_back("no key file — KPA cannot be scored, reporting raw predictions");
  }
  if (truth.empty()) throw support::Error{"module " + target.name() + " has no key muxes"};

  // Repeats shard across the pool; each owns a clone and a substream.
  const support::Rng root{request.seed};
  support::TaskPool pool{
      support::threadsForTasks(request.threads, static_cast<std::size_t>(request.repeats))};
  const auto started = Clock::now();
  response.repeats = pool.map(static_cast<std::size_t>(request.repeats), [&](std::size_t index) {
    checkDeadline(deadline);
    const auto repeatStart = Clock::now();
    rtl::Module clone = target.clone();
    support::Rng repeatRng = root.substream(index);
    AttackRepeat outcome;
    outcome.result =
        attack::snapshotAttack(clone, truth, lock::PairTable::fixed(), config, repeatRng);
    outcome.wallMs = elapsedMs(repeatStart);
    return outcome;
  });
  response.totalWallMs = elapsedMs(started);

  response.setup = "snapshot rounds=" + std::to_string(config.relockRounds) +
                   " budget=" + request.relockBudget.describe() +
                   " folds=" + std::to_string(config.automl.folds) +
                   (config.locality.extendedFeatures ? " features=extended" : "");
  const bool noWall = !request.includeWall;
  double kpaSum = 0.0;
  double kpaMin = 100.0;
  double kpaMax = 0.0;
  double cvSum = 0.0;
  double rowsSum = 0.0;
  for (std::size_t r = 0; r < response.repeats.size(); ++r) {
    const attack::SnapshotResult& result = response.repeats[r].result;
    const double wall = noWall ? 0.0 : response.repeats[r].wallMs;
    if (response.scored) {
      response.rows.push_back({target.name(), response.setup + " repeat=" + std::to_string(r),
                               "kpa_percent", result.kpa, wall});
      kpaSum += result.kpa;
      kpaMin = std::min(kpaMin, result.kpa);
      kpaMax = std::max(kpaMax, result.kpa);
    }
    cvSum += result.cvAccuracy;
    rowsSum += static_cast<double>(result.trainingRows);
  }
  const auto count = static_cast<double>(response.repeats.size());
  if (response.scored) {
    response.rows.push_back({target.name(), response.setup, "mean_kpa_percent", kpaSum / count,
                             noWall ? 0.0 : response.totalWallMs});
    if (request.repeats > 1) {
      response.rows.push_back({target.name(), response.setup, "min_kpa_percent", kpaMin, 0.0});
      response.rows.push_back({target.name(), response.setup, "max_kpa_percent", kpaMax, 0.0});
    }
  }
  response.rows.push_back({target.name(), response.setup, "key_bits",
                           static_cast<double>(response.repeats.front().result.keyBits), 0.0});
  response.rows.push_back({target.name(), response.setup, "mean_training_rows", rowsSum / count, 0.0});
  response.rows.push_back(
      {target.name(), response.setup, "mean_cv_accuracy_percent", 100.0 * cvSum / count, 0.0});
  return response;
}

namespace {

/// Manifest mode: creates or validates the shared manifest for this
/// request's grid and returns the worker's journal path (the explicit
/// journalPath, else `<manifest>.journals/<workerId>.jsonl`).
[[nodiscard]] std::string openManifest(const EvalRequest& request,
                                       const campaign::CampaignIdentity& identity,
                                       const EvalResponse& response, const std::string& workerId) {
  campaign::Manifest manifest;
  manifest.identity = identity;
  manifest.setup = response.setup;
  manifest.cells = response.cells;

  std::error_code ec;
  if (!std::filesystem::exists(request.manifestPath, ec)) {
    // Atomic create; racing creators of the same grid serialize identical
    // bytes, and the read-back below validates whichever rename won.
    campaign::writeManifest(request.manifestPath, manifest);
  }
  const campaign::Manifest onDisk = campaign::readManifest(request.manifestPath);
  if (onDisk.identity.designHash != identity.designHash ||
      onDisk.identity.configHash != identity.configHash) {
    throw support::Error{"manifest " + request.manifestPath +
                         " belongs to a different campaign (design_hash/config_hash mismatch) — "
                         "delete it or pass a fresh --manifest path"};
  }
  // The config hash does not cover the grid axes (--algos/--seeds), so the
  // cell lists must be compared outright: every worker of one manifest has
  // to request the identical grid.
  bool sameCells = onDisk.cells.size() == response.cells.size();
  for (std::size_t i = 0; sameCells && i < onDisk.cells.size(); ++i) {
    sameCells = onDisk.cells[i].id.key() == response.cells[i].id.key();
  }
  if (!sameCells) {
    throw support::Error{"manifest " + request.manifestPath + " lists " +
                         std::to_string(onDisk.cells.size()) + " cells but this request builds " +
                         std::to_string(response.cells.size()) +
                         " — all workers of one manifest must pass the identical --algos/--seeds "
                         "grid"};
  }

  if (!request.journalPath.empty()) return request.journalPath;
  const std::string dir = campaign::journalsDirFor(request.manifestPath);
  std::filesystem::create_directories(dir, ec);
  if (ec && !std::filesystem::is_directory(dir)) {
    throw support::Error{"cannot create journal directory " + dir + ": " + ec.message()};
  }
  return dir + "/" + workerId + ".jsonl";
}

/// Once the fleet has converged: unions every per-worker journal into the
/// full campaign view, so *any* finishing worker can emit the complete
/// report.  The status counters then describe the whole fleet.
void adoptFleetOutcomes(const EvalRequest& request, const std::string& journalPath,
                        EvalResponse& response) {
  std::vector<std::string> journals =
      campaign::listJournals(campaign::journalsDirFor(request.manifestPath));
  if (std::find(journals.begin(), journals.end(), journalPath) == journals.end()) {
    journals.push_back(journalPath);  // explicit --journal outside the journals dir
    std::sort(journals.begin(), journals.end());
  }
  const campaign::MergeResult merged = campaign::mergeJournals(journals);
  response.mergedJournals = journals;
  campaign::CampaignResult& fleet = response.campaign;
  fleet.okCells = fleet.errorCells = fleet.timeoutCells = fleet.doneElsewhere = 0;
  for (std::size_t i = 0; i < response.cells.size(); ++i) {
    const auto it = merged.rows.find(response.cells[i].id.key());
    if (it == merged.rows.end()) {
      throw support::Error{"cell " + response.cells[i].label +
                           " has a done marker but no journal row — was a worker journal deleted "
                           "from " +
                           campaign::journalsDirFor(request.manifestPath) + "?"};
    }
    fleet.outcomes[i] = campaign::outcomeFromRow(it->second);
    switch (fleet.outcomes[i].status) {
      case campaign::CellStatus::Ok:
        ++fleet.okCells;
        break;
      case campaign::CellStatus::Timeout:
        ++fleet.timeoutCells;
        break;
      default:
        ++fleet.errorCells;
        break;
    }
  }
}

}  // namespace

std::vector<ReportRow> evalReportRows(
    const std::string& moduleName, const std::string& setup,
    const std::vector<campaign::Cell>& cells,
    const std::function<const campaign::CellOutcome*(std::size_t)>& outcomeAt, bool includeWall) {
  std::vector<ReportRow> rows;
  std::size_t start = 0;
  while (start < cells.size()) {
    const std::string& algoName = cells[start].id.algorithm;
    std::size_t end = start;
    while (end < cells.size() && cells[end].id.algorithm == algoName) ++end;
    double kpaSum = 0.0;
    std::size_t okSeeds = 0;
    for (std::size_t i = start; i < end; ++i) {
      const campaign::CellOutcome* outcome = outcomeAt(i);
      if (outcome == nullptr || outcome->status != campaign::CellStatus::Ok) continue;
      const std::string cellConfig = cells[i].label + " / " + setup;
      for (const char* metric : kCellMetrics) {
        const bool wallRow = std::string_view{metric} == "mean_kpa_percent";
        rows.push_back({moduleName, cellConfig, metric, outcome->payload.at(metric).asDouble(),
                        wallRow && includeWall ? outcome->wallMs : 0.0});
      }
      kpaSum += outcome->payload.at("mean_kpa_percent").asDouble();
      ++okSeeds;
    }
    if (okSeeds > 0) {
      rows.push_back({moduleName, algoName + " / all seeds / " + setup, "mean_kpa_percent",
                      kpaSum / static_cast<double>(okSeeds), 0.0});
    }
    start = end;
  }
  return rows;
}

EvalResponse runEval(SessionCache& cache, const EvalRequest& request) {
  validate(request);

  attack::EvaluationConfig config;
  config.testLocks = request.samples;
  config.keyBudgetFraction = request.budget.fraction;
  config.snapshot.relockRounds = request.rounds;
  config.snapshot.relockBudgetFraction = request.budget.fraction;
  config.snapshot.automl.folds = request.folds;
  config.snapshot.locality.extendedFeatures = request.extendedFeatures;
  config.verifyFunctional = request.verifyFunctional;

  const SessionCache::FetchResult fetched = cache.fetch(request.source, request.session);
  const rtl::Module& original =
      selectSessionModule(*fetched.session, request.moduleName, /*requireKey=*/false);
  {
    rtl::Module probe = original.clone();
    const lock::LockEngine probeEngine{probe, lock::PairTable::fixed()};
    if (probeEngine.initialLockableOps() == 0) {
      throw support::Error{"module " + original.name() + " has no lockable operations"};
    }
  }

  EvalResponse response;
  response.designHash = fetched.session->contentHash();
  response.cacheHit = fetched.hit;
  response.moduleName = original.name();

  // Row identity.  The design hash covers everything that shapes the parsed
  // module (source text, selected module, key port); the config hash covers
  // every knob that changes a cell's numbers.  threads is deliberately
  // absent from both: results are thread-invariant by construction.  So is
  // verifyFunctional (an independent fixed-seed check that perturbs no
  // payload byte — it can only fail a cell).  The journal hash keeps the
  // pre-service formula so existing journals resume.
  response.setup = "samples=" + std::to_string(config.testLocks) +
                   " rounds=" + std::to_string(config.snapshot.relockRounds) +
                   " budget=" + request.budget.describe();
  response.configText = response.setup + " folds=" + std::to_string(config.snapshot.automl.folds) +
                        " extended-features=" +
                        (config.snapshot.locality.extendedFeatures ? "1" : "0");
  campaign::CampaignIdentity identity;
  identity.designHash = support::fnv1a64Hex(request.source + '\0' + original.name() + '\0' +
                                            request.session.keyPortName);
  identity.configHash = support::fnv1a64Hex(response.configText);
  identity.design = original.name();
  identity.config = response.configText;

  response.cells.reserve(request.algorithms.size() * request.seeds.size());
  for (std::size_t a = 0; a < request.algorithms.size(); ++a) {
    const std::string algoName = service::algorithmName(request.algorithms[a]);
    for (const std::uint64_t seed : request.seeds) {
      campaign::Cell cell;
      cell.id = {identity.designHash, algoName, seed, identity.configHash};
      cell.label = algoName + " / seed " + std::to_string(seed);
      response.cells.push_back(std::move(cell));
    }
  }

  // Manifest mode: claim cells through the shared manifest's board.  A fleet
  // has no operator watching individual workers, so a journaled failure is
  // final (keepErrors): a deterministic failure must not ping-pong between
  // hosts forever.
  campaign::CampaignOptions options = request.campaign;
  std::string journalPath = request.journalPath;
  std::optional<campaign::ClaimBoard> board;
  std::optional<campaign::ClaimGate> gate;
  if (!request.manifestPath.empty()) {
    const std::string workerId =
        request.workerId.empty() ? campaign::defaultWorkerId() : request.workerId;
    journalPath = openManifest(request, identity, response, workerId);
    board.emplace(request.manifestPath, workerId, request.leaseMs);
    gate.emplace(campaign::ClaimGate{*board, request.pollMs, request.maxWaitMs});
    options.keepErrors = true;
  }
  std::unique_ptr<campaign::Journal> journalHolder;
  if (!journalPath.empty()) {
    journalHolder = std::make_unique<campaign::Journal>(journalPath, identity);
    response.journaled = true;
    response.journalReloadedRows = journalHolder->reloadedRows();
    response.journalTornTail = journalHolder->recoveredTornTail();
  }
  campaign::Journal* journal = journalHolder.get();

  // The cell body: pure in the cell identity (algorithm index recovered from
  // the grid position, rng derived from seed substream), so resumed and
  // re-ordered runs journal byte-identical payloads.
  const std::size_t seedCount = request.seeds.size();
  const campaign::CellFn compute = [&](const campaign::Cell& cell,
                                       const campaign::CellContext& context) {
    const std::size_t algoIndex = context.index / seedCount;
    support::Rng cellRng = support::Rng{cell.id.seed}.substream(algoIndex);
    const attack::EvaluationResult result =
        attack::evaluateBenchmark(original, original.name(), request.algorithms[algoIndex],
                                  lock::PairTable::fixed(), config, cellRng);
    if (result.functionalFailures > 0) {
      // verifyFunctional found locked samples that misbehave under their
      // correct key: a locking bug, not a statistics question.  Surface it
      // through the structured error-cell path instead of reporting KPA
      // numbers for broken hardware.
      throw support::Error{std::to_string(result.functionalFailures) + " of " +
                           std::to_string(result.samples) +
                           " locked sample(s) misbehave under the correct key"};
    }
    return payloadFromResult(result);
  };

  response.campaign = campaign::runCampaign(response.cells, options, journal, compute,
                                            gate.has_value() ? &*gate : nullptr);
  const bool reportReady = response.campaign.allDone() && !response.campaign.interrupted;
  if (reportReady && gate.has_value()) adoptFleetOutcomes(request, journalPath, response);

  for (std::size_t i = 0; i < response.cells.size(); ++i) {
    const campaign::CellOutcome& outcome = response.campaign.outcomes[i];
    if (outcome.status == campaign::CellStatus::Error ||
        outcome.status == campaign::CellStatus::Timeout) {
      response.cellErrors.push_back(
          "cell " + response.cells[i].label + ": " + outcome.errorCode + " after " +
          std::to_string(outcome.attempts) + " attempt(s)" +
          (outcome.fromJournal ? " [journaled]" : "") + ": " + outcome.errorWhat);
    }
  }

  // Report rows come only from ok cells; the per-algorithm aggregate
  // averages the seeds that completed.  A fully successful campaign
  // therefore emits rows byte-identical to the pre-campaign serial loop —
  // and a merged distributed campaign goes through the same builder, so its
  // report cannot drift from the single-process bytes either.
  if (reportReady) {
    response.rows = evalReportRows(
        response.moduleName, response.setup, response.cells,
        [&](std::size_t i) { return &response.campaign.outcomes[i]; }, request.includeWall);
  }

  if (reportReady && journal != nullptr && request.checkCells > 0) {
    const campaign::CheckResult checked =
        campaign::checkJournal(response.cells, *journal, request.checkCells, compute);
    response.checkedCells = checked.checkedCells;
    response.checkMismatches = checked.mismatches;
  }
  return response;
}

support::JsonValue attackReportDocument(const AttackRequest& request,
                                        const AttackResponse& response,
                                        const std::string& inputLabel) {
  support::JsonValue document;
  document.set("schema", "rtlock-attack-report/v1");
  document.set("generator", generatorTag());
  document.set("input", inputLabel);
  document.set("module", response.moduleName);
  document.set("seed", request.seed);
  document.set("scored", response.scored);
  support::JsonArray attacks;
  for (std::size_t r = 0; r < response.repeats.size(); ++r) {
    const attack::SnapshotResult& result = response.repeats[r].result;
    support::JsonValue entry;
    entry.set("repeat", static_cast<std::int64_t>(r));
    entry.set("model", result.modelName);
    entry.set("cv_accuracy", result.cvAccuracy);
    std::string predictions;
    predictions.reserve(result.predictions.size());
    for (const int bit : result.predictions) predictions.push_back(bit != 0 ? '1' : '0');
    entry.set("predictions", predictions);
    if (response.scored) entry.set("kpa_percent", result.kpa);
    attacks.push_back(std::move(entry));
  }
  document.set("attacks", support::JsonValue{std::move(attacks)});
  document.set("rows", rowsToJson(response.rows));
  return document;
}

support::JsonValue evalReportDocument(const EvalResponse& response,
                                      const std::string& inputLabel) {
  support::JsonValue document;
  document.set("schema", "rtlock-eval-report/v1");
  document.set("generator", generatorTag());
  document.set("input", inputLabel);
  document.set("module", response.moduleName);
  document.set("rows", rowsToJson(response.rows));
  return document;
}

support::JsonValue lockResponseDocument(const LockResponse& response) {
  support::JsonValue document;
  document.set("schema", "rtlock-lock-response/v1");
  document.set("generator", generatorTag());
  document.set("design_hash", response.designHash);
  support::JsonArray modules;
  modules.reserve(response.modules.size());
  for (const LockModuleSummary& summary : response.modules) {
    support::JsonValue entry;
    entry.set("module", summary.module);
    entry.set("lockable_ops", summary.lockableOps);
    entry.set("bits_used", summary.bitsUsed);
    entry.set("key_width", summary.keyWidth);
    entry.set("global_metric", summary.globalMetric);
    entry.set("restricted_metric", summary.restrictedMetric);
    modules.push_back(std::move(entry));
  }
  document.set("modules", support::JsonValue{std::move(modules)});
  document.set("key", keyFileToJson(response.key));
  document.set("locked_verilog", response.lockedVerilog);
  support::JsonArray notes;
  for (const std::string& note : response.notes) notes.push_back(support::JsonValue{note});
  document.set("notes", support::JsonValue{std::move(notes)});
  return document;
}

}  // namespace rtlock::service
