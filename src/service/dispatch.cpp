#include "service/dispatch.hpp"

#include <chrono>
#include <utility>

#include "campaign/runner.hpp"
#include "service/build_info.hpp"
#include "support/json.hpp"

namespace rtlock::service {

namespace {

/// JSON field access that blames the caller: a missing key falls back, a
/// present key of the wrong shape is a BadRequest naming the field.
[[nodiscard]] std::string stringField(const support::JsonValue& body, std::string_view key,
                                      std::string fallback) {
  const support::JsonValue* value = body.find(key);
  if (value == nullptr) return fallback;
  if (!value->isString()) throw BadRequest{"field '" + std::string{key} + "' must be a string"};
  return value->asString();
}

[[nodiscard]] bool boolField(const support::JsonValue& body, std::string_view key, bool fallback) {
  const support::JsonValue* value = body.find(key);
  if (value == nullptr) return fallback;
  if (!value->isBool()) throw BadRequest{"field '" + std::string{key} + "' must be a boolean"};
  return value->asBool();
}

[[nodiscard]] std::uint64_t u64Field(const support::JsonValue& body, std::string_view key,
                                     std::uint64_t fallback) {
  const support::JsonValue* value = body.find(key);
  if (value == nullptr) return fallback;
  try {
    const std::int64_t number = value->asInt();
    if (number < 0) throw support::Error{"negative"};
    return static_cast<std::uint64_t>(number);
  } catch (const support::Error&) {
    throw BadRequest{"field '" + std::string{key} + "' must be a non-negative integer"};
  }
}

[[nodiscard]] int intField(const support::JsonValue& body, std::string_view key, int fallback) {
  const std::uint64_t value =
      u64Field(body, key, static_cast<std::uint64_t>(fallback));
  if (value > 1'000'000'000) {
    throw BadRequest{"field '" + std::string{key} + "' is out of range"};
  }
  return static_cast<int>(value);
}

[[nodiscard]] support::JsonValue parseBody(const HttpRequest& request) {
  try {
    support::JsonValue body = support::parseJson(request.body);
    if (!body.isObject()) throw BadRequest{"request body must be a JSON object"};
    return body;
  } catch (const BadRequest&) {
    throw;
  } catch (const support::Error& error) {
    // Covers syntax errors and invalid UTF-8: the JSON layer is strict.
    throw BadRequest{std::string{"request body is not valid JSON: "} + error.what()};
  }
}

/// Seeds accept both spellings: a JSON array of integers or the CLI's list
/// string ("1,2,7", "1..5").
[[nodiscard]] std::vector<std::uint64_t> seedsField(const support::JsonValue& body) {
  const support::JsonValue* value = body.find("seeds");
  if (value == nullptr) return {1};
  if (value->isString()) return parseSeedList(value->asString());
  if (value->isArray()) {
    if (value->asArray().size() > kMaxSeeds) {
      throw BadRequest{"field 'seeds' lists more than " + std::to_string(kMaxSeeds) + " seeds"};
    }
    std::vector<std::uint64_t> seeds;
    for (const support::JsonValue& entry : value->asArray()) {
      try {
        const std::int64_t seed = entry.asInt();
        if (seed < 0) throw support::Error{"negative"};
        seeds.push_back(static_cast<std::uint64_t>(seed));
      } catch (const support::Error&) {
        throw BadRequest{"field 'seeds' entries must be non-negative integers"};
      }
    }
    if (seeds.empty()) throw BadRequest{"no seeds listed"};
    return seeds;
  }
  throw BadRequest{"field 'seeds' must be a list string or an integer array"};
}

[[nodiscard]] std::vector<lock::Algorithm> algosField(const support::JsonValue& body) {
  const support::JsonValue* value = body.find("algos");
  if (value == nullptr) return algorithmListFromNames("serial,hra,era");
  if (value->isString()) return algorithmListFromNames(value->asString());
  if (value->isArray()) {
    std::vector<lock::Algorithm> algorithms;
    for (const support::JsonValue& entry : value->asArray()) {
      if (!entry.isString()) throw BadRequest{"field 'algos' entries must be strings"};
      algorithms.push_back(algorithmFromName(entry.asString()));
    }
    if (algorithms.empty()) throw BadRequest{"no algorithms listed"};
    return algorithms;
  }
  throw BadRequest{"field 'algos' must be a list string or a string array"};
}

[[nodiscard]] std::string requiredSource(const support::JsonValue& body) {
  const support::JsonValue* source = body.find("source");
  if (source == nullptr || !source->isString() || source->asString().empty()) {
    throw BadRequest{"field 'source' (the Verilog netlist text) is required"};
  }
  return source->asString();
}

[[nodiscard]] HttpResponse errorResponse(int status, const std::string& message) {
  support::JsonValue document;
  document.set("error", message);
  document.set("status", status);
  HttpResponse response;
  response.status = status;
  response.body = document.dump();
  return response;
}

}  // namespace

Dispatcher::Dispatcher(SessionCache& cache) : Dispatcher(cache, Options{}) {}

Dispatcher::Dispatcher(SessionCache& cache, Options options)
    : cache_(cache), options_(options) {}

HttpResponse Dispatcher::handle(const HttpRequest& request) {
  ++requests_;
  HttpResponse response;
  try {
    response = route(request);
  } catch (const BadRequest& error) {
    response = errorResponse(400, error.what());
  } catch (const campaign::CellTimeout& error) {
    response = errorResponse(504, error.what());
  } catch (const support::Error& error) {
    // Every input the service consumes arrives in the request body, so an
    // unusable design/key is the caller's fault, not the server's.
    response = errorResponse(400, error.what());
  } catch (const std::exception& error) {
    response = errorResponse(500, error.what());
  }
  if (response.status >= 500) {
    ++serverErrors_;
  } else if (response.status >= 400) {
    ++clientErrors_;
  } else {
    ++ok_;
  }
  return response;
}

HttpResponse Dispatcher::route(const HttpRequest& request) {
  const bool isGet = request.method == "GET";
  const bool isPost = request.method == "POST";
  if (!isGet && !isPost) return errorResponse(405, "unsupported method " + request.method);

  if (request.target == "/healthz") {
    if (!isGet) return errorResponse(405, "use GET for /healthz");
    support::JsonValue document;
    document.set("status", "ok");
    document.set("version", buildInfo().version);
    document.set("engine", engineVersionTag());
    support::JsonArray backends;
    for (const std::string& backend : buildInfo().simBackends) {
      backends.push_back(support::JsonValue{backend});
    }
    document.set("sim_backends", support::JsonValue{std::move(backends)});
    HttpResponse response;
    response.body = document.dump();
    return response;
  }

  if (request.target == "/v1/stats") {
    if (!isGet) return errorResponse(405, "use GET for /v1/stats");
    const SessionCache::Stats cacheStats = cache_.stats();
    support::JsonValue cacheDoc;
    cacheDoc.set("hits", cacheStats.hits);
    cacheDoc.set("misses", cacheStats.misses);
    cacheDoc.set("evictions", cacheStats.evictions);
    cacheDoc.set("entries", static_cast<std::uint64_t>(cacheStats.entries));
    cacheDoc.set("bytes", static_cast<std::uint64_t>(cacheStats.bytes));
    cacheDoc.set("byte_budget", static_cast<std::uint64_t>(cacheStats.byteBudget));
    const Stats requestStats = stats();
    support::JsonValue requestsDoc;
    requestsDoc.set("total", requestStats.requests);
    requestsDoc.set("ok", requestStats.ok);
    requestsDoc.set("client_errors", requestStats.clientErrors);
    requestsDoc.set("server_errors", requestStats.serverErrors);
    support::JsonValue document;
    document.set("cache", std::move(cacheDoc));
    document.set("requests", std::move(requestsDoc));
    HttpResponse response;
    response.body = document.dump();
    return response;
  }

  if (request.target != "/v1/lock" && request.target != "/v1/attack" &&
      request.target != "/v1/eval") {
    return errorResponse(404, "no such endpoint " + request.target);
  }
  if (!isPost) return errorResponse(405, "use POST for " + request.target);

  const support::JsonValue body = parseBody(request);
  const std::string label = stringField(body, "label", "<request>");
  SessionOptions sessionOptions;
  sessionOptions.keyPortName = stringField(body, "key_port", sessionOptions.keyPortName);

  campaign::CellContext deadline;
  deadline.deadlineMs = options_.requestDeadlineMs;
  deadline.start = std::chrono::steady_clock::now();

  HttpResponse response;
  if (request.target == "/v1/lock") {
    LockRequest lockRequest;
    lockRequest.source = requiredSource(body);
    lockRequest.session = sessionOptions;
    lockRequest.algorithm = algorithmFromName(stringField(body, "algo", "era"));
    lockRequest.budget = parseBudget(stringField(body, "budget", "75%"));
    lockRequest.seed = u64Field(body, "seed", 1);
    lockRequest.emitBanner = !boolField(body, "no_banner", false);
    lockRequest.inputLabel = label;
    const LockResponse result = runLock(cache_, lockRequest, &deadline);
    response.body = lockResponseDocument(result).dump();
    response.extraHeaders.emplace_back("X-Rtlock-Cache", result.cacheHit ? "hit" : "miss");
    response.extraHeaders.emplace_back("X-Rtlock-Design-Hash", result.designHash);
    return response;
  }

  if (request.target == "/v1/attack") {
    AttackRequest attackRequest;
    attackRequest.source = requiredSource(body);
    attackRequest.session = sessionOptions;
    attackRequest.moduleName = stringField(body, "module", "");
    if (const support::JsonValue* key = body.find("key")) {
      attackRequest.key = keyFileFromJson(*key);
    }
    attackRequest.rounds = intField(body, "rounds", 1000);
    attackRequest.relockBudget = parseBudget(stringField(body, "relock_budget", "75%"));
    attackRequest.folds = intField(body, "folds", 3);
    attackRequest.extendedFeatures = boolField(body, "extended_features", false);
    attackRequest.repeats = intField(body, "repeats", 1);
    attackRequest.seed = u64Field(body, "seed", 1);
    attackRequest.threads = options_.requestThreads;
    attackRequest.includeWall = !boolField(body, "no_wall", false);
    const AttackResponse result = runAttack(cache_, attackRequest, &deadline);
    response.body = attackReportDocument(attackRequest, result, label).dump();
    response.extraHeaders.emplace_back("X-Rtlock-Cache", result.cacheHit ? "hit" : "miss");
    response.extraHeaders.emplace_back("X-Rtlock-Design-Hash", result.designHash);
    return response;
  }

  EvalRequest evalRequest;
  evalRequest.source = requiredSource(body);
  evalRequest.session = sessionOptions;
  evalRequest.moduleName = stringField(body, "module", "");
  evalRequest.algorithms = algosField(body);
  evalRequest.seeds = seedsField(body);
  evalRequest.samples = intField(body, "samples", 10);
  evalRequest.rounds = intField(body, "rounds", 1000);
  evalRequest.budget = parseBudget(stringField(body, "budget", "75%"));
  evalRequest.folds = intField(body, "folds", 3);
  evalRequest.extendedFeatures = boolField(body, "extended_features", false);
  evalRequest.campaign.threads = options_.requestThreads;
  evalRequest.campaign.cellDeadlineMs = options_.requestDeadlineMs;
  evalRequest.includeWall = !boolField(body, "no_wall", false);
  // Manifest mode: this server becomes one worker of a distributed
  // campaign — claim cells from the shared manifest, journal locally, and
  // answer with the merged fleet-wide report once every cell is done.
  evalRequest.manifestPath = stringField(body, "manifest", "");
  if (!evalRequest.manifestPath.empty()) {
    evalRequest.workerId = stringField(body, "worker_id", "");
    evalRequest.journalPath = stringField(body, "journal", "");
    evalRequest.leaseMs = static_cast<double>(u64Field(body, "lease_ms", 60000));
    evalRequest.pollMs = static_cast<double>(u64Field(body, "poll_ms", 50));
    if (evalRequest.pollMs <= 0.0) throw BadRequest{"poll_ms must be > 0"};
    evalRequest.maxWaitMs = static_cast<double>(u64Field(body, "max_wait_ms", 0));
  }
  const EvalResponse result = runEval(cache_, evalRequest);
  if (result.campaign.interrupted) {
    return errorResponse(503, "campaign interrupted by server shutdown");
  }
  if (!result.campaign.allDone()) {
    return errorResponse(504, "fleet not converged: manifest cells still unfinished after " +
                                  std::to_string(static_cast<long long>(evalRequest.maxWaitMs)) +
                                  " ms without progress");
  }
  support::JsonValue document = evalReportDocument(result, label);
  if (!result.cellErrors.empty()) {
    support::JsonArray errors;
    for (const std::string& line : result.cellErrors) {
      errors.push_back(support::JsonValue{line});
    }
    document.set("cell_errors", support::JsonValue{std::move(errors)});
  }
  response.body = document.dump();
  response.extraHeaders.emplace_back("X-Rtlock-Cache", result.cacheHit ? "hit" : "miss");
  response.extraHeaders.emplace_back("X-Rtlock-Design-Hash", result.designHash);
  return response;
}

Dispatcher::Stats Dispatcher::stats() const {
  Stats stats;
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.ok = ok_.load(std::memory_order_relaxed);
  stats.clientErrors = clientErrors_.load(std::memory_order_relaxed);
  stats.serverErrors = serverErrors_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace rtlock::service
