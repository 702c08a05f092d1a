#include "service/dispatch.hpp"

#include <chrono>
#include <utility>

#include "campaign/runner.hpp"
#include "service/build_info.hpp"
#include "service/schema.hpp"
#include "support/json.hpp"

namespace rtlock::service {

namespace {

void requireSource(const std::string& source) {
  if (source.empty()) throw BadRequest{"field 'source' (the Verilog netlist text) is required"};
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

  const support::JsonValue body = support::parseJson(request.body);
  campaign::CellContext deadline;
  deadline.deadlineMs = options_.requestDeadlineMs;
  deadline.start = std::chrono::steady_clock::now();

  HttpResponse response;
  if (request.target == "/v1/lock") {
    const LockRequest lockRequest = lockRequestFrom(decodeJson(schemaFor("lock"), body));
    requireSource(lockRequest.source);
    const LockResponse result = runLock(cache_, lockRequest, &deadline);
    response.body = lockResponseDocument(result).dump();
    response.extraHeaders.emplace_back("X-Rtlock-Cache", result.cacheHit ? "hit" : "miss");
    response.extraHeaders.emplace_back("X-Rtlock-Design-Hash", result.designHash);
    return response;
  }

  if (request.target == "/v1/attack") {
    const FieldValues values = decodeJson(schemaFor("attack"), body);
    AttackRequest attackRequest = attackRequestFrom(values);
    requireSource(attackRequest.source);
    if (const support::JsonValue* key = values.document("key")) {
      attackRequest.key = keyFileFromJson(*key);
    }
    attackRequest.threads = options_.requestThreads;
    const AttackResponse result = runAttack(cache_, attackRequest, &deadline);
    response.body = attackReportDocument(attackRequest, result, values.text("label")).dump();
    response.extraHeaders.emplace_back("X-Rtlock-Cache", result.cacheHit ? "hit" : "miss");
    response.extraHeaders.emplace_back("X-Rtlock-Design-Hash", result.designHash);
    return response;
  }

  // With `manifest` the body follows `rtlock work`'s table: this server
  // becomes one worker of a distributed campaign, claims cells from the
  // shared manifest, journals locally, and answers with the merged
  // fleet-wide report once every cell is done.
  const FieldValues values =
      decodeJson(schemaFor(body.find("manifest") != nullptr ? "work" : "eval"), body);
  EvalRequest evalRequest = evalRequestFrom(values);
  requireSource(evalRequest.source);
  evalRequest.campaign.threads = options_.requestThreads;
  evalRequest.campaign.cellDeadlineMs = options_.requestDeadlineMs;
  const EvalResponse result = runEval(cache_, evalRequest);
  if (result.campaign.interrupted) {
    return errorResponse(503, "campaign interrupted by server shutdown");
  }
  if (!result.campaign.allDone()) {
    return errorResponse(504, "fleet not converged: manifest cells still unfinished after " +
                                  std::to_string(static_cast<long long>(evalRequest.maxWaitMs)) +
                                  " ms without progress");
  }
  support::JsonValue document = evalReportDocument(result, values.text("label"));
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
