// `rtlock serve` — run the lock/attack/eval service daemon.
//
// Thin wrapper: flag parsing here, everything else in service::Server (the
// accept loop + worker pool) and service::Dispatcher (routing, JSON, error
// mapping).  The daemon owns one content-hash SessionCache shared across
// workers, so repeated requests against the same netlist skip the
// parse/verify/compile pipeline entirely (docs/SERVING.md).
//
// Lifecycle: binds immediately (--port=0 picks an ephemeral port), prints
// "listening on HOST:PORT" on stderr once ready, then serves until SIGINT/
// SIGTERM (graceful drain: in-flight requests finish, exit 0) or
// --max-requests connections have been accepted (smoke tests and CI use
// this to run a bounded, self-terminating daemon).
#include "campaign/runner.hpp"
#include "cli/common.hpp"
#include "service/server.hpp"

namespace rtlock::cli {

int runServeCommand(const service::FieldValues& flags, CommandIo& io) {

  service::ServeOptions options;
  options.host = flags.text("host");
  options.port = flags.integer("port");
  options.threads = flags.integer("threads");
  options.queueCapacity = flags.count("queue");
  options.requestDeadlineMs = static_cast<double>(flags.count("deadline-ms"));
  options.cacheBytes = flags.count("cache-mb") * 1024 * 1024;
  options.maxBodyBytes = flags.count("max-body-mb") * 1024 * 1024;
  options.maxRequests = flags.count("max-requests");
  options.socketTimeoutMs = static_cast<double>(flags.count("socket-timeout-ms"));

  service::Server server{options};
  // SIGINT/SIGTERM set the shared shutdown flag the accept loop polls; the
  // drain finishes in-flight requests before run() returns.
  const campaign::ScopedSignalHandlers signalGuard;
  io.err << "listening on " << options.host << ":" << server.port() << "\n";
  io.err.flush();
  const int status = server.run();
  const service::Dispatcher::Stats stats = server.dispatcher().stats();
  io.err << "served " << stats.requests << " request(s) (" << stats.ok << " ok, "
         << stats.clientErrors << " client error(s), " << stats.serverErrors
         << " server error(s)), " << server.rejectedConnections() << " rejected\n";
  return status;
}

}  // namespace rtlock::cli
