// sqo_server — the network front-end as a standalone daemon.
//
// Binds a TCP port and serves the length-prefixed JSON wire protocol
// (docs/protocol.md) over the concurrent QueryService: multi-tenant
// sessions, per-tenant admission quotas, named long-lived sessions with
// incremental view maintenance, and per-tenant metrics.
//
//   usage: sqo_server [--host=H] [--port=N] [--threads=N] [--max-queue=Q]
//                     [--token=NAME:TOKEN[:QUOTA] ...] [--slow-ms=S]
//                     [--metrics-snapshot-ms=M] [--max-frame-bytes=B]
//                     [--drain-log=FILE]
//
//     --host=H      bind address (default 127.0.0.1)
//     --port=N      TCP port; 0 (the default) picks an ephemeral port.
//                   The resolved port is announced on stdout as
//                   "listening on port N" once the server is accepting
//     --threads=N   request worker threads (default 4)
//     --max-queue=Q admission queue bound (default 256)
//     --token=NAME:TOKEN[:QUOTA]  register a tenant (repeatable): clients
//                   presenting TOKEN in their hello run in namespace NAME
//                   with at most QUOTA requests in flight (0 or omitted =
//                   unlimited). With no --token flags the server is open:
//                   every client lands in tenant "default"
//     --slow-ms=S   slow-query log threshold (default off)
//     --metrics-snapshot-ms=M  periodic metric-delta events (default off)
//     --max-frame-bytes=B  per-frame payload ceiling (default 4 MiB)
//     --drain-log=FILE  where a graceful drain writes the retained event
//                   log, one JSON object per line (default stderr)
//
// SIGTERM and SIGINT begin a graceful drain: stop accepting, finish every
// in-flight request, flush the replies and the event log, then exit 0.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "src/net/server.h"

namespace {

sqod::Server* g_server = nullptr;

// Async-signal-safe: RequestDrain is one write(2) to the wake pipe.
void HandleSignal(int) {
  if (g_server != nullptr) g_server->RequestDrain();
}

// Parses NAME:TOKEN[:QUOTA]; false on malformed input.
bool ParseTenantFlag(const char* spec, sqod::TenantConfig* out) {
  const char* colon1 = std::strchr(spec, ':');
  if (colon1 == nullptr || colon1 == spec) return false;
  out->name.assign(spec, colon1);
  const char* token = colon1 + 1;
  const char* colon2 = std::strchr(token, ':');
  if (colon2 == nullptr) {
    out->token = token;
    out->max_inflight = 0;
    return !out->token.empty();
  }
  if (colon2 == token) return false;
  out->token.assign(token, colon2);
  char* end = nullptr;
  long quota = std::strtol(colon2 + 1, &end, 10);
  if (end == colon2 + 1 || *end != '\0' || quota < 0) return false;
  out->max_inflight = static_cast<int>(quota);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sqod;

  ServerOptions options;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--host=", 7) == 0) {
      options.host = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--port=", 7) == 0) {
      options.port = static_cast<uint16_t>(std::atoi(argv[i] + 7));
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      options.service.threads = std::atoi(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--max-queue=", 12) == 0) {
      options.service.max_queue =
          static_cast<size_t>(std::atoll(argv[i] + 12));
    } else if (std::strncmp(argv[i], "--token=", 8) == 0) {
      TenantConfig tenant;
      if (!ParseTenantFlag(argv[i] + 8, &tenant)) {
        std::fprintf(stderr,
                     "malformed %s (expected --token=NAME:TOKEN[:QUOTA])\n",
                     argv[i]);
        return 2;
      }
      options.tenants.push_back(std::move(tenant));
    } else if (std::strncmp(argv[i], "--slow-ms=", 10) == 0) {
      options.service.slow_query_ms = std::atoll(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--metrics-snapshot-ms=", 22) == 0) {
      options.service.metrics_snapshot_ms = std::atoll(argv[i] + 22);
    } else if (std::strncmp(argv[i], "--max-frame-bytes=", 18) == 0) {
      options.max_frame_bytes =
          static_cast<size_t>(std::atoll(argv[i] + 18));
    } else if (std::strncmp(argv[i], "--drain-log=", 12) == 0) {
      options.drain_log_path = argv[i] + 12;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--host=H] [--port=N] [--threads=N] "
                   "[--max-queue=Q] [--token=NAME:TOKEN[:QUOTA] ...] "
                   "[--slow-ms=S] [--metrics-snapshot-ms=M] "
                   "[--max-frame-bytes=B] [--drain-log=FILE]\n",
                   argv[0]);
      return 2;
    }
  }

  Server server(std::move(options));
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start failed [%s]: %s\n",
                 StatusCodeName(started.code()),
                 started.message().c_str());
    return 1;
  }

  g_server = &server;
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = HandleSignal;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);

  // The announce line is the readiness signal: tests and scripts parse it
  // for the resolved ephemeral port.
  std::printf("listening on port %u\n",
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  server.Wait();
  g_server = nullptr;
  return 0;
}
