// Experiment E13 — the network front-end under multi-connection load.
//
// A real sqo_server (in-process, loopback TCP, ephemeral port) is driven
// by N concurrent client connections, each pipelining a batch of Figure-1
// queries over the wire protocol. The sweep crosses connection count with
// worker-thread count; items_per_second is end-to-end requests per second
// (frame encode -> TCP -> poll thread -> worker pool -> reply frame), and
// the latency counters are the server-side end-to-end distribution
// (tenant/default/latency_ns), where transport queueing shows up as a
// p99/max gap. BM_E13_SerialWire isolates the per-request wire overhead
// (compare against BM_E11_WarmService, the same warm path without TCP);
// BM_E13_DeltaStream measures streamed view maintenance over the wire.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/net/client.h"
#include "src/net/server.h"

namespace sqod {
namespace {

std::string MakeFigure1Source(int nodes) {
  std::ostringstream out;
  out << "p(X, Y) :- a(X, Y).\n"
         "p(X, Y) :- b(X, Y).\n"
         "p(X, Y) :- a(X, Z), p(Z, Y).\n"
         "p(X, Y) :- b(X, Z), p(Z, Y).\n"
         ":- a(X, Y), b(Y, Z).\n";
  const int half = nodes / 2;
  for (int i = 0; i < half; ++i) {
    out << "b(" << i << ", " << i + 1 << ").\n";
  }
  for (int i = half; i < nodes - 1; ++i) {
    out << "a(" << i << ", " << i + 1 << ").\n";
  }
  out << "?- p.\n";
  return out.str();
}

void ReportServerTails(Server& server, benchmark::State& state) {
  HistogramSnapshot latency =
      server.metrics().GetHistogram("tenant/default/latency_ns")->Snapshot();
  state.counters["lat_p50_ns"] = static_cast<double>(latency.p50());
  state.counters["lat_p95_ns"] = static_cast<double>(latency.p95());
  state.counters["lat_p99_ns"] = static_cast<double>(latency.p99());
  state.counters["lat_max_ns"] = static_cast<double>(latency.max);
}

// connections x worker threads; every connection pipelines its whole batch
// before collecting, so the server sees connections*batch requests in
// flight at once.
void BM_E13_MultiConnection(benchmark::State& state) {
  const int connections = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  constexpr int kPerConnection = 16;
  const std::string source = MakeFigure1Source(128);

  ServerOptions options;
  options.service.threads = threads;
  Server server(std::move(options));
  if (!server.Start().ok()) {
    state.SkipWithError("server start failed");
    return;
  }

  ClientOptions client_options;
  client_options.port = server.port();
  std::vector<Client> clients;
  clients.reserve(static_cast<size_t>(connections));
  for (int i = 0; i < connections; ++i) {
    Result<Client> connected = Client::Connect(client_options);
    if (!connected.ok()) {
      state.SkipWithError("connect failed");
      return;
    }
    clients.push_back(std::move(connected.value()));
  }

  // Warm the session and the prepared plan; the loop measures steady-state
  // serving over the wire, not the one-off optimization.
  {
    QueryParams warm;
    warm.source = source;
    Result<Response> response = clients[0].Query(warm);
    if (!response.ok() || !response.value().status.ok()) {
      state.SkipWithError("warmup failed");
      return;
    }
  }

  for (auto _ : state) {
    std::vector<std::thread> drivers;
    drivers.reserve(clients.size());
    std::atomic<int> errors{0};
    for (Client& client : clients) {
      drivers.emplace_back([&client, &errors, &source] {
        QueryParams params;
        params.source = source;
        std::vector<uint64_t> ids;
        ids.reserve(kPerConnection);
        for (int i = 0; i < kPerConnection; ++i) {
          Result<uint64_t> sent = client.SendQuery(params);
          if (!sent.ok()) {
            errors.fetch_add(1);
            return;
          }
          ids.push_back(sent.value());
        }
        for (uint64_t id : ids) {
          Result<ServerMessage> reply = client.WaitFor(id);
          if (!reply.ok() || !reply.value().status.ok()) {
            errors.fetch_add(1);
            return;
          }
          benchmark::DoNotOptimize(reply.value().query.answers.size());
        }
      });
    }
    for (std::thread& driver : drivers) driver.join();
    if (errors.load() != 0) {
      state.SkipWithError("request failed");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * connections * kPerConnection);
  state.counters["connections"] = connections;
  state.counters["threads"] = threads;
  state.counters["frames_out"] = static_cast<double>(
      server.metrics().GetCounter("net/frames_out")->value());
  ReportServerTails(server, state);
  for (Client& client : clients) client.Close();
  server.Stop();
}

// One connection, strictly serial round trips: the wire protocol's
// per-request overhead on the warm path. The second argument is the
// protocol version; 2 (binary answer blocks) is the only one left, and the
// row keeps its name so results stay comparable with earlier runs.
// BM_E11_WarmService is the same request without the network; the delta is
// answer encode/decode + framing + TCP + poll-thread dispatch + callback
// delivery.
void BM_E13_SerialWire(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  const int version = static_cast<int>(state.range(1));
  const std::string source = MakeFigure1Source(nodes);
  // The Figure-1 chain's closure: every ordered pair of distinct nodes.
  const size_t expected_answers =
      static_cast<size_t>(nodes) * static_cast<size_t>(nodes - 1) / 2;
  ServerOptions options;
  options.service.threads = 1;
  Server server(std::move(options));
  if (!server.Start().ok()) {
    state.SkipWithError("server start failed");
    return;
  }
  ClientOptions client_options;
  client_options.port = server.port();
  client_options.max_version = version;
  Result<Client> connected = Client::Connect(client_options);
  if (!connected.ok() || connected.value().hello().version != version) {
    state.SkipWithError("connect failed");
    return;
  }
  Client& client = connected.value();
  QueryParams params;
  params.source = source;
  if (!client.Query(params).ok()) {
    state.SkipWithError("warmup failed");
    return;
  }
  for (auto _ : state) {
    Result<Response> response = client.Query(params);
    if (!response.ok() || !response.value().status.ok() ||
        response.value().answers.size() != expected_answers) {
      state.SkipWithError("request failed");
      return;
    }
    benchmark::DoNotOptimize(response.value().answers.data());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["version"] = version;
  HistogramSnapshot bytes =
      server.metrics().GetHistogram("net/reply_bytes")->Snapshot();
  state.counters["reply_bytes"] = static_cast<double>(bytes.max);
  ReportServerTails(server, state);
  client.Close();
  server.Stop();
}

// Streamed view maintenance over the wire: a named session, then a long
// alternating insert/delete delta stream against its materialized view.
// Every reply carries the advanced snapshot version; items are batches.
void BM_E13_DeltaStream(benchmark::State& state) {
  const std::string source = MakeFigure1Source(64);
  ServerOptions options;
  options.service.threads = 1;
  Server server(std::move(options));
  if (!server.Start().ok()) {
    state.SkipWithError("server start failed");
    return;
  }
  ClientOptions client_options;
  client_options.port = server.port();
  Result<Client> connected = Client::Connect(client_options);
  if (!connected.ok()) {
    state.SkipWithError("connect failed");
    return;
  }
  Client& client = connected.value();
  Result<Response> loaded = client.LoadProgram("view", source);
  if (!loaded.ok() || !loaded.value().status.ok()) {
    state.SkipWithError("load failed");
    return;
  }
  // Materialize the view before timing.
  QueryParams params;
  params.session = "view";
  if (!client.Query(params).ok()) {
    state.SkipWithError("materialize failed");
    return;
  }
  int64_t version = 0;
  bool insert = true;
  for (auto _ : state) {
    // One fresh b-edge appended to the chain head, then removed again the
    // next batch: bounded state, every batch touches the fixpoint.
    Result<DeltaResponse> response =
        insert ? client.ApplyDelta("view", {"b(1000, 0)"}, {})
               : client.ApplyDelta("view", {}, {"b(1000, 0)"});
    insert = !insert;
    if (!response.ok() || !response.value().status.ok()) {
      state.SkipWithError("delta failed");
      return;
    }
    if (response.value().snapshot_version <= version) {
      state.SkipWithError("snapshot version did not advance");
      return;
    }
    version = response.value().snapshot_version;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["final_version"] = static_cast<double>(version);
  client.Close();
  server.Stop();
}

BENCHMARK(BM_E13_MultiConnection)
    ->ArgsProduct({{1, 2, 4, 8}, {1, 4}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E13_SerialWire)
    ->ArgsProduct({{16, 128}, {kProtoVersionMax}})
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_E13_DeltaStream)->UseRealTime()->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace sqod
