// Experiment E11 — throughput scaling of the concurrent serving layer.
//
// A batch of identical Figure-1 requests (the Section 4 a/b closure with
// its IC) is pushed through the QueryService at 1, 2, 4, and 8 worker
// threads. The session is parsed and the Levy–Sagiv pipeline run exactly
// once (single-flight prepare, warmed before the timing loop), so the
// measured region is pure serving: admission, dispatch, per-request EDB
// materialization, and evaluation of the rewritten program. items_per_second
// is requests served per second; the scaling claim for EXPERIMENTS.md is
// >1.5x at 4 threads over 1.

#include <benchmark/benchmark.h>

#include <future>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/service/query_service.h"

namespace sqod {
namespace {

// The Figure-1 unit over a chain of `nodes` nodes: b-edges on the first
// half, a-edges on the second, so the IC (no a-edge followed by a b-edge)
// holds and the rewriting's pruned closure is exercised on a database with
// O(nodes^2) path tuples.
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

void BM_E11_ServeBatch(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  constexpr int kNodes = 192;
  constexpr int kRequests = 32;
  const std::string source = MakeFigure1Source(kNodes);

  ServiceOptions options;
  options.threads = threads;
  QueryService service(options);

  // Warm the session and the prepared-program cache: the timing loop then
  // measures steady-state serving, not the one-off optimization cost.
  {
    Request warm;
    warm.source = source;
    Response response = service.Call(std::move(warm));
    if (!response.status.ok()) {
      state.SkipWithError(response.status.message().c_str());
      return;
    }
  }

  for (auto _ : state) {
    std::vector<std::future<Response>> futures;
    futures.reserve(kRequests);
    for (int i = 0; i < kRequests; ++i) {
      Request request;
      request.source = source;
      futures.push_back(service.Submit(std::move(request)));
    }
    for (std::future<Response>& future : futures) {
      Response response = future.get();
      if (!response.status.ok()) {
        state.SkipWithError(response.status.message().c_str());
        return;
      }
      benchmark::DoNotOptimize(response.answers.size());
    }
  }
  state.SetItemsProcessed(state.iterations() * kRequests);
  state.counters["threads"] = threads;
  state.counters["pipeline_runs"] = static_cast<double>(
      service.metrics().GetCounter("engine/pipeline_runs")->value());
  // One-off bytecode lowering cost, paid at Prepare time. Stays constant
  // while pipeline_runs stays at 1: the compiled artifact is cached with
  // the prepared program, never re-lowered per request.
  state.counters["compile_ns"] = static_cast<double>(
      service.metrics().GetCounter("eval/compile_ns")->value());
  // Latency tails, not just the mean: the serving claim is about the
  // distribution under contention, and the p99/max gap is where queueing
  // shows up.
  HistogramSnapshot execute =
      service.metrics().GetHistogram("service/execute_ns")->Snapshot();
  state.counters["lat_p50_ns"] = static_cast<double>(execute.p50());
  state.counters["lat_p95_ns"] = static_cast<double>(execute.p95());
  state.counters["lat_p99_ns"] = static_cast<double>(execute.p99());
  state.counters["lat_max_ns"] = static_cast<double>(execute.max);
}

// The baseline a serving layer replaces: every request pays the full cold
// path — parse the unit, run the optimizer pipeline, evaluate. Contrast
// with BM_E11_WarmService below, where the session and prepared program are
// shared single-flight and each request only evaluates. The ratio is the
// amortization win of the serving layer and is independent of core count
// (unlike the thread-scaling numbers above, which need >1 online CPU).
void BM_E11_ColdSessionBaseline(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  const std::string source = MakeFigure1Source(nodes);
  for (auto _ : state) {
    Engine engine;
    Session session = engine.Open(source).take();
    const PreparedProgram* prepared = session.Prepare().value();
    Database edb = session.MakeEdb();
    benchmark::DoNotOptimize(session.Execute(*prepared, edb).take());
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_E11_WarmService(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  const std::string source = MakeFigure1Source(nodes);
  ServiceOptions options;
  options.threads = 1;  // isolate amortization from parallelism
  QueryService service(options);
  {
    Request warm;
    warm.source = source;
    Response response = service.Call(std::move(warm));
    if (!response.status.ok()) {
      state.SkipWithError(response.status.message().c_str());
      return;
    }
  }
  for (auto _ : state) {
    Request request;
    request.source = source;
    Response response = service.Call(std::move(request));
    if (!response.status.ok()) {
      state.SkipWithError(response.status.message().c_str());
      return;
    }
    benchmark::DoNotOptimize(response.answers.size());
  }
  state.SetItemsProcessed(state.iterations());
  HistogramSnapshot execute =
      service.metrics().GetHistogram("service/execute_ns")->Snapshot();
  state.counters["lat_p50_ns"] = static_cast<double>(execute.p50());
  state.counters["lat_p95_ns"] = static_cast<double>(execute.p95());
  state.counters["lat_p99_ns"] = static_cast<double>(execute.p99());
  state.counters["lat_max_ns"] = static_cast<double>(execute.max);
  state.counters["compile_ns"] = static_cast<double>(
      service.metrics().GetCounter("eval/compile_ns")->value());
}

// The same batch submitted with an already-expired deadline: an upper bound
// on the service's per-request overhead (queue round-trip + bookkeeping,
// no evaluation).
void BM_E11_RejectOverhead(benchmark::State& state) {
  constexpr int kRequests = 32;
  const std::string source = MakeFigure1Source(16);
  ServiceOptions options;
  options.threads = 4;
  QueryService service(options);
  for (auto _ : state) {
    std::vector<std::future<Response>> futures;
    futures.reserve(kRequests);
    for (int i = 0; i < kRequests; ++i) {
      Request request;
      request.source = source;
      request.deadline_ms = 0;
      futures.push_back(service.Submit(std::move(request)));
    }
    for (std::future<Response>& future : futures) {
      benchmark::DoNotOptimize(future.get().status.code());
    }
  }
  state.SetItemsProcessed(state.iterations() * kRequests);
}

BENCHMARK(BM_E11_ServeBatch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E11_ColdSessionBaseline)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_E11_WarmService)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_E11_RejectOverhead)->UseRealTime()->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace sqod
