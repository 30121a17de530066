// Experiment E2 — the Section 3 headline rewriting (ICs (1) and (2)).
//
//   :- startPoint(X), step(X, Y), X < threshold.
//   :- step(X, Y), X >= Y.
//
// The rewritten program is exactly the paper's r1'/r2'/r3': path
// exploration is confined to X >= threshold, skipping every path rooted in
// the sub-threshold region. We sweep (a) the database size at a fixed
// skippable fraction and (b) the skippable fraction at a fixed size; the
// win should grow with the skippable fraction. (c) prices the rewriting
// itself at the fraction rows' thresholds.

#include "bench/bench_common.h"

namespace sqod {
namespace {

Database MakeDb(int nodes, int threshold, uint64_t seed) {
  Rng rng(seed);
  GoodPathConfig config;
  config.nodes = nodes;
  config.edges = nodes * 3;
  config.num_start = 25;
  config.num_end = 25;
  config.threshold = threshold;
  return MakeGoodPathWorkload(config, &rng);
}

// Size sweep: half of the nodes are below the threshold.
void BM_E2_Original_Size(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  Program p = MakeGoodPathProgram();
  Database edb = MakeDb(nodes, nodes / 2, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunAndReport(p, edb, state));
  }
}

void BM_E2_Rewritten_Size(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  Program p = MakeGoodPathProgram();
  Program served = MustPrepare(p, MakeMonotoneIcs(nodes / 2)).program();
  Database edb = MakeDb(nodes, nodes / 2, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunAndReport(served, edb, state));
  }
}

// Fraction sweep at 1000 nodes: threshold = range(0) percent of the nodes.
void BM_E2_Original_Fraction(benchmark::State& state) {
  const int nodes = 1000;
  const int threshold = nodes * static_cast<int>(state.range(0)) / 100;
  Program p = MakeGoodPathProgram();
  Database edb = MakeDb(nodes, threshold, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunAndReport(p, edb, state));
  }
}

void BM_E2_Rewritten_Fraction(benchmark::State& state) {
  const int nodes = 1000;
  const int threshold = nodes * static_cast<int>(state.range(0)) / 100;
  Program p = MakeGoodPathProgram();
  Program served = MustPrepare(p, MakeMonotoneIcs(threshold)).program();
  Database edb = MakeDb(nodes, threshold, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunAndReport(served, edb, state));
  }
}

// (c) One PrepareProgram (optimize, lower, compile) of goodPath per
// iteration, at the threshold of BM_E2_*_Fraction/range(0). Counters, per
// prepare, from the sqo/phase/* gauges: adorn_us is the adornment pass,
// optimize_us the whole pass pipeline (every phase but lowering and plan
// compile, as EXPLAIN's optimize time).
void BM_E2_PrepareCost(benchmark::State& state) {
  const int threshold = 1000 * static_cast<int>(state.range(0)) / 100;
  const Program p = MakeGoodPathProgram();
  const std::vector<Constraint> ics = MakeMonotoneIcs(threshold);
  MetricsRegistry metrics;
  SqoOptions options;
  options.metrics = &metrics;
  int64_t adorn_ns = 0;
  int64_t optimize_ns = 0;
  for (auto _ : state) {
    Result<PreparedProgram> prepared = PrepareProgram(p, ics, options);
    if (!prepared.ok() || !prepared.value().fallback.ok()) {
      state.SkipWithError("goodPath was not rewritten");
      return;
    }
    for (const auto& [name, gauge] : metrics.gauges()) {
      if (name.rfind("sqo/phase/", 0) != 0 || name == "sqo/phase/lower_ns" ||
          name == "sqo/phase/plan_compile_ns") {
        continue;
      }
      optimize_ns += gauge->value();
      if (name == "sqo/phase/adorn_ns") adorn_ns += gauge->value();
    }
  }
  const double prepares = static_cast<double>(state.iterations());
  state.counters["adorn_us"] = adorn_ns / 1e3 / prepares;
  state.counters["optimize_us"] = optimize_ns / 1e3 / prepares;
}

BENCHMARK(BM_E2_Original_Size)->Arg(250)->Arg(500)->Arg(1000)->Arg(2000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E2_Rewritten_Size)->Arg(250)->Arg(500)->Arg(1000)->Arg(2000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E2_Original_Fraction)->Arg(0)->Arg(30)->Arg(60)->Arg(90)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E2_Rewritten_Fraction)->Arg(0)->Arg(30)->Arg(60)->Arg(90)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E2_PrepareCost)->Arg(0)->Arg(30)->Arg(60)->Arg(90)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace sqod
