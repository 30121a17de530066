// Experiment E2 — the Section 3 headline rewriting (ICs (1) and (2)).
//
//   :- startPoint(X), step(X, Y), X < threshold.
//   :- step(X, Y), X >= Y.
//
// The rewritten program is exactly the paper's r1'/r2'/r3': path
// exploration is confined to X >= threshold, skipping every path rooted in
// the sub-threshold region. We sweep (a) the database size at a fixed
// skippable fraction and (b) the skippable fraction at a fixed size; the
// win should grow with the skippable fraction.

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

BENCHMARK(BM_E2_Original_Size)->Arg(250)->Arg(500)->Arg(1000)->Arg(2000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E2_Rewritten_Size)->Arg(250)->Arg(500)->Arg(1000)->Arg(2000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E2_Original_Fraction)->Arg(0)->Arg(30)->Arg(60)->Arg(90)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E2_Rewritten_Fraction)->Arg(0)->Arg(30)->Arg(60)->Arg(90)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sqod
