// Experiment E9 — SQO machinery ablation.
//
// Section 3's argument: per-rule residue analysis (classic SQO, CGM88)
// cannot push the threshold of IC (1) into the recursion — only the
// query-tree algorithm can. We compare four levels of optimization on the
// Section 3 workload:
//   none      — the original program,
//   classic   — per-rule residues only,
//   p1        — the bottom-up adorned program (no query tree),
//   full      — the complete pipeline (query tree + residue attachment).
// The p1 and full rows evaluate the served program (P' lowered).

#include "bench/bench_common.h"
#include "src/sqo/residue.h"

namespace sqod {
namespace {

constexpr int kNodes = 1200;
constexpr int kThreshold = 600;  // half the nodes are skippable

Database MakeDb(uint64_t seed) {
  Rng rng(seed);
  GoodPathConfig config;
  config.nodes = kNodes;
  config.edges = kNodes * 3;
  config.num_start = 25;
  config.num_end = 25;
  config.threshold = kThreshold;
  return MakeGoodPathWorkload(config, &rng);
}

void BM_E9_None(benchmark::State& state) {
  Program p = MakeGoodPathProgram();
  Database edb = MakeDb(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunAndReport(p, edb, state));
  }
}

void BM_E9_Classic(benchmark::State& state) {
  Program p = ApplyClassicSqo(MakeGoodPathProgram(),
                              MakeMonotoneIcs(kThreshold));
  Database edb = MakeDb(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunAndReport(p, edb, state));
  }
}

void BM_E9_P1Only(benchmark::State& state) {
  SqoOptions options;
  options.disabled_passes = {"tree", "residues"};
  Program served = MustPrepare(MakeGoodPathProgram(),
                               MakeMonotoneIcs(kThreshold), options)
                       .program();
  Database edb = MakeDb(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunAndReport(served, edb, state));
  }
}

void BM_E9_Full(benchmark::State& state) {
  Program served =
      MustPrepare(MakeGoodPathProgram(), MakeMonotoneIcs(kThreshold))
          .program();
  Database edb = MakeDb(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunAndReport(served, edb, state));
  }
}

BENCHMARK(BM_E9_None)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E9_Classic)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E9_P1Only)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E9_Full)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sqod
