// Experiment E1 — Example 3.1 of the paper.
//
// Program: goodPath over a recursive path closure.
// IC:      :- startPoint(X), endPoint(Y), Y <= X.
// The rewriting attaches the residue-derived selection Y > X to the
// goodPath rule. The paper's claim: "by applying the selection Y > X to
// path(X, Y), we can reduce the cost of evaluating rule r3". We sweep the
// database size and report wall time plus work counters for the original
// and the rewritten program.

#include "bench/bench_common.h"

namespace sqod {
namespace {

Database MakeDb(int nodes, uint64_t seed) {
  Rng rng(seed);
  // Generous start/end sets so that the goodPath join (rule r3, the one the
  // residue Y > X filters) is a visible share of the total work.
  return MakeStartBeforeEndWorkload(nodes, nodes * 3, /*num_start=*/nodes / 8,
                                    /*num_end=*/nodes / 8, &rng);
}

void BM_E1_Original(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  Program p = MakeGoodPathProgram();
  Database edb = MakeDb(nodes, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunAndReport(p, edb, state));
  }
}

void BM_E1_Rewritten(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  Program p = MakeGoodPathProgram();
  Program served = MustPrepare(p, {MakeStartBeforeEndIc()}).program();
  Database edb = MakeDb(nodes, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunAndReport(served, edb, state));
  }
}

void BM_E1_OptimizationCost(benchmark::State& state) {
  Program p = MakeGoodPathProgram();
  std::vector<Constraint> ics{MakeStartBeforeEndIc()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(MustOptimize(p, ics));
  }
}

BENCHMARK(BM_E1_Original)->Arg(125)->Arg(250)->Arg(500)->Arg(1000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E1_Rewritten)->Arg(125)->Arg(250)->Arg(500)->Arg(1000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E1_OptimizationCost)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace sqod
