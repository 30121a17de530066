// Experiment E8 — the substrate.
//
// The speedups of E1-E3 are only meaningful if the underlying evaluator is
// a credible datalog engine: semi-naive iteration over hash-indexed joins.
// These rows track its cost on random graphs and on long chains, where
// every path length is one delta round.

#include "bench/bench_common.h"
#include "src/parser/parser.h"

namespace sqod {
namespace {

Program Closure() {
  return ParseProgram(R"(
    path(X, Y) :- e(X, Y).
    path(X, Y) :- e(X, Z), path(Z, Y).
    ?- path.
  )").take();
}

void BM_E8_SemiNaiveIndexed(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  Rng rng(21);
  Database edb = MakeRandomGraph(nodes, nodes * 2, &rng, "e");
  Program p = Closure();
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunAndReport(p, edb, state));
  }
}

void BM_E8_ChainDepth(benchmark::State& state) {
  // Long chains stress the iteration count (one delta round per length).
  const int n = static_cast<int>(state.range(0));
  Database edb = MakeChain(n, "e");
  Program p = Closure();
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunAndReport(p, edb, state));
  }
}

BENCHMARK(BM_E8_SemiNaiveIndexed)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E8_ChainDepth)->Arg(50)->Arg(100)->Arg(200)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sqod
