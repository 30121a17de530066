// Experiment E3 — the Section 4 running example and Figure 1.
//
// Program: p = transitive closure of a- and b-edges.
// IC:      :- a(X, Y), b(Y, Z).   (an a-edge may not be followed by a b-edge)
//
// The rewritten program is the paper's s1..s6: three adorned predicates
// (a-closure, b-closure, b-then-a paths), never attempting to extend an
// a-path with a b-edge ("saving the effort involved in performing joins
// that are guaranteed to be empty"). This binary also prints the query
// tree, regenerating Figure 1 (see the --print_tree run in EXPERIMENTS.md,
// and the figure1 counters here: 3 classes, 6 rule nodes).

#include <cstdio>

#include "bench/bench_common.h"
#include "src/cq/ic_check.h"
#include "src/parser/parser.h"

namespace sqod {
namespace {

Database MakeAbDb(int nodes, int edges, uint64_t seed) {
  Rng rng(seed);
  Constraint e_ic = ParseConstraint(":- e0(X, Y), e1(Y, Z).").take();
  Database colored = MakeColoredEdges(2, nodes, edges, {e_ic}, &rng);
  Database ab;
  for (const auto& [pred, rel] : colored.relations()) {
    PredId target = PredName(pred) == "e0" ? InternPred("a") : InternPred("b");
    for (TupleRef t : rel.rows()) ab.Insert(target, t);
  }
  return ab;
}

void BM_E3_Original(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  Program p = MakeAbClosureProgram();
  Database edb = MakeAbDb(nodes, nodes * 2, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunAndReport(p, edb, state));
  }
}

void BM_E3_Rewritten(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  Program p = MakeAbClosureProgram();
  Program served = MustPrepare(p, {MakeAbIc()}).program();
  Database edb = MakeAbDb(nodes, nodes * 2, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunAndReport(served, edb, state));
  }
}

// The paper's P' itself, on the same indexed evaluator. The served program
// lowers P' back to P's own four rules (BM_E3_Rewritten), so this row is
// the only one that runs the paper's three adorned predicates s1..s6.
void BM_E3_PaperRewriting(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  Program p = MakeAbClosureProgram();
  SqoReport report = MustOptimize(p, {MakeAbIc()});
  Database edb = MakeAbDb(nodes, nodes * 2, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunAndReport(report.rewritten, edb, state));
  }
}

// The Figure 1 construction itself: adornments + query tree.
void BM_E3_QueryTreeConstruction(benchmark::State& state) {
  Program p = MakeAbClosureProgram();
  std::vector<Constraint> ics{MakeAbIc()};
  SqoReport last;
  for (auto _ : state) {
    last = MustOptimize(p, ics);
    benchmark::DoNotOptimize(last);
  }
  state.counters["adorned_preds"] = last.adorned_predicates;
  state.counters["adorned_rules"] = last.adorned_rules;
  state.counters["tree_classes"] = last.tree_classes;
}

BENCHMARK(BM_E3_Original)->Arg(64)->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E3_Rewritten)->Arg(64)->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E3_PaperRewriting)->Arg(64)->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E3_QueryTreeConstruction)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace sqod

// Prints the reproduced Figure 1 before the benchmark table.
int main(int argc, char** argv) {
  {
    using namespace sqod;
    SqoOptions fig_options;
    fig_options.capture_dumps = true;
    SqoReport report =
        MustOptimize(MakeAbClosureProgram(), {MakeAbIc()}, fig_options);
    std::printf("=== Figure 1: the final query tree ===\n%s\n",
                report.tree_dump.c_str());
    std::printf("=== Rewritten program (the paper's s1..s6) ===\n%s\n",
                report.rewritten.ToString().c_str());
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
