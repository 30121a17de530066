// Experiment E4 — Theorem 5.1's complexity shape.
//
// Satisfiability (and the full rewriting) via the query-tree construction
// has doubly exponential worst-case cost. We sweep the number of
// composition ICs over a k-colored closure program and report the growth of
// the adornment sets, the adorned rule count, and wall time. The shape to
// observe: super-polynomial growth in the number of ICs / colors.

#include "bench/bench_common.h"

namespace sqod {
namespace {

void BM_E4_AdornmentGrowthWithIcs(benchmark::State& state) {
  const int colors = 3;
  const int num_ics = static_cast<int>(state.range(0));
  Rng rng(1000 + num_ics);
  ColoredClosure cc = MakeColoredClosure(colors, num_ics, &rng);
  SqoOptions options;
  options.adorn.max_adorned_preds = 100000;
  options.adorn.max_adorned_rules = 1000000;
  options.tree.max_classes = 200000;
  SqoReport last;
  for (auto _ : state) {
    last = MustOptimize(cc.program, cc.ics, options, &state);
    benchmark::DoNotOptimize(last);
  }
  state.counters["adorned_preds"] = last.adorned_predicates;
  state.counters["adorned_rules"] = last.adorned_rules;
  state.counters["tree_classes"] = last.tree_classes;
}

void BM_E4_AdornmentGrowthWithColors(benchmark::State& state) {
  const int colors = static_cast<int>(state.range(0));
  // One forbidden composition per color pair (i, i+1 mod colors).
  Rng rng(77);
  ColoredClosure cc = MakeColoredClosure(colors, colors, &rng);
  SqoOptions options;
  options.adorn.max_adorned_preds = 100000;
  options.adorn.max_adorned_rules = 1000000;
  options.tree.max_classes = 200000;
  SqoReport last;
  for (auto _ : state) {
    last = MustOptimize(cc.program, cc.ics, options, &state);
    benchmark::DoNotOptimize(last);
  }
  state.counters["adorned_preds"] = last.adorned_predicates;
  state.counters["adorned_rules"] = last.adorned_rules;
}

// Wider ICs (3 atoms) stress the per-IC mapping enumeration.
void BM_E4_WideIc(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  Program p = MakeAbClosureProgram();
  // IC: a chain of `width` alternating edges is forbidden.
  Constraint ic;
  for (int i = 0; i < width; ++i) {
    const char* pred = (i % 2 == 0) ? "a" : "b";
    ic.body.push_back(Literal::Pos(
        Atom(pred, {Term::Var("V" + std::to_string(i)),
                    Term::Var("V" + std::to_string(i + 1))})));
  }
  SqoOptions options;
  options.adorn.max_adorned_preds = 100000;
  options.adorn.max_adorned_rules = 1000000;
  options.tree.max_classes = 200000;
  SqoReport last;
  for (auto _ : state) {
    last = MustOptimize(p, {ic}, options, &state);
    benchmark::DoNotOptimize(last);
  }
  state.counters["adorned_preds"] = last.adorned_predicates;
  state.counters["adorned_rules"] = last.adorned_rules;
}

// ColoredClosure evaluation in perfbench's colored3 shape (one composition
// IC, 150 nodes, 450 edges) for 2..4 colours: the original program P, the
// paper's P' (overlapping adorned copies plus copy rules), and the program
// a session serves (P' lowered, src/sqo/lower.h).
enum class ColoredSide { kOriginal, kRewritten, kServed };

void ColoredEval(benchmark::State& state, ColoredSide side) {
  const int colors = static_cast<int>(state.range(0));
  Rng rng(20261016u + colors);
  ColoredClosure cc = MakeColoredClosure(colors, 1, &rng);
  Database edb = MakeColoredEdges(colors, 150, 450, cc.ics, &rng);
  Program program = cc.program;
  if (side != ColoredSide::kOriginal) {
    PreparedProgram prepared = MustPrepare(cc.program, cc.ics);
    program = side == ColoredSide::kServed ? prepared.program()
                                           : prepared.report.rewritten;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunAndReport(program, edb, state));
  }
}

void BM_E4_ColoredEval_Original(benchmark::State& state) {
  ColoredEval(state, ColoredSide::kOriginal);
}
void BM_E4_ColoredEval_Rewritten(benchmark::State& state) {
  ColoredEval(state, ColoredSide::kRewritten);
}
void BM_E4_ColoredEval_Served(benchmark::State& state) {
  ColoredEval(state, ColoredSide::kServed);
}

BENCHMARK(BM_E4_AdornmentGrowthWithIcs)->DenseRange(0, 5)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E4_AdornmentGrowthWithColors)->DenseRange(1, 4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E4_WideIc)->DenseRange(2, 5)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E4_ColoredEval_Original)->DenseRange(2, 4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E4_ColoredEval_Rewritten)->DenseRange(2, 4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E4_ColoredEval_Served)->DenseRange(2, 4)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sqod
