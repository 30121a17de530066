#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "src/eval/evaluator.h"
#include "src/parser/parser.h"
#include "src/sqo/optimizer.h"
#include "src/workload/programs.h"

namespace sqod {
namespace {

Constraint IC(const std::string& text) { return ParseConstraint(text).take(); }

TEST(OptimizerTest, Example31AttachesSelection) {
  // Example 3.1: the rewritten program carries the residue-derived
  // comparison on the goodPath rule.
  Program p = MakeGoodPathProgram();
  SqoReport report =
      OptimizeProgram(p, {MakeStartBeforeEndIc()}).take();
  ASSERT_TRUE(report.query_satisfiable);
  bool found = false;
  for (const Rule& r : report.rewritten.rules()) {
    bool has_start = false;
    for (const Literal& l : r.body) {
      if (l.atom.pred() == InternPred("startPoint")) has_start = true;
    }
    if (has_start && !r.comparisons.empty()) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(OptimizerTest, Example31Equivalence) {
  Program p = MakeGoodPathProgram();
  std::vector<Constraint> ics{MakeStartBeforeEndIc()};
  SqoReport report = OptimizeProgram(p, ics).take();
  Rng rng(5);
  for (int trial = 0; trial < 4; ++trial) {
    Database edb = MakeStartBeforeEndWorkload(40, 120, 5, 5, &rng);
    EXPECT_EQ(EvaluateQuery(p, edb).take(),
              EvaluateQuery(report.rewritten, edb).take())
        << "trial " << trial;
  }
}

TEST(OptimizerTest, Section3PushdownShapesProgram) {
  // The headline Section 3 rewriting: with ICs (1) and (2), the rewritten
  // program must confine path exploration to X >= 100 when reached from
  // goodPath. We verify behaviourally: evaluation work no longer scales
  // with the sub-threshold region.
  Program p = MakeGoodPathProgram();
  std::vector<Constraint> ics = MakeMonotoneIcs(100);
  SqoReport report = OptimizeProgram(p, ics).take();
  ASSERT_TRUE(report.query_satisfiable);

  Rng rng(23);
  GoodPathConfig config;
  config.nodes = 400;
  config.edges = 1200;
  config.threshold = 100;  // nodes 0..99 are skippable
  Database edb = MakeGoodPathWorkload(config, &rng);

  EvalStats original_stats, rewritten_stats;
  auto a = EvaluateQuery(p, edb, {}, &original_stats).take();
  auto b = EvaluateQuery(report.rewritten, edb, {}, &rewritten_stats).take();
  EXPECT_EQ(a, b);
  // The rewritten program derives strictly fewer intermediate tuples (it
  // skips every path fact rooted below the threshold).
  EXPECT_LT(rewritten_stats.tuples_derived, original_stats.tuples_derived);
}

TEST(OptimizerTest, Section3EquivalenceOnConsistentDbs) {
  Program p = MakeGoodPathProgram();
  std::vector<Constraint> ics = MakeMonotoneIcs(50);
  SqoReport report = OptimizeProgram(p, ics).take();
  Rng rng(29);
  for (int trial = 0; trial < 3; ++trial) {
    GoodPathConfig config;
    config.nodes = 120;
    config.edges = 300;
    config.threshold = 50;
    Database edb = MakeGoodPathWorkload(config, &rng);
    EXPECT_EQ(EvaluateQuery(p, edb).take(),
              EvaluateQuery(report.rewritten, edb).take())
        << "trial " << trial;
  }
}

TEST(OptimizerTest, Figure1RewrittenProgram) {
  SqoReport report =
      OptimizeProgram(MakeAbClosureProgram(), {MakeAbIc()}).take();
  EXPECT_EQ(report.adorned_predicates, 3);
  EXPECT_EQ(report.adorned_rules, 6);
  EXPECT_EQ(report.tree_classes, 3);
  EXPECT_EQ(report.surviving_classes, 3);
}

TEST(OptimizerTest, P1ModeSkipsTree) {
  SqoOptions options;
  options.disabled_passes.push_back("tree");
  SqoReport report =
      OptimizeProgram(MakeAbClosureProgram(), {MakeAbIc()}, options).take();
  EXPECT_EQ(report.tree_classes, 0);
  EXPECT_FALSE(report.rewritten.rules().empty());
}

TEST(OptimizerTest, QuasiLocalOrderIcAccepted) {
  // A non-local order atom is handled by the quasi-local machinery.
  auto result = OptimizeProgram(MakeAbClosureProgram(),
                                {IC(":- a(X, Y), b(Y, Z), X < Z.")});
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_TRUE(result.value().query_satisfiable);
}

TEST(OptimizerTest, QuasiLocalEntailmentPrunes) {
  // The rule asserts X < Z outright, so the IC's non-local order atom is
  // entailed at the rule node where both atoms are mapped: the rule dies.
  Program p = ParseProgram(R"(
    q(X) :- a(X, Y), b(Y, Z), X < Z.
    ?- q.
  )").take();
  EXPECT_FALSE(
      QuerySatisfiable(p, {IC(":- a(X, Y), b(Y, Z), X < Z.")}).take());
  // With the order atom unprovable, the rule survives.
  Program p2 = ParseProgram(R"(
    q(X) :- a(X, Y), b(Y, Z).
    ?- q.
  )").take();
  EXPECT_TRUE(
      QuerySatisfiable(p2, {IC(":- a(X, Y), b(Y, Z), X < Z.")}).take());
}

TEST(OptimizerTest, RejectsNonLocalNegatedIc) {
  auto result = OptimizeProgram(
      MakeAbClosureProgram(), {IC(":- a(X, Y), b(Z, W), !c(X, W).")});
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("not local"), std::string::npos);
}

TEST(OptimizerTest, RejectsIdbInIc) {
  auto result =
      OptimizeProgram(MakeAbClosureProgram(), {IC(":- p(X, Y).")});
  EXPECT_FALSE(result.ok());
}

TEST(QuerySatisfiableTest, BasicCases) {
  Program dead = ParseProgram(R"(
    q(X) :- a(X, Y), b(Y, Z).
    ?- q.
  )").take();
  EXPECT_FALSE(QuerySatisfiable(dead, {MakeAbIc()}).take());
  EXPECT_TRUE(QuerySatisfiable(dead, {}).take());
}

TEST(QuerySatisfiableTest, RecursiveUnsatisfiability) {
  // q needs an a-edge followed (possibly deep) by a b-closure step.
  Program p = ParseProgram(R"(
    tc(X, Y) :- b(X, Y).
    tc(X, Y) :- b(X, Z), tc(Z, Y).
    q(X, Y) :- a(X, Z), tc(Z, Y).
    ?- q.
  )").take();
  EXPECT_FALSE(QuerySatisfiable(p, {MakeAbIc()}).take());
}

TEST(QueryReachableTest, Figure1Reachability) {
  // In the a/b closure under the IC, p itself is reachable.
  Program p = MakeAbClosureProgram();
  Atom goal = ParseAtomText("p(U, V)").take();
  EXPECT_TRUE(QueryReachableAtom(p, {MakeAbIc()}, goal).take());
}

TEST(QueryReachableTest, DeadGoalIsUnreachable) {
  Program p = ParseProgram(R"(
    dead(X) :- a(X, Y), b(Y, Z).
    live(X) :- a(X, Y).
    q(X) :- live(X).
    q(X) :- dead(X).
    ?- q.
  )").take();
  EXPECT_FALSE(
      QueryReachableAtom(p, {MakeAbIc()}, ParseAtomText("dead(U)").take())
          .take());
  EXPECT_TRUE(
      QueryReachableAtom(p, {MakeAbIc()}, ParseAtomText("live(U)").take())
          .take());
}

TEST(QueryReachableTest, EdbReachability) {
  Program p = ParseProgram(R"(
    q(X) :- a(X, Y), c(Y, Z).
    ?- q.
  )").take();
  EXPECT_TRUE(
      QueryReachableAtom(p, {MakeAbIc()}, ParseAtomText("c(U, V)").take())
          .take());
  EXPECT_FALSE(
      QueryReachableAtom(p, {MakeAbIc()}, ParseAtomText("b(U, V)").take())
          .take());
}

TEST(OptimizerTest, ReportDumpsAreNonEmpty) {
  SqoOptions options;
  options.capture_dumps = true;
  SqoReport report =
      OptimizeProgram(MakeAbClosureProgram(), {MakeAbIc()}, options).take();
  EXPECT_FALSE(report.adornment_dump.empty());
  EXPECT_FALSE(report.tree_dump.empty());
}

TEST(OptimizerTest, DumpsAreOffByDefault) {
  SqoReport report =
      OptimizeProgram(MakeAbClosureProgram(), {MakeAbIc()}).take();
  EXPECT_TRUE(report.adornment_dump.empty());
  EXPECT_TRUE(report.tree_dump.empty());
  EXPECT_TRUE(report.tree_dot.empty());
}

TEST(OptimizerTest, RepeatedRunsDrawTheSameFreshNames) {
  // Fresh names are scoped to one run, so optimizing the same input twice
  // yields textually equal rewritings (not merely alpha-equivalent ones).
  Program p = MakeAbClosureProgram();
  SqoReport first = OptimizeProgram(p, {MakeAbIc()}).take();
  SqoReport second = OptimizeProgram(p, {MakeAbIc()}).take();
  EXPECT_EQ(first.rewritten.ToString(), second.rewritten.ToString());
}

TEST(FreshVarGenConcurrencyTest, ConcurrentRunsOnDistinctPrograms) {
  // Service workers optimize concurrently: each run draws run-scoped fresh
  // names on its own thread, while code outside any run draws from the
  // process-wide counters. Every rewriting must stay equivalent to its
  // original, and the process-wide names must never repeat.
  constexpr int kThreads = 4;
  constexpr int kPrograms = 6;
  constexpr int kNamesPerProgram = 40;
  std::vector<int> failures(kThreads, 0);
  std::vector<std::vector<Term>> global_names(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&failures, &global_names, t] {
      Rng rng(100 + t);
      FreshVarGen gen;
      for (int i = 0; i < kPrograms; ++i) {
        ColoredClosure cc = MakeColoredClosure(3, 1 + (t + i) % 4, &rng);
        Result<SqoReport> report = OptimizeProgram(cc.program, cc.ics);
        Database edb = MakeColoredEdges(3, 30, 60, cc.ics, &rng);
        if (!report.ok() ||
            EvaluateQuery(cc.program, edb).take() !=
                EvaluateQuery(report.value().rewritten, edb).take()) {
          ++failures[t];
        }
        for (int k = 0; k < kNamesPerProgram; ++k) {
          global_names[t].push_back(gen.NextLike("G"));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  std::set<VarId> distinct;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
    for (const Term& name : global_names[t]) distinct.insert(name.var());
  }
  EXPECT_EQ(distinct.size(),
            static_cast<size_t>(kThreads * kPrograms * kNamesPerProgram));
}

}  // namespace
}  // namespace sqod
