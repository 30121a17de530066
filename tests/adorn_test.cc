#include <gtest/gtest.h>

#include <set>

#include "src/cq/ic_check.h"
#include "src/engine/engine.h"
#include "src/eval/evaluator.h"
#include "src/parser/parser.h"
#include "src/sqo/adorn.h"
#include "src/sqo/query_tree.h"
#include "src/sqo/preprocess.h"
#include "src/workload/programs.h"

namespace sqod {
namespace {

[[maybe_unused]] Constraint IC(const std::string& text) {
  return ParseConstraint(text).take();
}

AdornmentEngine MakeEngine(const Program& p, std::vector<Constraint> ics) {
  LocalAtomInfo info = AnalyzeLocalAtoms(ics).take();
  return AdornmentEngine(NormalizeProgram(p), std::move(ics), info);
}

// The Section 4 running example: p = closure of a and b edges, with the IC
// that an a-edge cannot be followed by a b-edge.
TEST(AdornTest, Figure1AdornedPredicates) {
  AdornmentEngine engine = MakeEngine(MakeAbClosureProgram(), {MakeAbIc()});
  ASSERT_TRUE(engine.Run().ok());
  // Exactly the paper's p1, p2, p3.
  std::vector<int> adornments = engine.AdornmentsOf(InternPred("p"));
  EXPECT_EQ(adornments.size(), 3u);
  // Sizes of the triplet sets: p1 and p2 have one triplet, p3 has two.
  std::multiset<size_t> sizes;
  for (int ap : adornments) {
    sizes.insert(engine.apreds()[ap].adornment.size());
  }
  EXPECT_EQ(sizes, (std::multiset<size_t>{1, 1, 2}));
}

TEST(AdornTest, Figure1AdornedRules) {
  AdornmentEngine engine = MakeEngine(MakeAbClosureProgram(), {MakeAbIc()});
  ASSERT_TRUE(engine.Run().ok());
  // Exactly the paper's s1..s6: the combinations (r3 with p2), (r3 with p3)
  // are inconsistent and dropped.
  EXPECT_EQ(engine.arules().size(), 6u);
  // No adorned rule pairs an a-edge with the "b-then-a" closure p3 or with
  // the pure-b closure p2 (those would produce guaranteed-empty joins).
  for (const AdornedRule& ar : engine.arules()) {
    bool body_has_a = false;
    for (const Literal& l : ar.rule.body) {
      if (l.atom.pred() == InternPred("a")) body_has_a = true;
    }
    if (!body_has_a) continue;
    for (int b = 0; b < static_cast<int>(ar.rule.body.size()); ++b) {
      int sub = ar.subgoal_apred[b];
      if (sub == -1) continue;
      // The recursive p-subgoal under an a-edge must be the pure-a closure
      // (single-triplet adornment whose unmapped set is the b atom).
      const Adornment& a = engine.apreds()[sub].adornment;
      ASSERT_EQ(a.size(), 1u);
    }
  }
}

TEST(AdornTest, Figure1AdornedProgramIsEquivalent) {
  Program original = MakeAbClosureProgram();
  std::vector<Constraint> ics{MakeAbIc()};
  AdornmentEngine engine = MakeEngine(original, ics);
  ASSERT_TRUE(engine.Run().ok());
  Program p1 = engine.AdornedProgram();
  ASSERT_TRUE(p1.Validate().ok());

  Rng rng(3);
  Constraint e_ic = ParseConstraint(":- e0(X, Y), e1(Y, Z).").take();
  for (int trial = 0; trial < 5; ++trial) {
    Database edb = MakeColoredEdges(2, 12, 25, {e_ic}, &rng);
    // Rename e0/e1 to a/b (the generator emits e0, e1); the renamed
    // database satisfies the a/b composition IC by construction.
    Database ab;
    for (const auto& [pred, rel] : edb.relations()) {
      PredId target = PredName(pred) == "e0" ? InternPred("a")
                                             : InternPred("b");
      for (TupleRef t : rel.rows()) ab.Insert(target, t);
    }
    ASSERT_TRUE(SatisfiesAll(ab, ics));
    EXPECT_EQ(EvaluateQuery(original, ab).take(),
              EvaluateQuery(p1, ab).take())
        << "trial " << trial;
  }
}

TEST(AdornTest, NoIcsYieldsOneAdornmentPerPredicate) {
  AdornmentEngine engine = MakeEngine(MakeAbClosureProgram(), {});
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(engine.AdornmentsOf(InternPred("p")).size(), 1u);
  EXPECT_EQ(engine.arules().size(), 4u);
  // The single adornment is empty (no triplets).
  int ap = engine.AdornmentsOf(InternPred("p"))[0];
  EXPECT_TRUE(engine.apreds()[ap].adornment.empty());
}

TEST(AdornTest, WhollyUnsatisfiableRuleDropped) {
  // A rule that joins a and b in the forbidden pattern is never adorned.
  Program p = ParseProgram(R"(
    q(X) :- a(X, Y), b(Y, Z).
    q(X) :- a(X, Y).
    ?- q.
  )").take();
  AdornmentEngine engine = MakeEngine(p, {MakeAbIc()});
  ASSERT_TRUE(engine.Run().ok());
  EXPECT_EQ(engine.arules().size(), 1u);
}

TEST(AdornTest, RuleAdornmentHoldsEachTripletOnce) {
  // A_r is a set: a combined triplet reached through several choices of
  // subgoal candidates is recorded once, with the first provenance. Runs
  // over the E4 WideIc (widths 2..4) and colored-closure (2..4) families.
  std::vector<ColoredClosure> cases;
  for (int width = 2; width <= 4; ++width) {
    Constraint ic;
    for (int i = 0; i < width; ++i) {
      ic.body.push_back(Literal::Pos(
          Atom(i % 2 == 0 ? "a" : "b",
               {Term::Var("V" + std::to_string(i)),
                Term::Var("V" + std::to_string(i + 1))})));
    }
    cases.push_back({MakeAbClosureProgram(), {ic}});
  }
  for (int colors = 2; colors <= 4; ++colors) {
    Rng rng(77);
    cases.push_back(MakeColoredClosure(colors, colors, &rng));
  }
  for (size_t k = 0; k < cases.size(); ++k) {
    AdornmentEngine engine = MakeEngine(cases[k].program, cases[k].ics);
    ASSERT_TRUE(engine.Run().ok());
    for (const AdornedRule& ar : engine.arules()) {
      for (size_t i = 0; i < ar.rule_adornment.size(); ++i) {
        for (size_t j = i + 1; j < ar.rule_adornment.size(); ++j) {
          EXPECT_FALSE(ar.rule_adornment[i].SameAs(ar.rule_adornment[j]))
              << "case " << k << ": "
              << ar.rule_adornment[i].ToString(engine.ics());
        }
      }
    }
  }
}

TEST(AdornTest, GoodPathWithLocalIcsPushesThreshold) {
  // Section 3's headline example, end to end through the 4.2 rewriting and
  // the bottom-up phase: the adorned program must not explore paths that
  // start below the threshold when reached from goodPath.
  Program p = MakeGoodPathProgram();
  std::vector<Constraint> ics = MakeMonotoneIcs(100);
  LocalAtomInfo info = AnalyzeLocalAtoms(ics).take();
  Program rewritten =
      RewriteForLocalAtoms(NormalizeProgram(p), ics, info).take();
  AdornmentEngine engine(rewritten, ics, info);
  ASSERT_TRUE(engine.Run().ok());
  Program p1 = engine.AdornedProgram();

  // Evaluate on a consistent workload and compare against the original.
  Rng rng(11);
  GoodPathConfig config;
  config.nodes = 300;
  config.edges = 600;
  config.threshold = 100;
  Database edb = MakeGoodPathWorkload(config, &rng);
  auto original_answers = EvaluateQuery(p, edb).take();
  EvalStats p1_stats;
  auto rewritten_answers = EvaluateQuery(p1, edb, {}, &p1_stats).take();
  EXPECT_EQ(original_answers, rewritten_answers);
}

TEST(AdornTest, SafetyValveTriggers) {
  AdornOptions options;
  options.max_adorned_rules = 2;
  Program p = MakeAbClosureProgram();
  std::vector<Constraint> ics{MakeAbIc()};
  LocalAtomInfo info = AnalyzeLocalAtoms(ics).take();
  AdornmentEngine engine(NormalizeProgram(p), ics, info, options);
  Status status = engine.Run();
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  // The message names the valve that tripped, its limit, and its option.
  EXPECT_NE(status.message().find("adorned rules"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("limit of 2 "), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("AdornOptions::max_adorned_rules"),
            std::string::npos)
      << status.message();
}

TEST(AdornTest, OrderSummariesPropagateThreshold) {
  // The Section 3 pipeline: the adorned path predicate reached from
  // goodPath must carry the summary 100 <= P$0 (and monotonicity P$0 < P$1).
  Program p = MakeGoodPathProgram();
  std::vector<Constraint> ics = MakeMonotoneIcs(100);
  LocalAtomInfo info = AnalyzeLocalAtoms(ics).take();
  Program rewritten =
      RewriteForLocalAtoms(NormalizeProgram(p), ics, info).take();
  AdornmentEngine engine(rewritten, ics, info);
  ASSERT_TRUE(engine.Run().ok());

  bool found_thresholded_path = false;
  for (const AdornedPred& ap : engine.apreds()) {
    if (ap.original != InternPred("path")) continue;
    Comparison want(Term::Int(100), CmpOp::kLe, SummaryPlaceholder(0));
    if (std::find(ap.summary.begin(), ap.summary.end(), want.Canonical()) !=
        ap.summary.end()) {
      found_thresholded_path = true;
    }
  }
  EXPECT_TRUE(found_thresholded_path);
}

TEST(AdornTest, VariablesNamedPStayApartFromSummaryPlaceholders) {
  // Renaming a variable P apart yields P#<n>, and an optimizer run's fresh
  // names restart at P#0; the summary placeholders are P$<i>, so the two
  // never alias. The Section 3 program written over P/Q/R must keep the
  // threshold on both path rules and answer like the original.
  Engine engine;
  Session session = engine.Open(R"(
    path(P, Q) :- step(P, Q).
    path(P, Q) :- step(P, R), path(R, Q).
    goodPath(P, Q) :- startPoint(P), path(P, Q), endPoint(Q).
    :- startPoint(P), step(P, Q), P < 100.
    :- step(P, Q), P >= Q.
    ?- goodPath.
  )").take();
  const PreparedProgram* prepared = session.Prepare().value();
  int thresholded_path_rules = 0;
  for (const Rule& r : prepared->program().rules()) {
    if (PredName(r.head.pred()).rfind("path", 0) != 0) continue;
    for (const Comparison& c : r.comparisons) {
      if (c.lhs == Term::Int(100) || c.rhs == Term::Int(100)) {
        ++thresholded_path_rules;
        break;
      }
    }
  }
  EXPECT_EQ(thresholded_path_rules, 2);

  GoodPathConfig config;
  config.nodes = 300;
  config.edges = 1200;
  Rng rng(3);
  for (int trial = 0; trial < 3; ++trial) {
    Database edb = MakeGoodPathWorkload(config, &rng);
    std::vector<Tuple> expected = session.ExecuteOriginal(edb).take();
    EXPECT_FALSE(expected.empty());
    EXPECT_EQ(session.Execute(*prepared, edb).take(), expected)
        << "trial " << trial;
  }
}

TEST(AdornTest, InconsistentSummaryCombinationDropped) {
  // A recursive rule demanding X < Z cannot recurse into a branch whose
  // summary forces its first argument above any reachable value.
  Program p = ParseProgram(R"(
    down(X, Y) :- e(X, Y), X > Y, Y < 10.
    down(X, Y) :- e(X, Z), down(Z, Y), X > Z, X > 100.
    top(X, Y) :- down(X, Y), X < 5.
    ?- top.
  )").take();
  // No ICs at all: the pruning below is pure order propagation.
  LocalAtomInfo info = AnalyzeLocalAtoms({}).take();
  AdornmentEngine engine(NormalizeProgram(p), {}, info);
  ASSERT_TRUE(engine.Run().ok());
  // top demands X < 5 but down's recursive branch forces X > 100: the
  // query tree keeps only the base-case branch under top.
  QueryTree tree(engine);
  ASSERT_TRUE(tree.Build().ok());
  EXPECT_TRUE(tree.QuerySatisfiable());
}

TEST(AdornTest, DumpMentionsAdornedNames) {
  AdornmentEngine engine = MakeEngine(MakeAbClosureProgram(), {MakeAbIc()});
  ASSERT_TRUE(engine.Run().ok());
  std::string dump = engine.ToString();
  EXPECT_NE(dump.find("p@"), std::string::npos);
  EXPECT_NE(dump.find("ic0"), std::string::npos);
}

}  // namespace
}  // namespace sqod
