// The lowering step between the optimizer's P′ and bytecode
// (src/sqo/lower.h): the shapes it serves for the paper's examples, its
// decisions as EXPLAIN reports them, and (ServedCostTest) the contract
// that motivates it — the served program never derives more tuples or
// fires more rules than the original program P.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/ast/substitution.h"
#include "src/engine/engine.h"
#include "src/parser/parser.h"
#include "src/sqo/lower.h"
#include "src/sqo/optimizer.h"
#include "src/workload/graphs.h"
#include "src/workload/programs.h"
#include "tests/reference_eval.h"

namespace sqod {
namespace {

bool HasAdornedPredicate(const Program& program) {
  for (const Rule& rule : program.rules()) {
    if (PredName(rule.head.pred()).find('@') != std::string::npos) {
      return true;
    }
    for (const Literal& l : rule.body) {
      if (PredName(l.atom.pred()).find('@') != std::string::npos) {
        return true;
      }
    }
  }
  return false;
}

struct LoweringInput {
  Program program;
  std::vector<Constraint> ics;
};

LoweredProgram Lower(const Program& program,
                     const std::vector<Constraint>& ics) {
  SqoReport report = OptimizeProgram(program, ics).take();
  return LowerProgram(report);
}

const LoweredProgram::Merge* FindMerge(const LoweredProgram& lowered,
                                       const std::string& pred) {
  for (const LoweredProgram::Merge& m : lowered.merged) {
    if (m.pred == pred) return &m;
  }
  return nullptr;
}

TEST(LowerTest, Figure1LowersToTheOriginalFourRules) {
  Program p = MakeAbClosureProgram();
  SqoReport report = OptimizeProgram(p, {MakeAbIc()}).take();
  LoweredProgram lowered = LowerProgram(report);
  // P′ is the paper's: three adorned copies plus three copy rules.
  EXPECT_EQ(report.rewritten.rules().size(), 9u);
  EXPECT_EQ(lowered.rules_before, 9);
  EXPECT_EQ(lowered.program.rules().size(), 4u) << lowered.program.ToString();
  EXPECT_FALSE(HasAdornedPredicate(lowered.program));
  const LoweredProgram::Merge* merge = FindMerge(lowered, "p");
  ASSERT_NE(merge, nullptr);
  EXPECT_EQ(merge->copies, 3);
  EXPECT_FALSE(merge->rename);
  EXPECT_TRUE(lowered.dropped.empty());
  EXPECT_TRUE(lowered.kept.empty());
  EXPECT_EQ(lowered.program.query(), p.query());
}

TEST(LowerTest, ColoredClosureLowersToTheOriginalSixRules) {
  Rng rng(20261016u);
  ColoredClosure cc = MakeColoredClosure(3, 1, &rng);
  LoweredProgram lowered = Lower(cc.program, cc.ics);
  EXPECT_GT(lowered.rules_before, 6);
  EXPECT_EQ(lowered.program.rules().size(), 6u) << lowered.program.ToString();
  EXPECT_FALSE(HasAdornedPredicate(lowered.program));
  ASSERT_NE(FindMerge(lowered, "p"), nullptr);
}

// Section 3's program: the query copy is renamed, the residue of
// :- step(X, Y), X >= Y is dropped (step's own atom implies it), and the
// threshold residue keeps path adorned.
TEST(LowerTest, GoodPathRenamesDropsAndKeepsTheThresholdResidue) {
  LoweredProgram lowered = Lower(MakeGoodPathProgram(), MakeMonotoneIcs(0));
  const LoweredProgram::Merge* merge = FindMerge(lowered, "goodPath");
  ASSERT_NE(merge, nullptr);
  EXPECT_TRUE(merge->rename);
  EXPECT_EQ(merge->copies, 1);

  bool dropped_recursive = false;
  for (const LoweredProgram::Drop& d : lowered.dropped) {
    EXPECT_EQ(d.ic_index, 1) << d.ic;
    dropped_recursive |= d.comparison == "Q#0 < Z#0";
  }
  EXPECT_TRUE(dropped_recursive) << lowered.ToText();

  ASSERT_EQ(lowered.kept.size(), 1u) << lowered.ToText();
  EXPECT_EQ(lowered.kept[0].pred, "path");
  ASSERT_EQ(lowered.kept[0].copies.size(), 1u);
  EXPECT_EQ(lowered.kept[0].copies[0].rfind("path@1", 0), 0u);
  EXPECT_NE(lowered.kept[0].reason.find("0 <= Q#0"), std::string::npos);

  // The query binds path@1's first argument: demand (c) guards path@1's
  // two rules with the magic predicate of its start points.
  ASSERT_EQ(lowered.demand.size(), 1u) << lowered.ToText();
  const LoweredProgram::Demand& demand = lowered.demand[0];
  EXPECT_TRUE(demand.reason.empty()) << demand.reason;
  ASSERT_EQ(demand.preds.size(), 1u);
  EXPECT_EQ(demand.preds[0].rfind("path@1", 0), 0u);
  EXPECT_EQ(demand.adornments, std::vector<std::string>{"bf"});
  EXPECT_EQ(demand.seeds, 1);
  EXPECT_EQ(demand.propagations, 1);
  EXPECT_EQ(demand.guarded, 2);

  // Served: goodPath's one rule (no copy rule), path's two, each still
  // carrying 0 <= Q#0 and a magic guard, the seed from startPoint and the
  // propagation rule along step, which carries the residue too.
  const Program& served = lowered.program;
  ASSERT_EQ(served.rules().size(), 5u) << served.ToString();
  int threshold_residues = 0, guarded = 0, magic = 0;
  for (const Rule& rule : served.rules()) {
    const std::string& head = PredName(rule.head.pred());
    if (head == "goodPath") {
      EXPECT_EQ(rule.body.size(), 3u);
      continue;
    }
    if (head.rfind("m@", 0) == 0) {
      ++magic;
      if (rule.body.size() == 1) {
        EXPECT_EQ(PredName(rule.body[0].atom.pred()), "startPoint");
        EXPECT_TRUE(rule.comparisons.empty()) << rule.ToString();
        continue;
      }
    } else {
      guarded += PredName(rule.body[0].atom.pred()).rfind("m@", 0) == 0;
    }
    ASSERT_EQ(rule.comparisons.size(), 1u) << rule.ToString();
    threshold_residues += rule.comparisons[0].ToString() == "0 <= Q#0";
  }
  EXPECT_EQ(threshold_residues, 3);
  EXPECT_EQ(guarded, 2);
  EXPECT_EQ(magic, 2);
}

// A mutually recursive SCC whose copies carry a residue the rules' own
// atoms do not imply stays adorned, with the residue as the reason.
TEST(LowerTest, ResidueBearingSccStaysAdorned) {
  ParsedUnit unit = ParseUnit(R"(
    even(X, Y) :- e(X, Y).
    odd(X, Y) :- e(X, Z), even(Z, Y).
    even(X, Y) :- e(X, Z), odd(Z, Y).
    res(X, Y) :- s(X), odd(X, Y).
    :- s(X), e(X, Y), X < 10.
    ?- res.
  )").take();
  LoweredProgram lowered = Lower(unit.program, unit.constraints);
  std::vector<std::string> kept;
  for (const LoweredProgram::Keep& k : lowered.kept) {
    kept.push_back(k.pred);
    EXPECT_EQ(k.reason.rfind("residue ", 0), 0u) << k.reason;
  }
  EXPECT_NE(std::find(kept.begin(), kept.end(), "odd"), kept.end())
      << lowered.ToText();
  EXPECT_NE(std::find(kept.begin(), kept.end(), "even"), kept.end())
      << lowered.ToText();
  EXPECT_TRUE(HasAdornedPredicate(lowered.program));
}

// Deduplication compares whole rules: two rules of one kept copy that
// differ only in their comparisons both survive.
TEST(LowerTest, DeduplicationKeepsRulesThatDifferInComparisons) {
  ParsedUnit unit = ParseUnit(R"(
    p(X, Y) :- e(X, Y), X < 5.
    p(X, Y) :- e(X, Y), 7 < X.
    p(X, Y) :- f(X, Z), p(Z, Y).
    :- f(X, Y), e(Y, Z), Y < 3.
    ?- p.
  )").take();
  SqoReport report = OptimizeProgram(unit.program, unit.constraints).take();
  LoweredProgram lowered = LowerProgram(report);
  EXPECT_TRUE(lowered.merged.empty()) << lowered.ToText();
  EXPECT_EQ(lowered.program.ToString(), report.rewritten.ToString());
}

// An original predicate is never mistaken for an adorned copy, whatever
// its name. The parser rejects '@', so the program is built through the
// AST, as an embedding caller could:
//   p(X, Y) :- e(X, Y).
//   p@0(X, Y) :- e(X, Y), f(Y).
//   q(X, Y) :- p@0(X, Y).
TEST(LowerTest, OriginalPredicateNamedLikeACopyIsNotMerged) {
  const Term x = Term::Var("X"), y = Term::Var("Y");
  const PredId copy_name = InternPred("p@0");
  Program program;
  Rule base;
  base.head = Atom("p", {x, y});
  base.body.push_back(Literal::Pos(Atom("e", {x, y})));
  program.AddRule(std::move(base));
  Rule named;
  named.head = Atom(copy_name, {x, y});
  named.body.push_back(Literal::Pos(Atom("e", {x, y})));
  named.body.push_back(Literal::Pos(Atom("f", {y})));
  program.AddRule(std::move(named));
  Rule query;
  query.head = Atom("q", {x, y});
  query.body.push_back(Literal::Pos(Atom(copy_name, {x, y})));
  program.AddRule(std::move(query));
  program.SetQuery("q");
  SqoOptions no_adorn;
  no_adorn.disabled_passes = {"adorn"};
  SqoReport report = OptimizeProgram(program, {}, no_adorn).take();
  LoweredProgram lowered = LowerProgram(report);
  EXPECT_TRUE(lowered.merged.empty());
  EXPECT_EQ(lowered.program.ToString(), report.rewritten.ToString());
}

// Every provenance path the passes record. Figure 1 under each ablation of
// InterningGoldenTest.Ablations: the copies the tree or the bottom-up
// phase built merge back into p's own four rules, and without adornment
// there is nothing to merge.
TEST(LowerTest, Figure1AblationsMergeOrKeepTheOriginalFourRules) {
  const std::vector<std::string> merging[] = {
      {"tree"}, {"residues"}, {"fd_rewrite"}, {"tree", "residues"}};
  for (const std::vector<std::string>& disabled : merging) {
    SqoOptions options;
    options.disabled_passes = disabled;
    SqoReport report =
        OptimizeProgram(MakeAbClosureProgram(), {MakeAbIc()}, options).take();
    LoweredProgram lowered = LowerProgram(report);
    EXPECT_EQ(lowered.ToText(),
              "rules:             9 -> 4\n"
              "merged:            p <- 3 copies (residue-free)\n")
        << disabled[0];
    EXPECT_FALSE(HasAdornedPredicate(lowered.program)) << disabled[0];
  }
  SqoOptions no_adorn;
  no_adorn.disabled_passes = {"adorn"};
  SqoReport report =
      OptimizeProgram(MakeAbClosureProgram(), {MakeAbIc()}, no_adorn).take();
  LoweredProgram lowered = LowerProgram(report);
  EXPECT_EQ(lowered.ToText(), "rules:             4 -> 4\n");
  EXPECT_EQ(lowered.program.ToString(), report.rewritten.ToString());
}

// A local_rewrite split on a negated IC atom adds the positive f(Q#0) to
// one side: that rule is not one of p's, so p stays adorned.
TEST(LowerTest, LocalSplitPositiveAtomKeepsTheCopyAdorned) {
  ParsedUnit unit = ParseUnit(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- e(X, Z), p(Z, Y).
    ?- p.
    :- e(X, Y), !f(X).
  )").take();
  LoweredProgram lowered = Lower(unit.program, unit.constraints);
  EXPECT_EQ(lowered.ToText(),
            "rules:             3 -> 3\n"
            "kept adorned:      p@0_n0 (not one of p's rules: "
            "p@0_n0(Q#0, Q#1) :- e(Q#0, Q#1), f(Q#0).)\n");
}

// A local_rewrite split on an order atom appends Q#0 <= 5, which no
// residue maps; the IC's own atom implies it, so (b) drops it from both
// rules and the single copy is renamed back to p.
TEST(LowerTest, LocalSplitComparisonIsDroppedAndTheCopyRenamed) {
  ParsedUnit unit = ParseUnit(R"(
    p(X, Y) :- e(X, Y).
    p(X, Y) :- e(X, Z), p(Z, Y).
    ?- p.
    :- e(X, Y), X > 5.
  )").take();
  LoweredProgram lowered = Lower(unit.program, unit.constraints);
  EXPECT_EQ(lowered.ToText(),
            "rules:             3 -> 2\n"
            "merged:            p <- 1 copy (renamed)\n"
            "dropped:           Q#0 <= 5 from p@0_n0(Q#0, Q#1) :- "
            "e(Q#0, Q#1), Q#0 <= 5. (implied by IC #0 :- e(X, Y), 5 < X.)\n"
            "dropped:           Q#0 <= 5 from p@0_n0(Q#0, Q#1) :- "
            "e(Q#0, Z#0), p@0_n0(Z#0, Q#1), Q#0 <= 5. (implied by IC #0 :- "
            "e(X, Y), 5 < X.)\n");
  EXPECT_FALSE(HasAdornedPredicate(lowered.program));
}

// A rule that is no longer a renamed rule of P plus appended literals
// loses its origin, and its copy stays adorned: after fd_rewrite's join
// elimination, after a local_rewrite split or a residue whose negation
// forces an equality, and after a query-tree head unification that is not
// a variable renaming.
TEST(LowerTest, ClearedOriginsKeepTheCopyAdorned) {
  const std::pair<const char*, const char*> cases[] = {
      {"p(X, Y) :- e(X, Y), e(X, Z), f(Z).\n?- p.\n"
       ":- e(X, Y), e(X, Z), Y != Z.",
       "p@0_n0(Q#0, Q#1) :- e(Q#0, Q#1), f(Q#1)."},
      {"p(X, Y) :- e(X, Y), X <= Y.\n?- p.\n:- e(X, Y), X < Y.",
       "p@0_n0(Q#1, Q#1) :- e(Q#1, Q#1)."},
      {"p(X, Z) :- e(X, Y), f(Y, Z), X <= Z.\n?- p.\n"
       ":- e(X, Y), f(Y, Z), X < Z.",
       "p@0_n0(Q#0, Q#0) :- e(Q#0, Y#0), f(Y#0, Q#0)."},
      {"p(X, Y) :- e(X, Y).\nq(X) :- p(X, X).\n?- q.",
       "p@0_n1(Q#0, Q#0) :- e(Q#0, Q#0)."},
  };
  for (const auto& [source, rule] : cases) {
    ParsedUnit unit = ParseUnit(source).take();
    LoweredProgram lowered = Lower(unit.program, unit.constraints);
    ASSERT_EQ(lowered.kept.size(), 1u) << source << "\n" << lowered.ToText();
    EXPECT_EQ(lowered.kept[0].pred, "p") << source;
    EXPECT_EQ(lowered.kept[0].reason,
              std::string("not one of p's rules: ") + rule)
        << source;
  }
}

// Demand (c) decisions, one EXPLAIN line each, on the rules as written
// (adornment disabled, so every call site reads one predicate): one
// adornment per predicate, the intersection of its entry calls, and a
// decline with its reason when the calls share no bound position, a call
// inside the component cannot bind a demanded one, or a seed projects.
TEST(LowerTest, DemandDecisionsAndTheirReasons) {
  const std::string path =
      "path(X, Y) :- step(X, Y).\npath(X, Y) :- step(X, Z), path(Z, Y).\n";
  const std::pair<std::string, std::string> cases[] = {
      {path + "r(X, Y) :- s(X), path(X, Y).\n"
              "t(X) :- s(X), u(X), path(X, X).\n"
              "q(X, Y) :- r(X, Y).\nq(X, X) :- t(X).\n?- q.",
       "demand:            path/bf (2 seeds, 1 propagation rule, "
       "2 guarded rules)\n"},
      {path + "q(Y) :- path(3, Y).\n?- q.",
       "demand:            path/bf (1 seed, 1 propagation rule, "
       "2 guarded rules)\n"},
      {path + "q(X, Y) :- s(X), path(X, Y).\n"
              "q(X, Y) :- u(Y), path(X, Y).\n?- q.",
       "declined demand:   path (entry calls of path share no bound "
       "argument)\n"},
      {"p(X, Y) :- e(X, Y).\np(X, Y) :- p(Z, Y), e(X, Z).\n"
       "q(Y) :- s(X), p(X, Y).\n?- q.",
       "declined demand:   p (call cannot bind demanded argument 0: p("},
      {"q0(X, Y) :- e0(X, Y).\nq0(X, Y) :- e0(X, Z), q0(Z, Y).\n"
       "q1(X, Y) :- e1(X, Z), q0(Z, Y).\n?- q1.",
       "declined demand:   q0 (seed projects away "},
  };
  SqoOptions as_written;
  as_written.disabled_passes = {"adorn"};
  for (const auto& [source, line] : cases) {
    ParsedUnit unit = ParseUnit(source).take();
    SqoReport report =
        OptimizeProgram(unit.program, unit.constraints, as_written).take();
    LoweredProgram lowered = LowerProgram(report);
    const std::string text = lowered.ToText();
    EXPECT_NE(text.find(line), std::string::npos) << source << "\n" << text;
    EXPECT_EQ(lowered.demand.size(), 1u) << text;
  }
}

// P′ specializes path's copy to the query's constant, so a guard on it
// would test the one demanded fact its heads already hold: the component is
// declined, and the recursive copy it calls keeps its demand.
TEST(LowerTest, ConstantDemandTheHeadsHoldIsDeclined) {
  ParsedUnit unit = ParseUnit(
                        "path(X, Y) :- step(X, Y).\n"
                        "path(X, Y) :- step(X, Z), path(Z, Y).\n"
                        "q(Y) :- path(3, Y).\n?- q.\n"
                        "step(1, 2). step(2, 3). step(3, 4). step(4, 5).\n"
                        "step(3, 6). step(6, 3). step(5, 7).")
                        .take();
  LoweredProgram lowered = Lower(unit.program, unit.constraints);
  const std::string text = lowered.ToText();
  EXPECT_NE(text.find("declined demand:   path@0_n1 (every head already "
                      "holds a seed fact)\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("demand:            path@0_n2/bf"), std::string::npos)
      << text;
  for (const Rule& rule : lowered.program.rules()) {
    EXPECT_NE(PredName(rule.head.pred()).rfind("m@path@0_n1", 0), 0u)
        << lowered.program.ToString();
  }
  EXPECT_EQ(lowered.program.rules().size(), 7u) << lowered.program.ToString();

  Database edb;
  for (const Atom& fact : unit.facts) edb.InsertAtom(fact);
  const std::vector<Tuple> want = ReferenceQuery(unit.program, edb);
  EXPECT_EQ(want.size(), 5u);
  EXPECT_EQ(ReferenceQuery(lowered.program, edb), want);
}

TEST(LowerTest, PreparedProgramServesTheLoweredProgram) {
  Engine engine;
  Session session =
      engine.Open(MakeAbClosureProgram(), {MakeAbIc()}).take();
  const PreparedProgram* prepared = session.Prepare().value();
  EXPECT_EQ(&prepared->program(), &prepared->lowered.program);
  EXPECT_EQ(prepared->program().rules().size(), 4u);
  // The paper's P′ is still the report's rewriting.
  EXPECT_EQ(prepared->report.rewritten.rules().size(), 9u);
  ASSERT_NE(prepared->compiled, nullptr);
  EXPECT_EQ(prepared->compiled->num_rules, 4);
}

// ---------------------------------------------------------------------------
// Deterministic counters: the served program's tuples_derived and
// rule_firings never exceed P's, and its answers equal P's, on the
// consistent databases of the E1/E2/E3/E9 benches and ColoredClosure.

// Returns {P's tuples_derived, the served program's}.
std::pair<int64_t, int64_t> ExpectServedNoCostlier(
    const std::string& label, const Program& program,
    const std::vector<Constraint>& ics, const Database& edb) {
  Engine engine;
  Session session = engine.Open(program, ics).take();
  const PreparedProgram* prepared = session.Prepare().value();
  EvalStats original, served;
  std::vector<Tuple> want =
      session.ExecuteOriginal(edb, {}, &original).take();
  std::vector<Tuple> got =
      session.Execute(*prepared, edb, {}, &served).take();
  EXPECT_EQ(got, want) << label;
  EXPECT_LE(served.tuples_derived, original.tuples_derived) << label;
  EXPECT_LE(served.rule_firings, original.rule_firings) << label;
  return {original.tuples_derived, served.tuples_derived};
}

Database GoodPathDb(int nodes, int threshold, uint64_t seed) {
  Rng rng(seed);
  GoodPathConfig config;
  config.nodes = nodes;
  config.edges = nodes * 3;
  config.num_start = 25;
  config.num_end = 25;
  config.threshold = threshold;
  return MakeGoodPathWorkload(config, &rng);
}

TEST(ServedCostTest, E1StartBeforeEnd) {
  Rng rng(42);
  Database edb = MakeStartBeforeEndWorkload(250, 750, 31, 31, &rng);
  ExpectServedNoCostlier("E1", MakeGoodPathProgram(),
                         {MakeStartBeforeEndIc()}, edb);
}

TEST(ServedCostTest, E2SkippableFractions) {
  for (int pct : {0, 30, 60, 90}) {
    const int threshold = 400 * pct / 100;
    ExpectServedNoCostlier("E2 " + std::to_string(pct) + "%",
                           MakeGoodPathProgram(), MakeMonotoneIcs(threshold),
                           GoodPathDb(400, threshold, 11));
  }
  // BM_E2_*_Fraction/0: at 0% no residue prunes anything, and demand (c)
  // alone confines path to what the 25 start points reach.
  const auto [original, served] = ExpectServedNoCostlier(
      "E2 0% at 1000 nodes", MakeGoodPathProgram(), MakeMonotoneIcs(0),
      GoodPathDb(1000, 0, 11));
  EXPECT_LE(served * 10, original) << served << " of " << original;
}

// E3's database: random colored edges consistent with the IC, e0 read as
// a and e1 as b.
Database AbDb(int nodes, int edges, uint64_t seed) {
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

TEST(ServedCostTest, E3Figure1) {
  for (int nodes : {64, 128}) {
    ExpectServedNoCostlier("E3 " + std::to_string(nodes),
                           MakeAbClosureProgram(), {MakeAbIc()},
                           AbDb(nodes, nodes * 2, 13));
  }
}

TEST(ServedCostTest, E9Ablation) {
  ExpectServedNoCostlier("E9", MakeGoodPathProgram(), MakeMonotoneIcs(300),
                         GoodPathDb(600, 300, 3));
}

TEST(ServedCostTest, ColoredClosureTwoToFourColours) {
  for (int colors = 2; colors <= 4; ++colors) {
    Rng rng(20261016u + colors);
    ColoredClosure cc = MakeColoredClosure(colors, 1, &rng);
    Database edb = MakeColoredEdges(colors, 60, 180, cc.ics, &rng);
    ExpectServedNoCostlier("colored" + std::to_string(colors), cc.program,
                           cc.ics, edb);
  }
}

// Random programs call lower IDB predicates as  e(X, Z), q(Z, Y).  A seed
// m(Z) :- e(X, Z) projects X away: it demands nearly every Z and costs more
// than it saves (it raises firings above P's on these seeds), so (c)
// declines it. Seed 13 is that shape: e1(Q#2, Z#5) seeding q0(Z#5, _).
TEST(ServedCostTest, RandomProgramsDeclineProjectingSeeds) {
  for (int seed : {5, 10, 13, 21, 27, 42, 59}) {
    Rng rng(seed);
    const int colors = 2 + seed % 2;
    RandomProgram rp = MakeRandomProgram(colors, 2 + seed % 3, 2 + seed % 5,
                                         1 + seed % 3, &rng);
    Database edb = MakeColoredEdges(colors, 24, 50, rp.ics, &rng);
    ExpectServedNoCostlier("random seed " + std::to_string(seed), rp.program,
                           rp.ics, edb);
  }
}

// Rules equal up to variable renaming get equal keys.
std::string RuleKey(const Rule& rule) {
  std::vector<VarId> vars = rule.Vars();
  Substitution rename;
  for (size_t i = 0; i < vars.size(); ++i) {
    rename.Bind(vars[i], Term::Var("V" + std::to_string(i)));
  }
  return rename.Apply(rule).ToString();
}

std::vector<std::string> RuleSet(const Program& program) {
  std::vector<std::string> keys;
  for (const Rule& rule : program.rules()) keys.push_back(RuleKey(rule));
  std::sort(keys.begin(), keys.end());
  return keys;
}

// Demand (c) never touches a component only the query reads in full: for
// Figure 1, ColoredClosure 2-4 and the view-churn programs tc and join2 the
// served program is P's own rule set, with no demand decision in EXPLAIN.
TEST(ServedCostTest, FullReadsServeTheirProgramUnchanged) {
  std::vector<std::pair<std::string, LoweringInput>> cases;
  cases.push_back({"figure1", {MakeAbClosureProgram(), {MakeAbIc()}}});
  for (int colors = 2; colors <= 4; ++colors) {
    Rng rng(20261016u + colors);
    ColoredClosure cc = MakeColoredClosure(colors, 1, &rng);
    cases.push_back({"colored" + std::to_string(colors), {cc.program, cc.ics}});
  }
  for (const char* source :
       {"tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- tc(X, Y), edge(Y, Z).\n?- tc.",
        "q(X, Z) :- a(X, Y), b(Y, Z).\n?- q."}) {
    ParsedUnit unit = ParseUnit(source).take();
    cases.push_back({source, {unit.program, unit.constraints}});
  }
  for (const auto& [label, input] : cases) {
    LoweredProgram lowered = Lower(input.program, input.ics);
    EXPECT_TRUE(lowered.demand.empty()) << label << "\n" << lowered.ToText();
    EXPECT_EQ(RuleSet(lowered.program), RuleSet(input.program))
        << label << "\n" << lowered.program.ToString();
  }
}

bool HasMagicPredicate(const Program& program) {
  for (const Rule& rule : program.rules()) {
    if (PredName(rule.head.pred()).rfind("m@", 0) == 0) return true;
    for (const Literal& l : rule.body) {
      if (PredName(l.atom.pred()).rfind("m@", 0) == 0) return true;
    }
  }
  return false;
}

// cold-optimize's wide and colored shapes keep adorned copies that call
// each other as  e(X, Z), p@k(Z, Y)  from copies read in full: every seed
// projects, so demand declines them all and P″ gains no magic predicate.
TEST(ServedCostTest, WideAndColoredCopiesDeclineDemand) {
  std::vector<std::pair<std::string, LoweringInput>> cases;
  for (int width = 2; width <= 4; ++width) {
    Constraint ic;
    for (int i = 0; i < width; ++i) {
      const Term from = Term::Var("V" + std::to_string(i));
      const Term to = Term::Var("V" + std::to_string(i + 1));
      ic.body.push_back(Literal::Pos(Atom(i % 2 == 0 ? "a" : "b", {from, to})));
    }
    cases.push_back({"wide" + std::to_string(width),
                     {MakeAbClosureProgram(), {ic}}});
  }
  for (int colors = 2; colors <= 4; ++colors) {
    for (int ics = 1; ics <= 5; ++ics) {
      Rng rng(20261016u + 10 * colors + ics);
      ColoredClosure cc = MakeColoredClosure(colors, ics, &rng);
      cases.push_back({"colored" + std::to_string(colors) + "/" +
                           std::to_string(ics),
                       {cc.program, cc.ics}});
    }
  }
  for (const auto& [label, input] : cases) {
    LoweredProgram lowered = Lower(input.program, input.ics);
    EXPECT_FALSE(HasMagicPredicate(lowered.program))
        << label << "\n" << lowered.ToText();
    for (const LoweredProgram::Demand& d : lowered.demand) {
      EXPECT_FALSE(d.reason.empty()) << label;
    }
  }
}

}  // namespace
}  // namespace sqod
