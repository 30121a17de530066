// Parameterized property sweeps over randomized programs, ICs and
// databases. Each suite checks one invariant across a grid of seeds and
// workload shapes; together they are the Theorem 4.1/4.2 contract and the
// substrate's correctness, exercised far beyond the hand-written cases.
// The P == P' checks compare answers of the reference evaluator
// (tests/reference_eval.h), which shares no code with the engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/cq/containment.h"
#include "src/cq/ic_check.h"
#include "src/eval/evaluator.h"
#include "src/order/solver.h"
#include "src/parser/parser.h"
#include "src/sqo/lower.h"
#include "src/sqo/optimizer.h"
#include "src/sqo/residue.h"
#include "src/workload/programs.h"
#include "tests/reference_eval.h"

namespace sqod {
namespace {

// ---------------------------------------------------------------------------
// Pipeline equivalence: P' == P on consistent databases, across random
// colored-closure programs with random composition ICs.

struct PipelineParam {
  uint64_t seed;
  int colors;
  int num_ics;
};

class PipelineEquivalence : public ::testing::TestWithParam<PipelineParam> {};

TEST_P(PipelineEquivalence, RewritingPreservesAnswers) {
  const PipelineParam& param = GetParam();
  Rng rng(param.seed);
  ColoredClosure cc = MakeColoredClosure(param.colors, param.num_ics, &rng);
  Result<SqoReport> report = OptimizeProgram(cc.program, cc.ics);
  ASSERT_TRUE(report.ok()) << report.status().message();

  for (int trial = 0; trial < 3; ++trial) {
    Database db = MakeColoredEdges(param.colors, 9, 20, cc.ics, &rng);
    ASSERT_TRUE(SatisfiesAll(db, cc.ics));
    EXPECT_EQ(ReferenceQuery(cc.program, db),
              ReferenceQuery(report.value().rewritten, db))
        << "seed " << param.seed << " trial " << trial;
  }
}

TEST_P(PipelineEquivalence, P1AgreesWithFullPipeline) {
  const PipelineParam& param = GetParam();
  Rng rng(param.seed * 31 + 7);
  ColoredClosure cc = MakeColoredClosure(param.colors, param.num_ics, &rng);
  SqoOptions p1_only;
  p1_only.disabled_passes = {"tree", "residues"};
  Result<SqoReport> p1 = OptimizeProgram(cc.program, cc.ics, p1_only);
  Result<SqoReport> full = OptimizeProgram(cc.program, cc.ics);
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(full.ok());
  Database db = MakeColoredEdges(param.colors, 8, 18, cc.ics, &rng);
  EXPECT_EQ(EvaluateQuery(p1.value().rewritten, db).take(),
            EvaluateQuery(full.value().rewritten, db).take());
}

TEST_P(PipelineEquivalence, RewrittenIsSubsetOnInconsistentDbs) {
  // Even off-contract (inconsistent database), P' only loses answers that
  // the ICs said could not exist; it never invents tuples.
  const PipelineParam& param = GetParam();
  Rng rng(param.seed * 17 + 3);
  ColoredClosure cc = MakeColoredClosure(param.colors, param.num_ics, &rng);
  Result<SqoReport> report = OptimizeProgram(cc.program, cc.ics);
  ASSERT_TRUE(report.ok());
  Database db = MakeColoredEdges(param.colors, 8, 20, {}, &rng);  // no ICs
  auto original = EvaluateQuery(cc.program, db).take();
  auto rewritten = EvaluateQuery(report.value().rewritten, db).take();
  for (const Tuple& t : rewritten) {
    EXPECT_NE(std::find(original.begin(), original.end(), t),
              original.end());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelineEquivalence,
    ::testing::Values(PipelineParam{1, 2, 1}, PipelineParam{2, 2, 2},
                      PipelineParam{3, 2, 3}, PipelineParam{4, 3, 1},
                      PipelineParam{5, 3, 2}, PipelineParam{6, 3, 4},
                      PipelineParam{7, 4, 2}, PipelineParam{8, 4, 5},
                      PipelineParam{9, 2, 4}, PipelineParam{10, 3, 3}),
    [](const ::testing::TestParamInfo<PipelineParam>& info) {
      return "seed" + std::to_string(info.param.seed) + "c" +
             std::to_string(info.param.colors) + "i" +
             std::to_string(info.param.num_ics);
    });

// ---------------------------------------------------------------------------
// Threshold sweep on the Section 3 example: equivalence plus the
// monotonicity of the saving.

class ThresholdSweep : public ::testing::TestWithParam<int> {};

TEST_P(ThresholdSweep, GoodPathEquivalentAndNoExtraWork) {
  const int threshold = GetParam();
  Program p = MakeGoodPathProgram();
  std::vector<Constraint> ics = MakeMonotoneIcs(threshold);
  SqoReport report = OptimizeProgram(p, ics).take();
  Rng rng(900 + threshold);
  GoodPathConfig config;
  config.nodes = 160;
  config.edges = 420;
  config.threshold = threshold;
  Database db = MakeGoodPathWorkload(config, &rng);
  ASSERT_TRUE(SatisfiesAll(db, ics));
  EvalStats orig_stats, rew_stats;
  auto a = EvaluateQuery(p, db, {}, &orig_stats).take();
  auto b = EvaluateQuery(report.rewritten, db, {}, &rew_stats).take();
  EXPECT_EQ(a, b);
  // The rewritten program may pay a constant overhead (the wrapper rule
  // re-derives each answer once) but must never blow up the real work.
  EXPECT_LE(rew_stats.tuples_derived,
            orig_stats.tuples_derived + 2 * static_cast<int64_t>(a.size()) + 16);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ThresholdSweep,
                         ::testing::Values(0, 20, 40, 80, 120, 159));

// ---------------------------------------------------------------------------
// Evaluator invariants across random graphs: the evaluator equals the
// naive, nested-loop reference evaluator, and stats sanity.

class EvaluatorAgreement : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EvaluatorAgreement, AllModesAgree) {
  Rng rng(GetParam());
  Program p = MakeAbClosureProgram();
  Database db = MakeTwoColoredGraph(14, 30, 0.5, &rng);
  EXPECT_EQ(EvaluateQuery(p, db).take(), ReferenceQuery(p, db));
}

TEST_P(EvaluatorAgreement, StatsAreConsistent) {
  Rng rng(GetParam() + 1000);
  Program p = MakeAbClosureProgram();
  Database db = MakeTwoColoredGraph(12, 25, 0.5, &rng);
  EvalStats stats;
  auto answers = EvaluateQuery(p, db, {}, &stats).take();
  // Derived tuples count every IDB fact; answers are the query's subset.
  EXPECT_GE(stats.tuples_derived, static_cast<int64_t>(answers.size()));
  EXPECT_EQ(stats.rule_firings,
            stats.tuples_derived + stats.duplicate_derivations);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvaluatorAgreement,
                         ::testing::Range<uint64_t>(100, 110));

// ---------------------------------------------------------------------------
// Order solver vs brute force over small integer assignments.

struct OrderCase {
  uint64_t seed;
  int num_vars;
  int num_atoms;
};

class OrderSolverFuzz : public ::testing::TestWithParam<OrderCase> {};

// Enumerates assignments of values {0..num_vars} to the variables and
// checks ground truth satisfiability. Dense-order satisfiability over k
// variables is witnessed by integer assignments into a large-enough range.
bool BruteForceSatisfiable(const std::vector<Comparison>& cs) {
  std::vector<VarId> vars;
  for (const Comparison& c : cs) c.CollectVars(&vars);
  const int range = static_cast<int>(vars.size()) + 1;
  std::vector<int> assignment(vars.size(), 0);
  for (;;) {
    Substitution subst;
    for (size_t i = 0; i < vars.size(); ++i) {
      subst.Bind(vars[i], Term::Int(assignment[i]));
    }
    bool ok = true;
    for (const Comparison& c : cs) {
      Comparison g = subst.Apply(c);
      if (!EvalCmp(g.lhs.value(), c.op, g.rhs.value())) {
        ok = false;
        break;
      }
    }
    if (ok) return true;
    // Next assignment.
    size_t i = 0;
    while (i < assignment.size() && ++assignment[i] == range) {
      assignment[i++] = 0;
    }
    if (i == assignment.size()) return false;
  }
}

TEST_P(OrderSolverFuzz, MatchesBruteForce) {
  const OrderCase& param = GetParam();
  Rng rng(param.seed);
  std::uniform_int_distribution<int> var(0, param.num_vars - 1);
  std::uniform_int_distribution<int> op(0, 5);
  for (int round = 0; round < 50; ++round) {
    std::vector<Comparison> cs;
    for (int i = 0; i < param.num_atoms; ++i) {
      Term a = Term::Var("F" + std::to_string(var(rng)));
      Term b = Term::Var("F" + std::to_string(var(rng)));
      cs.push_back(Comparison(a, static_cast<CmpOp>(op(rng)), b));
    }
    // Brute force over integers is only *sound* for satisfiability when a
    // witness exists in the bounded grid; for variable-only constraint
    // sets, |vars|+1 values always suffice (any dense-order model can be
    // collapsed onto its ordering of the variables).
    EXPECT_EQ(ComparisonsConsistent(cs), BruteForceSatisfiable(cs))
        << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, OrderSolverFuzz,
    ::testing::Values(OrderCase{11, 2, 3}, OrderCase{12, 3, 4},
                      OrderCase{13, 3, 6}, OrderCase{14, 4, 5},
                      OrderCase{15, 4, 8}, OrderCase{16, 5, 7}),
    [](const ::testing::TestParamInfo<OrderCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "v" +
             std::to_string(info.param.num_vars) + "a" +
             std::to_string(info.param.num_atoms);
    });

// ---------------------------------------------------------------------------
// CQ containment vs evaluation-based ground truth on random databases:
// if q1 is contained in q2, then q1(D) subseteq q2(D) for every D (checked
// on random D); if not contained, a witness database must exist (checked
// via the canonical database).

class ContainmentFuzz : public ::testing::TestWithParam<uint64_t> {};

Rule RandomPathQuery(Rng* rng, int max_len) {
  std::uniform_int_distribution<int> len_dist(1, max_len);
  int len = len_dist(*rng);
  Rule q;
  std::uniform_int_distribution<int> head_pick(0, len);
  q.head = Atom("q", {Term::Var("V0"),
                      Term::Var("V" + std::to_string(head_pick(*rng)))});
  for (int i = 0; i < len; ++i) {
    q.body.push_back(Literal::Pos(
        Atom("e", {Term::Var("V" + std::to_string(i)),
                   Term::Var("V" + std::to_string(i + 1))})));
  }
  return q;
}

TEST_P(ContainmentFuzz, PositiveVerdictsHoldOnRandomDatabases) {
  Rng rng(GetParam());
  for (int round = 0; round < 10; ++round) {
    Rule q1 = RandomPathQuery(&rng, 3);
    Rule q2 = RandomPathQuery(&rng, 3);
    bool contained = CqContained(q1, q2).take();
    Database db = MakeRandomGraph(5, 10, &rng, "e");
    Program p1, p2;
    p1.AddRule(q1);
    p1.SetQuery("q");
    p2.AddRule(q2);
    p2.SetQuery("q");
    auto a1 = EvaluateQuery(p1, db).take();
    auto a2 = EvaluateQuery(p2, db).take();
    if (contained) {
      for (const Tuple& t : a1) {
        EXPECT_NE(std::find(a2.begin(), a2.end(), t), a2.end())
            << "round " << round;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContainmentFuzz,
                         ::testing::Range<uint64_t>(200, 208));

// ---------------------------------------------------------------------------
// Randomized multi-IDB programs (chains, mixed recursion, several strata of
// dependencies) through the whole pipeline.

struct RandomProgramParam {
  uint64_t seed;
  int colors;
  int idb_preds;
  int extra_rules;
  int num_ics;
};

class RandomProgramEquivalence
    : public ::testing::TestWithParam<RandomProgramParam> {};

TEST_P(RandomProgramEquivalence, PipelinePreservesAnswers) {
  const RandomProgramParam& param = GetParam();
  Rng rng(param.seed);
  RandomProgram rp = MakeRandomProgram(param.colors, param.idb_preds,
                                       param.extra_rules, param.num_ics,
                                       &rng);
  ASSERT_TRUE(rp.program.Validate().ok());
  Result<SqoReport> report = OptimizeProgram(rp.program, rp.ics);
  ASSERT_TRUE(report.ok()) << report.status().message();
  for (int trial = 0; trial < 3; ++trial) {
    Database db = MakeColoredEdges(param.colors, 8, 18, rp.ics, &rng);
    ASSERT_TRUE(SatisfiesAll(db, rp.ics));
    EXPECT_EQ(ReferenceQuery(rp.program, db),
              ReferenceQuery(report.value().rewritten, db))
        << "seed " << param.seed << " trial " << trial << "\nprogram:\n"
        << rp.program.ToString();
  }
}

TEST_P(RandomProgramEquivalence, SatisfiabilityAgreesWithEvaluation) {
  // If the query tree says "unsatisfiable", no consistent database may
  // yield an answer.
  const RandomProgramParam& param = GetParam();
  Rng rng(param.seed * 131 + 5);
  RandomProgram rp = MakeRandomProgram(param.colors, param.idb_preds,
                                       param.extra_rules, param.num_ics,
                                       &rng);
  Result<bool> sat = QuerySatisfiable(rp.program, rp.ics);
  ASSERT_TRUE(sat.ok());
  if (!sat.value()) {
    for (int trial = 0; trial < 3; ++trial) {
      Database db = MakeColoredEdges(param.colors, 8, 20, rp.ics, &rng);
      EXPECT_TRUE(EvaluateQuery(rp.program, db).take().empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomProgramEquivalence,
    ::testing::Values(RandomProgramParam{21, 2, 2, 3, 1},
                      RandomProgramParam{22, 2, 3, 4, 2},
                      RandomProgramParam{23, 3, 2, 4, 2},
                      RandomProgramParam{24, 3, 3, 5, 3},
                      RandomProgramParam{25, 3, 4, 6, 3},
                      RandomProgramParam{26, 4, 3, 5, 4},
                      RandomProgramParam{27, 2, 4, 6, 2},
                      RandomProgramParam{28, 4, 2, 4, 5},
                      RandomProgramParam{29, 3, 3, 7, 2},
                      RandomProgramParam{30, 2, 2, 5, 3}),
    [](const ::testing::TestParamInfo<RandomProgramParam>& info) {
      return "seed" + std::to_string(info.param.seed);
    });

// ---------------------------------------------------------------------------
// Classic-SQO never changes answers on consistent databases, across the
// same program family.

class ClassicSqoSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ClassicSqoSweep, EquivalentOnConsistentDbs) {
  Rng rng(GetParam());
  ColoredClosure cc = MakeColoredClosure(3, 2, &rng);
  Program rewritten = ApplyClassicSqo(cc.program, cc.ics);
  Database db = MakeColoredEdges(3, 9, 20, cc.ics, &rng);
  ASSERT_TRUE(SatisfiesAll(db, cc.ics));
  EXPECT_EQ(ReferenceQuery(cc.program, db), ReferenceQuery(rewritten, db));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClassicSqoSweep,
                         ::testing::Range<uint64_t>(300, 310));

// ---------------------------------------------------------------------------
// The served program P″ (src/sqo/lower.h): P′ ⊆ P″ ⊆ P on every database,
// and P″ = P on databases satisfying the ICs. Families: random programs,
// E4's colored closures and wide ICs, Section 3's goodPath under both of
// its IC sets (the comparison residues the lowering drops or keeps), and
// the shapes of the demand rewrite (c): a constant-bound call, two call
// sites with different bound patterns, left-linear recursion and a
// two-predicate recursive component.

struct LoweringFamily {
  Program program;
  std::vector<Constraint> ics;
  bool demanded = false;  // demand (c) must add magic predicates
};

// A demand family: `rules` over step, s and u under the ICs
// :- step(X, Y), X >= Y.  and  :- s(X), step(X, Y), X < t  (t = k % 5),
// whose residues keep the recursive predicate adorned.
LoweringFamily DemandFamily(const std::string& rules, int k, bool demanded) {
  ParsedUnit unit =
      ParseUnit(rules + ":- step(X, Y), X >= Y.\n:- s(X), step(X, Y), X < " +
                std::to_string(k % 5) + ".\n")
          .take();
  return {unit.program, unit.constraints, demanded};
}

constexpr const char* kPathRules =
    "path(X, Y) :- step(X, Y).\n"
    "path(X, Y) :- step(X, Z), path(Z, Y).\n";

LoweringFamily MakeLoweringFamily(int index, Rng* rng) {
  std::uniform_int_distribution<int> pick(0, 1000);
  const int k = pick(*rng);
  // Seeds 0-39 cycle through families 0-4, the rest through the demand
  // families 5-8.
  switch (index < 40 ? index % 5 : 5 + index % 4) {
    case 0: {
      RandomProgram rp = MakeRandomProgram(2 + k % 3, 2 + k % 3, 3 + k % 4,
                                           1 + k % 4, rng);
      return {rp.program, rp.ics};
    }
    case 1: {
      ColoredClosure cc = MakeColoredClosure(2 + k % 3, 1 + k % 4, rng);
      return {cc.program, cc.ics};
    }
    case 2: {
      Constraint ic;
      const int width = 2 + k % 3;
      for (int i = 0; i < width; ++i) {
        ic.body.push_back(Literal::Pos(
            Atom(i % 2 == 0 ? "a" : "b",
                 {Term::Var("V" + std::to_string(i)),
                  Term::Var("V" + std::to_string(i + 1))})));
      }
      return {MakeAbClosureProgram(), {ic}};
    }
    case 3:
      return {MakeGoodPathProgram(), MakeMonotoneIcs(k % 10)};
    case 4:
      return {MakeGoodPathProgram(), {MakeStartBeforeEndIc()}};
    case 5:  // a constant-bound call: the seed is the fact m(3)
      return DemandFamily(std::string(kPathRules) + "q(Y) :- path(3, Y).\n"
                                                    "?- q.\n",
                          k, true);
    case 6:  // two outside call sites with different bound patterns
      if (k % 2 == 0) {  // bf and bb: path is demanded as bf
        return DemandFamily(std::string(kPathRules) +
                                "r(X, Y) :- s(X), path(X, Y).\n"
                                "t(X) :- s(X), u(X), path(X, X).\n"
                                "q(X, Y) :- r(X, Y).\n"
                                "q(X, X) :- t(X).\n"
                                "?- q.\n",
                            k, true);
      }
      // bf and fb: a copy both calls read shares no bound position, and
      // its demand is declined.
      return DemandFamily(std::string(kPathRules) +
                              "q(X, Y) :- s(X), path(X, Y).\n"
                              "q(X, Y) :- u(Y), path(X, Y).\n"
                              "?- q.\n",
                          k, false);
    case 7:  // left-linear recursion: the call inside is bound by the head
      return DemandFamily(
          "path(X, Y) :- step(X, Y).\n"
          "path(X, Y) :- path(X, Z), step(Z, Y).\n"
          "q(X, Y) :- s(X), path(X, Y), u(Y).\n"
          "?- q.\n",
          k, true);
    default:  // a two-predicate recursive component
      return DemandFamily(
          "even(X, Y) :- step(X, Y).\n"
          "odd(X, Y) :- step(X, Z), even(Z, Y).\n"
          "even(X, Y) :- step(X, Z), odd(Z, Y).\n"
          "q(X, Y) :- s(X), odd(X, Y).\n"
          "?- q.\n",
          k, true);
  }
}

// `facts` random facts over the program's EDB predicates with values in
// [0, values). With `ics`, a fact that would violate one is left out.
Database RandomEdb(const Program& program, int facts, int values,
                   const std::vector<Constraint>* ics, Rng* rng) {
  const std::set<PredId> edb_set = program.EdbPreds();
  const std::vector<PredId> edb(edb_set.begin(), edb_set.end());
  std::uniform_int_distribution<int> pred_pick(
      0, static_cast<int>(edb.size()) - 1);
  std::uniform_int_distribution<int> value(0, values - 1);
  Database db;
  for (int i = 0; i < facts; ++i) {
    const PredId pred = edb[pred_pick(*rng)];
    std::vector<Term> args;
    for (int a = 0; a < program.Arity(pred); ++a) {
      args.push_back(Term::Int(value(*rng)));
    }
    Atom fact(pred, std::move(args));
    if (db.InsertAtom(fact) && ics != nullptr && !SatisfiesAll(db, *ics)) {
      db.EraseAtom(fact);
    }
  }
  return db;
}

bool Includes(const std::vector<Tuple>& super, const std::vector<Tuple>& sub) {
  return std::includes(super.begin(), super.end(), sub.begin(), sub.end());
}

class LoweringSoundness : public ::testing::TestWithParam<int> {};

TEST_P(LoweringSoundness, ServedProgramLiesBetweenPPrimeAndP) {
  Rng rng(7000 + GetParam());
  LoweringFamily family = MakeLoweringFamily(GetParam(), &rng);
  Result<SqoReport> report = OptimizeProgram(family.program, family.ics);
  ASSERT_TRUE(report.ok()) << report.status().message();
  const Program& rewritten = report.value().rewritten;
  LoweredProgram lowered = LowerProgram(report.value());
  ASSERT_TRUE(lowered.program.Validate().ok()) << lowered.program.ToString();
  const std::string context = "seed " + std::to_string(GetParam()) +
                              "\nP:\n" + family.program.ToString() +
                              "P''\n" + lowered.program.ToString() +
                              lowered.ToText();
  if (family.demanded) {
    ASSERT_FALSE(lowered.demand.empty()) << context;
    for (const LoweredProgram::Demand& d : lowered.demand) {
      EXPECT_TRUE(d.reason.empty()) << context;
    }
  }

  for (int trial = 0; trial < 4; ++trial) {
    Database db = RandomEdb(family.program, 24, 10, nullptr, &rng);
    std::vector<Tuple> p = ReferenceQuery(family.program, db);
    std::vector<Tuple> p1 = ReferenceQuery(rewritten, db);
    std::vector<Tuple> p2 = ReferenceQuery(lowered.program, db);
    EXPECT_TRUE(Includes(p2, p1)) << "P' not in P'' " << context;
    EXPECT_TRUE(Includes(p, p2)) << "P'' not in P " << context;

    Database consistent =
        RandomEdb(family.program, 24, 10, &report.value().ics, &rng);
    ASSERT_TRUE(SatisfiesAll(consistent, family.ics));
    EXPECT_EQ(ReferenceQuery(lowered.program, consistent),
              ReferenceQuery(family.program, consistent))
        << context;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LoweringSoundness, ::testing::Range(0, 72));

}  // namespace
}  // namespace sqod
