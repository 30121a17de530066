// Failure-injection and robustness coverage: malformed inputs must produce
// errors (never crashes), resource valves must trip cleanly, and edge-case
// shapes (0-ary predicates, empty programs, empty databases) must behave.

#include <gtest/gtest.h>

#include "src/chase/chase.h"
#include "src/engine/engine.h"
#include "src/eval/evaluator.h"
#include "src/parser/parser.h"
#include "src/service/query_service.h"
#include "src/sqo/optimizer.h"
#include "src/workload/programs.h"

namespace sqod {
namespace {

class ParserRejection : public ::testing::TestWithParam<const char*> {};

TEST_P(ParserRejection, ErrorsNotCrashes) {
  Result<ParsedUnit> result = ParseUnit(GetParam());
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(result.status().message().empty());
}

INSTANTIATE_TEST_SUITE_P(
    BadInputs, ParserRejection,
    ::testing::Values(
        "p(X)",                        // missing terminator
        "p(X) :- ",                    // empty body
        "p(X) :- q(X),",               // trailing comma
        ":- .",                        // empty constraint
        "p(X) :- q(X)) .",             // unbalanced parens
        "p(X) :- q(X . ",              // unclosed atom
        "?- .",                        // missing query predicate
        "?- Q.",                       // variable as query predicate
        "p(X) :- X < .",               // missing comparison rhs
        "p(\"unterminated) :- q(X).",  // unterminated string
        "p(X) :- q(X); r(X).",         // bad separator
        "p(X, Y) :- q(X).",            // unsafe head
        "p(X) :- q(X), !r(Y).",        // unsafe negation
        "p(X) :- q(X), Y < 3.",        // unsafe comparison
        "p(x).\np(X, Y) :- e(X, Y)."   // arity clash
        ));

TEST(RobustnessTest, EmptyUnitParses) {
  Result<ParsedUnit> unit = ParseUnit("  % just a comment\n");
  ASSERT_TRUE(unit.ok());
  EXPECT_TRUE(unit.value().program.rules().empty());
}

TEST(RobustnessTest, EmptyProgramEvaluates) {
  Program p;
  Database edb;
  Evaluator evaluator(p);
  Result<Database> idb = evaluator.Evaluate(edb);
  ASSERT_TRUE(idb.ok());
  EXPECT_EQ(idb.value().TotalTuples(), 0);
}

TEST(RobustnessTest, EmptyDatabaseEvaluates) {
  Program p = MakeAbClosureProgram();
  Database edb;
  auto answers = EvaluateQuery(p, edb).take();
  EXPECT_TRUE(answers.empty());
}

TEST(RobustnessTest, OptimizerOnEmptyIcs) {
  SqoReport report = OptimizeProgram(MakeAbClosureProgram(), {}).take();
  EXPECT_EQ(report.adorned_predicates, 1);
  EXPECT_TRUE(report.query_satisfiable);
}

TEST(RobustnessTest, OptimizerWithoutQueryPredicateFallsBackToP1) {
  Program p;
  Rule r = ParseRule("tc(X, Y) :- e(X, Y).").take();
  p.AddRule(std::move(r));
  // No SetQuery: the query-tree phase is skipped.
  SqoReport report = OptimizeProgram(p, {}).take();
  EXPECT_EQ(report.tree_classes, 0);
  EXPECT_FALSE(report.rewritten.rules().empty());
}

TEST(RobustnessTest, LocalRewriteCapTrips) {
  // Many local atoms over one predicate force exponential splitting; a tiny
  // cap must produce an error, not an OOM.
  Program p = MakeGoodPathProgram();
  std::vector<Constraint> ics;
  for (int i = 0; i < 12; ++i) {
    Constraint ic;
    ic.body.push_back(Literal::Pos(
        Atom("step", {Term::Var("X"), Term::Var("Y")})));
    ic.comparisons.push_back(
        Comparison(Term::Var("X"), CmpOp::kGe, Term::Int(i * 10)));
    ics.push_back(std::move(ic));
  }
  SqoOptions options;
  options.max_local_rewrite_rules = 8;
  Result<SqoReport> report = OptimizeProgram(p, ics, options);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().message().find("max_rules"), std::string::npos);
}

TEST(RobustnessTest, ChaseBudgetReportsResourceLimit) {
  Database db;
  db.InsertAtom(Atom("seed", {Term::Int(0)}));
  for (int i = 0; i < 40; ++i) {
    db.InsertAtom(Atom("n", {Term::Int(i)}));
  }
  // Quadratic repair demand against a budget of 5.
  Constraint ic = ParseConstraint(":- n(X), n(Y), !pair(X, Y).").take();
  ChaseOptions options;
  options.max_steps = 5;
  ChaseOutcome outcome = ChaseSatisfiable(db, {ic}, options);
  EXPECT_EQ(outcome.result, ChaseResult::kResourceLimit);
}

TEST(RobustnessTest, ZeroArityEverywhere) {
  ParsedUnit unit = ParseUnit(R"(
    alarm :- sensor(X), threshold(Y), X > Y.
    quiet :- calm, !alarm2.
    calm. sensor(5). threshold(3).
    ?- alarm.
  )").take();
  Database edb;
  for (const Atom& fact : unit.facts) edb.InsertAtom(fact);
  auto answers = EvaluateQuery(unit.program, edb).take();
  EXPECT_EQ(answers.size(), 1u);
}

TEST(RobustnessTest, ConstantOnlyRules) {
  auto unit = ParseUnit(R"(
    special(7) :- marker(ok).
    marker(ok).
    ?- special.
  )").take();
  Database edb;
  for (const Atom& fact : unit.facts) edb.InsertAtom(fact);
  auto answers = EvaluateQuery(unit.program, edb).take();
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0][0], Value::Int(7));
}

TEST(RobustnessTest, SelfJoinHeavyRule) {
  // A rule with 6 occurrences of the same predicate stresses the residue
  // mapping enumeration (exponential in IC atoms x body atoms) under caps.
  Program p = ParseProgram(R"(
    hub(A) :- e(A, B), e(A, C), e(A, D), e(B, C), e(C, D), e(B, D).
    ?- hub.
  )").take();
  Constraint ic = ParseConstraint(":- e(X, Y), e(Y, X).").take();
  Result<SqoReport> report = OptimizeProgram(p, {ic});
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_TRUE(report.value().query_satisfiable);
}

// "pred(X0, ..., Xn-1)", or with the constants 0..n-1 for a fact.
std::string WideAtom(const char* pred, int arity, bool vars) {
  std::string out = std::string(pred) + "(";
  for (int i = 0; i < arity; ++i) {
    if (i > 0) out += ", ";
    out += (vars ? "X" : "") + std::to_string(i);
  }
  return out + ")";
}

// A unit with an atom wider than Relation::kMaxArity must come back as
// kInvalidArgument from Engine::Open and from the service, and the service
// must go on answering valid requests.
void ExpectWideUnitRejected(const std::string& source) {
  Engine engine;
  Result<Session> opened = engine.Open(source);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument)
      << opened.status().message();

  ServiceOptions options;
  options.threads = 1;
  QueryService service(options);
  Request wide;
  wide.source = source;
  Response rejected = service.Call(wide);
  EXPECT_EQ(rejected.status.code(), StatusCode::kInvalidArgument)
      << rejected.status.message();

  Request valid;
  valid.source = "p(X) :- e(X).\ne(1). e(2).\n?- p.\n";
  Response answered = service.Call(valid);
  ASSERT_TRUE(answered.status.ok()) << answered.status.message();
  EXPECT_EQ(answered.answers.size(), 2u);
}

TEST(RobustnessTest, RuleAboveMaxArityIsRejected) {
  const int arity = Relation::kMaxArity + 1;
  ExpectWideUnitRejected(WideAtom("p", arity, true) + " :- " +
                         WideAtom("e", arity, true) + ".\n?- p.\n");
  // The limit itself is fine.
  Engine engine;
  const int max = Relation::kMaxArity;
  EXPECT_TRUE(engine
                  .Open(WideAtom("p", max, true) + " :- " +
                        WideAtom("e", max, true) + ".\n" +
                        WideAtom("e", max, false) + ".\n?- p.\n")
                  .ok());
}

TEST(RobustnessTest, FactAboveMaxArityIsRejected) {
  ExpectWideUnitRejected("p(X) :- e(X).\n" +
                         WideAtom("w", Relation::kMaxArity + 1, false) +
                         ".\n?- p.\n");
}

}  // namespace
}  // namespace sqod
