// Stratified IDB negation in the evaluator (an engine-level extension; the
// SQO pipeline itself keeps the paper's EDB-only-negation setting).

#include <gtest/gtest.h>

#include "src/eval/evaluator.h"
#include "src/parser/parser.h"
#include "src/sqo/optimizer.h"
#include "tests/reference_eval.h"

namespace sqod {
namespace {

std::vector<Tuple> RunText(const std::string& source) {
  ParsedUnit unit = ParseUnit(source).take();
  Database edb;
  for (const Atom& fact : unit.facts) edb.InsertAtom(fact);
  return EvaluateQuery(unit.program, edb).take();
}

Tuple Ints(std::vector<int64_t> vals) {
  Tuple t;
  for (int64_t v : vals) t.push_back(Value::Int(v));
  return t;
}

TEST(StratifiedTest, ComplementOfReachability) {
  // unreachable = nodes not reachable from the start.
  auto result = RunText(R"(
    reach(X) :- start(X).
    reach(Y) :- reach(X), e(X, Y).
    unreachable(X) :- node(X), !reach(X).
    node(1). node(2). node(3). node(4).
    start(1). e(1, 2). e(2, 3).
    ?- unreachable.
  )");
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0], Ints({4}));
}

TEST(StratifiedTest, ThreeStrata) {
  // base -> derived (negates base) -> top (negates derived).
  auto result = RunText(R"(
    even(X) :- zero(X).
    even(Y) :- even(X), succ2(X, Y).
    odd(X) :- num(X), !even(X).
    both(X) :- num(X), !odd(X).
    zero(0). succ2(0, 2). succ2(2, 4).
    num(0). num(1). num(2). num(3). num(4).
    ?- both.
  )");
  // both == even on nums.
  ASSERT_EQ(result.size(), 3u);
  EXPECT_EQ(result[0], Ints({0}));
  EXPECT_EQ(result[2], Ints({4}));
}

TEST(StratifiedTest, NegationOfLowerStratumInsideRecursion) {
  // The recursive rule of `safe` negates the completed `bad` relation.
  auto result = RunText(R"(
    bad(X) :- flagged(X).
    safe(X) :- start(X), !bad(X).
    safe(Y) :- safe(X), e(X, Y), !bad(Y).
    start(1). e(1, 2). e(2, 3). e(3, 4). flagged(3).
    ?- safe.
  )");
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0], Ints({1}));
  EXPECT_EQ(result[1], Ints({2}));
}

TEST(StratifiedTest, NaiveAgreesWithSemiNaive) {
  const char* source = R"(
    reach(X) :- start(X).
    reach(Y) :- reach(X), e(X, Y).
    unreachable(X) :- node(X), !reach(X).
    island(X) :- unreachable(X), !hub(X).
    node(1). node(2). node(3). node(4). node(5).
    start(1). e(1, 2). hub(4).
    ?- island.
  )";
  ParsedUnit unit = ParseUnit(source).take();
  Database edb;
  for (const Atom& fact : unit.facts) edb.InsertAtom(fact);
  // The naive, nested-loop reference evaluator shares no code with the
  // engine's semi-naive strata.
  EXPECT_EQ(EvaluateQuery(unit.program, edb).take(),
            ReferenceQuery(unit.program, edb));
}

TEST(StratifiedTest, SqoPipelineRejectsIdbNegation) {
  ParsedUnit unit = ParseUnit(R"(
    reach(X) :- start(X).
    reach(Y) :- reach(X), e(X, Y).
    unreachable(X) :- node(X), !reach(X).
    ?- unreachable.
  )").take();
  auto result = OptimizeProgram(unit.program, {});
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("EDB predicates only"),
            std::string::npos);
}

TEST(StratifiedTest, NonStratifiedEvaluationFails) {
  Program p;
  Rule r;
  r.head = Atom("win", {Term::Var("X")});
  r.body.push_back(Literal::Pos(Atom("move", {Term::Var("X"), Term::Var("Y")})));
  r.body.push_back(Literal::Neg(Atom("win", {Term::Var("Y")})));
  p.AddRule(std::move(r));
  p.SetQuery("win");
  Database edb;
  edb.InsertAtom(Atom("move", {Term::Int(1), Term::Int(2)}));
  Evaluator evaluator(p);
  EXPECT_FALSE(evaluator.Evaluate(edb).ok());
}

TEST(StratifiedTest, LowerStratumReadInPositiveSubgoal) {
  // A higher stratum reads a lower stratum positively and recursively
  // extends it; the lower relation must be complete before the upper
  // stratum starts.
  auto result = RunText(R"(
    core(X) :- seed(X).
    core(Y) :- core(X), strong(X, Y).
    fringe(X) :- core(X).
    fringe(Y) :- fringe(X), weak(X, Y), !core(Y).
    seed(1). strong(1, 2). weak(2, 3). weak(3, 4). strong(3, 9).
    ?- fringe.
  )");
  // fringe: 1, 2 (core), 3, 4 via weak; 9 is NOT added (9 only reachable
  // via strong from 3, but 3 is not core).
  ASSERT_EQ(result.size(), 4u);
  EXPECT_EQ(result[3], Ints({4}));
}

}  // namespace
}  // namespace sqod
