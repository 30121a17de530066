#include <gtest/gtest.h>

#include "src/ast/pattern.h"
#include "src/ast/program.h"
#include "src/ast/substitution.h"
#include "src/ast/unify.h"
#include "src/parser/parser.h"

namespace sqod {
namespace {

Term V(const char* name) { return Term::Var(name); }

TEST(TermTest, VarIdentity) {
  EXPECT_EQ(V("X"), V("X"));
  EXPECT_NE(V("X"), V("Y"));
  EXPECT_NE(V("X"), Term::Int(1));
}

TEST(TermTest, ConstIdentity) {
  EXPECT_EQ(Term::Int(3), Term::Int(3));
  EXPECT_NE(Term::Int(3), Term::Int(4));
  EXPECT_EQ(Term::Symbol("a"), Term::Symbol("a"));
}

TEST(TermTest, FreshVarsAreFresh) {
  FreshVarGen gen;
  Term a = gen.Next();
  Term b = gen.Next();
  EXPECT_NE(a, b);
  EXPECT_TRUE(a.is_var());
}

TEST(TermTest, ScopedFreshNamesRestartAndSkipReservedNames) {
  FreshVarGen gen;
  {
    FreshNameScope scope;
    scope.Reserve({V("Sc#0").var(), V("Sc#2").var()});
    EXPECT_EQ(gen.NextLike("Sc").ToString(), "Sc#1");
    {
      // A nested scope joins the open one: its names continue the count.
      FreshNameScope nested;
      EXPECT_EQ(gen.NextLike("Sc").ToString(), "Sc#3");
    }
    EXPECT_EQ(gen.NextLike("Sc").ToString(), "Sc#4");
  }
  {
    // The next run starts over, with no reservations left behind.
    FreshNameScope scope;
    EXPECT_EQ(gen.NextLike("Sc").ToString(), "Sc#0");
  }
  // Outside any scope, fresh means never interned anywhere.
  const int before = GlobalStrings().size();
  Term outside = gen.NextLike("Sc");
  EXPECT_EQ(GlobalStrings().size(), before + 1);
  EXPECT_NE(outside.ToString(), "Sc#0");
}

TEST(AtomTest, CollectVarsInOrderWithoutDuplicates) {
  Atom a("p", {V("X"), V("Y"), V("X"), Term::Int(1)});
  std::vector<VarId> vars;
  a.CollectVars(&vars);
  ASSERT_EQ(vars.size(), 2u);
  EXPECT_EQ(GlobalStrings().Name(vars[0]), "X");
  EXPECT_EQ(GlobalStrings().Name(vars[1]), "Y");
}

TEST(AtomTest, GroundCheck) {
  EXPECT_TRUE(Atom("p", {Term::Int(1), Term::Symbol("a")}).is_ground());
  EXPECT_FALSE(Atom("p", {Term::Int(1), V("X")}).is_ground());
  EXPECT_TRUE(Atom("p", {}).is_ground());
}

TEST(AtomTest, ToString) {
  EXPECT_EQ(Atom("p", {V("X"), Term::Int(2)}).ToString(), "p(X, 2)");
  EXPECT_EQ(Atom("halt", {}).ToString(), "halt");
}

TEST(ComparisonTest, NegateAndFlip) {
  Comparison c(V("X"), CmpOp::kLt, V("Y"));
  EXPECT_EQ(c.Negated().op, CmpOp::kGe);
  EXPECT_EQ(c.Flipped().op, CmpOp::kGt);
  EXPECT_EQ(c.Flipped().lhs, V("Y"));
}

TEST(ComparisonTest, CanonicalRemovesGtGe) {
  Comparison c(V("X"), CmpOp::kGt, V("Y"));
  Comparison canon = c.Canonical();
  EXPECT_EQ(canon.op, CmpOp::kLt);
  EXPECT_EQ(canon.lhs, V("Y"));
  EXPECT_EQ(canon.rhs, V("X"));
}

TEST(ComparisonTest, CanonicalOrientsSymmetricOps) {
  Comparison a(V("Y"), CmpOp::kEq, V("X"));
  Comparison b(V("X"), CmpOp::kEq, V("Y"));
  EXPECT_EQ(a.Canonical(), b.Canonical());
}

TEST(ComparisonTest, EvalCmpOverValues) {
  EXPECT_TRUE(EvalCmp(Value::Int(1), CmpOp::kLt, Value::Int(2)));
  EXPECT_FALSE(EvalCmp(Value::Int(2), CmpOp::kLt, Value::Int(2)));
  EXPECT_TRUE(EvalCmp(Value::Int(2), CmpOp::kLe, Value::Int(2)));
  EXPECT_TRUE(EvalCmp(Value::Symbol("a"), CmpOp::kNe, Value::Symbol("b")));
}

TEST(SubstitutionTest, ApplyToAtom) {
  Substitution s;
  s.Bind(V("X").var(), Term::Int(5));
  Atom a = s.Apply(Atom("p", {V("X"), V("Y")}));
  EXPECT_EQ(a.arg(0), Term::Int(5));
  EXPECT_EQ(a.arg(1), V("Y"));
}

TEST(SubstitutionTest, WalkFollowsChains) {
  Substitution s;
  s.Bind(V("X").var(), V("Y"));
  s.Bind(V("Y").var(), Term::Int(9));
  EXPECT_EQ(s.Walk(V("X")), Term::Int(9));
}

TEST(UnifyTest, BasicUnification) {
  auto mgu = Unify(Atom("p", {V("X"), Term::Int(1)}),
                   Atom("p", {Term::Int(2), V("Y")}));
  ASSERT_TRUE(mgu.has_value());
  EXPECT_EQ(mgu->Apply(V("X")), Term::Int(2));
  EXPECT_EQ(mgu->Apply(V("Y")), Term::Int(1));
}

TEST(UnifyTest, FailsOnConstantMismatch) {
  EXPECT_FALSE(Unify(Atom("p", {Term::Int(1)}), Atom("p", {Term::Int(2)}))
                   .has_value());
}

TEST(UnifyTest, FailsOnDifferentPredicates) {
  EXPECT_FALSE(Unify(Atom("p", {V("X")}), Atom("q", {V("X")})).has_value());
}

TEST(UnifyTest, RepeatedVariablePropagates) {
  // p(X, X) with p(Y, 3) forces X = Y = 3.
  auto mgu = Unify(Atom("p", {V("X"), V("X")}), Atom("p", {V("Y"), Term::Int(3)}));
  ASSERT_TRUE(mgu.has_value());
  EXPECT_EQ(mgu->Walk(V("X")), Term::Int(3));
  EXPECT_EQ(mgu->Walk(V("Y")), Term::Int(3));
}

TEST(MatchTest, OneWayOnly) {
  Substitution s;
  // Matching is one-way: target variables are frozen.
  EXPECT_TRUE(MatchInto(Atom("p", {V("X")}), Atom("p", {V("T")}), &s));
  EXPECT_EQ(*s.Lookup(V("X").var()), V("T"));
  Substitution s2;
  EXPECT_FALSE(
      MatchInto(Atom("p", {Term::Int(1)}), Atom("p", {V("T")}), &s2));
}

TEST(MatchTest, ConsistencyAcrossPositions) {
  Substitution s;
  EXPECT_FALSE(MatchInto(Atom("p", {V("X"), V("X")}),
                         Atom("p", {Term::Int(1), Term::Int(2)}), &s));
}

TEST(RenameApartTest, ProducesDisjointVariables) {
  FreshVarGen gen;
  Rule r = ParseRule("p(X, Y) :- e(X, Z), p(Z, Y).").take();
  Rule renamed = RenameApart(r, &gen);
  std::vector<VarId> orig = r.Vars();
  std::vector<VarId> fresh = renamed.Vars();
  EXPECT_EQ(orig.size(), fresh.size());
  for (VarId v : fresh) {
    EXPECT_EQ(std::count(orig.begin(), orig.end(), v), 0);
  }
}

TEST(PatternTest, IsomorphicAtoms) {
  EXPECT_TRUE(AtomsIsomorphic(Atom("p", {V("X"), V("Y")}),
                              Atom("p", {V("A"), V("B")})));
  EXPECT_TRUE(AtomsIsomorphic(Atom("p", {V("X"), V("X")}),
                              Atom("p", {V("B"), V("B")})));
  EXPECT_FALSE(AtomsIsomorphic(Atom("p", {V("X"), V("X")}),
                               Atom("p", {V("A"), V("B")})));
}

TEST(PatternTest, ConstantsParticipate) {
  EXPECT_TRUE(AtomsIsomorphic(Atom("p", {V("X"), Term::Int(1)}),
                              Atom("p", {V("Z"), Term::Int(1)})));
  EXPECT_FALSE(AtomsIsomorphic(Atom("p", {V("X"), Term::Int(1)}),
                               Atom("p", {V("Z"), Term::Int(2)})));
  EXPECT_FALSE(AtomsIsomorphic(Atom("p", {V("X"), Term::Int(1)}),
                               Atom("p", {V("Z"), V("W")})));
}

TEST(ProgramTest, IdbEdbClassification) {
  Program p = ParseProgram(R"(
    path(X, Y) :- step(X, Y).
    path(X, Y) :- step(X, Z), path(Z, Y).
    ?- path.
  )").take();
  EXPECT_TRUE(p.IsIdb(InternPred("path")));
  EXPECT_TRUE(p.IsEdb(InternPred("step")));
  EXPECT_FALSE(p.IsEdb(InternPred("path")));
  EXPECT_EQ(p.Arity(InternPred("path")), 2);
}

TEST(ProgramTest, InitializationRules) {
  Program p = ParseProgram(R"(
    path(X, Y) :- step(X, Y).
    path(X, Y) :- step(X, Z), path(Z, Y).
  )").take();
  std::vector<int> init = p.InitializationRules();
  ASSERT_EQ(init.size(), 1u);
  EXPECT_EQ(init[0], 0);
}

TEST(ProgramTest, ValidateRejectsUnsafeHead) {
  Program p;
  Rule r;
  r.head = Atom("p", {V("X")});
  r.body.push_back(Literal::Pos(Atom("e", {V("Y")})));
  p.AddRule(std::move(r));
  EXPECT_FALSE(p.Validate().ok());
}

TEST(ProgramTest, ValidateRejectsUnsafeNegation) {
  Program p;
  Rule r;
  r.head = Atom("p", {V("X")});
  r.body.push_back(Literal::Pos(Atom("e", {V("X")})));
  r.body.push_back(Literal::Neg(Atom("f", {V("Z")})));
  p.AddRule(std::move(r));
  EXPECT_FALSE(p.Validate().ok());
}

TEST(ProgramTest, StratifiedIdbNegationValidates) {
  // q negates the non-recursive p: stratified, hence accepted.
  Program p = ParseProgram("p(X) :- e(X).").take();
  Rule r;
  r.head = Atom("q", {V("X")});
  r.body.push_back(Literal::Pos(Atom("e", {V("X")})));
  r.body.push_back(Literal::Neg(Atom("p", {V("X")})));
  p.AddRule(std::move(r));
  EXPECT_TRUE(p.Validate().ok());
  EXPECT_FALSE(p.NegationOnEdbOnly());
  auto strata = p.Stratify();
  ASSERT_TRUE(strata.ok());
  EXPECT_EQ(strata.value().at(InternPred("p")), 0);
  EXPECT_EQ(strata.value().at(InternPred("q")), 1);
}

TEST(ProgramTest, NonStratifiedNegationRejected) {
  // win(X) :- move(X, Y), !win(Y): negation through the recursive cycle.
  Program p;
  Rule r;
  r.head = Atom("win", {V("X")});
  r.body.push_back(Literal::Pos(Atom("move", {V("X"), V("Y")})));
  r.body.push_back(Literal::Neg(Atom("win", {V("Y")})));
  p.AddRule(std::move(r));
  EXPECT_FALSE(p.Validate().ok());
  EXPECT_FALSE(p.Stratify().ok());
}

TEST(ProgramTest, StrataAreComponentsInProgramTextOrder) {
  // q and p share a negation depth but are independent components: each
  // gets its own stratum, the one defined first going first.
  Program p = ParseProgram("q(X) :- e(X).\n"
                           "p(X) :- e(X).\n"
                           "r(X) :- p(X), !q(X).\n"
                           "t(X, Y) :- e2(X, Y).\n"
                           "t(X, Z) :- t(X, Y), t(Y, Z).\n"
                           "s(X) :- t(X, X), r(X).\n")
                  .take();
  Result<std::map<PredId, int>> strata = p.Stratify();
  ASSERT_TRUE(strata.ok()) << strata.status().message();
  const std::map<PredId, int> expected = {
      {InternPred("q"), 0}, {InternPred("p"), 1}, {InternPred("r"), 2},
      {InternPred("t"), 3}, {InternPred("s"), 4}};
  EXPECT_EQ(strata.value(), expected);
}

TEST(ProgramTest, NegationCycleIsRejected) {
  // Neither p nor q is recursive through a positive edge, but they negate
  // each other: one component with a negated edge inside it.
  Result<Program> p = ParseProgram("p(X) :- e(X), !q(X).\n"
                                   "q(X) :- e(X), !p(X).\n");
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.status().message().find(
                "program is not stratified: negation through the recursive "
                "cycle of p"),
            std::string::npos)
      << p.status().message();
}

TEST(ProgramTest, StrataDoNotDependOnInterningOrder) {
  // The same unit under two renamings: the first interns its predicates in
  // program-text order, the second after unrelated interning has given its
  // later predicates the smaller ids. Strata follow the text in both.
  auto strata_by_position = [](const std::string& prefix) {
    Program p = ParseProgram(prefix + "a(X) :- e(X).\n" + prefix +
                             "b(X) :- e(X).\n" + prefix + "c(X) :- " +
                             prefix + "a(X), !" + prefix + "b(X).\n")
                    .take();
    std::map<PredId, int> strata = p.Stratify().take();
    return std::vector<int>{strata.at(InternPred(prefix + "a")),
                            strata.at(InternPred(prefix + "b")),
                            strata.at(InternPred(prefix + "c"))};
  };
  const std::vector<int> in_order = strata_by_position("intern_fwd_");
  InternPred("intern_rev_c");
  InternPred("intern_rev_b");
  ASSERT_LT(InternPred("intern_rev_b"), InternPred("intern_rev_a"));
  EXPECT_EQ(strata_by_position("intern_rev_"), in_order);
  EXPECT_EQ(in_order, (std::vector<int>{0, 1, 2}));
}

TEST(ProgramTest, ValidateRejectsArityMismatch) {
  Program p;
  Rule r1;
  r1.head = Atom("p", {V("X")});
  r1.body.push_back(Literal::Pos(Atom("e", {V("X")})));
  Rule r2;
  r2.head = Atom("p", {V("X"), V("Y")});
  r2.body.push_back(Literal::Pos(Atom("e", {V("X")})));
  r2.body.push_back(Literal::Pos(Atom("e", {V("Y")})));
  p.AddRule(std::move(r1));
  p.AddRule(std::move(r2));
  EXPECT_FALSE(p.Validate().ok());
}

TEST(ProgramTest, ValidateConstraintRejectsIdb) {
  Program p = ParseProgram("p(X) :- e(X).").take();
  Constraint ic;
  ic.body.push_back(Literal::Pos(Atom("p", {V("X")})));
  EXPECT_FALSE(p.ValidateConstraint(ic).ok());
}

TEST(RuleTest, VarsAndToString) {
  Rule r = ParseRule("p(X, Y) :- e(X, Z), p(Z, Y), X < Y.").take();
  EXPECT_EQ(r.Vars().size(), 3u);
  EXPECT_EQ(r.ToString(), "p(X, Y) :- e(X, Z), p(Z, Y), X < Y.");
}

TEST(ConstraintTest, IsPlain) {
  Constraint plain = ParseConstraint(":- a(X, Y), b(Y, Z).").take();
  EXPECT_TRUE(plain.IsPlain());
  Constraint with_order = ParseConstraint(":- a(X, Y), X < Y.").take();
  EXPECT_FALSE(with_order.IsPlain());
  Constraint with_neg = ParseConstraint(":- a(X, Y), !b(X, Y).").take();
  EXPECT_FALSE(with_neg.IsPlain());
}

}  // namespace
}  // namespace sqod
