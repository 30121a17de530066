#include <gtest/gtest.h>

#include "src/cq/containment.h"
#include "src/cq/homomorphism.h"
#include "src/cq/ic_check.h"
#include "src/cq/linearize.h"
#include "src/cq/minimize.h"
#include "src/parser/parser.h"

namespace sqod {
namespace {

Rule Q(const std::string& text) { return ParseRule(text).take(); }
Constraint IC(const std::string& text) { return ParseConstraint(text).take(); }

bool HomomorphismExists(const std::vector<Atom>& from,
                        const std::vector<Atom>& to) {
  AtomMatchMemo memo;
  return ForEachHomomorphism(
      from, to, Substitution(), [](const Substitution&) { return true; },
      memo);
}

TEST(HomomorphismTest, SimpleMapping) {
  std::vector<Atom> from{Atom("e", {Term::Var("X"), Term::Var("Y")})};
  std::vector<Atom> to{Atom("e", {Term::Int(1), Term::Int(2)})};
  EXPECT_TRUE(HomomorphismExists(from, to));
}

TEST(HomomorphismTest, SharedVariableConstrains) {
  std::vector<Atom> from{Atom("e", {Term::Var("X"), Term::Var("Y")}),
                         Atom("e", {Term::Var("Y"), Term::Var("Z")})};
  std::vector<Atom> to{Atom("e", {Term::Int(1), Term::Int(2)})};
  EXPECT_FALSE(HomomorphismExists(from, to));  // needs 2 = 1
  to.push_back(Atom("e", {Term::Int(2), Term::Int(3)}));
  EXPECT_TRUE(HomomorphismExists(from, to));
}

TEST(HomomorphismTest, TargetVariablesAreFrozen) {
  std::vector<Atom> from{Atom("e", {Term::Int(5), Term::Var("Y")})};
  std::vector<Atom> to{Atom("e", {Term::Var("U"), Term::Var("V")})};
  // The constant 5 cannot map onto the frozen variable U.
  EXPECT_FALSE(HomomorphismExists(from, to));
}

TEST(HomomorphismTest, EnumeratesAll) {
  std::vector<Atom> from{Atom("e", {Term::Var("X"), Term::Var("Y")})};
  std::vector<Atom> to{Atom("e", {Term::Int(1), Term::Int(2)}),
                       Atom("e", {Term::Int(3), Term::Int(4)})};
  int count = 0;
  AtomMatchMemo memo;
  ForEachHomomorphism(
      from, to, Substitution(),
      [&](const Substitution&) {
        ++count;
        return false;
      },
      memo);
  EXPECT_EQ(count, 2);
}

TEST(LinearizeTest, CountsWeakOrders) {
  // 3 free terms: 13 weak orders (ordered Bell number).
  std::vector<Term> terms{Term::Var("A"), Term::Var("B"), Term::Var("C")};
  int count = 0;
  ForEachLinearization(terms, {}, [&](const Linearization&) {
    ++count;
    return false;
  });
  EXPECT_EQ(count, 13);
}

TEST(LinearizeTest, RespectsGivenConstraints) {
  std::vector<Term> terms{Term::Var("A"), Term::Var("B")};
  std::vector<Comparison> given{
      Comparison(Term::Var("A"), CmpOp::kLt, Term::Var("B"))};
  int count = 0;
  ForEachLinearization(terms, given, [&](const Linearization& lin) {
    EXPECT_EQ(lin.size(), 2u);
    ++count;
    return false;
  });
  EXPECT_EQ(count, 1);  // only A < B survives
}

TEST(LinearizeTest, ConstantsKeepTrueOrder) {
  std::vector<Term> terms{Term::Int(1), Term::Int(2), Term::Var("X")};
  int count = 0;
  ForEachLinearization(terms, {}, [&](const Linearization&) {
    ++count;
    return false;
  });
  // X can be: <1, =1, (1,2), =2, >2 -> 5 linearizations.
  EXPECT_EQ(count, 5);
}

TEST(CqContainmentTest, ClassicPositive) {
  // q1: triangle through x; q2: some edge. q1 is contained in q2.
  Rule q1 = Q("q(X) :- e(X, Y), e(Y, Z), e(Z, X).");
  Rule q2 = Q("q(X) :- e(X, Y).");
  EXPECT_TRUE(CqContained(q1, q2).take());
  EXPECT_FALSE(CqContained(q2, q1).take());
}

TEST(CqContainmentTest, HeadMustBePreserved) {
  Rule q1 = Q("q(X) :- e(X, Y).");
  Rule q2 = Q("q(Y) :- e(X, Y).");
  EXPECT_FALSE(CqContained(q1, q2).take());
}

TEST(CqContainmentTest, SelfContainment) {
  Rule q = Q("q(X, Y) :- e(X, Z), e(Z, Y).");
  EXPECT_TRUE(CqContained(q, q).take());
}

TEST(CqContainmentTest, ConstantsMatter) {
  Rule q1 = Q("q(X) :- e(X, 5).");
  Rule q2 = Q("q(X) :- e(X, Y).");
  EXPECT_TRUE(CqContained(q1, q2).take());
  EXPECT_FALSE(CqContained(q2, q1).take());
}

TEST(CqContainmentTest, UnionNeededForDisjunction) {
  // q: one edge. u = {edges into 1, edges not into 1}? Not expressible
  // without order; use a simpler union test: q is contained in q1 u q2
  // where q1/q2 are specializations covering q only jointly via order atoms.
  Rule q = Q("q(X, Y) :- e(X, Y).");
  Rule lo = Q("q(X, Y) :- e(X, Y), X <= Y.");
  Rule hi = Q("q(X, Y) :- e(X, Y), X >= Y.");
  EXPECT_FALSE(CqContained(q, lo).take());
  EXPECT_FALSE(CqContained(q, hi).take());
  EXPECT_TRUE(CqContainedInUnion(q, {lo, hi}).take());
}

TEST(CqContainmentTest, KlugOrderEntailment) {
  // q1 has X < Y < Z, q2 needs X < Z: entailed.
  Rule q1 = Q("q(X, Z) :- e(X, Y), e(Y, Z), X < Y, Y < Z.");
  Rule q2 = Q("q(X, Z) :- e(X, Y), e(Y, Z), X < Z.");
  EXPECT_TRUE(CqContained(q1, q2).take());
  EXPECT_FALSE(CqContained(q2, q1).take());
}

TEST(CqContainmentTest, UnsatisfiableBodyContainedInAnything) {
  Rule q1 = Q("q(X) :- e(X, Y), X < Y, Y < X.");
  Rule q2 = Q("q(X) :- f(X).");
  EXPECT_TRUE(CqContained(q1, q2).take());
}

TEST(CqContainmentTest, NegationRejected) {
  Rule q1 = Q("q(X) :- e(X, Y), !f(Y).");
  Rule q2 = Q("q(X) :- e(X, Y).");
  EXPECT_FALSE(CqContained(q1, q2).ok());
}

TEST(CqContainmentTest, UcqBothSides) {
  Rule qa = Q("q(X) :- a(X).");
  Rule qb = Q("q(X) :- b(X).");
  Rule qab = Q("q(X) :- a(X), b(X).");
  EXPECT_TRUE(UcqContained({qab}, {qa, qb}).take());
  EXPECT_FALSE(UcqContained({qa, qb}, {qab}).take());
  EXPECT_TRUE(UcqContained({qa, qb}, {qa, qb}).take());
}

TEST(CqEquivalenceTest, RedundantAtom) {
  Rule q1 = Q("q(X) :- e(X, Y), e(X, Z).");
  Rule q2 = Q("q(X) :- e(X, Y).");
  EXPECT_TRUE(CqEquivalent(q1, q2).take());
}

TEST(MinimizeTest, DropsRedundantAtoms) {
  Rule q = Q("q(X) :- e(X, Y), e(X, Z).");
  Rule m = MinimizeCq(q).take();
  EXPECT_EQ(m.body.size(), 1u);
  EXPECT_TRUE(CqEquivalent(q, m).take());
}

TEST(MinimizeTest, CoreIsKept) {
  Rule q = Q("q(X) :- e(X, Y), e(Y, X).");
  Rule m = MinimizeCq(q).take();
  EXPECT_EQ(m.body.size(), 2u);
}

TEST(MinimizeUcqTest, DropsCoveredDisjuncts) {
  // The 2-step disjunct is contained in the 1-step one? No — the other way:
  // a 2-step path instance is covered by "some edge" via containment.
  Rule general = Q("q(X) :- e(X, Y).");
  Rule specific = Q("q(X) :- e(X, Y), e(Y, Z).");
  UnionOfCqs minimized = MinimizeUcq({general, specific}).take();
  ASSERT_EQ(minimized.size(), 1u);
  EXPECT_EQ(minimized[0].body.size(), 1u);
}

TEST(MinimizeUcqTest, KeepsIncomparableDisjuncts) {
  UnionOfCqs ucq{Q("q(X) :- a(X)."), Q("q(X) :- b(X).")};
  EXPECT_EQ(MinimizeUcq(ucq).take().size(), 2u);
}

TEST(MinimizeUcqTest, MinimizesSurvivors) {
  UnionOfCqs ucq{Q("q(X) :- a(X), e(X, Y), e(X, Z).")};
  UnionOfCqs minimized = MinimizeUcq(ucq).take();
  ASSERT_EQ(minimized.size(), 1u);
  EXPECT_EQ(minimized[0].body.size(), 2u);  // one e atom dropped
}

TEST(MinimizeUcqTest, OrderDisjunctsViaKlug) {
  // lo and hi jointly cover the unconstrained disjunct; the unconstrained
  // one covers each of them, so a single disjunct remains.
  Rule q = Q("q(X, Y) :- e(X, Y).");
  Rule lo = Q("q(X, Y) :- e(X, Y), X <= Y.");
  Rule hi = Q("q(X, Y) :- e(X, Y), X >= Y.");
  // Greedy in order: lo and hi are each covered by q and dropped first.
  UnionOfCqs minimized = MinimizeUcq({lo, hi, q}).take();
  ASSERT_EQ(minimized.size(), 1u);
  EXPECT_TRUE(minimized[0].comparisons.empty());
  // The reverse order drops q first (covered by lo + hi jointly — the
  // union-aware Klug test) and keeps the two halves.
  EXPECT_EQ(MinimizeUcq({q, lo, hi}).take().size(), 2u);
}

TEST(IcCheckTest, PlainViolation) {
  Database db;
  db.InsertAtom(Atom("a", {Term::Int(1), Term::Int(2)}));
  db.InsertAtom(Atom("b", {Term::Int(2), Term::Int(3)}));
  Constraint ic = IC(":- a(X, Y), b(Y, Z).");
  EXPECT_TRUE(Violates(db, ic));
}

TEST(IcCheckTest, NoViolationWhenJoinEmpty) {
  Database db;
  db.InsertAtom(Atom("a", {Term::Int(1), Term::Int(2)}));
  db.InsertAtom(Atom("b", {Term::Int(5), Term::Int(3)}));
  EXPECT_FALSE(Violates(db, IC(":- a(X, Y), b(Y, Z).")));
}

TEST(IcCheckTest, OrderAtomGates) {
  Database db;
  db.InsertAtom(Atom("startPoint", {Term::Int(10)}));
  db.InsertAtom(Atom("endPoint", {Term::Int(20)}));
  EXPECT_FALSE(Violates(db, IC(":- startPoint(X), endPoint(Y), Y <= X.")));
  db.InsertAtom(Atom("endPoint", {Term::Int(5)}));
  EXPECT_TRUE(Violates(db, IC(":- startPoint(X), endPoint(Y), Y <= X.")));
}

TEST(IcCheckTest, NegatedAtomInIc) {
  Database db;
  db.InsertAtom(Atom("succ", {Term::Int(0), Term::Int(1)}));
  Constraint ic = IC(":- succ(X, Y), !dom(X).");
  EXPECT_TRUE(Violates(db, ic));
  db.InsertAtom(Atom("dom", {Term::Int(0)}));
  EXPECT_FALSE(Violates(db, ic));
}

TEST(IcCheckTest, SatisfiesAllAndFirstViolated) {
  Database db;
  db.InsertAtom(Atom("a", {Term::Int(1), Term::Int(2)}));
  std::vector<Constraint> ics{IC(":- a(X, Y), b(Y, Z)."),
                              IC(":- a(X, X).")};
  EXPECT_TRUE(SatisfiesAll(db, ics));
  db.InsertAtom(Atom("a", {Term::Int(3), Term::Int(3)}));
  auto violated = FirstViolated(db, ics);
  ASSERT_TRUE(violated.has_value());
  EXPECT_EQ(*violated, 1);
}

}  // namespace
}  // namespace sqod
