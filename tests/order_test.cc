#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "src/order/clause_solver.h"
#include "src/order/solver.h"
#include "src/parser/parser.h"

namespace sqod {
namespace {

Term V(const char* name) { return Term::Var(name); }
Comparison C(Term a, CmpOp op, Term b) { return Comparison(a, op, b); }

TEST(OrderSolverTest, EmptyIsConsistent) {
  EXPECT_TRUE(OrderSolver().Consistent());
}

TEST(OrderSolverTest, SimpleChainConsistent) {
  OrderSolver s({C(V("X"), CmpOp::kLt, V("Y")), C(V("Y"), CmpOp::kLt, V("Z"))});
  EXPECT_TRUE(s.Consistent());
}

TEST(OrderSolverTest, StrictCycleInconsistent) {
  OrderSolver s({C(V("X"), CmpOp::kLt, V("Y")), C(V("Y"), CmpOp::kLt, V("X"))});
  EXPECT_FALSE(s.Consistent());
}

TEST(OrderSolverTest, MixedCycleWithStrictEdgeInconsistent) {
  OrderSolver s({C(V("X"), CmpOp::kLe, V("Y")), C(V("Y"), CmpOp::kLt, V("X"))});
  EXPECT_FALSE(s.Consistent());
}

TEST(OrderSolverTest, LeCycleForcesEquality) {
  OrderSolver s({C(V("X"), CmpOp::kLe, V("Y")), C(V("Y"), CmpOp::kLe, V("X")),
                 C(V("X"), CmpOp::kNe, V("Y"))});
  EXPECT_FALSE(s.Consistent());
}

TEST(OrderSolverTest, EqualityMergesWithNe) {
  OrderSolver s({C(V("X"), CmpOp::kEq, V("Y")), C(V("X"), CmpOp::kNe, V("Y"))});
  EXPECT_FALSE(s.Consistent());
}

TEST(OrderSolverTest, SelfNeInconsistent) {
  OrderSolver s({C(V("X"), CmpOp::kNe, V("X"))});
  EXPECT_FALSE(s.Consistent());
}

TEST(OrderSolverTest, ConstantsAreOrdered) {
  // X <= 1 and X >= 2 is inconsistent.
  OrderSolver s({C(V("X"), CmpOp::kLe, Term::Int(1)),
                 C(V("X"), CmpOp::kGe, Term::Int(2))});
  EXPECT_FALSE(s.Consistent());
}

TEST(OrderSolverTest, DenseOrderBetweenConstants) {
  // Over a dense order there is room strictly between 1 and 2.
  OrderSolver s({C(V("X"), CmpOp::kGt, Term::Int(1)),
                 C(V("X"), CmpOp::kLt, Term::Int(2))});
  EXPECT_TRUE(s.Consistent());
}

TEST(OrderSolverTest, ConstantsForcedEqualInconsistent) {
  OrderSolver s({C(Term::Int(1), CmpOp::kEq, Term::Int(2))});
  EXPECT_FALSE(s.Consistent());
}

TEST(OrderSolverTest, GroundFalseComparison) {
  OrderSolver s({C(Term::Int(3), CmpOp::kLt, Term::Int(2))});
  EXPECT_FALSE(s.Consistent());
}

TEST(OrderSolverTest, SymbolsUseLexicographicOrder) {
  OrderSolver s({C(Term::Symbol("b"), CmpOp::kLt, Term::Symbol("a"))});
  EXPECT_FALSE(s.Consistent());
}

TEST(OrderSolverTest, EntailsTransitive) {
  OrderSolver s({C(V("X"), CmpOp::kLt, V("Y")), C(V("Y"), CmpOp::kLt, V("Z"))});
  EXPECT_TRUE(s.Entails(C(V("X"), CmpOp::kLt, V("Z"))));
  EXPECT_TRUE(s.Entails(C(V("X"), CmpOp::kNe, V("Z"))));
  EXPECT_FALSE(s.Entails(C(V("Z"), CmpOp::kLt, V("X"))));
}

TEST(OrderSolverTest, EntailsThroughConstants) {
  OrderSolver s({C(V("X"), CmpOp::kGe, Term::Int(100))});
  EXPECT_TRUE(s.Entails(C(V("X"), CmpOp::kGt, Term::Int(99))));
  EXPECT_FALSE(s.Entails(C(V("X"), CmpOp::kGt, Term::Int(100))));
}

TEST(OrderSolverTest, InconsistentEntailsEverything) {
  OrderSolver s({C(V("X"), CmpOp::kLt, V("X"))});
  EXPECT_TRUE(s.Entails(C(V("A"), CmpOp::kEq, V("B"))));
}

TEST(OrderSolverTest, ForcedEqualitiesFromLeCycle) {
  OrderSolver s({C(V("X"), CmpOp::kLe, V("Y")), C(V("Y"), CmpOp::kLe, V("X"))});
  auto eqs = s.ForcedEqualities();
  ASSERT_EQ(eqs.size(), 1u);
}

TEST(OrderSolverTest, ForcedEqualityPrefersConstantRepresentative) {
  OrderSolver s({C(V("X"), CmpOp::kEq, Term::Int(7))});
  auto eqs = s.ForcedEqualities();
  ASSERT_EQ(eqs.size(), 1u);
  EXPECT_EQ(eqs[0].second, Term::Int(7));
}

TEST(OrderSolverTest, NoForcedEqualitiesWhenFree) {
  OrderSolver s({C(V("X"), CmpOp::kLe, V("Y"))});
  EXPECT_TRUE(s.ForcedEqualities().empty());
}

TEST(ClauseSolverTest, EmptyClausesIsBaseConsistency) {
  EXPECT_TRUE(SatisfiableWithClauses({C(V("X"), CmpOp::kLt, V("Y"))}, {}));
  EXPECT_FALSE(SatisfiableWithClauses({C(V("X"), CmpOp::kLt, V("X"))}, {}));
}

TEST(ClauseSolverTest, EmptyClauseIsFalse) {
  EXPECT_FALSE(SatisfiableWithClauses({}, {{}}));
}

TEST(ClauseSolverTest, PicksSatisfiableBranch) {
  // base: X < Y. clause: (Y < X) or (X != Z). Satisfiable via the second.
  std::vector<OrderClause> clauses{{C(V("Y"), CmpOp::kLt, V("X")),
                                    C(V("X"), CmpOp::kNe, V("Z"))}};
  EXPECT_TRUE(SatisfiableWithClauses({C(V("X"), CmpOp::kLt, V("Y"))}, clauses));
}

TEST(ClauseSolverTest, ConflictingClausesUnsat) {
  // base: X < Y; clauses force Y < X in every branch.
  std::vector<OrderClause> clauses{{C(V("Y"), CmpOp::kLt, V("X"))}};
  EXPECT_FALSE(
      SatisfiableWithClauses({C(V("X"), CmpOp::kLt, V("Y"))}, clauses));
}

TEST(ClauseSolverTest, InteractionAcrossClauses) {
  // clauses: (X < Y) ; (Y < Z) ; (Z < X): pairwise fine, and jointly fine
  // too (choose all three? that is a cycle) — solver must find e.g. picking
  // all three fails but there is only one literal per clause, so UNSAT.
  std::vector<OrderClause> clauses{{C(V("X"), CmpOp::kLt, V("Y"))},
                                   {C(V("Y"), CmpOp::kLt, V("Z"))},
                                   {C(V("Z"), CmpOp::kLt, V("X"))}};
  EXPECT_FALSE(SatisfiableWithClauses({}, clauses));
}

TEST(ClauseSolverTest, TwoLiteralEscape) {
  // Same cycle, but the last clause offers an escape literal.
  std::vector<OrderClause> clauses{{C(V("X"), CmpOp::kLt, V("Y"))},
                                   {C(V("Y"), CmpOp::kLt, V("Z"))},
                                   {C(V("Z"), CmpOp::kLt, V("X")),
                                    C(V("A"), CmpOp::kEq, V("B"))}};
  EXPECT_TRUE(SatisfiableWithClauses({}, clauses));
}

// ---------------------------------------------------------------------------
// Seeded differential against an oracle that shares no code with src/order:
// brute-force search of assignments on a grid.
//
// A term is a variable X0..X5 or an integer constant 1..3. Conjunctions use
// X0..X3 only, so X4 and X5 are terms a conjunction never mentions; so is
// any constant it happens not to use. The oracle assigns each variable a
// point of the 1/8 grid over [0, 4] (grid value g stands for g / 8). That
// grid is exact for these inputs: at most six variables meet in one search,
// and the grid holds 8 points below 1, 7 strictly between consecutive
// constants and 8 above 3, so every ordering of the variables among
// themselves and the constants has a grid witness.

struct DiffTerm {
  bool is_var;
  int index;  // variable number, or the constant's value
};

struct DiffAtom {
  DiffTerm lhs;
  CmpOp op;
  DiffTerm rhs;
};

constexpr int kDiffVars = 6;        // X0..X5
constexpr int kMentionedVars = 4;   // conjunctions use X0..X3
constexpr int kGridMax = 32;        // grid values 0..32 stand for 0..4
constexpr int kGridPerUnit = 8;

Term ToTerm(const DiffTerm& t) {
  return t.is_var ? Term::Var("X" + std::to_string(t.index))
                  : Term::Int(t.index);
}

Comparison ToComparison(const DiffAtom& a) {
  return Comparison(ToTerm(a.lhs), a.op, ToTerm(a.rhs));
}

bool HoldsOnGrid(int a, CmpOp op, int b) {
  switch (op) {
    case CmpOp::kLt: return a < b;
    case CmpOp::kLe: return a <= b;
    case CmpOp::kGt: return a > b;
    case CmpOp::kGe: return a >= b;
    case CmpOp::kEq: return a == b;
    case CmpOp::kNe: return a != b;
  }
  return false;
}

CmpOp Opposite(CmpOp op) {
  switch (op) {
    case CmpOp::kLt: return CmpOp::kGe;
    case CmpOp::kLe: return CmpOp::kGt;
    case CmpOp::kGt: return CmpOp::kLe;
    case CmpOp::kGe: return CmpOp::kLt;
    case CmpOp::kEq: return CmpOp::kNe;
    case CmpOp::kNe: return CmpOp::kEq;
  }
  return op;
}

// Depth-first search over grid assignments: variables are assigned in order
// of first appearance, and each atom is checked as soon as its last
// variable has a value.
class GridOracle {
 public:
  explicit GridOracle(const std::vector<DiffAtom>& atoms) : atoms_(atoms) {
    for (const DiffAtom& a : atoms_) {
      for (const DiffTerm* t : {&a.lhs, &a.rhs}) {
        if (t->is_var && std::find(order_.begin(), order_.end(), t->index) ==
                             order_.end()) {
          order_.push_back(t->index);
        }
      }
    }
    depth_of_.assign(kDiffVars, -1);
    for (size_t d = 0; d < order_.size(); ++d) {
      depth_of_[order_[d]] = static_cast<int>(d);
    }
    checks_at_.resize(order_.size() + 1);
    for (const DiffAtom& a : atoms_) {
      int depth = 0;
      for (const DiffTerm* t : {&a.lhs, &a.rhs}) {
        if (t->is_var) depth = std::max(depth, depth_of_[t->index] + 1);
      }
      checks_at_[depth].push_back(&a);
    }
  }

  bool Satisfiable() {
    value_.assign(kDiffVars, 0);
    return Search(0);
  }

 private:
  int Value(const DiffTerm& t) const {
    return t.is_var ? value_[t.index] : t.index * kGridPerUnit;
  }

  bool ChecksHold(size_t depth) const {
    for (const DiffAtom* a : checks_at_[depth]) {
      if (!HoldsOnGrid(Value(a->lhs), a->op, Value(a->rhs))) return false;
    }
    return true;
  }

  bool Search(size_t depth) {
    if (!ChecksHold(depth)) return false;
    if (depth == order_.size()) return true;
    for (int g = 0; g <= kGridMax; ++g) {
      value_[order_[depth]] = g;
      if (Search(depth + 1)) return true;
    }
    return false;
  }

  std::vector<DiffAtom> atoms_;
  std::vector<int> order_;
  std::vector<int> depth_of_;
  std::vector<std::vector<const DiffAtom*>> checks_at_;
  std::vector<int> value_;
};

bool GridSatisfiable(const std::vector<DiffAtom>& atoms) {
  return GridOracle(atoms).Satisfiable();
}

bool GridEntails(std::vector<DiffAtom> atoms, const DiffAtom& c) {
  atoms.push_back({c.lhs, Opposite(c.op), c.rhs});
  return !GridSatisfiable(atoms);
}

TEST(OrderSolverDifferentialTest, MatchesGridOracle) {
  std::mt19937_64 rng(20261020);
  std::uniform_int_distribution<int> atom_count(0, 5);
  std::uniform_int_distribution<int> op_of(0, 5);
  std::uniform_int_distribution<int> coin(0, 2);
  std::uniform_int_distribution<int> constant(1, 3);
  auto random_term = [&](int vars) {
    if (coin(rng) == 0) return DiffTerm{false, constant(rng)};
    return DiffTerm{true, std::uniform_int_distribution<int>(0, vars - 1)(rng)};
  };
  constexpr int kConjunctions = 3000;
  constexpr int kQueries = 8;
  int consistent_count = 0;
  int entailed_count = 0;
  int forced_count = 0;
  for (int round = 0; round < kConjunctions; ++round) {
    std::vector<DiffAtom> atoms(atom_count(rng));
    for (DiffAtom& a : atoms) {
      a = {random_term(kMentionedVars), static_cast<CmpOp>(op_of(rng)),
           random_term(kMentionedVars)};
    }
    std::vector<Comparison> cs;
    for (const DiffAtom& a : atoms) cs.push_back(ToComparison(a));
    std::string where = "round " + std::to_string(round) + ":";
    for (const Comparison& c : cs) where += " " + c.ToString();

    const OrderSolver built(cs);
    // The same conjunction extended atom by atom, and in two halves.
    OrderSolver added;
    for (const Comparison& c : cs) added.Add(c);
    OrderSolver halves(std::vector<Comparison>(cs.begin(),
                                               cs.begin() + cs.size() / 2));
    halves.AddAll(std::vector<Comparison>(cs.begin() + cs.size() / 2,
                                          cs.end()));

    const bool consistent = GridSatisfiable(atoms);
    consistent_count += consistent;
    ASSERT_EQ(built.Consistent(), consistent) << where;
    ASSERT_EQ(added.Consistent(), consistent) << where;
    ASSERT_EQ(halves.Consistent(), consistent) << where;

    // Half of the queries relate terms the conjunction mentions; the rest
    // may name X4, X5 or a constant it never uses.
    std::vector<DiffTerm> mentioned;
    for (const DiffAtom& a : atoms) {
      for (const DiffTerm* t : {&a.lhs, &a.rhs}) {
        if (std::none_of(mentioned.begin(), mentioned.end(),
                         [&](const DiffTerm& m) {
                           return m.is_var == t->is_var &&
                                  m.index == t->index;
                         })) {
          mentioned.push_back(*t);
        }
      }
    }
    auto query_term = [&](int q) {
      if (q % 2 == 1 || mentioned.empty()) return random_term(kDiffVars);
      return mentioned[std::uniform_int_distribution<size_t>(
          0, mentioned.size() - 1)(rng)];
    };
    for (int q = 0; q < kQueries; ++q) {
      const DiffTerm lhs = query_term(q);
      const DiffAtom query{lhs, static_cast<CmpOp>(op_of(rng)),
                           query_term(q)};
      const Comparison c = ToComparison(query);
      const bool entailed = GridEntails(atoms, query);
      entailed_count += entailed;
      ASSERT_EQ(built.Entails(c), entailed) << where << " |= " << c.ToString();
      ASSERT_EQ(added.Entails(c), entailed) << where << " |= " << c.ToString();
      ASSERT_EQ(halves.Entails(c), entailed)
          << where << " |= " << c.ToString();
    }

    if (!consistent) continue;
    const std::vector<std::pair<VarId, Term>> forced =
        built.ForcedEqualities();
    ASSERT_EQ(added.ForcedEqualities(), forced) << where;
    ASSERT_EQ(halves.ForcedEqualities(), forced) << where;
    forced_count += !forced.empty();
    // Each mentioned variable stands for its representative; the oracle
    // says which terms must be equal.
    auto rep = [&](const Term& t) {
      for (const auto& [var, term] : forced) {
        if (t.is_var() && t.var() == var) return term;
      }
      return t;
    };
    for (size_t i = 0; i < mentioned.size(); ++i) {
      for (size_t j = i + 1; j < mentioned.size(); ++j) {
        const DiffTerm& a = mentioned[i];
        const DiffTerm& b = mentioned[j];
        if (!a.is_var && !b.is_var) continue;
        const bool must_equal = GridEntails(atoms, {a, CmpOp::kEq, b});
        EXPECT_EQ(rep(ToTerm(a)) == rep(ToTerm(b)), must_equal)
            << where << ": " << ToTerm(a).ToString() << " vs "
            << ToTerm(b).ToString();
      }
    }
  }
  // The seed exercises every verdict.
  EXPECT_GT(consistent_count, 0);
  EXPECT_LT(consistent_count, kConjunctions);
  EXPECT_GT(entailed_count, 0);
  EXPECT_GT(forced_count, 0);
}

}  // namespace
}  // namespace sqod
