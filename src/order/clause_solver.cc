#include "src/order/clause_solver.h"

#include "src/order/solver.h"

namespace sqod {

namespace {

// `solver` holds the base plus one chosen literal per clause before `index`.
bool Search(const OrderSolver& solver, const std::vector<OrderClause>& clauses,
            size_t index) {
  if (!solver.Consistent()) return false;
  if (index == clauses.size()) return true;

  const OrderClause& clause = clauses[index];
  // A clause literal already entailed by the assignment satisfies the clause
  // without branching.
  for (const Comparison& lit : clause) {
    if (solver.Entails(lit)) return Search(solver, clauses, index + 1);
  }
  for (const Comparison& lit : clause) {
    OrderSolver branch = solver;
    branch.Add(lit);
    if (Search(branch, clauses, index + 1)) return true;
  }
  return false;
}

}  // namespace

bool SatisfiableWithClauses(const std::vector<Comparison>& base,
                            const std::vector<OrderClause>& clauses) {
  // An empty clause is an immediate contradiction.
  for (const OrderClause& c : clauses) {
    if (c.empty()) return false;
  }
  return Search(OrderSolver(base), clauses, 0);
}

}  // namespace sqod
