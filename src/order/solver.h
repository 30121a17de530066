#ifndef SQOD_ORDER_SOLVER_H_
#define SQOD_ORDER_SOLVER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/ast/comparison.h"

namespace sqod {

// Decision procedure for conjunctions of order atoms over a *dense* total
// order without endpoints (Section 2 of the paper). Terms are variables or
// constants; the constants are sample points of the dense order, so strict
// room always exists between distinct constants and beyond any constant.
//
// The conjunction is held as one closure, built once: a dense matrix over
// its distinct terms giving the strongest path between each ordered pair
// (none, `<=` or `<`). `X = Y` is the two edges `X <= Y` and `Y <= X`, and
// the mentioned constants get strict edges in value order. The `!=` pairs
// are kept beside the matrix. The conjunction is inconsistent iff a term
// reaches itself strictly or a `!=` pair reaches each other both ways;
// otherwise it is realizable over a dense order, and mutually reachable
// terms are exactly the ones it forces equal. `Entails(c)` decides whether
// the closure plus not(c) is inconsistent by reading the matrix, without
// copying it. A solver is immutable but for `Add`/`AddAll`, so a shared
// const solver can be queried from several threads.
class OrderSolver {
 public:
  OrderSolver() = default;
  explicit OrderSolver(const std::vector<Comparison>& conjuncts);

  // Extend the conjunction, updating the closure in O(n^2) per atom over
  // the n distinct terms.
  void Add(const Comparison& c);
  void AddAll(const std::vector<Comparison>& cs) {
    for (const Comparison& c : cs) Add(c);
  }

  // True iff the conjunction is satisfiable over a dense order.
  bool Consistent() const { return consistent_; }

  // True iff the conjunction logically implies `c` over a dense order
  // (i.e., conjunction AND NOT c is unsatisfiable). An inconsistent
  // conjunction entails everything. `c` may name terms the conjunction
  // never mentions.
  bool Entails(const Comparison& c) const;

  // Variable equalities forced by the conjunction (e.g., X <= Y and Y <= X).
  // Each pair is (variable, representative term to substitute for it), where
  // the representative is a constant if the class contains one. Only
  // meaningful when Consistent(). Pairs are returned for every non-
  // representative variable of every class of size >= 2.
  std::vector<std::pair<VarId, Term>> ForcedEqualities() const;

 private:
  // The strongest path between two terms; the order of the values matters
  // (a path's strength is its strongest edge, and paths combine by max).
  enum Strength : uint8_t { kNone = 0, kWeak = 1, kStrict = 2 };

  // A query term: its node, or -1 with the term when the conjunction never
  // mentions it.
  struct Endpoint {
    int node;
    const Term* term;
  };

  int NodeOf(const Term& t) const;
  int AddNode(const Term& t);
  Strength& At(int i, int j) { return closure_[i * size() + j]; }
  Strength At(int i, int j) const { return closure_[i * size() + j]; }
  int size() const { return static_cast<int>(terms_.size()); }

  // Adds the edge x -> y of strength `s` and closes the matrix over it.
  void InsertEdge(int x, int y, Strength s);
  // True iff a node reaches itself strictly or a != pair is one class.
  bool Contradicted() const;

  // Strongest path from an endpoint to a node, from a node to an endpoint,
  // and between two endpoints.
  Strength From(const Endpoint& a, int j) const;
  Strength To(int j, const Endpoint& a) const;
  Strength Between(const Endpoint& a, const Endpoint& b) const;

  std::vector<Term> terms_;                 // node id -> term
  std::vector<int> const_nodes_;            // nodes holding a constant
  std::vector<Strength> closure_;           // size() x size(), row-major
  std::vector<std::pair<int, int>> ne_;     // u != v
  bool consistent_ = true;
};

// Convenience wrappers.
bool ComparisonsConsistent(const std::vector<Comparison>& conjuncts);
bool ComparisonsEntail(const std::vector<Comparison>& conjuncts,
                       const Comparison& c);

}  // namespace sqod

#endif  // SQOD_ORDER_SOLVER_H_
