#include "src/order/solver.h"

#include <algorithm>

#include "src/base/check.h"

namespace sqod {

OrderSolver::OrderSolver(const std::vector<Comparison>& conjuncts) {
  // Nodes in order of appearance in the canonical atoms; the edges wait
  // until the matrix has its final size.
  struct Edge {
    int u;
    CmpOp op;
    int v;
  };
  std::vector<Edge> edges;
  edges.reserve(conjuncts.size());
  auto node_for = [&](const Term& t) {
    int node = NodeOf(t);
    if (node >= 0) return node;
    terms_.push_back(t);
    if (t.is_const()) const_nodes_.push_back(size() - 1);
    return size() - 1;
  };
  for (const Comparison& raw : conjuncts) {
    const Comparison c = raw.Canonical();  // only kLt, kLe, kEq, kNe remain
    const int u = node_for(c.lhs);
    edges.push_back({u, c.op, node_for(c.rhs)});
  }
  const int n = size();
  closure_.assign(static_cast<size_t>(n) * n, kNone);
  for (int i = 0; i < n; ++i) At(i, i) = kWeak;
  auto raise = [&](int u, int v, Strength s) {
    At(u, v) = std::max(At(u, v), s);
  };
  for (const Edge& e : edges) {
    switch (e.op) {
      case CmpOp::kLt: raise(e.u, e.v, kStrict); break;
      case CmpOp::kLe: raise(e.u, e.v, kWeak); break;
      case CmpOp::kEq:
        raise(e.u, e.v, kWeak);
        raise(e.v, e.u, kWeak);
        break;
      case CmpOp::kNe: ne_.emplace_back(e.u, e.v); break;
      default: SQOD_CHECK(false);
    }
  }
  // Distinct constants are distinct points: a strict edge in value order.
  for (int a : const_nodes_) {
    for (int b : const_nodes_) {
      if (terms_[a].value() < terms_[b].value()) At(a, b) = kStrict;
    }
  }
  // Floyd-Warshall over (max, max): a path is as strong as its strongest
  // edge, and the closure keeps the strongest path.
  for (int k = 0; k < n; ++k) {
    for (int i = 0; i < n; ++i) {
      const Strength ik = At(i, k);
      if (ik == kNone) continue;
      for (int j = 0; j < n; ++j) {
        const Strength kj = At(k, j);
        if (kj != kNone) raise(i, j, std::max(ik, kj));
      }
    }
  }
  consistent_ = !Contradicted();
}

void OrderSolver::Add(const Comparison& raw) {
  const Comparison c = raw.Canonical();
  int u = NodeOf(c.lhs);
  if (u < 0) u = AddNode(c.lhs);
  int v = NodeOf(c.rhs);
  if (v < 0) v = AddNode(c.rhs);
  switch (c.op) {
    case CmpOp::kLt: InsertEdge(u, v, kStrict); break;
    case CmpOp::kLe: InsertEdge(u, v, kWeak); break;
    case CmpOp::kEq:
      InsertEdge(u, v, kWeak);
      InsertEdge(v, u, kWeak);
      break;
    case CmpOp::kNe: ne_.emplace_back(u, v); break;
    default: SQOD_CHECK(false);
  }
  consistent_ = consistent_ && !Contradicted();
}

int OrderSolver::NodeOf(const Term& t) const {
  for (int i = 0; i < size(); ++i) {
    if (terms_[i] == t) return i;
  }
  return -1;
}

int OrderSolver::AddNode(const Term& t) {
  // A new variable is isolated. A new constant sits between the constants
  // around it, which adds no path between the existing nodes.
  const int n = size();
  const Endpoint e{-1, &t};
  std::vector<Strength> grown(static_cast<size_t>(n + 1) * (n + 1), kNone);
  for (int i = 0; i < n; ++i) {
    std::copy_n(&At(i, 0), n, &grown[static_cast<size_t>(i) * (n + 1)]);
    grown[static_cast<size_t>(i) * (n + 1) + n] = To(i, e);
    grown[static_cast<size_t>(n) * (n + 1) + i] = From(e, i);
  }
  grown.back() = kWeak;
  closure_ = std::move(grown);
  terms_.push_back(t);
  if (t.is_const()) const_nodes_.push_back(n);
  return n;
}

void OrderSolver::InsertEdge(int x, int y, Strength s) {
  // Every new path is i ~> x -> y ~> j.
  const int n = size();
  const std::vector<Strength> from_y(&At(y, 0), &At(y, 0) + n);
  for (int i = 0; i < n; ++i) {
    if (At(i, x) == kNone) continue;
    const Strength via = std::max(At(i, x), s);
    for (int j = 0; j < n; ++j) {
      if (from_y[j] != kNone) {
        At(i, j) = std::max(At(i, j), std::max(via, from_y[j]));
      }
    }
  }
}

bool OrderSolver::Contradicted() const {
  for (int i = 0; i < size(); ++i) {
    if (At(i, i) == kStrict) return true;
  }
  return std::any_of(ne_.begin(), ne_.end(), [&](const auto& ne) {
    return At(ne.first, ne.second) != kNone && At(ne.second, ne.first) != kNone;
  });
}

OrderSolver::Strength OrderSolver::From(const Endpoint& a, int j) const {
  if (a.node >= 0) return At(a.node, j);
  if (a.term->is_var()) return kNone;
  // An unmentioned constant's edges go to the larger constants.
  for (int c : const_nodes_) {
    if (a.term->value() < terms_[c].value() && At(c, j) != kNone) {
      return kStrict;
    }
  }
  return kNone;
}

OrderSolver::Strength OrderSolver::To(int j, const Endpoint& a) const {
  if (a.node >= 0) return At(j, a.node);
  if (a.term->is_var()) return kNone;
  for (int c : const_nodes_) {
    if (terms_[c].value() < a.term->value() && At(j, c) != kNone) {
      return kStrict;
    }
  }
  return kNone;
}

OrderSolver::Strength OrderSolver::Between(const Endpoint& a,
                                           const Endpoint& b) const {
  if (b.node >= 0) return From(a, b.node);
  if (a.node >= 0) return To(a.node, b);
  if (*a.term == *b.term) return kWeak;
  if (a.term->is_const() && b.term->is_const() &&
      a.term->value() < b.term->value()) {
    return kStrict;
  }
  return kNone;
}

bool OrderSolver::Entails(const Comparison& c) const {
  if (!consistent_) return true;
  // c is entailed iff the closure plus not(c) is inconsistent. The closure
  // is consistent, so any contradiction runs through the new atom.
  const Comparison neg = c.Negated().Canonical();
  const Endpoint u{NodeOf(neg.lhs), &neg.lhs};
  const Endpoint v{NodeOf(neg.rhs), &neg.rhs};
  // True iff a != pair falls inside the class `in` describes.
  auto ne_inside = [&](const auto& in) {
    return std::any_of(ne_.begin(), ne_.end(), [&](const auto& ne) {
      return in(ne.first) && in(ne.second);
    });
  };
  switch (neg.op) {
    case CmpOp::kNe:  // u != v fails iff u and v are already one class
      return Between(u, v) != kNone && Between(v, u) != kNone;
    case CmpOp::kLt:  // u < v closes a strict cycle iff v reaches u
      return Between(v, u) != kNone;
    case CmpOp::kLe: {
      const Strength back = Between(v, u);
      if (back != kWeak) return back == kStrict;
      // The new cycle merges every w with v ~> w ~> u.
      return ne_inside([&](int w) {
        return From(v, w) != kNone && To(w, u) != kNone;
      });
    }
    case CmpOp::kEq: {
      if (Between(u, v) == kStrict || Between(v, u) == kStrict) return true;
      // u = v merges every w that reaches one of them and is reached from
      // one of them.
      return ne_inside([&](int w) {
        return (From(u, w) != kNone || From(v, w) != kNone) &&
               (To(w, u) != kNone || To(w, v) != kNone);
      });
    }
    default: SQOD_CHECK(false);
  }
  return false;
}

std::vector<std::pair<VarId, Term>> OrderSolver::ForcedEqualities() const {
  // A class is a set of mutually reachable nodes. Its representative is a
  // constant if it holds one, otherwise its smallest term.
  std::vector<std::pair<VarId, Term>> out;
  for (int i = 0; i < size(); ++i) {
    const Term& t = terms_[i];
    if (!t.is_var()) continue;
    const Term* rep = &t;
    for (int j = 0; j < size(); ++j) {
      if (At(i, j) == kNone || At(j, i) == kNone) continue;
      const Term& m = terms_[j];
      if (m.is_const() != rep->is_const() ? m.is_const() : m < *rep) {
        rep = &m;
      }
    }
    if (*rep != t) out.emplace_back(t.var(), *rep);
  }
  return out;
}

bool ComparisonsConsistent(const std::vector<Comparison>& conjuncts) {
  return OrderSolver(conjuncts).Consistent();
}

bool ComparisonsEntail(const std::vector<Comparison>& conjuncts,
                       const Comparison& c) {
  return OrderSolver(conjuncts).Entails(c);
}

}  // namespace sqod
