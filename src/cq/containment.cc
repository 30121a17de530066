#include "src/cq/containment.h"

#include <algorithm>
#include <set>

#include "src/ast/match_memo.h"
#include "src/ast/unify.h"
#include "src/cq/homomorphism.h"
#include "src/cq/linearize.h"
#include "src/order/solver.h"

namespace sqod {

namespace {

Status CheckSupported(const ConjunctiveQuery& q) {
  for (const Literal& l : q.body) {
    if (l.negated) {
      return Status::Unsupported(
          "negated atoms are not supported by CQ containment; use "
          "sqo::DatalogContainedInUcq for programs with negation");
    }
  }
  return Status::Ok();
}

std::vector<Atom> PositiveBody(const ConjunctiveQuery& q) {
  std::vector<Atom> atoms;
  for (const Literal& l : q.body) {
    if (!l.negated) atoms.push_back(l.atom);
  }
  return atoms;
}

// All distinct terms (variables and constants) appearing in q.
std::vector<Term> AllTerms(const ConjunctiveQuery& q) {
  std::vector<Term> terms;
  auto add = [&](const Term& t) {
    if (std::find(terms.begin(), terms.end(), t) == terms.end()) {
      terms.push_back(t);
    }
  };
  for (const Term& t : q.head.args()) add(t);
  for (const Literal& l : q.body) {
    for (const Term& t : l.atom.args()) add(t);
  }
  for (const Comparison& c : q.comparisons) {
    add(c.lhs);
    add(c.rhs);
  }
  return terms;
}

// Is there a head-preserving homomorphism h from `q2` into `q1` such that
// `world` entails h(c) for each comparison c of q2? `world` is a conjunction
// over q1's terms (either q1's own comparisons for the homomorphism-only
// fast path, or a full linearization for Klug's test).
bool CoveredBy(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2,
               const std::vector<Comparison>& world, AtomMatchMemo& memo) {
  if (q2.head.pred() != q1.head.pred() ||
      q2.head.arity() != q1.head.arity()) {
    return false;
  }
  Substitution head_map;
  for (int i = 0; i < q2.head.arity(); ++i) {
    if (!MatchTermInto(q2.head.arg(i), q1.head.arg(i), &head_map)) {
      return false;
    }
  }
  OrderSolver solver(world);
  return ForEachHomomorphism(
      PositiveBody(q2), PositiveBody(q1), head_map,
      [&](const Substitution& h) {
        for (const Comparison& c : q2.comparisons) {
          if (!solver.Entails(h.Apply(c))) return false;
        }
        return true;
      },
      memo);
}

Result<bool> ContainedInUnionImpl(const ConjunctiveQuery& q,
                                  const UnionOfCqs& ucq) {
  Status s = CheckSupported(q);
  if (!s.ok()) return s;
  for (const ConjunctiveQuery& q2 : ucq) {
    s = CheckSupported(q2);
    if (!s.ok()) return s;
  }
  // A q with an unsatisfiable body is contained in anything.
  if (!ComparisonsConsistent(q.comparisons)) return true;

  // Klug's test below re-matches the same (q2 atom, q1 atom) pairs once per
  // linearization; a per-call match memo makes each repeat a hash lookup.
  AtomMatchMemo memo;

  bool has_order =
      !q.comparisons.empty() ||
      std::any_of(ucq.begin(), ucq.end(),
                  [](const ConjunctiveQuery& x) {
                    return !x.comparisons.empty();
                  });
  if (!has_order) {
    // Classic test: one containment mapping from some disjunct suffices
    // (Sagiv & Yannakakis 1981).
    for (const ConjunctiveQuery& q2 : ucq) {
      if (CoveredBy(q, q2, /*world=*/{}, memo)) return true;
    }
    return false;
  }

  // Fast sufficient check: a single disjunct whose comparisons are entailed
  // by q's own comparisons under some homomorphism.
  for (const ConjunctiveQuery& q2 : ucq) {
    if (CoveredBy(q, q2, q.comparisons, memo)) return true;
  }

  // Klug's test, lifted to unions: every linearization of q's terms that is
  // consistent with q's comparisons must be covered by some disjunct.
  bool found_uncovered = ForEachLinearization(
      AllTerms(q), q.comparisons, [&](const Linearization& lin) {
        std::vector<Comparison> world = LinearizationConstraints(lin);
        for (const ConjunctiveQuery& q2 : ucq) {
          if (CoveredBy(q, q2, world, memo)) {
            return false;  // covered, keep going
          }
        }
        return true;  // found a witness linearization; stop
      });
  return !found_uncovered;
}

}  // namespace

Result<bool> CqContained(const ConjunctiveQuery& q1,
                         const ConjunctiveQuery& q2) {
  return ContainedInUnionImpl(q1, {q2});
}

Result<bool> CqContainedInUnion(const ConjunctiveQuery& q,
                                const UnionOfCqs& ucq) {
  return ContainedInUnionImpl(q, ucq);
}

Result<bool> UcqContained(const UnionOfCqs& u1, const UnionOfCqs& u2) {
  for (const ConjunctiveQuery& q : u1) {
    Result<bool> r = ContainedInUnionImpl(q, u2);
    if (!r.ok()) return r;
    if (!r.value()) return false;
  }
  return true;
}

Result<bool> CqEquivalent(const ConjunctiveQuery& q1,
                          const ConjunctiveQuery& q2) {
  Result<bool> a = CqContained(q1, q2);
  if (!a.ok()) return a;
  if (!a.value()) return false;
  return CqContained(q2, q1);
}

}  // namespace sqod
