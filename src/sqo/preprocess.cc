#include "src/sqo/preprocess.h"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "src/ast/substitution.h"
#include "src/order/solver.h"

namespace sqod {

namespace {

// Removes duplicate and tautological comparisons (after canonicalization)
// from `comparisons`.
void TidyComparisons(std::vector<Comparison>* comparisons) {
  std::vector<Comparison> out;
  for (const Comparison& raw : *comparisons) {
    Comparison c = raw.Canonical();
    // Ground comparisons that are true are tautologies; X = X and X <= X
    // likewise. (False ground comparisons were caught by the consistency
    // check before this runs.)
    if (c.lhs.is_const() && c.rhs.is_const()) continue;
    if (c.lhs == c.rhs && (c.op == CmpOp::kEq || c.op == CmpOp::kLe)) continue;
    if (std::find(out.begin(), out.end(), c) == out.end()) out.push_back(c);
  }
  *comparisons = std::move(out);
}

// Substitutes forced equalities and tidies; returns false if the comparison
// set is unsatisfiable. Applies to both rules and constraints via the two
// wrappers below.
template <typename Clause>
bool NormalizeClause(Clause* clause, bool* changed = nullptr) {
  bool substituted = false;
  for (int round = 0; round < 1000; ++round) {
    OrderSolver solver(clause->comparisons);
    if (!solver.Consistent()) return false;
    std::vector<std::pair<VarId, Term>> eqs = solver.ForcedEqualities();
    if (eqs.empty()) break;
    Substitution subst;
    for (const auto& [var, term] : eqs) subst.Bind(var, term);
    *clause = subst.Apply(*clause);
    substituted = true;
  }
  const size_t before = clause->comparisons.size();
  TidyComparisons(&clause->comparisons);
  if (changed != nullptr) {
    *changed = substituted || clause->comparisons.size() != before;
  }
  return true;
}

}  // namespace

Provenance Provenance::Of(const Program& program) {
  Provenance provenance;
  for (const Rule& r : program.rules()) {
    provenance.rules.push_back({true, static_cast<int>(r.body.size()),
                                static_cast<int>(r.comparisons.size())});
  }
  return provenance;
}

bool NormalizeRule(Rule* rule, bool* changed) {
  return NormalizeClause(rule, changed);
}

Program NormalizeProgram(const Program& program) {
  Program out;
  out.SetQuery(program.query());
  for (const Rule& r : program.rules()) {
    Rule copy = r;
    if (NormalizeRule(&copy)) out.AddRule(std::move(copy));
  }
  // Dropping a predicate's last rule must not silently reclassify it as an
  // EDB predicate: rules that positively use an originally-IDB predicate
  // with no remaining rules can never fire and are dropped too (cascade).
  const std::set<PredId> original_idb = program.IdbPreds();
  bool changed = true;
  while (changed) {
    changed = false;
    std::set<PredId> defined = out.IdbPreds();
    Program next;
    next.SetQuery(out.query());
    for (const Rule& r : out.rules()) {
      bool dead = false;
      for (const Literal& l : r.body) {
        if (!l.negated && original_idb.count(l.atom.pred()) > 0 &&
            defined.count(l.atom.pred()) == 0) {
          dead = true;
          break;
        }
      }
      if (dead) {
        changed = true;
      } else {
        next.AddRule(r);
      }
    }
    out = std::move(next);
  }
  return out;
}

std::vector<Constraint> NormalizeConstraints(
    const std::vector<Constraint>& ics) {
  std::vector<Constraint> out;
  for (const Constraint& ic : ics) {
    Constraint copy = ic;
    if (NormalizeClause(&copy)) out.push_back(std::move(copy));
  }
  return out;
}

Program PruneUnreachable(Program program, Provenance* provenance) {
  const std::set<PredId> idb_set = program.IdbPreds();
  const std::unordered_set<PredId> idb(idb_set.begin(), idb_set.end());

  // Productive IDB predicates (least fixpoint: head is productive once all
  // its IDB subgoals are), computed with a per-rule pending-subgoal counter
  // and a worklist instead of whole-program passes — the adorned programs
  // this runs on have long derivation chains, where repeated scans are
  // quadratic.
  const std::vector<Rule>& rules = program.rules();
  std::unordered_set<PredId> productive;
  std::unordered_map<PredId, std::vector<size_t>> rules_waiting_on;
  std::vector<int> pending(rules.size(), 0);
  std::vector<PredId> worklist;
  for (size_t i = 0; i < rules.size(); ++i) {
    for (const Literal& l : rules[i].body) {
      if (idb.count(l.atom.pred()) > 0) {
        ++pending[i];
        rules_waiting_on[l.atom.pred()].push_back(i);
      }
    }
    if (pending[i] == 0 && productive.insert(rules[i].head.pred()).second) {
      worklist.push_back(rules[i].head.pred());
    }
  }
  while (!worklist.empty()) {
    PredId p = worklist.back();
    worklist.pop_back();
    auto it = rules_waiting_on.find(p);
    if (it == rules_waiting_on.end()) continue;
    for (size_t i : it->second) {
      if (--pending[i] == 0 &&
          productive.insert(rules[i].head.pred()).second) {
        worklist.push_back(rules[i].head.pred());
      }
    }
  }
  // Duplicate subgoal occurrences are safe: each occurrence is counted and
  // registered once, and each predicate fires at most once, so the counter
  // reaches zero exactly when every occurrence's predicate is productive.

  // Reachable from the query predicate (or all IDB predicates if no query
  // is set) through rules of productive predicates.
  std::unordered_map<PredId, std::vector<size_t>> rules_by_head;
  for (size_t i = 0; i < rules.size(); ++i) {
    rules_by_head[rules[i].head.pred()].push_back(i);
  }
  std::unordered_set<PredId> reachable;
  std::vector<PredId> frontier;
  if (program.query() != -1) {
    frontier.push_back(program.query());
  } else {
    for (PredId p : idb_set) frontier.push_back(p);
  }
  while (!frontier.empty()) {
    PredId p = frontier.back();
    frontier.pop_back();
    if (!reachable.insert(p).second) continue;
    if (productive.count(p) == 0) continue;
    auto it = rules_by_head.find(p);
    if (it == rules_by_head.end()) continue;
    for (size_t i : it->second) {
      for (const Literal& l : rules[i].body) {
        if (idb.count(l.atom.pred()) > 0 &&
            reachable.count(l.atom.pred()) == 0) {
          frontier.push_back(l.atom.pred());
        }
      }
    }
  }

  Program out;
  out.SetQuery(program.query());
  std::vector<RuleOrigin> origins;
  for (size_t i = 0; i < rules.size(); ++i) {
    const Rule& r = rules[i];
    if (reachable.count(r.head.pred()) == 0 ||
        productive.count(r.head.pred()) == 0) {
      continue;
    }
    bool body_ok = true;
    for (const Literal& l : r.body) {
      if (idb.count(l.atom.pred()) > 0 &&
          productive.count(l.atom.pred()) == 0) {
        body_ok = false;
        break;
      }
    }
    if (!body_ok) continue;
    out.AddRule(std::move((*program.mutable_rules())[i]));
    if (provenance != nullptr) origins.push_back(provenance->rules[i]);
  }
  if (provenance != nullptr) provenance->rules = std::move(origins);
  return out;
}

}  // namespace sqod
