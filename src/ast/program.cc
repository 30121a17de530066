#include "src/ast/program.h"

#include <algorithm>

namespace sqod {

bool Program::IsIdb(PredId p) const {
  return std::any_of(rules_.begin(), rules_.end(),
                     [p](const Rule& r) { return r.head.pred() == p; });
}

bool Program::IsEdb(PredId p) const {
  if (IsIdb(p)) return false;
  for (const Rule& r : rules_) {
    for (const Literal& l : r.body) {
      if (l.atom.pred() == p) return true;
    }
  }
  return false;
}

std::set<PredId> Program::IdbPreds() const {
  std::set<PredId> out;
  for (const Rule& r : rules_) out.insert(r.head.pred());
  return out;
}

std::set<PredId> Program::EdbPreds() const {
  std::set<PredId> idb = IdbPreds();
  std::set<PredId> out;
  for (const Rule& r : rules_) {
    for (const Literal& l : r.body) {
      if (idb.count(l.atom.pred()) == 0) out.insert(l.atom.pred());
    }
  }
  return out;
}

int Program::Arity(PredId p) const {
  for (const Rule& r : rules_) {
    if (r.head.pred() == p) return r.head.arity();
    for (const Literal& l : r.body) {
      if (l.atom.pred() == p) return l.atom.arity();
    }
  }
  return -1;
}

std::vector<int> Program::RulesFor(PredId p) const {
  std::vector<int> out;
  for (int i = 0; i < static_cast<int>(rules_.size()); ++i) {
    if (rules_[i].head.pred() == p) out.push_back(i);
  }
  return out;
}

std::vector<int> Program::InitializationRules() const {
  std::set<PredId> idb = IdbPreds();
  std::vector<int> out;
  for (int i = 0; i < static_cast<int>(rules_.size()); ++i) {
    bool has_idb = false;
    for (const Literal& l : rules_[i].body) {
      if (idb.count(l.atom.pred()) > 0) has_idb = true;
    }
    if (!has_idb) out.push_back(i);
  }
  return out;
}

namespace {

// Checks that all variables of `vars` appear in a positive, non-negated body
// literal of `body`.
Status CheckSafety(const std::vector<Literal>& body,
                   const std::vector<VarId>& must_be_bound,
                   const std::string& what) {
  std::vector<VarId> positive_vars;
  for (const Literal& l : body) {
    if (!l.negated) l.atom.CollectVars(&positive_vars);
  }
  for (VarId v : must_be_bound) {
    if (std::find(positive_vars.begin(), positive_vars.end(), v) ==
        positive_vars.end()) {
      return Status::InvalidArgument("unsafe " + what + ": variable " +
                           GlobalStrings().Name(v) +
                           " does not occur in a positive body literal");
    }
  }
  return Status::Ok();
}

Status CheckArities(const std::vector<Literal>& body, const Atom* head,
                    std::unordered_map<PredId, int>* arities) {
  auto check = [&](const Atom& a) -> Status {
    auto [it, inserted] = arities->emplace(a.pred(), a.arity());
    if (!inserted && it->second != a.arity()) {
      return Status::InvalidArgument("predicate " + PredName(a.pred()) +
                           " used with arities " + std::to_string(it->second) +
                           " and " + std::to_string(a.arity()));
    }
    return Status::Ok();
  };
  if (head != nullptr) {
    Status s = check(*head);
    if (!s.ok()) return s;
  }
  for (const Literal& l : body) {
    Status s = check(l.atom);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

}  // namespace

Status Program::Validate() const {
  std::unordered_map<PredId, int> arities;
  std::set<PredId> idb = IdbPreds();
  for (const Rule& r : rules_) {
    Status s = CheckArities(r.body, &r.head, &arities);
    if (!s.ok()) return s.WithContext("in rule " + r.ToString());

    // Safety of head variables, negated literals and comparisons.
    std::vector<VarId> need;
    r.head.CollectVars(&need);
    for (const Literal& l : r.body) {
      if (l.negated) l.atom.CollectVars(&need);
    }
    for (const Comparison& c : r.comparisons) c.CollectVars(&need);
    s = CheckSafety(r.body, need, "rule");
    if (!s.ok()) return s.WithContext("in rule " + r.ToString());

  }
  if (query_ != -1 && idb.count(query_) == 0) {
    return Status::InvalidArgument("query predicate " + PredName(query_) +
                         " is not an IDB predicate");
  }
  // Negation on IDB predicates must be stratified.
  Result<std::map<PredId, int>> strata = Stratify();
  if (!strata.ok()) return strata.status();
  return Status::Ok();
}

bool Program::NegationOnEdbOnly() const {
  std::set<PredId> idb = IdbPreds();
  for (const Rule& r : rules_) {
    for (const Literal& l : r.body) {
      if (l.negated && idb.count(l.atom.pred()) > 0) return false;
    }
  }
  return true;
}

Result<std::map<PredId, int>> Program::Stratify() const {
  // Nodes are the IDB predicates, numbered by the rule that first defines
  // them, so everything below depends only on the program text.
  std::map<PredId, int> node;
  std::vector<PredId> preds;
  for (const Rule& r : rules_) {
    if (node.emplace(r.head.pred(), static_cast<int>(preds.size())).second) {
      preds.push_back(r.head.pred());
    }
  }
  const int n = static_cast<int>(preds.size());
  // adj: body predicate -> heads of the rules that read it, positive or
  // negated; radj is its reverse.
  std::vector<std::vector<int>> adj(n), radj(n);
  for (const Rule& r : rules_) {
    const int head = node.at(r.head.pred());
    for (const Literal& l : r.body) {
      auto it = node.find(l.atom.pred());
      if (it == node.end()) continue;  // EDB predicate
      adj[it->second].push_back(head);
      radj[head].push_back(it->second);
    }
  }

  // Kosaraju: forward DFS finish order, then reverse-graph DFS.
  std::vector<int> order, comp(n, -1);
  std::vector<char> seen(n, 0);
  std::vector<std::pair<int, size_t>> stack;  // (node, next child)
  for (int s = 0; s < n; ++s) {
    if (seen[s]) continue;
    stack.emplace_back(s, 0);
    seen[s] = 1;
    while (!stack.empty()) {
      auto& [u, next] = stack.back();
      if (next < adj[u].size()) {
        int v = adj[u][next++];
        if (!seen[v]) {
          seen[v] = 1;
          stack.emplace_back(v, 0);
        }
      } else {
        order.push_back(u);
        stack.pop_back();
      }
    }
  }
  int num_comp = 0;
  std::vector<int> dfs;
  for (int k = n - 1; k >= 0; --k) {
    int s = order[k];
    if (comp[s] >= 0) continue;
    dfs.assign(1, s);
    comp[s] = num_comp;
    while (!dfs.empty()) {
      int u = dfs.back();
      dfs.pop_back();
      for (int v : radj[u]) {
        if (comp[v] < 0) {
          comp[v] = num_comp;
          dfs.push_back(v);
        }
      }
    }
    ++num_comp;
  }

  // A negated edge inside a component is negation through recursion.
  for (const Rule& r : rules_) {
    const int head = node.at(r.head.pred());
    for (const Literal& l : r.body) {
      auto it = node.find(l.atom.pred());
      if (l.negated && it != node.end() && comp[it->second] == comp[head]) {
        return Status::InvalidArgument(
            "program is not stratified: negation through the recursive "
            "cycle of " + PredName(r.head.pred()));
      }
    }
  }

  // Topological order of the condensation; among the components that are
  // ready, the one whose first rule comes first in the program goes first.
  // cadj may repeat an edge; indegree counts every copy.
  std::vector<int> first(num_comp, n), indegree(num_comp, 0);
  std::vector<std::vector<int>> cadj(num_comp);
  for (int u = 0; u < n; ++u) {
    first[comp[u]] = std::min(first[comp[u]], u);
    for (int v : adj[u]) {
      if (comp[u] != comp[v]) {
        cadj[comp[u]].push_back(comp[v]);
        ++indegree[comp[v]];
      }
    }
  }
  std::set<int> ready;  // the first node of each ready component
  for (int c = 0; c < num_comp; ++c) {
    if (indegree[c] == 0) ready.insert(first[c]);
  }
  std::vector<int> stratum_of_comp(num_comp);
  int next_stratum = 0;
  while (!ready.empty()) {
    const int c = comp[*ready.begin()];
    ready.erase(ready.begin());
    stratum_of_comp[c] = next_stratum++;
    for (int d : cadj[c]) {
      if (--indegree[d] == 0) ready.insert(first[d]);
    }
  }
  std::map<PredId, int> stratum;
  for (int u = 0; u < n; ++u) stratum[preds[u]] = stratum_of_comp[comp[u]];
  return stratum;
}

Status Program::ValidateConstraint(const Constraint& ic) const {
  std::set<PredId> idb = IdbPreds();
  for (const Literal& l : ic.body) {
    if (idb.count(l.atom.pred()) > 0) {
      return Status::InvalidArgument("IDB predicate " + PredName(l.atom.pred()) +
                           " in integrity constraint " + ic.ToString());
    }
  }
  std::vector<VarId> need;
  for (const Literal& l : ic.body) {
    if (l.negated) l.atom.CollectVars(&need);
  }
  for (const Comparison& c : ic.comparisons) c.CollectVars(&need);
  Status s = CheckSafety(ic.body, need, "integrity constraint");
  if (!s.ok()) return s.WithContext("in " + ic.ToString());
  return Status::Ok();
}

std::string Program::ToString() const {
  std::string s;
  for (const Rule& r : rules_) {
    s += r.ToString();
    s += "\n";
  }
  if (query_ != -1) {
    s += "?- " + PredName(query_) + ".\n";
  }
  return s;
}

}  // namespace sqod
