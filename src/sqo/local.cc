#include "src/sqo/local.h"

#include <algorithm>
#include <deque>
#include <utility>

#include "src/ast/unify.h"
#include "src/order/solver.h"
#include "src/sqo/preprocess.h"

namespace sqod {

std::vector<const LocalAtomPair*> LocalAtomInfo::PairsFor(int ic_index,
                                                          int carrier) const {
  std::vector<const LocalAtomPair*> out;
  for (const LocalAtomPair& p : pairs) {
    if (p.ic_index == ic_index && p.carrier == carrier) out.push_back(&p);
  }
  return out;
}

namespace {

// True iff all variables of `vars` occur in `atom`.
bool CoveredBy(const std::vector<VarId>& vars, const Atom& atom) {
  std::vector<VarId> atom_vars;
  atom.CollectVars(&atom_vars);
  return std::all_of(vars.begin(), vars.end(), [&](VarId v) {
    return std::find(atom_vars.begin(), atom_vars.end(), v) !=
           atom_vars.end();
  });
}

// Finds a carrier among the IC's positive atoms, or -1. When several atoms
// cover the local atom's variables, prefer the one with the most distinct
// variables: splitting the rules that use a wider predicate specializes
// deeper (in the paper's Section 3 example this picks step(X, Y) over
// startPoint(X) for the atom X < 100, which is what pushes the threshold
// into the recursion).
int FindCarrier(const std::vector<const Atom*>& positives,
                const std::vector<VarId>& vars) {
  int best = -1;
  size_t best_vars = 0;
  for (size_t i = 0; i < positives.size(); ++i) {
    if (!CoveredBy(vars, *positives[i])) continue;
    std::vector<VarId> atom_vars;
    positives[i]->CollectVars(&atom_vars);
    if (best == -1 || atom_vars.size() > best_vars) {
      best = static_cast<int>(i);
      best_vars = atom_vars.size();
    }
  }
  return best;
}

// The instantiated local atom h(l) for an order-atom pair.
Comparison MappedOrderAtom(const Constraint& ic, const LocalAtomPair& pair,
                           const Substitution& h) {
  return h.Apply(ic.comparisons[pair.item]);
}

// The instantiated local atom h(l) for a negated-EDB pair (as a positive
// atom; it appears negated in the IC).
Atom MappedNegatedAtom(const Constraint& ic, const LocalAtomPair& pair,
                       const Substitution& h) {
  return h.Apply(ic.body[pair.item].atom);
}

}  // namespace

const std::vector<int>& LocalAtomInfo::NonlocalOrder(int ic_index) const {
  static const std::vector<int>* empty = new std::vector<int>();
  auto it = nonlocal_order.find(ic_index);
  return it == nonlocal_order.end() ? *empty : it->second;
}

Result<LocalAtomInfo> AnalyzeLocalAtoms(const std::vector<Constraint>& ics) {
  LocalAtomInfo info;
  for (int i = 0; i < static_cast<int>(ics.size()); ++i) {
    const Constraint& ic = ics[i];
    std::vector<const Atom*> positives = ic.PositiveAtoms();
    for (int c = 0; c < static_cast<int>(ic.comparisons.size()); ++c) {
      std::vector<VarId> vars;
      ic.comparisons[c].CollectVars(&vars);
      int carrier = FindCarrier(positives, vars);
      if (carrier == -1) {
        // Quasi-local treatment (end of Section 4.2).
        info.nonlocal_order[i].push_back(c);
        continue;
      }
      info.pairs.push_back(LocalAtomPair{i, carrier, /*is_order=*/true, c});
    }
    for (int b = 0; b < static_cast<int>(ic.body.size()); ++b) {
      if (!ic.body[b].negated) continue;
      std::vector<VarId> vars;
      ic.body[b].atom.CollectVars(&vars);
      int carrier = FindCarrier(positives, vars);
      if (carrier == -1) {
        return Status::Unsupported("negated atom " + ic.body[b].ToString() +
                             " of IC " + ic.ToString() +
                             " is not local (Theorem 5.4 territory: "
                             "satisfiability would be undecidable)");
      }
      info.pairs.push_back(LocalAtomPair{i, carrier, /*is_order=*/false, b});
    }
  }
  return info;
}

Result<Program> RewriteForLocalAtoms(const Program& program,
                                     const std::vector<Constraint>& ics,
                                     const LocalAtomInfo& info,
                                     int max_rules, Provenance* provenance) {
  if (!info.HasPairs()) return program;
  const std::set<PredId> idb = program.IdbPreds();

  // Rules with their origins (all unknown without `provenance`).
  std::deque<std::pair<Rule, RuleOrigin>> queue;
  for (size_t i = 0; i < program.rules().size(); ++i) {
    queue.emplace_back(program.rules()[i], provenance != nullptr
                                               ? provenance->rules[i]
                                               : RuleOrigin());
  }
  std::vector<std::pair<Rule, RuleOrigin>> done;

  while (!queue.empty()) {
    if (static_cast<int>(queue.size() + done.size()) > max_rules) {
      return Status::ResourceExhausted("local-atom rewriting exceeded max_rules=" +
                           std::to_string(max_rules));
    }
    auto [rule, origin] = std::move(queue.front());
    queue.pop_front();

    bool split = false;
    OrderSolver solver(rule.comparisons);
    for (size_t b = 0; b < rule.body.size() && !split; ++b) {
      const Literal& lit = rule.body[b];
      if (lit.negated || idb.count(lit.atom.pred()) > 0) continue;
      for (const LocalAtomPair& pair : info.pairs) {
        const Constraint& ic = ics[pair.ic_index];
        const Atom& carrier = *ic.PositiveAtoms()[pair.carrier];
        Substitution h;
        if (!MatchInto(carrier, lit.atom, &h)) continue;
        if (pair.is_order) {
          Comparison hl = MappedOrderAtom(ic, pair, h);
          if (solver.Entails(hl) || solver.Entails(hl.Negated())) continue;
          Rule with = rule;
          with.comparisons.push_back(hl.Canonical());
          Rule without = rule;
          without.comparisons.push_back(hl.Negated().Canonical());
          queue.emplace_back(std::move(with), origin);
          queue.emplace_back(std::move(without), origin);
        } else {
          Atom hl = MappedNegatedAtom(ic, pair, h);
          Literal pos = Literal::Pos(hl);
          Literal neg = Literal::Neg(hl);
          bool has_pos = std::find(rule.body.begin(), rule.body.end(), pos) !=
                         rule.body.end();
          bool has_neg = std::find(rule.body.begin(), rule.body.end(), neg) !=
                         rule.body.end();
          if (has_pos || has_neg) continue;
          Rule with = rule;
          with.body.push_back(pos);
          Rule without = rule;
          without.body.push_back(neg);
          queue.emplace_back(std::move(with), RuleOrigin());
          queue.emplace_back(std::move(without), origin);
        }
        split = true;
        break;
      }
    }
    if (!split) done.emplace_back(std::move(rule), origin);
  }

  Program out;
  out.SetQuery(program.query());
  std::vector<RuleOrigin> origins;
  for (auto& [r, origin] : done) {
    bool changed = false;
    if (!NormalizeRule(&r, &changed)) continue;
    out.AddRule(std::move(r));
    origins.push_back(changed ? RuleOrigin() : origin);
  }
  if (provenance != nullptr) provenance->rules = std::move(origins);
  return out;
}

bool RetentionHolds(const Rule& rule, const std::vector<Constraint>& ics,
                    const LocalAtomInfo& info, int ic_index, int carrier,
                    const Substitution& h) {
  const Constraint& ic = ics[ic_index];
  for (const LocalAtomPair* pair : info.PairsFor(ic_index, carrier)) {
    if (pair->is_order) {
      Comparison hl = MappedOrderAtom(ic, *pair, h);
      if (!OrderSolver(rule.comparisons).Entails(hl)) return false;
    } else {
      Literal neg = Literal::Neg(MappedNegatedAtom(ic, *pair, h));
      if (std::find(rule.body.begin(), rule.body.end(), neg) ==
          rule.body.end()) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace sqod
