#include "src/sqo/residue.h"

#include <algorithm>
#include <set>

#include "src/ast/match_memo.h"
#include "src/ast/unify.h"
#include "src/order/solver.h"
#include "src/sqo/preprocess.h"

namespace sqod {

std::string Residue::ToString() const {
  std::string s = "{";
  bool first = true;
  for (const Literal& l : literals) {
    if (!first) s += ", ";
    first = false;
    s += l.ToString();
  }
  for (const Comparison& c : comparisons) {
    if (!first) s += ", ";
    first = false;
    s += c.ToString();
  }
  return s + "}";
}

namespace {

inline size_t HashCombine(size_t seed, size_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2));
}

// Enumerates homomorphisms of a chosen subset of the IC's positive atoms
// into the rule's positive EDB atoms, driven by the precomputed per-pair
// match deltas (`deltas[i][b]` is the one-way match of IC atom i into body
// atom b). `assignment[i]` is the body-atom index the i-th IC atom maps to,
// or -1 for "unmapped". `unmapped_budget` is how many more atoms may stay
// unmapped; leaving one decrements it and the branch is pruned at zero.
void EnumerateMappings(
    const std::vector<std::vector<const MatchDelta*>>& deltas, size_t next,
    int unmapped_budget, Substitution* subst, std::vector<int>* assignment,
    const std::function<void(const Substitution&, const std::vector<int>&)>&
        cb) {
  if (next == deltas.size()) {
    cb(*subst, *assignment);
    return;
  }
  // Option 1: leave the atom unmapped.
  if (unmapped_budget != 0) {
    (*assignment)[next] = -1;
    EnumerateMappings(deltas, next + 1, unmapped_budget - 1, subst,
                      assignment, cb);
  }
  // Option 2: map it to each compatible body atom.
  for (size_t b = 0; b < deltas[next].size(); ++b) {
    Substitution attempt = *subst;
    if (!ApplyMatchDelta(*deltas[next][b], &attempt)) continue;
    (*assignment)[next] = static_cast<int>(b);
    EnumerateMappings(deltas, next + 1, unmapped_budget, &attempt, assignment,
                      cb);
  }
  (*assignment)[next] = -1;
}

// True if every variable of `t` is in the domain of `subst`.
bool TermDetermined(const Term& t, const Substitution& subst) {
  return t.is_const() || subst.Lookup(t.var()) != nullptr;
}

size_t ResidueHash(const Residue& res) {
  size_t h = static_cast<size_t>(res.ic_index) + 0x85ebca6b;
  for (const Literal& l : res.literals) {
    h = HashCombine(h, l.negated ? 0x9e3779b9 : 0x61c88647);
    h = HashCombine(h, l.atom.Hash());
  }
  for (const Comparison& c : res.comparisons) {
    h = HashCombine(h, c.lhs.Hash());
    h = HashCombine(h, static_cast<size_t>(c.op));
    h = HashCombine(h, c.rhs.Hash());
  }
  return h;
}

bool SameResidue(const Residue& a, const Residue& b) {
  return a.ic_index == b.ic_index && a.literals == b.literals &&
         a.comparisons == b.comparisons;
}

}  // namespace

std::vector<Residue> ComputeResidues(const Rule& rule, const Constraint& ic,
                                     int ic_index) {
  FreshVarGen gen;
  Constraint renamed = RenameApart(ic, &gen);
  return ComputeResiduesRenamed(rule, renamed, ic_index);
}

std::vector<Residue> ComputeResiduesRenamed(const Rule& rule,
                                            const Constraint& renamed,
                                            int ic_index, int max_literals) {
  // Negated IC atoms are kept in every residue, so they consume the literal
  // budget up front; what remains bounds how many positive atoms may stay
  // unmapped.
  int unmapped_budget = -1;  // unbounded
  if (max_literals >= 0) {
    int negated = 0;
    for (const Literal& l : renamed.body) {
      if (l.negated) ++negated;
    }
    unmapped_budget = max_literals - negated;
    if (unmapped_budget < 0) return {};  // no residue can fit the budget
  }

  // Candidate targets: the rule's positive EDB-or-any atoms. ICs may only
  // mention EDB predicates, so non-EDB body atoms simply never match.
  std::vector<Atom> body_atoms;
  for (const Literal& l : rule.body) {
    if (!l.negated) body_atoms.push_back(l.atom);
  }
  std::vector<Atom> ic_atoms;
  for (const Literal& l : renamed.body) {
    if (!l.negated) ic_atoms.push_back(l.atom);
  }

  // Pairwise match deltas, computed once per pair instead of once per
  // enumeration path.
  std::vector<std::vector<const MatchDelta*>> deltas(ic_atoms.size());
  std::vector<MatchDelta> local_deltas;  // reserved up front: stable
  local_deltas.reserve(ic_atoms.size() * body_atoms.size());
  for (size_t i = 0; i < ic_atoms.size(); ++i) {
    deltas[i].resize(body_atoms.size());
    for (size_t b = 0; b < body_atoms.size(); ++b) {
      local_deltas.push_back(ComputeMatchDelta(ic_atoms[i], body_atoms[b]));
      deltas[i][b] = &local_deltas.back();
    }
  }

  OrderSolver rule_solver(rule.comparisons);

  std::vector<Residue> out;
  // Dedup by content hash with a full equality check per bucket entry (the
  // old path serialized every residue to a string and kept a std::set).
  std::unordered_map<size_t, std::vector<size_t>> seen;
  Substitution empty;
  std::vector<int> assignment(ic_atoms.size(), -1);
  EnumerateMappings(
      deltas, 0, unmapped_budget, &empty, &assignment,
      [&](const Substitution& h, const std::vector<int>& asg) {
        Residue res;
        res.ic_index = ic_index;
        for (size_t i = 0; i < ic_atoms.size(); ++i) {
          if (asg[i] == -1) {
            res.literals.push_back(Literal::Pos(h.Apply(ic_atoms[i])));
          }
        }
        // Negated IC atoms are never discharged by the mapping here; they
        // stay in the residue (with the mapping applied).
        for (const Literal& l : renamed.body) {
          if (l.negated) res.literals.push_back(h.Apply(l));
        }
        // Comparisons fully determined by the mapping and entailed by the
        // rule's own comparisons are discharged; the rest remain.
        for (const Comparison& c : renamed.comparisons) {
          Comparison mapped = h.Apply(c);
          if (TermDetermined(c.lhs, h) && TermDetermined(c.rhs, h) &&
              rule_solver.Entails(mapped)) {
            continue;
          }
          res.comparisons.push_back(mapped);
        }
        std::vector<size_t>& bucket = seen[ResidueHash(res)];
        for (size_t idx : bucket) {
          if (SameResidue(out[idx], res)) return;
        }
        bucket.push_back(out.size());
        out.push_back(std::move(res));
      });
  return out;
}

Program ApplyClassicSqo(const Program& program,
                        const std::vector<Constraint>& ics,
                        ClassicSqoReport* report, Provenance* provenance) {
  ClassicSqoReport local_report;
  Program out;
  out.SetQuery(program.query());

  // Rename each IC apart once. A fresh name is apart from every rule here:
  // inside an optimizer run it avoids the run's input and every name the run
  // drew before (FreshNameScope); outside one it was never interned.
  FreshVarGen gen;
  std::vector<Constraint> renamed_ics;
  renamed_ics.reserve(ics.size());
  for (const Constraint& ic : ics) renamed_ics.push_back(RenameApart(ic, &gen));

  std::vector<RuleOrigin> origins;
  for (size_t r = 0; r < program.rules().size(); ++r) {
    Rule rule = program.rules()[r];
    bool deleted = false;
    for (int i = 0; i < static_cast<int>(ics.size()) && !deleted; ++i) {
      for (const Residue& res : ComputeResiduesRenamed(
               rule, renamed_ics[i], i, /*max_literals=*/1)) {
        if (res.empty()) {
          // The whole IC maps into the rule: no instantiation over a
          // consistent database satisfies the body.
          deleted = true;
          ++local_report.rules_deleted;
          break;
        }
        // Attach the negation of expressible single-literal residues.
        if (res.literals.empty() && res.comparisons.size() == 1) {
          const Comparison& c = res.comparisons[0];
          std::vector<VarId> cvars;
          c.CollectVars(&cvars);
          std::vector<VarId> rule_vars = rule.BodyVars();
          bool bound = std::all_of(cvars.begin(), cvars.end(), [&](VarId v) {
            return std::find(rule_vars.begin(), rule_vars.end(), v) !=
                   rule_vars.end();
          });
          if (!bound) continue;
          Comparison negated = c.Negated().Canonical();
          OrderSolver solver(rule.comparisons);
          if (solver.Entails(negated)) continue;  // already implied
          rule.comparisons.push_back(negated);
          ++local_report.comparisons_added;
        } else if (res.comparisons.empty() && res.literals.size() == 1 &&
                   !res.literals[0].negated) {
          const Atom& a = res.literals[0].atom;
          std::vector<VarId> avars;
          a.CollectVars(&avars);
          std::vector<VarId> rule_vars = rule.BodyVars();
          bool bound = std::all_of(avars.begin(), avars.end(), [&](VarId v) {
            return std::find(rule_vars.begin(), rule_vars.end(), v) !=
                   rule_vars.end();
          });
          if (!bound) continue;
          Literal neg = Literal::Neg(a);
          if (std::find(rule.body.begin(), rule.body.end(), neg) !=
              rule.body.end()) {
            continue;
          }
          rule.body.push_back(neg);
          ++local_report.negations_added;
        }
      }
      // Attached comparisons can make the rule unsatisfiable outright.
      if (!ComparisonsConsistent(rule.comparisons)) {
        deleted = true;
        ++local_report.rules_deleted;
      }
    }
    if (!deleted) {
      bool changed = false;
      NormalizeRule(&rule, &changed);
      out.AddRule(std::move(rule));
      if (provenance != nullptr) {
        origins.push_back(changed ? RuleOrigin() : provenance->rules[r]);
      }
    }
  }
  if (provenance != nullptr) provenance->rules = std::move(origins);
  if (report != nullptr) *report = local_report;
  return out;
}

}  // namespace sqod
