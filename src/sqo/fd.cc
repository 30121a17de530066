#include "src/sqo/fd.h"

#include <algorithm>

#include "src/ast/substitution.h"
#include "src/ast/unify.h"
#include "src/sqo/preprocess.h"

namespace sqod {

std::string FunctionalDependency::ToString() const {
  std::string s = PredName(pred) + ": {";
  for (size_t i = 0; i < determinants.size(); ++i) {
    if (i > 0) s += ", ";
    s += std::to_string(determinants[i]);
  }
  return s + "} -> " + std::to_string(determined);
}

Constraint MakeFdConstraint(const FunctionalDependency& fd, int arity) {
  std::vector<Term> args1, args2;
  for (int i = 0; i < arity; ++i) {
    if (std::find(fd.determinants.begin(), fd.determinants.end(), i) !=
        fd.determinants.end()) {
      Term shared = Term::Var("K" + std::to_string(i));
      args1.push_back(shared);
      args2.push_back(shared);
    } else if (i == fd.determined) {
      args1.push_back(Term::Var("Z1"));
      args2.push_back(Term::Var("Z2"));
    } else {
      args1.push_back(Term::Var("Y1_" + std::to_string(i)));
      args2.push_back(Term::Var("Y2_" + std::to_string(i)));
    }
  }
  Constraint ic;
  ic.body.push_back(Literal::Pos(Atom(fd.pred, std::move(args1))));
  ic.body.push_back(Literal::Pos(Atom(fd.pred, std::move(args2))));
  ic.comparisons.push_back(
      Comparison(Term::Var("Z1"), CmpOp::kNe, Term::Var("Z2")));
  return ic;
}

std::vector<FunctionalDependency> ExtractFds(
    const std::vector<Constraint>& ics) {
  std::vector<FunctionalDependency> out;
  for (const Constraint& ic : ics) {
    // Shape: exactly two positive atoms of one predicate, no negation, one
    // != comparison between the two atoms' variables at one position.
    if (ic.body.size() != 2 || ic.comparisons.size() != 1) continue;
    if (ic.body[0].negated || ic.body[1].negated) continue;
    const Atom& a = ic.body[0].atom;
    const Atom& b = ic.body[1].atom;
    if (a.pred() != b.pred() || a.arity() != b.arity()) continue;
    const Comparison& c = ic.comparisons[0];
    if (c.op != CmpOp::kNe || !c.lhs.is_var() || !c.rhs.is_var()) continue;

    FunctionalDependency fd;
    fd.pred = a.pred();
    bool shape_ok = true;
    for (int i = 0; i < a.arity() && shape_ok; ++i) {
      const Term& ta = a.arg(i);
      const Term& tb = b.arg(i);
      if (!ta.is_var() || !tb.is_var()) {
        shape_ok = false;
      } else if (ta == tb) {
        fd.determinants.push_back(i);
      } else if ((ta == c.lhs && tb == c.rhs) ||
                 (ta == c.rhs && tb == c.lhs)) {
        if (fd.determined != -1) shape_ok = false;  // two disequal positions
        fd.determined = i;
      }
      // Positions with unrelated distinct variables are the "Ys": ignored.
    }
    if (!shape_ok || fd.determined == -1) continue;
    // The comparison variables must not appear elsewhere in the atoms
    // (otherwise the constraint means something stronger).
    out.push_back(std::move(fd));
  }
  return out;
}

namespace {

// One pass of FD unification over a rule. Returns true if anything changed.
bool FdPass(Rule* rule, const std::vector<FunctionalDependency>& fds,
            FdRewriteReport* report) {
  for (const FunctionalDependency& fd : fds) {
    std::vector<int> occurrences;
    for (int b = 0; b < static_cast<int>(rule->body.size()); ++b) {
      const Literal& l = (*rule).body[b];
      if (!l.negated && l.atom.pred() == fd.pred) occurrences.push_back(b);
    }
    for (size_t i = 0; i < occurrences.size(); ++i) {
      for (size_t j = i + 1; j < occurrences.size(); ++j) {
        const Atom& a = rule->body[occurrences[i]].atom;
        const Atom& b = rule->body[occurrences[j]].atom;
        bool keys_agree = std::all_of(
            fd.determinants.begin(), fd.determinants.end(),
            [&](int pos) { return a.arg(pos) == b.arg(pos); });
        if (!keys_agree) continue;
        const Term& za = a.arg(fd.determined);
        const Term& zb = b.arg(fd.determined);
        if (za == zb) continue;
        // Unify the determined arguments across the whole rule.
        Substitution subst;
        if (!UnifyTermsInto(za, zb, &subst)) {
          // Two distinct constants under an FD key match: the rule can
          // never match a consistent database. Mark by clearing the body
          // and adding an unsatisfiable comparison.
          rule->comparisons.push_back(
              Comparison(za, CmpOp::kEq, zb));  // constant = constant, false
          return false;
        }
        *rule = subst.Apply(*rule);
        ++report->unifications;
        return true;
      }
    }
  }
  return false;
}

}  // namespace

Program ApplyFdRewriting(const Program& program,
                         const std::vector<FunctionalDependency>& fds,
                         FdRewriteReport* report, Provenance* provenance) {
  FdRewriteReport local;
  Program out;
  out.SetQuery(program.query());
  if (fds.empty()) {
    for (const Rule& r : program.rules()) out.AddRule(r);
    if (report != nullptr) *report = local;
    return out;
  }
  std::vector<RuleOrigin> origins;
  for (size_t i = 0; i < program.rules().size(); ++i) {
    Rule rule = program.rules()[i];
    bool changed = false;
    while (FdPass(&rule, fds, &local)) changed = true;
    // Deduplicate body atoms that became identical (join elimination).
    std::vector<Literal> deduped;
    for (const Literal& l : rule.body) {
      if (std::find(deduped.begin(), deduped.end(), l) == deduped.end()) {
        deduped.push_back(l);
      } else if (!l.negated) {
        ++local.atoms_removed;
      }
    }
    changed |= deduped.size() != rule.body.size();
    rule.body = std::move(deduped);
    bool normalized = false;
    if (!NormalizeRule(&rule, &normalized)) continue;
    out.AddRule(std::move(rule));
    if (provenance != nullptr) {
      origins.push_back(changed || normalized ? RuleOrigin()
                                              : provenance->rules[i]);
    }
  }
  if (provenance != nullptr) provenance->rules = std::move(origins);
  if (report != nullptr) *report = local;
  return out;
}

}  // namespace sqod
