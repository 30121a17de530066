#include "src/sqo/lower.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/ast/match_memo.h"
#include "src/cq/homomorphism.h"
#include "src/obs/json.h"
#include "src/obs/trace.h"
#include "src/order/solver.h"
#include "src/sqo/preprocess.h"

namespace sqod {

namespace {

bool AllDigits(const std::string& s, size_t begin, size_t end) {
  if (begin >= end) return false;
  for (size_t i = begin; i < end; ++i) {
    if (!std::isdigit(static_cast<unsigned char>(s[i]))) return false;
  }
  return true;
}

// Maps adorned copy names back to the original predicate they specialize.
class CopyNames {
 public:
  explicit CopyNames(const Program& original) {
    for (PredId p : original.IdbPreds()) by_name_[PredName(p)] = p;
    known_ = original.IdbPreds();
    for (PredId p : original.EdbPreds()) known_.insert(p);
  }

  // The predicate `pred` is an adorned copy of ("<p>@<k>" or
  // "<p>@<k>_n<class>" for an IDB p of the original), or -1. A predicate
  // of the original program is never a copy, whatever its name.
  PredId Base(PredId pred) const {
    if (known_.count(pred) > 0) return -1;
    const std::string& name = PredName(pred);
    const size_t at = name.rfind('@');
    if (at == std::string::npos || at == 0) return -1;
    const size_t n = name.find("_n", at);
    const size_t k_end = n == std::string::npos ? name.size() : n;
    if (!AllDigits(name, at + 1, k_end)) return -1;
    if (n != std::string::npos && !AllDigits(name, n + 2, name.size())) {
      return -1;
    }
    auto it = by_name_.find(name.substr(0, at));
    return it == by_name_.end() ? -1 : it->second;
  }

  // `atom` with its predicate's adornment erased.
  Atom Erase(const Atom& atom) const {
    PredId base = Base(atom.pred());
    return base < 0 ? atom : Atom(base, atom.args());
  }

 private:
  std::unordered_map<std::string, PredId> by_name_;
  std::set<PredId> known_;
};

// An injective renaming of an original rule's variables onto a rewritten
// rule's, built one term pair at a time.
class Renaming {
 public:
  bool Bind(const Term& from, const Term& to) {
    if (from.is_const() || to.is_const()) return from == to;
    auto f = fwd_.find(from.var());
    if (f != fwd_.end()) return f->second == to.var();
    if (!bwd_.insert(to.var()).second) return false;
    fwd_.emplace(from.var(), to.var());
    return true;
  }
  bool BindAtom(const Atom& from, const Atom& to) {
    if (from.pred() != to.pred() || from.arity() != to.arity()) return false;
    for (int i = 0; i < from.arity(); ++i) {
      if (!Bind(from.arg(i), to.arg(i))) return false;
    }
    return true;
  }
  Term Apply(const Term& t) const {
    if (t.is_const()) return t;
    auto f = fwd_.find(t.var());
    return f == fwd_.end() ? t : Term::VarFromId(f->second);
  }

 private:
  std::unordered_map<VarId, VarId> fwd_;
  std::unordered_set<VarId> bwd_;
};

// Which literals of a rewritten rule lie outside its original rule.
struct Extras {
  std::vector<int> body;         // negated literals (indices into body)
  std::vector<int> comparisons;  // indices into comparisons
};

// Does `erased` (a rewritten rule with adornments erased) equal `original`
// plus extra negated literals and comparisons, up to variable renaming?
// The original's body literals must appear in order; comparisons match in
// either orientation.
bool MatchOriginal(const Rule& original, const Rule& erased, Extras* extras) {
  Renaming sigma;
  if (!sigma.BindAtom(original.head, erased.head)) return false;
  extras->body.clear();
  extras->comparisons.clear();
  size_t j = 0;
  for (const Literal& lit : original.body) {
    for (;; ++j) {
      if (j == erased.body.size()) return false;
      const Literal& cand = erased.body[j];
      if (cand.negated == lit.negated) {
        Renaming trial = sigma;
        if (trial.BindAtom(lit.atom, cand.atom)) {
          sigma = std::move(trial);
          ++j;
          break;
        }
      }
      if (!cand.negated) return false;  // only negations may be extra
      extras->body.push_back(static_cast<int>(j));
    }
  }
  for (; j < erased.body.size(); ++j) {
    if (!erased.body[j].negated) return false;
    extras->body.push_back(static_cast<int>(j));
  }
  std::vector<bool> used(erased.comparisons.size(), false);
  for (const Comparison& c : original.comparisons) {
    Comparison mapped(sigma.Apply(c.lhs), c.op, sigma.Apply(c.rhs));
    bool found = false;
    for (size_t k = 0; k < erased.comparisons.size() && !found; ++k) {
      const Comparison& cand = erased.comparisons[k];
      if (!used[k] && (cand == mapped || cand == mapped.Flipped())) {
        used[k] = found = true;
      }
    }
    if (!found) return false;
  }
  for (size_t k = 0; k < used.size(); ++k) {
    if (!used[k]) extras->comparisons.push_back(static_cast<int>(k));
  }
  return true;
}

// The index of an IC that makes `c` hold on every instantiation of
// `edb_atoms` over a consistent database, or -1: the IC's positive atoms
// map into `edb_atoms` and not(c) entails the IC's mapped comparisons.
int ImplyingIc(const Comparison& c, const std::vector<Atom>& edb_atoms,
               const std::vector<Constraint>& ics, AtomMatchMemo& memo) {
  const OrderSolver negated({c.Negated()});
  for (size_t i = 0; i < ics.size(); ++i) {
    const Constraint& ic = ics[i];
    if (!ic.NegatedAtoms().empty() || ic.comparisons.empty()) continue;
    std::vector<Atom> from;
    for (const Atom* a : ic.PositiveAtoms()) from.push_back(*a);
    const bool implied = ForEachHomomorphism(
        from, edb_atoms, Substitution(),
        [&](const Substitution& h) {
          for (const Comparison& ic_cmp : ic.comparisons) {
            if (!negated.Entails(h.Apply(ic_cmp))) return false;
          }
          return true;
        },
        memo);
    if (implied) return static_cast<int>(i);
  }
  return -1;
}

// A rendering of `rule` with variables numbered by first occurrence, so
// rules equal up to variable renaming get equal keys.
std::string CanonicalKey(const Rule& rule) {
  std::unordered_map<VarId, int> ids;
  std::string key;
  auto term = [&](const Term& t) {
    if (t.is_const()) {
      key += 'c';
      key += t.ToString();
    } else {
      const int id =
          ids.emplace(t.var(), static_cast<int>(ids.size())).first->second;
      key += 'v';
      key += std::to_string(id);
    }
    key += ',';
  };
  auto atom = [&](const Atom& a) {
    key += std::to_string(a.pred());
    key += '(';
    for (const Term& t : a.args()) term(t);
    key += ')';
  };
  atom(rule.head);
  key += ":-";
  for (const Literal& l : rule.body) {
    if (l.negated) key += '!';
    atom(l.atom);
  }
  for (const Comparison& c : rule.comparisons) {
    term(c.lhs);
    key += CmpOpName(c.op);
    term(c.rhs);
  }
  return key;
}

// p(W...) :- p@k(W...): the wrapper the query tree emits per query copy.
bool IsCopyRule(const Rule& rule, const CopyNames& names) {
  return rule.body.size() == 1 && rule.comparisons.empty() &&
         !rule.body[0].negated &&
         names.Base(rule.body[0].atom.pred()) == rule.head.pred() &&
         rule.body[0].atom.args() == rule.head.args();
}

std::string Join(const std::vector<std::string>& items) {
  std::string out;
  for (const std::string& s : items) {
    if (!out.empty()) out += ", ";
    out += s;
  }
  return out;
}

}  // namespace

LoweredProgram LowerProgram(const Program& original, const Program& rewritten,
                            const std::vector<Constraint>& ics) {
  const int64_t start_ns = NowNs();
  LoweredProgram out;
  const CopyNames names(original);
  std::vector<Rule> rules = rewritten.rules();
  const int n = static_cast<int>(rules.size());
  out.rules_before = n;

  std::map<PredId, std::vector<Rule>> originals;
  for (const Rule& rule : original.rules()) {
    Rule normal = rule;
    if (NormalizeRule(&normal)) originals[normal.head.pred()].push_back(normal);
  }

  // Per rewritten rule: its original (with the extra literals), or none.
  std::vector<bool> copy_rule(n, false), matched(n, false);
  std::vector<Extras> extras(n);
  for (int i = 0; i < n; ++i) {
    const Rule& rule = rules[i];
    copy_rule[i] = IsCopyRule(rule, names);
    if (copy_rule[i]) continue;
    Rule erased = rule;
    erased.head = names.Erase(rule.head);
    for (Literal& l : erased.body) l.atom = names.Erase(l.atom);
    for (const Rule& o : originals[erased.head.pred()]) {
      if (MatchOriginal(o, erased, &extras[i])) {
        matched[i] = true;
        break;
      }
    }
  }

  // (b) Drop attached comparisons the rule's own EDB atoms imply.
  const std::set<PredId> idb = rewritten.IdbPreds();
  AtomMatchMemo memo;
  for (int i = 0; i < n; ++i) {
    if (!matched[i] || extras[i].comparisons.empty()) continue;
    Rule& rule = rules[i];
    std::vector<Atom> edb_atoms;
    for (const Atom* a : rule.PositiveAtoms()) {
      if (idb.count(a->pred()) == 0) edb_atoms.push_back(*a);
    }
    const std::vector<int>& attached = extras[i].comparisons;
    std::vector<Comparison> kept;
    std::vector<int> residue;  // attached comparisons that stay, in `kept`
    for (int k = 0; k < static_cast<int>(rule.comparisons.size()); ++k) {
      const Comparison& c = rule.comparisons[k];
      if (std::find(attached.begin(), attached.end(), k) != attached.end()) {
        const int ic = ImplyingIc(c, edb_atoms, ics, memo);
        if (ic >= 0) {
          out.dropped.push_back(
              {c.ToString(), rule.ToString(), ic, ics[ic].ToString()});
          continue;
        }
        residue.push_back(static_cast<int>(kept.size()));
      }
      kept.push_back(c);
    }
    rule.comparisons = std::move(kept);
    extras[i].comparisons = std::move(residue);
  }

  // (a) Merge candidates, per original predicate with adorned copies.
  std::map<PredId, std::vector<PredId>> copies;
  std::set<PredId> has_copy_rule;
  // base -> why it stays adorned: a rule that is not an original rule
  // (blocks both merges), or an attached residue (blocks all but a rename).
  std::map<PredId, std::string> unmatched, residue;
  for (int i = 0; i < n; ++i) {
    const Rule& rule = rules[i];
    const PredId head = rule.head.pred();
    if (copy_rule[i]) has_copy_rule.insert(head);
    const PredId base = names.Base(head);
    if (base < 0) continue;
    std::vector<PredId>& list = copies[base];
    if (std::find(list.begin(), list.end(), head) == list.end()) {
      list.push_back(head);
    }
    if (!matched[i]) {
      unmatched.emplace(base, "not one of " + PredName(base) +
                                  "'s rules: " + rule.ToString());
    } else if (!extras[i].body.empty() || !extras[i].comparisons.empty()) {
      std::vector<std::string> attached;
      for (int b : extras[i].body) attached.push_back(rule.body[b].ToString());
      for (int k : extras[i].comparisons) {
        attached.push_back(rule.comparisons[k].ToString());
      }
      residue.emplace(base,
                      "residue " + Join(attached) + " on " + rule.ToString());
    }
  }
  std::map<PredId, std::string> reason;
  std::set<PredId> merged, renamed;
  for (const auto& [base, list] : copies) {
    if (unmatched.count(base) > 0) {
      reason[base] = unmatched[base];
    } else if (list.size() == 1 && has_copy_rule.count(base) > 0) {
      renamed.insert(base);
      merged.insert(base);
    } else if (residue.count(base) > 0) {
      reason[base] = residue[base];
    } else {
      merged.insert(base);
    }
  }
  // A kept copy must not start reading a merged (wider) relation: demote
  // every candidate a kept rule reads, to a fixpoint.
  for (bool changed = true; changed;) {
    changed = false;
    for (const Rule& rule : rules) {
      const PredId head = rule.head.pred();
      const PredId head_base = names.Base(head);
      if (merged.count(head) > 0 ||
          (head_base >= 0 && merged.count(head_base) > 0)) {
        continue;
      }
      for (const Literal& l : rule.body) {
        const PredId base = names.Base(l.atom.pred());
        if (base < 0 || base == head || merged.erase(base) == 0) continue;
        reason[base] = "read by kept " + PredName(head);
        changed = true;
      }
    }
  }

  // Assemble P″: rename merged copies, drop their copy rules, dedupe.
  auto rename_atom = [&](Atom* atom) {
    const PredId base = names.Base(atom->pred());
    if (base >= 0 && merged.count(base) > 0) *atom = Atom(base, atom->args());
  };
  std::unordered_set<std::string> seen;
  for (int i = 0; i < n; ++i) {
    if (copy_rule[i] && merged.count(rules[i].head.pred()) > 0) continue;
    Rule rule = std::move(rules[i]);
    rename_atom(&rule.head);
    for (Literal& l : rule.body) rename_atom(&l.atom);
    if (!seen.insert(CanonicalKey(rule)).second) continue;
    out.program.AddRule(std::move(rule));
  }
  out.program.SetQuery(rewritten.query());

  for (const auto& [base, list] : copies) {
    if (merged.count(base) > 0) {
      out.merged.push_back({PredName(base), static_cast<int>(list.size()),
                            renamed.count(base) > 0});
      continue;
    }
    LoweredProgram::Keep keep;
    keep.pred = PredName(base);
    for (PredId copy : list) keep.copies.push_back(PredName(copy));
    keep.reason = reason[base];
    out.kept.push_back(std::move(keep));
  }
  out.lower_ns = NowNs() - start_ns;
  return out;
}

std::string LoweredProgram::ToText() const {
  std::string out = "rules:             " + std::to_string(rules_before) +
                    " -> " + std::to_string(program.rules().size()) + "\n";
  for (const Merge& m : merged) {
    out += "merged:            " + m.pred + " <- " +
           std::to_string(m.copies) + (m.copies == 1 ? " copy" : " copies") +
           (m.rename ? " (renamed)" : " (residue-free)") + "\n";
  }
  for (const Drop& d : dropped) {
    out += "dropped:           " + d.comparison + " from " + d.rule +
           " (implied by IC #" + std::to_string(d.ic_index) + " " + d.ic +
           ")\n";
  }
  for (const Keep& k : kept) {
    out += "kept adorned:      " + Join(k.copies) + " (" + k.reason + ")\n";
  }
  return out;
}

std::string LoweredProgram::ToJson() const {
  std::string out = "{\"rules_before\":" + std::to_string(rules_before);
  out += ",\"rules_after\":" + std::to_string(program.rules().size());
  out += ",\"lower_ns\":" + std::to_string(lower_ns);
  out += ",\"merged\":[";
  for (size_t i = 0; i < merged.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"pred\":\"" + JsonEscape(merged[i].pred) + "\"";
    out += ",\"copies\":" + std::to_string(merged[i].copies);
    out += ",\"rename\":";
    out += merged[i].rename ? "true" : "false";
    out += '}';
  }
  out += "],\"dropped\":[";
  for (size_t i = 0; i < dropped.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"comparison\":\"" + JsonEscape(dropped[i].comparison) + "\"";
    out += ",\"rule\":\"" + JsonEscape(dropped[i].rule) + "\"";
    out += ",\"ic_index\":" + std::to_string(dropped[i].ic_index);
    out += ",\"ic\":\"" + JsonEscape(dropped[i].ic) + "\"}";
  }
  out += "],\"kept\":[";
  for (size_t i = 0; i < kept.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"pred\":\"" + JsonEscape(kept[i].pred) + "\",\"copies\":[";
    for (size_t c = 0; c < kept[i].copies.size(); ++c) {
      if (c > 0) out += ',';
      out += "\"" + JsonEscape(kept[i].copies[c]) + "\"";
    }
    out += "],\"reason\":\"" + JsonEscape(kept[i].reason) + "\"}";
  }
  out += "]}";
  return out;
}

}  // namespace sqod
