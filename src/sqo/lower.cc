#include "src/sqo/lower.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "src/ast/match_memo.h"
#include "src/base/check.h"
#include "src/cq/homomorphism.h"
#include "src/obs/json.h"
#include "src/obs/trace.h"
#include "src/order/solver.h"
#include "src/sqo/preprocess.h"

namespace sqod {

namespace {

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

std::string Join(const std::vector<std::string>& items) {
  std::string out;
  for (const std::string& s : items) {
    if (!out.empty()) out += ", ";
    out += s;
  }
  return out;
}

}  // namespace

LoweredProgram LowerProgram(const SqoReport& report) {
  const int64_t start_ns = NowNs();
  LoweredProgram out;
  const Program& rewritten = report.rewritten;
  const std::vector<RuleOrigin>& origins = report.provenance.rules;
  // The predicate of P an adorned copy specializes, or -1.
  auto base_of = [&copies = report.provenance.copies](PredId pred) {
    auto it = copies.find(pred);
    return it == copies.end() ? PredId{-1} : it->second;
  };
  std::vector<Rule> rules = rewritten.rules();
  const int n = static_cast<int>(rules.size());
  SQOD_CHECK(static_cast<int>(origins.size()) == n);
  out.rules_before = n;

  // (b) Drop appended comparisons the rule's own EDB atoms imply.
  const std::set<PredId> idb = rewritten.IdbPreds();
  AtomMatchMemo memo;
  for (int i = 0; i < n; ++i) {
    Rule& rule = rules[i];
    const size_t from = origins[i].comparisons;
    if (!origins[i].of_p || rule.comparisons.size() <= from) continue;
    std::vector<Atom> edb_atoms;
    for (const Atom* a : rule.PositiveAtoms()) {
      if (idb.count(a->pred()) == 0) edb_atoms.push_back(*a);
    }
    std::vector<Comparison> kept(rule.comparisons.begin(),
                                 rule.comparisons.begin() + from);
    for (size_t k = from; k < rule.comparisons.size(); ++k) {
      const Comparison& c = rule.comparisons[k];
      const int ic = ImplyingIc(c, edb_atoms, report.ics, memo);
      if (ic >= 0) {
        out.dropped.push_back(
            {c.ToString(), rule.ToString(), ic, report.ics[ic].ToString()});
      } else {
        kept.push_back(c);
      }
    }
    rule.comparisons = std::move(kept);
  }

  // (a) Merge candidates, per original predicate with adorned copies.
  std::map<PredId, std::vector<PredId>> copies;
  std::set<PredId> has_copy_rule;
  // base -> why it stays adorned: a rule that is not an original rule
  // (blocks both merges), or an appended residue (blocks all but a rename).
  std::map<PredId, std::string> unmatched, residue;
  for (int i = 0; i < n; ++i) {
    const Rule& rule = rules[i];
    const RuleOrigin& origin = origins[i];
    const PredId head = rule.head.pred();
    if (origin.copy_rule) has_copy_rule.insert(head);
    const PredId base = base_of(head);
    if (base < 0) continue;
    std::vector<PredId>& list = copies[base];
    if (std::find(list.begin(), list.end(), head) == list.end()) {
      list.push_back(head);
    }
    // The first such rule per base names the reason.
    if (!origin.of_p) {
      if (unmatched.count(base) == 0) {
        unmatched[base] = "not one of " + PredName(base) +
                          "'s rules: " + rule.ToString();
      }
      continue;
    }
    if (residue.count(base) > 0) continue;
    std::vector<std::string> appended;
    for (size_t b = origin.body; b < rule.body.size(); ++b) {
      appended.push_back(rule.body[b].ToString());
    }
    for (size_t k = origin.comparisons; k < rule.comparisons.size(); ++k) {
      appended.push_back(rule.comparisons[k].ToString());
    }
    if (!appended.empty()) {
      residue[base] = "residue " + Join(appended) + " on " + rule.ToString();
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
      const PredId head_base = base_of(head);
      if (merged.count(head) > 0 ||
          (head_base >= 0 && merged.count(head_base) > 0)) {
        continue;
      }
      for (const Literal& l : rule.body) {
        const PredId base = base_of(l.atom.pred());
        if (base < 0 || base == head || merged.erase(base) == 0) continue;
        reason[base] = "read by kept " + PredName(head);
        changed = true;
      }
    }
  }

  // Assemble P″: rename merged copies, drop their copy rules, dedupe.
  auto rename_atom = [&](Atom* atom) {
    const PredId base = base_of(atom->pred());
    if (base >= 0 && merged.count(base) > 0) *atom = Atom(base, atom->args());
  };
  std::unordered_set<std::string> seen;
  for (int i = 0; i < n; ++i) {
    if (origins[i].copy_rule && merged.count(rules[i].head.pred()) > 0) {
      continue;
    }
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
