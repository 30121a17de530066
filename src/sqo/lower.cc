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

// --- (c) demand ---------------------------------------------------------

using VarSet = std::unordered_set<VarId>;

void AddVars(const Atom& atom, VarSet* vars) {
  for (const Term& t : atom.args()) {
    if (t.is_var()) vars->insert(t.var());
  }
}

bool AllBound(const std::vector<VarId>& vars, const VarSet& bound) {
  return std::all_of(vars.begin(), vars.end(),
                     [&](VarId v) { return bound.count(v) > 0; });
}

// The positions of `atom` holding a constant or a variable in `bound`.
uint64_t BoundMask(const Atom& atom, const VarSet& bound) {
  uint64_t mask = 0;
  for (int i = 0; i < atom.arity(); ++i) {
    const Term& t = atom.arg(i);
    if (t.is_const() || bound.count(t.var()) > 0) mask |= uint64_t{1} << i;
  }
  return mask;
}

// The arguments of `atom` at the positions in `mask`.
std::vector<Term> Demanded(const Atom& atom, uint64_t mask) {
  std::vector<Term> out;
  for (int i = 0; i < atom.arity(); ++i) {
    if ((mask >> i) & 1) out.push_back(atom.arg(i));
  }
  return out;
}

std::string Adornment(uint64_t mask, int arity) {
  std::string out;
  for (int i = 0; i < arity; ++i) out += ((mask >> i) & 1) ? 'b' : 'f';
  return out;
}

// Calls `fn(j, mask)` for each positive body literal j of `rule` with the
// positions sideways information passing binds there: `head_mask`'s head
// arguments and the variables of every positive literal before j.
template <typename Fn>
void ForEachCall(const Rule& rule, uint64_t head_mask, Fn fn) {
  VarSet bound;
  for (const Term& t : Demanded(rule.head, head_mask)) {
    if (t.is_var()) bound.insert(t.var());
  }
  for (size_t j = 0; j < rule.body.size(); ++j) {
    const Literal& l = rule.body[j];
    if (l.negated) continue;
    fn(static_cast<int>(j), BoundMask(l.atom, bound));
    AddVars(l.atom, &bound);
  }
}

// The magic rule of the call rule.body[call]: magic(its arguments at
// `mask`) :- the positive literals before it, then every negated literal
// and comparison of the rule whose variables those bind.
Rule MagicRule(const Rule& rule, int call, PredId magic, uint64_t mask) {
  Rule out;
  out.head = Atom(magic, Demanded(rule.body[call].atom, mask));
  VarSet bound;
  for (int j = 0; j < call; ++j) {
    if (rule.body[j].negated) continue;
    out.body.push_back(rule.body[j]);
    AddVars(rule.body[j].atom, &bound);
  }
  std::vector<VarId> vars;
  for (const Literal& l : rule.body) {
    if (!l.negated) continue;
    vars.clear();
    l.atom.CollectVars(&vars);
    if (AllBound(vars, bound)) out.body.push_back(l);
  }
  for (const Comparison& c : rule.comparisons) {
    vars.clear();
    c.CollectVars(&vars);
    if (AllBound(vars, bound)) out.comparisons.push_back(c);
  }
  return out;
}

// A variable the seed of rule.body[call] would project away: one of a
// positive literal before the call that is neither among the call's
// arguments at `mask` nor in the caller's magic guard. -1 if none.
VarId ProjectedVar(const Rule& rule, int call, uint64_t mask,
                   const std::set<PredId>& magic) {
  VarSet kept;
  for (const Term& t : Demanded(rule.body[call].atom, mask)) {
    if (t.is_var()) kept.insert(t.var());
  }
  if (!rule.body.empty() && magic.count(rule.body[0].atom.pred()) > 0) {
    AddVars(rule.body[0].atom, &kept);
  }
  for (int j = 0; j < call; ++j) {
    if (rule.body[j].negated) continue;
    for (const Term& t : rule.body[j].atom.args()) {
      if (t.is_var() && kept.count(t.var()) == 0) return t.var();
    }
  }
  return -1;
}

// (c): adds magic predicates, guards and magic rules to `program`, one
// recursive component at a time, callers first.
void AddDemand(Program* program, std::vector<LoweredProgram::Demand>* out) {
  Result<std::map<PredId, int>> stratified = program->Stratify();
  if (!stratified.ok()) return;  // P′ negates EDB predicates only
  const std::map<PredId, int>& strata = stratified.value();
  std::vector<Rule>& rules = *program->mutable_rules();
  // One pass over the rules indexes, per component: its predicates (in
  // order of first defining rule), its rules, and the rules outside it
  // that call it. Each component then reads only those.
  std::map<int, std::vector<PredId>> components;
  std::map<int, std::vector<int>> own_rules, callers;
  std::map<PredId, int> arity;
  for (int r = 0; r < static_cast<int>(rules.size()); ++r) {
    const Atom& head_atom = rules[r].head;
    const int head = strata.at(head_atom.pred());
    if (arity.emplace(head_atom.pred(), head_atom.arity()).second) {
      components[head].push_back(head_atom.pred());
    }
    own_rules[head].push_back(r);
    std::set<int> called;
    for (const Literal& l : rules[r].body) {
      auto s = strata.find(l.atom.pred());
      if (!l.negated && s != strata.end() && s->second != head) {
        called.insert(s->second);
      }
    }
    for (int c : called) callers[c].push_back(r);
  }
  std::set<PredId> magic_preds;
  std::vector<Rule> magic_rules;
  std::unordered_set<std::string> seen;
  for (auto it = components.rbegin(); it != components.rend(); ++it) {
    const int component = it->first;
    const std::vector<PredId>& members = it->second;
    auto inside = [&](PredId pred) {
      auto s = strata.find(pred);
      return s != strata.end() && s->second == component;
    };
    struct Call {
      int rule;
      int literal;
      uint64_t mask;
    };
    // Entry calls. A demanded caller's guard is its first literal, so SIPS
    // from nothing binds its demanded head arguments.
    std::vector<Call> entries;
    for (int r : callers[component]) {
      ForEachCall(rules[r], 0, [&](int j, uint64_t mask) {
        if (inside(rules[r].body[j].atom.pred())) {
          entries.push_back({r, j, mask});
        }
      });
    }
    // A component no entry call binds anything of is read in full.
    if (std::none_of(entries.begin(), entries.end(),
                     [](const Call& c) { return c.mask != 0; })) {
      continue;
    }

    LoweredProgram::Demand decision;
    for (PredId p : members) decision.preds.push_back(PredName(p));
    std::string& reason = decision.reason;
    auto call_text = [&](int r, int j) {
      return rules[r].body[j].atom.ToString() + " in " + rules[r].ToString();
    };
    // One adornment per predicate: entry calls demand the intersection of
    // their bound positions.
    std::map<PredId, uint64_t> adorn;
    std::set<PredId> entered;
    if (inside(program->query())) {
      reason = "the query reads " + PredName(program->query()) + " in full";
    }
    for (const Call& c : entries) {
      const PredId p = rules[c.rule].body[c.literal].atom.pred();
      entered.insert(p);
      auto [a, fresh] = adorn.emplace(p, c.mask);
      if (!fresh) a->second &= c.mask;
      if (reason.empty() && c.mask == 0) {
        reason =
            "entry call binds no argument: " + call_text(c.rule, c.literal);
      }
    }
    for (PredId p : entered) {
      if (reason.empty() && adorn[p] == 0) {
        reason = "entry calls of " + PredName(p) + " share no bound argument";
      }
    }
    // Calls inside the component adorn the predicates no entry call
    // reaches (intersecting, to a fixpoint)...
    for (bool changed = reason.empty(); changed;) {
      changed = false;
      for (int r : own_rules[component]) {
        auto h = adorn.find(rules[r].head.pred());
        if (h == adorn.end()) continue;
        ForEachCall(rules[r], h->second, [&](int j, uint64_t mask) {
          const PredId q = rules[r].body[j].atom.pred();
          if (!inside(q) || entered.count(q) > 0) return;
          auto [a, fresh] = adorn.emplace(q, mask);
          if (fresh || (a->second & ~mask) != 0) changed = true;
          a->second &= mask;
        });
      }
    }
    for (PredId p : members) {
      if (reason.empty() && adorn[p] == 0) {
        reason = "calls inside the component bind no argument of " +
                 PredName(p);
      }
    }
    // ...and must bind every demanded position.
    for (int r : own_rules[component]) {
      const uint64_t head_mask = adorn[rules[r].head.pred()];
      ForEachCall(rules[r], head_mask, [&](int j, uint64_t mask) {
        const Atom& call = rules[r].body[j].atom;
        if (!reason.empty() || !inside(call.pred())) return;
        const uint64_t unbound = adorn[call.pred()] & ~mask;
        if (unbound == 0) return;
        int pos = 0;
        while (((unbound >> pos) & 1) == 0) ++pos;
        reason = "call cannot bind demanded argument " + std::to_string(pos) +
                 ": " + call_text(r, j);
      });
    }
    for (const Call& c : entries) {
      if (!reason.empty()) break;
      const Atom& call = rules[c.rule].body[c.literal].atom;
      const VarId v =
          ProjectedVar(rules[c.rule], c.literal, adorn[call.pred()],
                       magic_preds);
      if (v >= 0) {
        reason = "seed projects away " + Term::VarFromId(v).ToString() +
                 ": " + call_text(c.rule, c.literal);
      }
    }
    // A guard filters nothing when every entry call seeds a fact and every
    // head already holds one of those facts (P′ specialized the component
    // to a call's constants: path@0_n1(3, Y) :- step(3, Y) called as
    // path@0_n1(3, Y) from a rule with no literal before the call).
    if (reason.empty()) {
      std::set<std::pair<PredId, std::vector<Term>>> facts;
      bool no_op = true;
      for (const Call& c : entries) {
        const PredId p = rules[c.rule].body[c.literal].atom.pred();
        const Rule seed = MagicRule(rules[c.rule], c.literal, p, adorn[p]);
        const std::vector<Term>& args = seed.head.args();
        no_op = no_op && seed.body.empty() && seed.comparisons.empty() &&
                std::all_of(args.begin(), args.end(),
                            [](const Term& t) { return t.is_const(); });
        facts.emplace(p, args);
      }
      for (int r : own_rules[component]) {
        const Atom& head = rules[r].head;
        no_op = no_op && facts.count({head.pred(),
                                      Demanded(head, adorn[head.pred()])}) > 0;
      }
      if (no_op) reason = "every head already holds a seed fact";
    }
    if (!reason.empty()) {
      out->push_back(std::move(decision));
      continue;
    }

    std::map<PredId, PredId> magic;
    for (PredId p : members) {
      decision.adornments.push_back(Adornment(adorn[p], arity[p]));
      magic[p] = InternPred("m@" + PredName(p) + "_" +
                            decision.adornments.back());
      magic_preds.insert(magic[p]);
    }
    auto add_magic = [&](Rule rule, int* count) {
      // m(X) :- m(X), ... derives nothing: a call bound by its own head
      // (left-linear recursion) passes the demand on unchanged.
      for (const Literal& l : rule.body) {
        if (!l.negated && l.atom == rule.head) return;
      }
      if (!seen.insert(CanonicalKey(rule)).second) return;
      magic_rules.push_back(std::move(rule));
      ++*count;
    };
    for (const Call& c : entries) {
      const PredId p = rules[c.rule].body[c.literal].atom.pred();
      add_magic(MagicRule(rules[c.rule], c.literal, magic[p], adorn[p]),
                &decision.seeds);
    }
    for (int r : own_rules[component]) {
      Rule& rule = rules[r];
      const PredId h = rule.head.pred();
      rule.body.insert(rule.body.begin(),
                       Literal::Pos(Atom(magic[h],
                                         Demanded(rule.head, adorn[h]))));
      ++decision.guarded;
      ForEachCall(rule, 0, [&](int j, uint64_t) {
        const PredId q = rule.body[j].atom.pred();
        if (!inside(q)) return;
        add_magic(MagicRule(rule, j, magic[q], adorn[q]),
                  &decision.propagations);
      });
    }
    out->push_back(std::move(decision));
  }
  for (Rule& rule : magic_rules) program->AddRule(std::move(rule));
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

  // (c) Demand.
  AddDemand(&out.program, &out.demand);
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
  for (const Demand& d : demand) {
    if (!d.reason.empty()) {
      out += "declined demand:   " + Join(d.preds) + " (" + d.reason + ")\n";
      continue;
    }
    std::vector<std::string> adorned;
    for (size_t i = 0; i < d.preds.size(); ++i) {
      adorned.push_back(d.preds[i] + "/" + d.adornments[i]);
    }
    auto count = [](int k, const char* noun) {
      return std::to_string(k) + " " + noun + (k == 1 ? "" : "s");
    };
    out += "demand:            " + Join(adorned) + " (" +
           count(d.seeds, "seed") + ", " +
           count(d.propagations, "propagation rule") + ", " +
           count(d.guarded, "guarded rule") + ")\n";
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
  auto strings = [](const std::vector<std::string>& items) {
    std::string list = "[";
    for (size_t i = 0; i < items.size(); ++i) {
      if (i > 0) list += ',';
      list += '"';
      list += JsonEscape(items[i]);
      list += '"';
    }
    list += ']';
    return list;
  };
  out += "],\"kept\":[";
  for (size_t i = 0; i < kept.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"pred\":\"" + JsonEscape(kept[i].pred) + "\"";
    out += ",\"copies\":" + strings(kept[i].copies);
    out += ",\"reason\":\"" + JsonEscape(kept[i].reason) + "\"}";
  }
  out += "],\"demand\":[";
  for (size_t i = 0; i < demand.size(); ++i) {
    const Demand& d = demand[i];
    if (i > 0) out += ',';
    out += "{\"preds\":" + strings(d.preds);
    out += ",\"adornments\":" + strings(d.adornments);
    out += ",\"seeds\":" + std::to_string(d.seeds);
    out += ",\"propagations\":" + std::to_string(d.propagations);
    out += ",\"guarded\":" + std::to_string(d.guarded);
    out += ",\"declined\":";
    out += d.reason.empty() ? "false" : "true";
    out += ",\"reason\":\"" + JsonEscape(d.reason) + "\"}";
  }
  out += "]}";
  return out;
}

}  // namespace sqod
