#include "src/sqo/adorn.h"

#include <algorithm>
#include <array>
#include <deque>
#include <functional>
#include <optional>

#include "src/ast/unify.h"
#include "src/order/solver.h"
#include "src/base/check.h"
#include "src/sqo/preprocess.h"

namespace sqod {

namespace {

inline size_t HashCombine(size_t seed, size_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2));
}

inline uint64_t PackPair(int32_t hi, int32_t lo) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(hi)) << 32) |
         static_cast<uint32_t>(lo);
}

// All distinct variables appearing in the listed parts of constraint `ic`:
// an index below `atoms.size()` names a positive atom; the index equal to
// `atoms.size()` names the quasi-local pseudo-atom standing for the IC's
// non-local order atoms (their indices in `nonlocal`).
std::vector<VarId> VarsOfUnmapped(const Constraint& ic,
                                  const std::vector<const Atom*>& atoms,
                                  const std::vector<int>& nonlocal,
                                  const std::vector<int>& indices) {
  std::vector<VarId> vars;
  for (int i : indices) {
    if (i < static_cast<int>(atoms.size())) {
      atoms[i]->CollectVars(&vars);
    } else {
      for (int c : nonlocal) ic.comparisons[c].CollectVars(&vars);
    }
  }
  return vars;
}

// Restricts `sigma` to variables occurring in some unmapped part.
void RestrictSigma(const Constraint& ic,
                   const std::vector<const Atom*>& atoms,
                   const std::vector<int>& nonlocal,
                   const std::vector<int>& unmapped,
                   FlatMap<VarId, Term>* sigma) {
  std::vector<VarId> keep = VarsOfUnmapped(ic, atoms, nonlocal, unmapped);
  FlatMap<VarId, Term> kept;
  kept.reserve(sigma->size());
  for (const auto& [var, term] : *sigma) {
    if (std::find(keep.begin(), keep.end(), var) != keep.end()) {
      kept.emplace(var, term);
    }
  }
  *sigma = std::move(kept);
}

// Instantiates an order summary onto the arguments of `atom`.
std::vector<Comparison> InstantiateSummary(
    const std::vector<Comparison>& summary, const Atom& atom) {
  Substitution subst;
  for (int i = 0; i < atom.arity(); ++i) {
    subst.Bind(SummaryPlaceholder(i).var(), atom.arg(i));
  }
  std::vector<Comparison> out;
  out.reserve(summary.size());
  for (const Comparison& c : summary) out.push_back(subst.Apply(c));
  return out;
}

// Computes the head's order summary from the conjunction `total` that holds
// whenever the rule fires: every candidate comparison over head positions
// (and the constants mentioned in `total`) that is entailed.
std::vector<Comparison> ComputeHeadSummary(
    const std::vector<Comparison>& total, const Atom& head) {
  OrderSolver solver(total);
  std::vector<Value> constants;
  for (const Comparison& c : total) {
    for (const Term* t : {&c.lhs, &c.rhs}) {
      if (t->is_const() &&
          std::find(constants.begin(), constants.end(), t->value()) ==
              constants.end()) {
        constants.push_back(t->value());
      }
    }
  }
  std::sort(constants.begin(), constants.end());

  std::vector<Comparison> summary;
  auto consider = [&](const Term& concrete_a, const Term& placeholder_a,
                      CmpOp op, const Term& concrete_b,
                      const Term& placeholder_b) {
    if (concrete_a.is_const() && concrete_b.is_const()) return;  // trivial
    if (!solver.Entails(Comparison(concrete_a, op, concrete_b))) return;
    Comparison c = Comparison(placeholder_a, op, placeholder_b).Canonical();
    if (std::find(summary.begin(), summary.end(), c) == summary.end()) {
      summary.push_back(c);
    }
  };
  static constexpr CmpOp kOps[] = {CmpOp::kLt, CmpOp::kLe, CmpOp::kEq,
                                   CmpOp::kNe};
  for (int i = 0; i < head.arity(); ++i) {
    for (int j = i + 1; j < head.arity(); ++j) {
      for (CmpOp op : kOps) {
        consider(head.arg(i), SummaryPlaceholder(i), op, head.arg(j),
                 SummaryPlaceholder(j));
        consider(head.arg(j), SummaryPlaceholder(j), op, head.arg(i),
                 SummaryPlaceholder(i));
      }
    }
    for (const Value& v : constants) {
      Term c = Term::Const(v);
      for (CmpOp op : kOps) {
        consider(head.arg(i), SummaryPlaceholder(i), op, c, c);
        consider(c, c, op, head.arg(i), SummaryPlaceholder(i));
      }
    }
  }
  std::sort(summary.begin(), summary.end(),
            [](const Comparison& a, const Comparison& b) {
              return a.ToString() < b.ToString();
            });
  return summary;
}

}  // namespace

Rule WithPreds(const Rule& rule, PredId head,
               const std::vector<PredId>& preds) {
  Rule out(Atom(head, rule.head.args()), rule.body, rule.comparisons);
  for (size_t b = 0; b < preds.size(); ++b) {
    if (preds[b] != -1) {
      out.body[b] = Literal::Pos(Atom(preds[b], rule.body[b].atom.args()));
    }
  }
  return out;
}

void AddCopyRules(PredId query, int arity, const std::vector<PredId>& copies,
                  Program* out, std::vector<RuleOrigin>* origins) {
  std::vector<Term> args;
  for (int i = 0; i < arity; ++i) {
    args.push_back(Term::Var("W" + std::to_string(i)));
  }
  for (PredId copy : copies) {
    out->AddRule(Rule(Atom(query, args), {Literal::Pos(Atom(copy, args))}));
    origins->emplace_back().copy_rule = true;
  }
  out->SetQuery(query);
}

Term SummaryPlaceholder(int i) {
  // Hot enough that re-interning "P$<i>" each call shows up in profiles;
  // the first few placeholders cover every realistic arity. Thread-safe via
  // magic-static initialization; read-only afterwards.
  constexpr int kCached = 16;
  static const std::array<Term, kCached>& cache = *[] {
    auto* c = new std::array<Term, kCached>();
    for (int i = 0; i < kCached; ++i) {
      (*c)[i] = Term::Var("P$" + std::to_string(i));
    }
    return c;
  }();
  if (i >= 0 && i < kCached) return cache[i];
  return Term::Var("P$" + std::to_string(i));
}

size_t AdornmentEngine::ApredKeyHash::operator()(const ApredKey& k) const {
  size_t h = static_cast<size_t>(k.pred) + 0x165667b1;
  h = HashCombine(h, static_cast<size_t>(k.adornment));
  h = HashCombine(h, static_cast<size_t>(k.summary));
  return h;
}

size_t AdornmentEngine::IntVecHash::operator()(
    const std::vector<int32_t>& v) const {
  size_t h = 0x811c9dc5;
  for (int32_t x : v) h = HashCombine(h, static_cast<size_t>(x));
  return h;
}

AdornmentEngine::AdornmentEngine(const Program& program,
                                 std::vector<Constraint> ics,
                                 LocalAtomInfo local, AdornOptions options)
    : program_(program),
      ics_(std::move(ics)),
      local_(std::move(local)),
      options_(options),
      idb_(program.IdbPreds()) {
  if (options_.store != nullptr) {
    store_ = options_.store;
  } else {
    owned_store_ = std::make_unique<TripletStore>();
    store_ = owned_store_.get();
  }
}

AdornmentEngine::~AdornmentEngine() = default;

AdornmentEngine::CandidateList AdornmentEngine::EdbBaseTriplets(
    const Rule& rule, const Atom& atom) const {
  CandidateList out;
  AtomMatchMemo& atoms = store_->atoms();
  const AtomId target_id = atoms.Intern(atom);
  for (int ic_index = 0; ic_index < static_cast<int>(ics_.size());
       ++ic_index) {
    const Constraint& ic = ics_[ic_index];
    std::vector<const Atom*> positives = ic.PositiveAtoms();
    const int n = static_cast<int>(positives.size());
    const std::vector<int>& nonlocal = local_.NonlocalOrder(ic_index);

    // One-way matches of each IC atom into `atom`, recalled from the
    // store's match memo once per call instead of once per enumeration path.
    std::vector<const MatchDelta*> deltas(n);
    for (int i = 0; i < n; ++i) {
      deltas[i] = &atoms.Match(atoms.Intern(*positives[i]), target_id);
    }

    // Enumerate subsets M of the IC's positive atoms all mapping into
    // `atom` under one consistent homomorphism.
    std::vector<int> mapped;
    std::function<void(int, const Substitution&)> recurse =
        [&](int next, const Substitution& h) {
          if (next == n) {
            if (mapped.empty()) return;  // the trivial triplet is implicit
            // Section 4.2 retention: each mapped carrier atom must have its
            // local atoms asserted by the rule with the right polarity.
            for (int a : mapped) {
              if (!RetentionHolds(rule, ics_, local_, ic_index, a, h)) return;
            }
            RuleTriplet t;
            t.ic_index = ic_index;
            for (int i = 0; i < n; ++i) {
              if (std::find(mapped.begin(), mapped.end(), i) ==
                  mapped.end()) {
                t.unmapped.push_back(i);
              }
            }
            // The quasi-local pseudo-atom is never mapped at a leaf.
            if (!nonlocal.empty()) t.unmapped.push_back(n);
            // sigma: shared variables, with their images (rule terms).
            std::vector<VarId> shared =
                VarsOfUnmapped(ic, positives, nonlocal, t.unmapped);
            for (VarId z : shared) {
              const Term* image = h.Lookup(z);
              if (image != nullptr) t.sigma.emplace(z, *image);
            }
            RuleTripletId id = store_->InternRuleTriplet(t);
            if (std::find(out.ids.begin(), out.ids.end(), id) !=
                out.ids.end()) {
              return;
            }
            out.ids.push_back(id);
            out.triplets.push_back(std::move(t));
            return;
          }
          recurse(next + 1, h);  // leave atom `next` unmapped
          Substitution extended = h;
          if (ApplyMatchDelta(*deltas[next], &extended)) {
            mapped.push_back(next);
            recurse(next + 1, extended);
            mapped.pop_back();
          }
        };
    recurse(0, Substitution());
  }
  return out;
}

AdornmentEngine::CandidateList AdornmentEngine::TranslateAdornment(
    int apred, const Atom& atom) const {
  // Translate the adorned predicate's goal-level triplets into rule terms;
  // candidate order mirrors the adornment order so that
  // RuleTriplet::sources indexes the adornment directly. No dedup: the
  // positions are the provenance coordinate system.
  CandidateList list;
  for (const Triplet& t : apreds_[apred].adornment) {
    RuleTriplet rt;
    rt.ic_index = t.ic_index;
    rt.unmapped = t.unmapped;
    for (const auto& [z, img] : t.sigma) {
      if (img.is_constant) {
        rt.sigma.emplace(z, Term::Const(img.constant));
      } else {
        rt.sigma.emplace(z, atom.arg(img.positions[0]));
      }
    }
    list.ids.push_back(store_->InternRuleTriplet(rt));
    list.triplets.push_back(std::move(rt));
  }
  return list;
}

int AdornmentEngine::InternApred(PredId pred, Adornment adornment,
                                 std::vector<Comparison> summary) {
  ApredKey key;
  key.pred = pred;
  key.adornment = store_->InternAdornment(adornment);
  key.summary = store_->InternSummary(summary);
  auto it = apred_registry_.find(key);
  if (it != apred_registry_.end()) return it->second;
  int index = static_cast<int>(apreds_.size());
  AdornedPred ap;
  ap.original = pred;
  ap.adornment = std::move(adornment);
  ap.summary = std::move(summary);
  ap.name = InternPred(PredName(pred) + "@" + std::to_string(index));
  ap.adornment_id = key.adornment;
  ap.summary_id = key.summary;
  apreds_.push_back(std::move(ap));
  apred_registry_.emplace(key, index);
  apreds_by_pred_[pred].push_back(index);
  if (static_cast<int>(apreds_.size()) > options_.max_adorned_preds) {
    Overflow(Valve::kAdornedPreds);
  }
  return index;
}

RuleTripletId AdornmentEngine::RestrictedLeaf(RuleTripletId id) {
  auto memo = restrict_memo_.find(id);
  if (memo != restrict_memo_.end()) return memo->second;
  const RuleTriplet& t = store_->rule_triplet(id);
  const Constraint& ic = ics_[t.ic_index];
  std::vector<const Atom*> positives = ic.PositiveAtoms();
  const std::vector<int>& nonlocal = local_.NonlocalOrder(t.ic_index);
  RuleTriplet restricted = t;
  RestrictSigma(ic, positives, nonlocal, restricted.unmapped,
                &restricted.sigma);
  RuleTripletId rid = store_->InternRuleTriplet(restricted);
  restrict_memo_.emplace(id, rid);
  return rid;
}

bool AdornmentEngine::ProcessCombination(int rule_index,
                                         const std::vector<int>& idb_subgoals,
                                         const std::vector<int>& choice) {
  // Registry key for this (rule, subgoal adornments) combination: ints, not
  // a serialized string — the fixpoint re-enumerates every combination each
  // pass, so this lookup is the hottest line of the whole phase. The scratch
  // buffer keeps the (overwhelmingly common) already-processed path
  // allocation-free.
  key_scratch_.clear();
  key_scratch_.reserve(choice.size() + 1);
  key_scratch_.push_back(rule_index);
  for (int c : choice) key_scratch_.push_back(c);
  if (arule_registry_.find(key_scratch_) != arule_registry_.end()) {
    return false;
  }
  auto registry_it = arule_registry_.emplace(key_scratch_, -1).first;
  // registry_it stays valid: nothing inserts into arule_registry_ below
  // until the final update (unordered_map references are rehash-stable).

  Rule rule = program_.rules()[rule_index];
  bool specialized = false;

  // Pattern specialization (the paper's footnote 1): a triplet of a chosen
  // subgoal adornment whose variable image spans several argument positions
  // guarantees that every fact of that adorned predicate carries equal
  // values at those positions, so the rule is specialized by unifying the
  // subgoal's arguments there. If unification fails (two distinct
  // constants), the adorned subgoal can never match and the combination is
  // dropped altogether.
  {
    Substitution specialize;
    int idb_seen = 0;
    for (int b = 0; b < static_cast<int>(rule.body.size()); ++b) {
      const Literal& lit = rule.body[b];
      if (lit.negated || idb_.count(lit.atom.pred()) == 0) continue;
      int apred = choice[idb_seen++];
      for (const Triplet& t : apreds_[apred].adornment) {
        for (const auto& [z, img] : t.sigma) {
          if (img.is_constant || img.positions.size() < 2) continue;
          for (size_t i = 1; i < img.positions.size(); ++i) {
            if (!UnifyTermsInto(lit.atom.arg(img.positions[0]),
                                lit.atom.arg(img.positions[i]),
                                &specialize)) {
              return false;  // subgoal can never match this adornment
            }
          }
        }
      }
    }
    if (!specialize.empty()) {
      specialize.ResolveChains();
      rule = specialize.Apply(rule);
      specialized = true;
      // Equating variables can contradict the rule's own order atoms.
      if (!NormalizeRule(&rule)) return false;
    }
  }

  // Positive subgoals in body order; candidate triplets per subgoal.
  // Candidate lists come from the memo tables where possible (translation
  // depends only on (apred, atom); EDB base triplets only on the original
  // (rule, occurrence), so a specialized rule builds them into a scratch
  // list).
  std::vector<int> positive_subgoals;
  std::vector<int> subgoal_apred(rule.body.size(), -1);
  std::vector<const CandidateList*> candidates;
  std::deque<CandidateList> scratch_lists;
  {
    int idb_seen = 0;
    for (int b = 0; b < static_cast<int>(rule.body.size()); ++b) {
      const Literal& lit = rule.body[b];
      if (lit.negated) continue;
      positive_subgoals.push_back(b);
      if (idb_.count(lit.atom.pred()) > 0) {
        SQOD_CHECK(idb_subgoals[idb_seen] == b);
        int apred = choice[idb_seen++];
        subgoal_apred[b] = apred;
        const uint64_t memo_key =
            PackPair(apred, store_->atoms().Intern(lit.atom));
        auto it = translate_memo_.find(memo_key);
        if (it == translate_memo_.end()) {
          it = translate_memo_
                   .emplace(memo_key, TranslateAdornment(apred, lit.atom))
                   .first;
        }
        candidates.push_back(&it->second);
      } else if (!specialized) {
        const uint64_t memo_key = PackPair(rule_index, b);
        auto it = edb_base_memo_.find(memo_key);
        if (it == edb_base_memo_.end()) {
          it = edb_base_memo_
                   .emplace(memo_key, EdbBaseTriplets(rule, lit.atom))
                   .first;
        }
        candidates.push_back(&it->second);
      } else {
        scratch_lists.push_back(EdbBaseTriplets(rule, lit.atom));
        candidates.push_back(&scratch_lists.back());
      }
    }
    SQOD_CHECK(idb_seen == static_cast<int>(idb_subgoals.size()));
  }

  // Order propagation ([LMSS93], folded into the bottom-up phase): the
  // conjunction of the rule's own order atoms and the chosen subgoals'
  // summaries must be satisfiable, or the rule can never fire with these
  // children.
  std::vector<Comparison> total = rule.comparisons;
  for (int b = 0; b < static_cast<int>(rule.body.size()); ++b) {
    if (subgoal_apred[b] == -1) continue;
    const AdornedPred& ap = apreds_[subgoal_apred[b]];
    const uint64_t memo_key =
        PackPair(ap.summary_id, store_->atoms().Intern(rule.body[b].atom));
    auto it = summary_memo_.find(memo_key);
    if (it == summary_memo_.end()) {
      it = summary_memo_
               .emplace(memo_key,
                        InstantiateSummary(ap.summary, rule.body[b].atom))
               .first;
    }
    total.insert(total.end(), it->second.begin(), it->second.end());
  }
  // Consistency and head-summary both depend only on (total, head), and the
  // same conjunction recurs across combinations (same subgoal summaries in a
  // different mix). Interning `total` turns both checks into one hash each;
  // ComputeHeadSummary in particular runs several order solves per call.
  const SummaryId total_id = store_->InternSummary(total);
  auto cons = consistent_memo_.find(total_id);
  if (cons == consistent_memo_.end()) {
    cons = consistent_memo_.emplace(total_id, ComparisonsConsistent(total))
               .first;
  }
  if (!cons->second) return false;
  const uint64_t hs_key = PackPair(total_id, store_->atoms().Intern(rule.head));
  auto hs = head_summary_memo_.find(hs_key);
  if (hs == head_summary_memo_.end()) {
    hs = head_summary_memo_
             .emplace(hs_key, ComputeHeadSummary(total, rule.head))
             .first;
  }
  std::vector<Comparison> head_summary = hs->second;

  const int m = static_cast<int>(positive_subgoals.size());

  // The rule's own order theory, shared by every quasi-local leaf check.
  std::optional<OrderSolver> rule_solver;
  auto solver = [&]() -> OrderSolver& {
    if (!rule_solver.has_value()) rule_solver.emplace(rule.comparisons);
    return *rule_solver;
  };

  // Combine triplets per IC: each subgoal contributes one candidate of that
  // IC or the implicit trivial triplet. The recursion threads an interned
  // rule-triplet id and merges via the store (hash lookup per step).
  std::vector<RuleTriplet> rule_adornment;
  std::unordered_set<RuleTripletId> leaf_seen;
  bool inconsistent = false;
  for (int ic_index = 0;
       ic_index < static_cast<int>(ics_.size()) && !inconsistent;
       ++ic_index) {
    const Constraint& ic = ics_[ic_index];
    std::vector<const Atom*> positives = ic.PositiveAtoms();
    const std::vector<int>& nonlocal = local_.NonlocalOrder(ic_index);
    // The combination starts with every atom unmapped; the quasi-local
    // pseudo-atom participates as an extra unmapped index.
    RuleTriplet start;
    start.ic_index = ic_index;
    for (int i = 0; i < static_cast<int>(positives.size()); ++i) {
      start.unmapped.push_back(i);
    }
    if (!nonlocal.empty()) {
      start.unmapped.push_back(static_cast<int>(positives.size()));
    }
    // Per-subgoal candidate indices for this IC.
    std::vector<std::vector<int>> per_subgoal(m);
    for (int s = 0; s < m; ++s) {
      const std::vector<RuleTriplet>& cand = candidates[s]->triplets;
      for (int c = 0; c < static_cast<int>(cand.size()); ++c) {
        if (cand[c].ic_index == ic_index) {
          per_subgoal[s].push_back(c);
        }
      }
    }

    std::vector<int> sources(m, -1);
    int combos = 0;

    // Checks a fully restricted leaf triplet: detects the inconsistent
    // adornment, dedupes, and records it with its provenance.
    auto process_leaf = [&](RuleTripletId id) {
      const RuleTriplet& t = store_->rule_triplet(id);
      if (t.unmapped.empty()) {
        // Empty residue: every instantiation through this adorned rule
        // violates the IC (the *inconsistent adornment* of the paper).
        inconsistent = true;
        return;
      }
      if (!nonlocal.empty() && t.unmapped.size() == 1 &&
          t.unmapped[0] == static_cast<int>(positives.size())) {
        // Only the quasi-local pseudo-atom is left: all EDB atoms of the
        // IC are mapped. If the mapped variables are all visible at this
        // rule node and the rule's own order atoms entail the mapped
        // non-local comparisons, every instantiation violates the IC.
        Substitution h;
        bool all_visible = true;
        for (const auto& [z, term] : t.sigma) h.Bind(z, term);
        std::vector<VarId> needed;
        for (int c : nonlocal) ic.comparisons[c].CollectVars(&needed);
        for (VarId z : needed) {
          if (h.Lookup(z) == nullptr) all_visible = false;
        }
        if (all_visible) {
          bool entails_all = true;
          for (int c : nonlocal) {
            if (!solver().Entails(h.Apply(ic.comparisons[c]))) {
              entails_all = false;
              break;
            }
          }
          if (entails_all) {
            inconsistent = true;
            return;
          }
        }
      }
      if (!leaf_seen.insert(id).second) return;  // provenance: keep first
      RuleTriplet recorded = t;
      recorded.sources = sources;
      rule_adornment.push_back(std::move(recorded));
    };

    std::function<void(int, RuleTripletId)> combine =
        [&](int s, RuleTripletId state) {
          if (inconsistent) return;
          if (++combos > kMaxCombinationsPerIc) {
            Overflow(Valve::kCombinations);
            return;
          }
          if (s == m) {
            if (std::all_of(sources.begin(), sources.end(),
                            [](int x) { return x == -1; })) {
              return;
            }
            process_leaf(RestrictedLeaf(state));
            return;
          }
          // Trivial contribution from subgoal s.
          combine(s + 1, state);
          if (inconsistent) return;
          // Each real candidate of subgoal s for this IC.
          for (int c : per_subgoal[s]) {
            const int32_t merged =
                store_->MergeRuleTriplets(state, candidates[s]->ids[c]);
            if (merged == TripletStore::kIncompatible) continue;
            sources[s] = c;
            combine(s + 1, merged);
            sources[s] = -1;
            if (inconsistent) return;
          }
        };
    combine(0, store_->InternRuleTriplet(start));
  }

  if (inconsistent) return false;  // the adorned rule is dropped entirely

  // Head projection.
  std::vector<std::pair<Triplet, int>> head_triplets;
  for (int k = 0; k < static_cast<int>(rule_adornment.size()); ++k) {
    const RuleTriplet& rt = rule_adornment[k];
    Triplet ht;
    ht.ic_index = rt.ic_index;
    ht.unmapped = rt.unmapped;
    bool ok = true;
    for (const auto& [z, term] : rt.sigma) {
      if (term.is_const()) {
        ht.sigma.emplace(z, VarImage::Constant(term.value()));
        continue;
      }
      std::vector<int> positions;
      for (int i = 0; i < rule.head.arity(); ++i) {
        if (rule.head.arg(i) == term) positions.push_back(i);
      }
      if (positions.empty()) {
        // The shared variable does not survive to the head; the guarantee
        // cannot be tracked upward, so the triplet is not projected.
        ok = false;
        break;
      }
      ht.sigma.emplace(z, VarImage::AtPositions(std::move(positions)));
    }
    if (ok) head_triplets.emplace_back(std::move(ht), k);
  }
  std::sort(head_triplets.begin(), head_triplets.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  head_triplets.erase(
      std::unique(head_triplets.begin(), head_triplets.end(),
                  [](const auto& a, const auto& b) {
                    return a.first == b.first;
                  }),
      head_triplets.end());

  Adornment head_adornment;
  std::vector<int> head_sources;
  for (auto& [t, k] : head_triplets) {
    head_adornment.push_back(std::move(t));
    head_sources.push_back(k);
  }

  int head_apred = InternApred(rule.head.pred(), std::move(head_adornment),
                               std::move(head_summary));

  AdornedRule ar;
  ar.original_rule = rule_index;
  ar.rule = rule;
  ar.head_apred = head_apred;
  ar.subgoal_apred = std::move(subgoal_apred);
  ar.rule_adornment = std::move(rule_adornment);
  ar.positive_subgoals = std::move(positive_subgoals);
  ar.head_sources = std::move(head_sources);
  registry_it->second = static_cast<int>(arules_.size());
  arules_.push_back(std::move(ar));
  if (static_cast<int>(arules_.size()) > options_.max_adorned_rules) {
    Overflow(Valve::kAdornedRules);
  }
  return true;
}

std::vector<int> AdornmentEngine::AdornmentsOf(PredId p) const {
  auto it = apreds_by_pred_.find(p);
  return it == apreds_by_pred_.end() ? std::vector<int>() : it->second;
}

Status AdornmentEngine::Run() {
  const bool tracing =
      options_.tracer != nullptr && options_.tracer->enabled();
  fixpoint_passes_ = 0;
  bool changed = true;
  while (changed && overflow_ == Valve::kNone) {
    changed = false;
    Span pass_span;
    if (tracing) {
      pass_span = options_.tracer->StartSpan("sqo.adorn.iteration");
      pass_span.SetAttr("pass", fixpoint_passes_);
    }
    ++fixpoint_passes_;
    for (int r = 0; r < static_cast<int>(program_.rules().size()); ++r) {
      const Rule& rule = program_.rules()[r];
      std::vector<int> idb_subgoals;
      for (int b = 0; b < static_cast<int>(rule.body.size()); ++b) {
        const Literal& lit = rule.body[b];
        if (!lit.negated && idb_.count(lit.atom.pred()) > 0) {
          idb_subgoals.push_back(b);
        }
      }
      // Enumerate all current adornment choices for the IDB subgoals.
      std::vector<std::vector<int>> options;
      bool feasible = true;
      for (int b : idb_subgoals) {
        options.push_back(AdornmentsOf(rule.body[b].atom.pred()));
        if (options.back().empty()) {
          feasible = false;
          break;
        }
      }
      if (!feasible) continue;

      std::vector<int> choice(idb_subgoals.size());
      std::function<void(size_t)> enumerate = [&](size_t i) {
        if (overflow_ != Valve::kNone) return;
        if (i == idb_subgoals.size()) {
          if (ProcessCombination(r, idb_subgoals, choice)) changed = true;
          return;
        }
        for (int opt : options[i]) {
          choice[i] = opt;
          enumerate(i + 1);
        }
      };
      enumerate(0);
    }
    pass_span.SetAttr("apreds", static_cast<int64_t>(apreds_.size()));
    pass_span.SetAttr("arules", static_cast<int64_t>(arules_.size()));
  }
  std::string valve;
  switch (overflow_) {
    case Valve::kNone:
      return Status::Ok();
    case Valve::kAdornedPreds:
      valve = "adorned predicates exceeded the limit of " +
              std::to_string(options_.max_adorned_preds) +
              " (raise AdornOptions::max_adorned_preds to continue)";
      break;
    case Valve::kAdornedRules:
      valve = "adorned rules exceeded the limit of " +
              std::to_string(options_.max_adorned_rules) +
              " (raise AdornOptions::max_adorned_rules to continue)";
      break;
    case Valve::kCombinations:
      valve = "combinations per IC exceeded the fixed limit of " +
              std::to_string(kMaxCombinationsPerIc);
      break;
  }
  return Status::ResourceExhausted(
      "adornment fixpoint stopped at a safety valve: " + valve +
      "; the construction is doubly exponential in the worst case");
}

Program AdornmentEngine::AdornedProgram(Provenance* provenance) const {
  Program out;
  std::vector<RuleOrigin> origins;
  for (const AdornedRule& ar : arules_) {
    if (provenance != nullptr) {
      origins.push_back(provenance->rules[ar.original_rule]);
    }
    std::vector<PredId> preds;
    for (int ap : ar.subgoal_apred) {
      preds.push_back(ap == -1 ? -1 : apreds_[ap].name);
    }
    out.AddRule(WithPreds(ar.rule, apreds_[ar.head_apred].name, preds));
  }
  // Copy rules restore the original query predicate over the union of its
  // adorned versions.
  if (program_.query() != -1) {
    std::vector<PredId> copies;
    for (int ap : AdornmentsOf(program_.query())) {
      copies.push_back(apreds_[ap].name);
    }
    AddCopyRules(program_.query(), program_.Arity(program_.query()), copies,
                 &out, &origins);
  }
  if (provenance != nullptr) {
    provenance->rules = std::move(origins);
    for (const AdornedPred& ap : apreds_) {
      provenance->copies[ap.name] = ap.original;
    }
  }
  return out;
}

std::string AdornmentEngine::ToString() const {
  std::string s;
  for (int i = 0; i < static_cast<int>(apreds_.size()); ++i) {
    const AdornedPred& ap = apreds_[i];
    s += PredName(ap.name) + " : " + PredName(ap.original) + " " +
         AdornmentToString(ap.adornment, ics_);
    if (!ap.summary.empty()) {
      s += " where {";
      for (size_t c = 0; c < ap.summary.size(); ++c) {
        if (c > 0) s += ", ";
        s += ap.summary[c].ToString();
      }
      s += "}";
    }
    s += "\n";
  }
  for (const AdornedRule& ar : arules_) {
    s += "rule " + std::to_string(ar.original_rule) + " -> head " +
         PredName(apreds_[ar.head_apred].name) + " | A_r = {";
    for (size_t k = 0; k < ar.rule_adornment.size(); ++k) {
      if (k > 0) s += ", ";
      s += ar.rule_adornment[k].ToString(ics_);
    }
    s += "}\n";
  }
  return s;
}

}  // namespace sqod
