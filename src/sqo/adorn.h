#ifndef SQOD_SQO_ADORN_H_
#define SQOD_SQO_ADORN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/ast/program.h"
#include "src/base/status.h"
#include "src/obs/trace.h"
#include "src/sqo/local.h"
#include "src/sqo/preprocess.h"
#include "src/sqo/triplet.h"
#include "src/sqo/triplet_store.h"

namespace sqod {

// An adorned IDB predicate p^A: the original predicate plus the adornment
// (set of triplets guaranteed for every derivation of a p^A fact) and the
// *order summary* — the conjunction of order atoms over the head argument
// positions (placeholder variables P$0, P$1, ...) that holds for every fact
// derivable through this adorned predicate. The summary is the [LMSS93]
// order-propagation that the paper assumes as preprocessing, incorporated
// into the bottom-up phase as the proof of Theorem 5.1 suggests: a rule
// whose own order atoms contradict a chosen subgoal's summary can never
// fire and is dropped.
struct AdornedPred {
  PredId original = -1;
  Adornment adornment;
  std::vector<Comparison> summary;  // canonical, sorted
  PredId name = -1;  // generated name "p@<k>", display only
  // Hash-consed identity in the engine's TripletStore.
  AdornmentId adornment_id = -1;
  SummaryId summary_id = -1;
};

// The placeholder variable for head argument position `i` in summaries,
// named "P$<i>": no parsed variable contains '$', and no FreshVarGen name
// does either, so a run-scoped fresh name can never alias a placeholder.
Term SummaryPlaceholder(int i);

// `rule` with its head predicate replaced by `head`, and body literal b's
// by preds[b] where that is not -1.
Rule WithPreds(const Rule& rule, PredId head, const std::vector<PredId>& preds);

// Appends to `out` the copy rules q(W...) :- c(W...) restoring the query
// predicate q over its copies, marked as such in `origins`.
void AddCopyRules(PredId query, int arity, const std::vector<PredId>& copies,
                  Program* out, std::vector<RuleOrigin>* origins);

// An adorned rule of the program P1 built by the bottom-up phase.
struct AdornedRule {
  int original_rule = -1;          // index into the input program's rules
  Rule rule;                       // the original rule (original variables)
  int head_apred = -1;             // index into AdornmentEngine::apreds()
  // Per body literal: the adorned predicate index for positive IDB
  // subgoals, -1 for EDB or negated literals.
  std::vector<int> subgoal_apred;
  // A_r: every combined triplet, with provenance in RuleTriplet::sources
  // (aligned with the positive subgoals, see positive_subgoals).
  std::vector<RuleTriplet> rule_adornment;
  // Body indices of the positive subgoals, in body order (the coordinate
  // system of RuleTriplet::sources).
  std::vector<int> positive_subgoals;
  // For each triplet of the head adornment (canonical order): the index of
  // the rule triplet it was projected from.
  std::vector<int> head_sources;
};

struct AdornOptions {
  // Fixpoint safety valves; the construction is doubly exponential in the
  // worst case (Theorem 5.1).
  int max_adorned_preds = 4000;
  int max_adorned_rules = 40000;
  // Optional span collector: each fixpoint pass of Run() becomes a
  // "sqo.adorn.iteration" span with apred/arule counts.
  Tracer* tracer = nullptr;
  // Hash-consing store for triplets / adornments / atoms. Normally the
  // pipeline's PassContext store, shared across passes; when null the
  // engine owns a private one.
  TripletStore* store = nullptr;
};

// The bottom-up phase of the Section 4.1 algorithm. Expects the program to
// be normalized (NormalizeProgram) and, when the ICs have local atoms,
// already rewritten by RewriteForLocalAtoms. ICs must be EDB-only, with all
// order atoms and negated atoms local (carried by `local`).
class AdornmentEngine {
 public:
  // The third safety valve, beside the two AdornOptions limits: the number
  // of triplet combinations one IC may enumerate for one adorned rule.
  // Fixed; there is no option for it.
  static constexpr int kMaxCombinationsPerIc = 2000000;

  AdornmentEngine(const Program& program, std::vector<Constraint> ics,
                  LocalAtomInfo local, AdornOptions options = {});
  ~AdornmentEngine();

  // Runs the fixpoint. Returns ResourceExhausted, naming the valve and its
  // limit, only when a safety valve triggers.
  Status Run();

  const Program& program() const { return program_; }
  const std::vector<Constraint>& ics() const { return ics_; }
  const std::vector<AdornedPred>& apreds() const { return apreds_; }
  const std::vector<AdornedRule>& arules() const { return arules_; }

  // The hash-consing store the engine interns into (the shared pipeline
  // store, or the engine's own fallback).
  TripletStore& store() const { return *store_; }

  // Adorned predicate indices whose original predicate is `p`.
  std::vector<int> AdornmentsOf(PredId p) const;

  // Number of passes the Run() fixpoint took (0 before Run).
  int fixpoint_passes() const { return fixpoint_passes_; }

  // P1 as a plain datalog program over the generated predicate names, with
  // wrapper rules restoring the original query predicate. `provenance`, if
  // given, goes from program()'s rules to P1's and maps copies to originals.
  Program AdornedProgram(Provenance* provenance = nullptr) const;

  std::string ToString() const;

 private:
  // (pred, adornment-id, summary-id) -> apreds_ index.
  struct ApredKey {
    PredId pred;
    AdornmentId adornment;
    SummaryId summary;
    bool operator==(const ApredKey& other) const {
      return pred == other.pred && adornment == other.adornment &&
             summary == other.summary;
    }
  };
  struct ApredKeyHash {
    size_t operator()(const ApredKey& k) const;
  };
  struct IntVecHash {
    size_t operator()(const std::vector<int32_t>& v) const;
  };

  // A per-subgoal list of candidate rule triplets, with their interned ids
  // (aligned; filled on construction).
  struct CandidateList {
    std::vector<RuleTriplet> triplets;
    std::vector<RuleTripletId> ids;
  };

  // Registers (or finds) the adorned predicate for (pred, adornment,
  // summary).
  int InternApred(PredId pred, Adornment adornment,
                  std::vector<Comparison> summary);

  // Processes one rule under one choice of subgoal adornments. Returns true
  // if a new adorned predicate or rule was created.
  bool ProcessCombination(int rule_index, const std::vector<int>& idb_subgoals,
                          const std::vector<int>& choice);

  // Base triplets for the EDB occurrence `atom` of `rule` (Section 4.1's
  // per-pattern EDB adornments, computed per occurrence so the Section 4.2
  // retention condition can consult the rule context).
  CandidateList EdbBaseTriplets(const Rule& rule, const Atom& atom) const;

  // Goal-level triplets of `apreds_[apred]` translated into rule terms via
  // the subgoal occurrence `atom` (candidate order mirrors the adornment).
  CandidateList TranslateAdornment(int apred, const Atom& atom) const;

  // Restricts (and interns) the leaf rule triplet `id`: drops sigma entries
  // for variables that occur in no unmapped part. Memoized on `id`.
  RuleTripletId RestrictedLeaf(RuleTripletId id);

  // The safety valves; overflow_ keeps the first one that tripped.
  enum class Valve { kNone, kAdornedPreds, kAdornedRules, kCombinations };
  void Overflow(Valve valve) {
    if (overflow_ == Valve::kNone) overflow_ = valve;
  }

  Program program_;
  std::vector<Constraint> ics_;
  LocalAtomInfo local_;
  AdornOptions options_;
  std::set<PredId> idb_;

  std::unique_ptr<TripletStore> owned_store_;  // fallback when none shared
  TripletStore* store_ = nullptr;

  std::vector<AdornedPred> apreds_;
  std::unordered_map<ApredKey, int, ApredKeyHash> apred_registry_;
  std::unordered_map<PredId, std::vector<int>> apreds_by_pred_;
  std::vector<AdornedRule> arules_;
  // Combination registry: key is {rule_index, choice...}.
  std::unordered_map<std::vector<int32_t>, int, IntVecHash> arule_registry_;
  std::vector<int32_t> key_scratch_;  // reused registry-lookup buffer

  // Memo tables:
  //   EDB base triplets per unspecialized (rule_index << 32 | body_index);
  //   adornment translation per (apred << 32 | atom id);
  //   instantiated summaries per (summary id << 32 | atom id);
  //   leaf restriction per rule-triplet id;
  //   order-consistency verdicts per interned conjunction (summary id);
  //   head summaries per (conjunction summary id << 32 | head atom id).
  mutable std::unordered_map<uint64_t, CandidateList> edb_base_memo_;
  mutable std::unordered_map<uint64_t, CandidateList> translate_memo_;
  mutable std::unordered_map<uint64_t, std::vector<Comparison>> summary_memo_;
  std::unordered_map<RuleTripletId, RuleTripletId> restrict_memo_;
  mutable std::unordered_map<int32_t, bool> consistent_memo_;
  mutable std::unordered_map<uint64_t, std::vector<Comparison>>
      head_summary_memo_;

  Valve overflow_ = Valve::kNone;
  int fixpoint_passes_ = 0;
};

}  // namespace sqod

#endif  // SQOD_SQO_ADORN_H_
