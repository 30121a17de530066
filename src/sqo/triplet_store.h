#ifndef SQOD_SQO_TRIPLET_STORE_H_
#define SQOD_SQO_TRIPLET_STORE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/ast/match_memo.h"
#include "src/sqo/triplet.h"

namespace sqod {

// Dense ids handed out by a TripletStore. An id is only meaningful relative
// to the store that produced it.
using TripletId = int32_t;
using RuleTripletId = int32_t;
using AdornmentId = int32_t;
using SummaryId = int32_t;
using LabelId = int32_t;

// Hash-consing store for the symbolic state of the Section 4 construction.
//
// The adornment fixpoint is doubly exponential in the worst case (Theorem
// 5.1), and its working set is dominated by small immutable values —
// triplets, rule triplets, adornments, goal-class labels — that recur
// enormously often across rules, fixpoint passes, and tree expansions.
// Hash-consing maps each canonical value to a dense int32 id exactly once;
// afterwards equality is an integer compare, registry keys are tuples of
// ints instead of serialized strings, and the hot combinators (rule-triplet
// composition, IC-atom partial-homomorphism extension) are cached on id
// pairs.
//
// One store lives in the optimizer's PassContext, so ids flow unchanged
// through the adorn / tree / residues / prune passes of a single pipeline
// run. The store is single-threaded, like the pipeline itself; concurrent
// Session::Prepare calls each run with their own context.
class TripletStore {
 public:
  // Sentinel returned by MergeRuleTriplets for incompatible sigmas. Kept
  // distinct from every valid id (ids are >= 0).
  static constexpr int32_t kIncompatible = -2;

  TripletStore() = default;
  TripletStore(const TripletStore&) = delete;
  TripletStore& operator=(const TripletStore&) = delete;

  // --- hash-consing -------------------------------------------------------

  // Interns a canonical triplet; equal triplets get equal ids.
  TripletId InternTriplet(const Triplet& t);
  const Triplet& triplet(TripletId id) const { return *triplets_by_id_[id]; }
  int num_triplets() const { return static_cast<int>(triplets_by_id_.size()); }

  // Interns a rule triplet *ignoring provenance* (sources): two rule
  // triplets that SameAs() each other get the same id. The stored
  // representative has empty sources.
  RuleTripletId InternRuleTriplet(const RuleTriplet& t);
  const RuleTriplet& rule_triplet(RuleTripletId id) const {
    return *rule_triplets_by_id_[id];
  }
  int num_rule_triplets() const {
    return static_cast<int>(rule_triplets_by_id_.size());
  }

  // Interns a canonicalized adornment as the sequence of its triplet ids.
  AdornmentId InternAdornment(const Adornment& adornment);
  int num_adornments() const {
    return static_cast<int>(num_adornments_);
  }

  // Interns an order summary (canonical comparison sequence).
  SummaryId InternSummary(const std::vector<Comparison>& summary);

  // Interns a query-tree label (per-adornment-triplet unmapped subsets).
  LabelId InternLabel(const std::vector<std::vector<int>>& label);

  // The atom interner + pairwise match memo shared by the IC-atom
  // partial-homomorphism searches (EDB base triplets, residues, CQ checks).
  AtomMatchMemo& atoms() { return atoms_; }

  // --- cached combinators ------------------------------------------------

  // The composition step of the bottom-up phase: intersects the unmapped
  // sets and unions the sigmas of two same-IC rule triplets. Returns the
  // interned id of the merge, or kIncompatible when the sigmas conflict.
  // Cached on the (a, b) id pair.
  int32_t MergeRuleTriplets(RuleTripletId a, RuleTripletId b);

  // --- stats ----------------------------------------------------------------

  struct Stats {
    int64_t intern_hits = 0;    // interned value already present
    int64_t intern_misses = 0;  // new value hash-consed
    int64_t memo_hits = 0;      // merge/match answered from a memo table
    int64_t size = 0;           // distinct interned objects, all kinds
  };
  Stats stats() const;

 private:
  struct TripletHashFn {
    size_t operator()(const Triplet& t) const { return t.Hash(); }
  };
  struct RuleTripletHashFn {
    size_t operator()(const RuleTriplet& t) const { return t.Hash(); }
  };
  struct RuleTripletEqFn {
    bool operator()(const RuleTriplet& a, const RuleTriplet& b) const {
      return a.SameAs(b);
    }
  };
  struct IntVecHashFn {
    size_t operator()(const std::vector<int32_t>& v) const;
  };
  struct IntVecVecHashFn {
    size_t operator()(const std::vector<std::vector<int>>& v) const;
  };
  struct SummaryHashFn {
    size_t operator()(const std::vector<Comparison>& v) const;
  };
  struct SummaryEqFn {
    bool operator()(const std::vector<Comparison>& a,
                    const std::vector<Comparison>& b) const;
  };

  // Keys live in the maps (node handles are address-stable across rehash);
  // by-id vectors point back into them.
  std::unordered_map<Triplet, TripletId, TripletHashFn> triplets_;
  std::vector<const Triplet*> triplets_by_id_;

  std::unordered_map<RuleTriplet, RuleTripletId, RuleTripletHashFn,
                     RuleTripletEqFn>
      rule_triplets_;
  std::vector<const RuleTriplet*> rule_triplets_by_id_;

  std::unordered_map<std::vector<int32_t>, AdornmentId, IntVecHashFn>
      adornments_;
  int32_t num_adornments_ = 0;

  std::unordered_map<std::vector<Comparison>, SummaryId, SummaryHashFn,
                     SummaryEqFn>
      summaries_;
  std::unordered_map<std::vector<std::vector<int>>, LabelId, IntVecVecHashFn>
      labels_;

  std::unordered_map<uint64_t, int32_t> merge_memo_;

  AtomMatchMemo atoms_;
  int64_t intern_hits_ = 0;
  int64_t intern_misses_ = 0;
  int64_t memo_hits_ = 0;
};

}  // namespace sqod

#endif  // SQOD_SQO_TRIPLET_STORE_H_
