#ifndef SQOD_AST_MATCH_MEMO_H_
#define SQOD_AST_MATCH_MEMO_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/ast/atom.h"
#include "src/ast/substitution.h"

namespace sqod {

// Dense id of an atom hash-consed by an AtomMatchMemo.
using AtomId = int32_t;

// The one-way match of a pattern atom into a target atom, precomputed once:
// either no match exists, or the (deduplicated, first-occurrence-ordered)
// variable bindings that make subst(pattern) == target. Target variables
// are frozen, exactly like MatchInto.
struct MatchDelta {
  bool ok = false;
  std::vector<std::pair<VarId, Term>> bindings;
};

// Hash-consing interner for atoms plus a memo table for pairwise one-way
// matches. The partial-homomorphism searches (residue enumeration, CQ
// containment, EDB base triplets) call MatchInto on the same (pattern,
// target) pair once per enumeration *path* — exponentially often. Interning
// both atoms to dense ids and memoizing the pair's match delta makes every
// repeat a hash lookup, and turns the per-path work into a cheap
// compatibility check of the delta against the current bindings.
class AtomMatchMemo {
 public:
  AtomMatchMemo() = default;
  AtomMatchMemo(const AtomMatchMemo&) = delete;
  AtomMatchMemo& operator=(const AtomMatchMemo&) = delete;

  // Returns the dense id for `a`, interning on first use.
  AtomId Intern(const Atom& a);

  // The atom for a previously interned id (stable reference).
  const Atom& atom(AtomId id) const { return atoms_[id]; }

  // The cached match of pattern into target (both previously interned).
  // The reference is stable until the memo is cleared.
  const MatchDelta& Match(AtomId pattern, AtomId target);

  // Number of distinct interned atoms.
  int size() const { return static_cast<int>(atoms_.size()); }

  int64_t intern_hits() const { return intern_hits_; }
  int64_t intern_misses() const { return intern_misses_; }
  int64_t memo_hits() const { return memo_hits_; }

 private:
  std::unordered_map<Atom, AtomId, AtomHash> ids_;
  std::deque<Atom> atoms_;  // deque: stable references across interning
  std::unordered_map<uint64_t, MatchDelta> match_memo_;
  int64_t intern_hits_ = 0;
  int64_t intern_misses_ = 0;
  int64_t memo_hits_ = 0;
};

// Computes the match delta of `pattern` into `target` from scratch (no
// memo): the single source of truth AtomMatchMemo::Match caches.
MatchDelta ComputeMatchDelta(const Atom& pattern, const Atom& target);

// Extends `subst` by the delta's bindings; false when the delta is a
// non-match or conflicts with an existing binding. On failure `subst` may be
// left partially extended — callers work on copies. Composing
// ComputeMatchDelta with ApplyMatchDelta is equivalent to MatchInto.
bool ApplyMatchDelta(const MatchDelta& delta, Substitution* subst);

}  // namespace sqod

#endif  // SQOD_AST_MATCH_MEMO_H_
