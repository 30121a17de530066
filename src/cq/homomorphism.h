#ifndef SQOD_CQ_HOMOMORPHISM_H_
#define SQOD_CQ_HOMOMORPHISM_H_

#include <functional>
#include <vector>

#include "src/ast/match_memo.h"
#include "src/ast/substitution.h"

namespace sqod {

// Enumerates homomorphisms from the atom set `from` into the atom set `to`:
// substitutions h over the variables of `from` such that h(a) is
// syntactically equal to some atom of `to`, for every a in `from`.
// Variables of `to` are treated as frozen constants (they are never bound).
//
// `visit` is called for each homomorphism found (extending `base`); if it
// returns true the search stops and ForEachHomomorphism returns true.
// Returns false when the enumeration completes without `visit` accepting.
//
// The pairwise atom matches driving the search are answered from (and
// recorded in) `memo`; repeated checks against the same atoms — the shape
// of CQ containment loops — become hash lookups.
bool ForEachHomomorphism(
    const std::vector<Atom>& from, const std::vector<Atom>& to,
    const Substitution& base,
    const std::function<bool(const Substitution&)>& visit,
    AtomMatchMemo& memo);

}  // namespace sqod

#endif  // SQOD_CQ_HOMOMORPHISM_H_
