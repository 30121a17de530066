#include "src/cq/homomorphism.h"

#include <algorithm>
#include <unordered_map>

#include "src/ast/unify.h"

namespace sqod {

namespace {

// Per source atom (in search order): the match deltas against its candidate
// targets, recalled from the caller's memo, where repeated containment
// checks against the same atom pairs hit across calls.
bool Search(const std::vector<std::vector<const MatchDelta*>>& deltas,
            size_t next, Substitution* subst,
            const std::function<bool(const Substitution&)>& visit) {
  if (next == deltas.size()) return visit(*subst);
  for (const MatchDelta* delta : deltas[next]) {
    Substitution attempt = *subst;  // copy; pattern sizes are small
    if (!ApplyMatchDelta(*delta, &attempt)) continue;
    if (Search(deltas, next + 1, &attempt, visit)) return true;
  }
  return false;
}

}  // namespace

bool ForEachHomomorphism(
    const std::vector<Atom>& from, const std::vector<Atom>& to,
    const Substitution& base,
    const std::function<bool(const Substitution&)>& visit,
    AtomMatchMemo& memo) {
  std::unordered_map<PredId, std::vector<const Atom*>> index;
  for (const Atom& a : to) index[a.pred()].push_back(&a);

  // Order the source atoms so that atoms sharing variables with earlier ones
  // come sooner (cheap join-ordering heuristic): here we simply sort by
  // (fewest candidate targets first), which bounds the branching early.
  std::vector<Atom> ordered = from;
  std::stable_sort(ordered.begin(), ordered.end(),
                   [&](const Atom& a, const Atom& b) {
                     size_t ca = index.count(a.pred()) ? index[a.pred()].size() : 0;
                     size_t cb = index.count(b.pred()) ? index[b.pred()].size() : 0;
                     return ca < cb;
                   });

  std::vector<std::vector<const MatchDelta*>> deltas(ordered.size());
  for (size_t i = 0; i < ordered.size(); ++i) {
    auto it = index.find(ordered[i].pred());
    if (it == index.end()) return false;  // no candidate target at all
    const AtomId pattern = memo.Intern(ordered[i]);
    for (const Atom* target : it->second) {
      deltas[i].push_back(&memo.Match(pattern, memo.Intern(*target)));
    }
  }

  Substitution subst = base;
  return Search(deltas, 0, &subst, visit);
}

}  // namespace sqod
