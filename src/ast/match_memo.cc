#include "src/ast/match_memo.h"

namespace sqod {

MatchDelta ComputeMatchDelta(const Atom& pattern, const Atom& target) {
  MatchDelta delta;
  if (pattern.pred() != target.pred() ||
      pattern.arity() != target.arity()) {
    return delta;  // ok == false
  }
  for (int i = 0; i < pattern.arity(); ++i) {
    const Term& p = pattern.arg(i);
    const Term& t = target.arg(i);
    if (p.is_const()) {
      if (p != t) return MatchDelta();
      continue;
    }
    // Pattern variable: must bind consistently across positions.
    bool found = false;
    for (const auto& [var, term] : delta.bindings) {
      if (var == p.var()) {
        if (term != t) return MatchDelta();
        found = true;
        break;
      }
    }
    if (!found) delta.bindings.emplace_back(p.var(), t);
  }
  delta.ok = true;
  return delta;
}

bool ApplyMatchDelta(const MatchDelta& delta, Substitution* subst) {
  if (!delta.ok) return false;
  for (const auto& [var, term] : delta.bindings) {
    const Term* bound = subst->Lookup(var);
    if (bound != nullptr) {
      if (!(*bound == term)) return false;
    } else {
      subst->Bind(var, term);
    }
  }
  return true;
}

AtomId AtomMatchMemo::Intern(const Atom& a) {
  auto [it, inserted] = ids_.emplace(a, static_cast<AtomId>(atoms_.size()));
  if (inserted) {
    atoms_.push_back(a);
    ++intern_misses_;
  } else {
    ++intern_hits_;
  }
  return it->second;
}

const MatchDelta& AtomMatchMemo::Match(AtomId pattern, AtomId target) {
  const uint64_t key =
      (static_cast<uint64_t>(static_cast<uint32_t>(pattern)) << 32) |
      static_cast<uint32_t>(target);
  auto it = match_memo_.find(key);
  if (it != match_memo_.end()) {
    ++memo_hits_;
    return it->second;
  }
  return match_memo_.emplace(key, ComputeMatchDelta(atoms_[pattern],
                                                    atoms_[target]))
      .first->second;
}

}  // namespace sqod
