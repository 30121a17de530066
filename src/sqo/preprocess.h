#ifndef SQOD_SQO_PREPROCESS_H_
#define SQOD_SQO_PREPROCESS_H_

#include <unordered_map>
#include <vector>

#include "src/ast/program.h"
#include "src/base/status.h"

namespace sqod {

// The preprocessing contract the paper's Section 4.1 inherits from [LMSS93]:
// before the adornment algorithm runs, the program must satisfy
//   (1) every rule's order atoms are satisfiable (unsatisfiable rules are
//       removed),
//   (2) whenever a rule's order atoms imply X = Y, one variable has been
//       substituted for the other (and X = c substitutes the constant), and
//   (3) the comparison set of each rule is in a normal form (canonical
//       orientation, duplicates and tautologies removed).
// With (1)-(3), every symbolic derivation tree can be instantiated by
// assigning distinct constants to distinct variables — the property the
// proof of Theorem 4.1 relies on.
//
// NormalizeProgram applies (1)-(3). PruneUnreachable additionally removes
// rules that can never contribute to the query predicate (unproductive or
// unreachable predicates).

// Where one rule of a rewriting of P comes from, recorded by the optimizer
// passes that create and edit rules (SqoReport::provenance) and read by
// the lowering (src/sqo/lower.h).
struct RuleOrigin {
  // True when the rule, with adornments erased, is a normalized rule of P
  // under an injective variable renaming, followed by appended negated
  // literals body[body..] and comparisons comparisons[comparisons..].
  bool of_p = false;
  int body = 0;
  int comparisons = 0;
  bool copy_rule = false;  // p(W...) :- p@k(W...), restoring the query
};

// One RuleOrigin per rule, and the predicate of P each adorned copy
// specializes: generated predicate names are display only.
struct Provenance {
  std::vector<RuleOrigin> rules;  // aligned with the program's rules
  std::unordered_map<PredId, PredId> copies;

  // Every rule of `program` as a rule of P, with nothing appended.
  static Provenance Of(const Program& program);
};

// Applies steps (1)-(3) per rule; never changes program semantics.
Program NormalizeProgram(const Program& program);

// Same normal form for one rule. Returns nullopt-like behaviour via the
// bool: false means the rule is unsatisfiable and should be dropped.
// `changed`, if given, is set when the normal form is not the rule up to
// the orientation of its comparisons (an equality was substituted or a
// comparison removed).
bool NormalizeRule(Rule* rule, bool* changed = nullptr);

// Normalizes a set of ICs: an IC whose comparisons are inconsistent can
// never be violated and is dropped; forced equalities are substituted.
std::vector<Constraint> NormalizeConstraints(
    const std::vector<Constraint>& ics);

// Removes rules for predicates that are unproductive (cannot derive any
// fact from any EDB) or unreachable from the query predicate. Keeps the
// query predicate itself even if empty.
// Takes the program by value so callers replacing a program in place can
// move it in; surviving rules are moved, not copied, into the result.
// `provenance`, if given, is filtered alongside the rules.
Program PruneUnreachable(Program program, Provenance* provenance = nullptr);

}  // namespace sqod

#endif  // SQOD_SQO_PREPROCESS_H_
