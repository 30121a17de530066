#ifndef SQOD_SQO_LOCAL_H_
#define SQOD_SQO_LOCAL_H_

#include <map>
#include <vector>

#include "src/ast/program.h"
#include "src/ast/substitution.h"
#include "src/base/status.h"
#include "src/sqo/preprocess.h"

namespace sqod {

// Section 4.2 of the paper: handling ICs with *local* order atoms and local
// negated EDB atoms. An order atom (or negated EDB atom) of an IC is local
// when some positive EDB atom of the same IC contains all its variables;
// that positive atom is the local atom's *carrier* (the pair (a, l) of the
// paper). The problems become undecidable without locality (Theorems
// 5.3-5.5), so AnalyzeLocalAtoms reports an error for non-local ICs.

struct LocalAtomPair {
  int ic_index = -1;
  int carrier = -1;     // index into the IC's positive atoms
  bool is_order = true; // order atom vs negated EDB atom
  int item = -1;        // index into ic.comparisons (order) or ic.body (negated)
};

struct LocalAtomInfo {
  std::vector<LocalAtomPair> pairs;
  // Order atoms without a carrier, per IC index: indices into
  // ic.comparisons. These are handled by the *quasi-local* extension (end
  // of Section 4.2): the adornment machinery carries them as a pseudo-atom
  // that is discharged — producing an inconsistency — only at a rule node
  // where all EDB atoms of the IC are mapped, all their variables are
  // visible, and the rule's own order atoms entail the mapped conjunction.
  std::map<int, std::vector<int>> nonlocal_order;

  bool HasPairs() const { return !pairs.empty(); }
  // Pairs carried by positive atom `carrier` of IC `ic_index`.
  std::vector<const LocalAtomPair*> PairsFor(int ic_index, int carrier) const;
  // Non-local order atoms of IC `ic_index` (empty vector if none).
  const std::vector<int>& NonlocalOrder(int ic_index) const;
};

// Associates every order atom and negated EDB atom of every IC with a
// carrier where one exists. Non-local *order* atoms are collected for the
// quasi-local treatment; a non-local *negated* atom is an error (Theorem
// 5.4: satisfiability is undecidable there and no sound machinery exists in
// this library).
Result<LocalAtomInfo> AnalyzeLocalAtoms(const std::vector<Constraint>& ics);

// The rewriting step of Section 4.2: for every rule r with a positive EDB
// atom a' matched by a carrier a (via the unique homomorphism h from a to
// a'), if neither h(l) nor its negation is already asserted by r, replace r
// by the two rules r + h(l) and r + not h(l). Repeats to fixpoint; the
// rewriting introduces no new variables so it terminates. Equivalence is
// preserved (each split is an instance of excluded middle). `provenance`,
// if given, follows the rules; a split positive atom clears the origin.
Result<Program> RewriteForLocalAtoms(const Program& program,
                                     const std::vector<Constraint>& ics,
                                     const LocalAtomInfo& info,
                                     int max_rules = 100000,
                                     Provenance* provenance = nullptr);

// The modified retention condition of Section 4.2, checked when an EDB base
// triplet maps the carrier atom of IC `ic_index` into rule `rule` via `h`:
//   * for a local order atom l, h(l) must be entailed by r's comparisons;
//   * for a local negated EDB atom l, the literal not h(l) must appear in
//     r's body.
bool RetentionHolds(const Rule& rule, const std::vector<Constraint>& ics,
                    const LocalAtomInfo& info, int ic_index, int carrier,
                    const Substitution& h);

}  // namespace sqod

#endif  // SQOD_SQO_LOCAL_H_
