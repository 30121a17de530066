#ifndef SQOD_SQO_RESIDUE_H_
#define SQOD_SQO_RESIDUE_H_

#include <string>
#include <vector>

#include "src/ast/program.h"
#include "src/sqo/preprocess.h"

namespace sqod {

// Classic single-rule semantic query optimization (Chakravarthy, Grant &
// Minker 1988), the baseline the paper improves on. A *residue* of an IC I
// w.r.t. a rule r is the unmapped portion of a partial homomorphism from the
// positive atoms of I into the positive EDB atoms of r's body. Its negation
// holds in every instantiation of r over a consistent database, so it can be
// appended to r (when expressible) or, when the residue is empty, r can be
// deleted.
//
// This analysis looks at each rule in isolation; Section 3 of the paper
// shows why that misses interactions flowing through IDB subgoals (which is
// what the query-tree algorithm of src/sqo/adorn.h + query_tree.h captures).

struct Residue {
  int ic_index = -1;
  // Unmapped or unsatisfied parts, with the mapping applied where defined.
  std::vector<Literal> literals;
  std::vector<Comparison> comparisons;

  bool empty() const { return literals.empty() && comparisons.empty(); }
  std::string ToString() const;
};

// All residues of `ic` (index `ic_index`) w.r.t. `rule`. Duplicates are
// removed. The IC is renamed apart from the rule internally.
std::vector<Residue> ComputeResidues(const Rule& rule, const Constraint& ic,
                                     int ic_index);

// Same, for an IC already renamed apart from every rule it will be applied
// to. The pairwise IC-atom-into-body-atom matches go through a per-call
// delta table.
//
// `max_literals` >= 0 bounds the residues of interest: partial mappings
// whose residue would keep more than that many literals are pruned during
// enumeration (the residues produced are exactly the full set filtered to
// literals.size() <= max_literals). ApplyClassicSqo only consumes empty and
// single-literal residues, so it enumerates with a budget of 1 instead of
// materializing the full power set.
std::vector<Residue> ComputeResiduesRenamed(const Rule& rule,
                                            const Constraint& renamed_ic,
                                            int ic_index,
                                            int max_literals = -1);

struct ClassicSqoReport {
  int rules_deleted = 0;       // rules with an empty residue
  int comparisons_added = 0;   // negated single-comparison residues attached
  int negations_added = 0;     // negated single-EDB-literal residues attached
};

// Applies classic SQO to every rule of `program` under `ics`: deletes
// unsatisfiable rules and attaches the negations of expressible
// single-literal residues. Each IC is renamed apart once (not per rule).
// `provenance`, if given, follows the rules; a forced equality that the
// attached residues make normalization substitute clears the origin.
Program ApplyClassicSqo(const Program& program,
                        const std::vector<Constraint>& ics,
                        ClassicSqoReport* report = nullptr,
                        Provenance* provenance = nullptr);

}  // namespace sqod

#endif  // SQOD_SQO_RESIDUE_H_
