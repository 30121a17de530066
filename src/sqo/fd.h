#ifndef SQOD_SQO_FD_H_
#define SQOD_SQO_FD_H_

#include <string>
#include <vector>

#include "src/ast/program.h"
#include "src/sqo/preprocess.h"

namespace sqod {

// Functional dependencies, expressed as integrity constraints of the
// Theorem 5.5 shape
//     :- e(Xs, Ys1, Z1), e(Xs, Ys2, Z2), Z1 != Z2.
// (the determinant positions Xs share variables across the two atoms, the
// determined position holds the disequal pair, the remaining positions are
// independent). The paper's introduction lists "removing redundant joins"
// as a core use of semantic query optimization; FDs are the classic enabler:
// two body atoms that agree on the determinants must agree on the
// determined attribute, so the latter can be unified — often collapsing the
// two atoms into one and eliminating a join.

struct FunctionalDependency {
  PredId pred = -1;
  std::vector<int> determinants;  // sorted argument positions
  int determined = -1;

  std::string ToString() const;
};

// Builds the Theorem 5.5 constraint for `fd` over a predicate of the given
// arity.
Constraint MakeFdConstraint(const FunctionalDependency& fd, int arity);

// Recognizes ICs of the Theorem 5.5 shape and returns the corresponding
// FDs. Other ICs are ignored (they are handled by the main pipeline).
std::vector<FunctionalDependency> ExtractFds(
    const std::vector<Constraint>& ics);

struct FdRewriteReport {
  int unifications = 0;  // determined-position variables merged
  int atoms_removed = 0; // body atoms that became duplicates
};

// Applies FD-based join elimination to every rule: whenever two positive
// body atoms of fd.pred agree syntactically on all determinant positions,
// their determined arguments are unified; body atoms that become identical
// are deduplicated. Sound on every database satisfying the FDs: any
// instantiation over such a database assigns equal values to the unified
// variables anyway. `provenance`, if given, follows the rules; a rule that
// was unified or lost a join is no longer a renamed rule of P.
Program ApplyFdRewriting(const Program& program,
                         const std::vector<FunctionalDependency>& fds,
                         FdRewriteReport* report = nullptr,
                         Provenance* provenance = nullptr);

}  // namespace sqod

#endif  // SQOD_SQO_FD_H_
