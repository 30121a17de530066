#ifndef SQOD_AST_PROGRAM_H_
#define SQOD_AST_PROGRAM_H_

#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/ast/rule.h"
#include "src/base/status.h"

namespace sqod {

// A datalog program: a set of rules plus a designated query predicate.
// EDB predicates appear only in rule bodies; IDB predicates appear in heads.
class Program {
 public:
  Program() = default;

  void AddRule(Rule rule) { rules_.push_back(std::move(rule)); }
  void SetQuery(PredId pred) { query_ = pred; }
  void SetQuery(std::string_view name) { query_ = InternPred(name); }

  const std::vector<Rule>& rules() const { return rules_; }
  std::vector<Rule>* mutable_rules() { return &rules_; }
  PredId query() const { return query_; }

  // Predicate classification, derived from the rules.
  bool IsIdb(PredId p) const;
  bool IsEdb(PredId p) const;
  std::set<PredId> IdbPreds() const;
  std::set<PredId> EdbPreds() const;

  // Arity of `p` as used in this program, or -1 if `p` does not occur.
  int Arity(PredId p) const;

  // Rules whose head predicate is `p` (indices into rules()).
  std::vector<int> RulesFor(PredId p) const;

  // Initialization rules: rules with no IDB predicate in the body
  // (Proposition 5.2 of the paper).
  std::vector<int> InitializationRules() const;

  // Checks well-formedness:
  //  * consistent arities per predicate,
  //  * negation is stratified (negation on EDB predicates is always fine;
  //    negation on IDB predicates must not cross a recursive cycle),
  //  * safety: every head / negated / comparison variable occurs in a
  //    positive body literal,
  //  * the query predicate (if set) is an IDB predicate.
  //
  // Note: the SQO pipeline (OptimizeProgram) additionally requires negation
  // to be on EDB predicates only, the paper's Section 2 setting; stratified
  // IDB negation is an evaluator-level extension.
  Status Validate() const;

  // The program's one stratification: assigns every IDB predicate its
  // stratum, one per strongly connected component of the dependency graph
  // (an edge from each IDB body predicate, positive or negated, to the
  // rule's head). Strata are numbered in a topological order: a predicate's
  // dependencies sit in its own stratum (same component, positive only) or
  // strictly below. Ties go to the component whose first rule comes first
  // in the program, so the numbering depends only on the program text.
  // Returns an error for non-stratified programs (a negated edge inside a
  // component).
  Result<std::map<PredId, int>> Stratify() const;

  // True if all negated body literals use EDB predicates (the paper's
  // setting).
  bool NegationOnEdbOnly() const;

  // Same checks for an IC against this program's predicates: body has no IDB
  // predicate; safety of negation and comparisons.
  Status ValidateConstraint(const Constraint& ic) const;

  std::string ToString() const;

 private:
  std::vector<Rule> rules_;
  PredId query_ = -1;
};

}  // namespace sqod

#endif  // SQOD_AST_PROGRAM_H_
