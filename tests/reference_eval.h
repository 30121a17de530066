#ifndef SQOD_TESTS_REFERENCE_EVAL_H_
#define SQOD_TESTS_REFERENCE_EVAL_H_

#include <map>
#include <set>
#include <vector>

#include "src/ast/program.h"
#include "src/eval/database.h"

namespace sqod {

// The equivalence suites' oracle: a reference evaluator that shares no code
// with the engine it checks. It computes the stratified fixpoint naively —
// every round re-joins every rule of the stratum over full relations, with
// nested loops in body order over std::set tuples — so it has no plans,
// indexes, bytecode, deltas or counters. It reads the live tuples of `edb`
// and nothing else of src/eval.
using ReferenceIdb = std::map<PredId, std::set<Tuple>>;

// Every IDB predicate with at least one derived tuple, and its tuples.
// `program` must be stratifiable (as the parser guarantees).
ReferenceIdb ReferenceEvaluate(const Program& program, const Database& edb);

// The query predicate's tuples, sorted.
std::vector<Tuple> ReferenceQuery(const Program& program, const Database& edb);

}  // namespace sqod

#endif  // SQOD_TESTS_REFERENCE_EVAL_H_
