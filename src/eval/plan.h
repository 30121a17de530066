#ifndef SQOD_EVAL_PLAN_H_
#define SQOD_EVAL_PLAN_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/ast/rule.h"
#include "src/base/value.h"

namespace sqod {

// The rule-plan layer in front of the bytecode compiler
// (src/eval/bytecode.cc): BuildPlan picks the body evaluation order for one
// (rule, delta-subgoal) combination and pre-resolves every argument,
// producing a RulePlan that CompileRulePlan lowers into flat register
// bytecode. Nothing executes a RulePlan directly.

// A compiled atom argument: either an inline constant (var < 0) or a
// rule-local variable slot.
struct ArgRef {
  Value const_val;
  int32_t var = -1;
};

// One compiled step of a rule-evaluation plan. Arguments are pre-resolved
// to ArgRefs so the join inner loop touches no AST nodes.
struct PlanStep {
  enum class Kind { kJoin, kNegation, kComparison };
  Kind kind;
  int index;  // into rule.body (kJoin / kNegation) or rule.comparisons
  PredId pred = -1;          // kJoin / kNegation
  std::vector<ArgRef> args;  // kJoin / kNegation
  ArgRef lhs, rhs;           // kComparison
  CmpOp op = CmpOp::kEq;     // kComparison
};

// The precompiled plan for one (rule, delta-subgoal) combination: the order
// in which body elements are evaluated. Comparisons and negations are placed
// at the earliest point where all their variables are bound.
struct RulePlan {
  int rule_index;
  // Index (into rule.body) of the positive subgoal that reads the delta
  // relation, or -1 for "all subgoals read their full relation".
  int delta_subgoal;
  int num_vars = 0;  // distinct variables of the rule, renumbered 0..n-1
  PredId head_pred = -1;
  std::vector<ArgRef> head;
  std::vector<PlanStep> steps;
  // Ordered as if every head variable were bound on entry (BuildPlan's
  // `head_bound`); the compiler then treats the head registers as loaded.
  bool head_bound = false;
};

// Reusable scratch for BuildPlan. One instance amortizes the per-call
// allocations (the variable-index map, the boundness bitmap, and the
// CollectVars buffer) across every plan built in a loop — the per-candidate
// per-round allocation churn of the old std::set-based boundness check is
// gone either way.
struct PlanScratch {
  std::unordered_map<VarId, int32_t> var_index;  // global VarId -> dense id
  std::vector<uint8_t> bound;                    // dense boundness bitmap
  std::vector<VarId> vars;                       // CollectVars target
  std::unordered_map<VarId, int32_t> slots;      // plan-order renumbering
};

// Builds the evaluation order for a rule. `first` (if >= 0) is the body
// index of the positive subgoal to evaluate first (the delta subgoal).
// `scratch` (optional) carries reusable buffers across calls.
//
// `head_bound` orders the body as if every head variable were already
// bound (the caller seeds plan.head's registers before running the plan).
// Used by the maintenance layer's DRed support checks, which ask "is this
// specific head tuple still derivable" — with the head seeded, the greedy
// most-bound order starts from atoms sharing head variables instead of a
// blind scan.
RulePlan BuildPlan(const Rule& rule, int rule_index, int first,
                   PlanScratch* scratch = nullptr, bool head_bound = false);

}  // namespace sqod

#endif  // SQOD_EVAL_PLAN_H_
