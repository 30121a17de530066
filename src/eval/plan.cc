#include "src/eval/plan.h"

#include <algorithm>

#include "src/base/check.h"
#include "src/eval/relation.h"

namespace sqod {

RulePlan BuildPlan(const Rule& rule, int rule_index, int first,
                   PlanScratch* scratch, bool head_bound) {
  RulePlan plan;
  plan.rule_index = rule_index;
  plan.delta_subgoal = first;
  plan.head_bound = head_bound;

  PlanScratch local;
  PlanScratch& s = scratch != nullptr ? *scratch : local;

  // Dense renumbering of the rule's variables (order of Rule::Vars), so
  // boundness during step ordering is one byte per variable instead of a
  // std::set probe per candidate per round.
  s.var_index.clear();
  for (VarId v : rule.Vars()) {
    s.var_index.emplace(v, static_cast<int32_t>(s.var_index.size()));
  }
  s.bound.assign(s.var_index.size(), 0);
  if (head_bound) {
    s.vars.clear();
    rule.head.CollectVars(&s.vars);
    for (VarId v : s.vars) s.bound[s.var_index.at(v)] = 1;
  }

  std::vector<bool> done_body(rule.body.size(), false);
  std::vector<bool> done_cmp(rule.comparisons.size(), false);

  auto vars_bound = [&](const std::vector<VarId>& vars) {
    return std::all_of(vars.begin(), vars.end(), [&](VarId v) {
      return s.bound[s.var_index.at(v)] != 0;
    });
  };

  auto emit_ready_filters = [&] {
    bool progress = true;
    while (progress) {
      progress = false;
      for (size_t i = 0; i < rule.comparisons.size(); ++i) {
        if (done_cmp[i]) continue;
        s.vars.clear();
        rule.comparisons[i].CollectVars(&s.vars);
        if (vars_bound(s.vars)) {
          plan.steps.push_back(
              {PlanStep::Kind::kComparison, static_cast<int>(i)});
          done_cmp[i] = true;
          progress = true;
        }
      }
      for (size_t i = 0; i < rule.body.size(); ++i) {
        if (done_body[i] || !rule.body[i].negated) continue;
        s.vars.clear();
        rule.body[i].atom.CollectVars(&s.vars);
        if (vars_bound(s.vars)) {
          plan.steps.push_back({PlanStep::Kind::kNegation, static_cast<int>(i)});
          done_body[i] = true;
          progress = true;
        }
      }
    }
  };

  auto emit_join = [&](int i) {
    plan.steps.push_back({PlanStep::Kind::kJoin, i});
    done_body[i] = true;
    s.vars.clear();
    rule.body[i].atom.CollectVars(&s.vars);
    for (VarId v : s.vars) s.bound[s.var_index.at(v)] = 1;
  };

  emit_ready_filters();  // ground comparisons, if any
  if (first >= 0) {
    SQOD_CHECK(!rule.body[first].negated);
    emit_join(first);
    emit_ready_filters();
  }
  for (;;) {
    // Pick the positive subgoal with the most bound argument positions —
    // more bound keys means a narrower index probe. Ties break toward the
    // fewest unbound positions: with equal probe selectivity, the subgoal
    // introducing fewer free variables grows the binding set least, so the
    // joins downstream of it scan smaller intermediates. (Equal on both
    // counts keeps body order, preserving pre-refinement plans.)
    int best = -1;
    int best_score = -1;
    int best_unbound = -1;
    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (done_body[i] || rule.body[i].negated) continue;
      const Atom& a = rule.body[i].atom;
      int score = 0;
      for (const Term& t : a.args()) {
        if (t.is_const() || s.bound[s.var_index.at(t.var())] != 0) ++score;
      }
      const int unbound = static_cast<int>(a.args().size()) - score;
      if (score > best_score ||
          (score == best_score && unbound < best_unbound)) {
        best_score = score;
        best_unbound = unbound;
        best = static_cast<int>(i);
      }
    }
    if (best == -1) break;
    emit_join(best);
    emit_ready_filters();
  }
  // Safety guarantees every negation and comparison was emitted.
  for (size_t i = 0; i < rule.body.size(); ++i) {
    SQOD_CHECK_MSG(done_body[i] || !rule.body[i].negated,
                   rule.ToString().c_str());
    SQOD_CHECK_MSG(done_body[i], rule.ToString().c_str());
  }
  for (size_t i = 0; i < rule.comparisons.size(); ++i) {
    SQOD_CHECK_MSG(done_cmp[i], rule.ToString().c_str());
  }

  // Compile: renumber the rule's variables densely (order of first
  // appearance along the plan) and pre-resolve every argument to an ArgRef,
  // so the join loops never walk AST terms or hash global VarIds.
  s.slots.clear();
  auto compile_term = [&](const Term& t) {
    ArgRef a;
    if (t.is_const()) {
      a.const_val = t.value();
      return a;
    }
    auto [it, unused] =
        s.slots.emplace(t.var(), static_cast<int32_t>(s.slots.size()));
    a.var = it->second;
    return a;
  };
  for (PlanStep& step : plan.steps) {
    if (step.kind == PlanStep::Kind::kComparison) {
      const Comparison& c = rule.comparisons[step.index];
      step.lhs = compile_term(c.lhs);
      step.rhs = compile_term(c.rhs);
      step.op = c.op;
    } else {
      const Atom& a = rule.body[step.index].atom;
      SQOD_CHECK_MSG(a.arity() <= Relation::kMaxArity, a.ToString().c_str());
      step.pred = a.pred();
      step.args.reserve(a.args().size());
      for (const Term& t : a.args()) step.args.push_back(compile_term(t));
    }
  }
  const size_t body_vars = s.slots.size();
  plan.head_pred = rule.head.pred();
  SQOD_CHECK_MSG(rule.head.arity() <= Relation::kMaxArity,
                 rule.head.ToString().c_str());
  plan.head.reserve(rule.head.args().size());
  for (const Term& t : rule.head.args()) plan.head.push_back(compile_term(t));
  // Safety: every head variable occurs in the body, so compiling the head
  // introduced no new slots (an unbound slot would leak garbage values).
  SQOD_CHECK_MSG(s.slots.size() == body_vars, rule.ToString().c_str());
  plan.num_vars = static_cast<int>(s.slots.size());
  return plan;
}

}  // namespace sqod
