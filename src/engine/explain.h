#ifndef SQOD_ENGINE_EXPLAIN_H_
#define SQOD_ENGINE_EXPLAIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/eval/bytecode.h"
#include "src/eval/evaluator.h"
#include "src/eval/maintain.h"
#include "src/sqo/lower.h"
#include "src/sqo/optimizer.h"

namespace sqod {

// EXPLAIN / EXPLAIN ANALYZE over one optimized (and optionally executed)
// query. BuildExplainReport turns a SqoReport's per-pass bookkeeping into
// delta rows ("what did each pass do to the program"); AttachRuntime joins
// in what actually happened when the rewriting ran — per-rule firings,
// derivations, and wall time against the rule text each profile refers to.
// `sqo_cli --explain` prints ToText(); `--analyze=FILE` writes ToJson().

// One pipeline pass: the shape it saw, the shape it left, and the deltas.
struct ExplainPassRow {
  std::string name;
  bool ran = false;
  bool disabled = false;  // vs structurally skipped
  int64_t wall_ns = 0;

  int rules_before = 0, rules_after = 0;
  int literals_before = 0, literals_after = 0;
  int negations_before = 0, negations_after = 0;
  int comparisons_before = 0, comparisons_after = 0;

  int rules_delta() const { return rules_after - rules_before; }
  int literals_delta() const { return literals_after - literals_before; }
  int negations_delta() const { return negations_after - negations_before; }
  int comparisons_delta() const {
    return comparisons_after - comparisons_before;
  }
};

// One rewritten rule joined with its runtime profile. `profile` fields are
// zero until AttachRuntime matches an executed RuleProfile to the rule.
struct ExplainRuleRow {
  int rule_index = -1;
  std::string rule_text;  // the rewritten rule, as parsed/printed
  RuleProfile profile;    // zeros unless the query was executed
  bool executed = false;
};

// One compiled (rule, delta-subgoal) plan: which kernel the compiler
// selected and how many bytecode ops the lowering produced. Present when
// BuildExplainReport was given the prepared program's CompiledProgram.
struct ExplainKernelRow {
  int rule_index = -1;
  int delta_subgoal = -1;  // -1 = full plan, >= 0 = semi-naive delta plan
  std::string kernel;      // KernelName() of the selection
  int op_count = 0;        // static bytecode length of this plan
};

struct ExplainReport {
  // --- plan side (always present) ---
  std::vector<ExplainPassRow> passes;
  int adorned_predicates = 0;
  int adorned_rules = 0;
  int tree_classes = 0;
  int surviving_classes = 0;
  bool query_satisfiable = true;
  int residue_rules_deleted = 0;
  int residue_comparisons_added = 0;
  int residue_negations_added = 0;
  int64_t intern_hits = 0;
  int64_t intern_misses = 0;
  int64_t memo_hits = 0;
  int64_t store_size = 0;
  int64_t optimize_ns = 0;  // sum of pass wall times
  // PreparedProgram::fallback: non-OK when P itself is served (the unit is
  // outside the rewriting's theory or its optimization hit a limit; there
  // are no pass rows).
  Status fallback;

  // --- lowering side (when the served program's LoweredProgram was
  // provided): which adorned copies merged, which comparisons dropped, and
  // why the rest stayed adorned ---
  bool has_lowering = false;
  LoweredProgram lowering;

  // --- compiled-plan side (when a CompiledProgram was provided) ---
  bool compiled = false;
  int64_t compile_ns = 0;  // plan-lowering wall time
  int64_t total_ops = 0;   // static op count over all plans
  std::vector<ExplainKernelRow> kernels;  // one per compiled plan

  // --- maintenance side (after AttachMaintenance; views only) ---
  bool maintained = false;
  int64_t batches = 0;          // effective ApplyDelta batches so far
  MaintainStats maintain;       // totals across those batches
  MaintainStats last_batch;     // the most recent batch alone

  // --- runtime side (after AttachRuntime) ---
  bool analyzed = false;
  EvalStats stats;
  std::vector<ExplainRuleRow> rules;  // one per rewritten rule
  int64_t answers = 0;
  int64_t execute_ns = 0;
  int64_t ops_executed = 0;  // executed bytecode ops, summed over rules

  // Multi-section human-readable rendering (pass table, plan summary, and
  // — when analyzed — the per-rule runtime table).
  std::string ToText() const;

  // Machine-readable rendering: {"passes":[...],"plan":{...},
  // "runtime":{...}} ("runtime" only when analyzed). Parses with ParseJson.
  std::string ToJson() const;

  // One line for the slow-query log: satisfiability, rule count in/out,
  // residue work, and (when analyzed) iterations/firings/answers.
  std::string Summary() const;
};

// Builds the plan side from an optimizer report. With `compiled` (the
// artifact cached in PreparedProgram), the report also carries per-plan
// kernel selections and bytecode op counts; with `lowered`, the lowering's
// decisions.
ExplainReport BuildExplainReport(const SqoReport& report,
                                 const CompiledProgram* compiled = nullptr,
                                 const LoweredProgram* lowered = nullptr);

// Joins execution results into `report`: per-rule profiles are matched to
// the rules of `executed` (the program that ran, PreparedProgram::program()
// for a prepared query) by rule index. `answers` is the query relation's
// cardinality; `execute_ns` the end-to-end evaluation time.
void AttachRuntime(const Program& executed, const EvalStats& stats,
                   const std::vector<RuleProfile>& profiles, int64_t answers,
                   int64_t execute_ns, ExplainReport* report);

// Joins a materialized view's maintenance history into `report`: per-batch
// tuples deleted / re-derived, the over-deletion ratio, and how many strata
// were maintained incrementally vs recomputed (both the totals across
// `batches` and the last batch alone).
void AttachMaintenance(const MaintainStats& totals,
                       const MaintainStats& last_batch, int64_t batches,
                       ExplainReport* report);

}  // namespace sqod

#endif  // SQOD_ENGINE_EXPLAIN_H_
