#ifndef SQOD_EVAL_EVALUATOR_H_
#define SQOD_EVAL_EVALUATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/ast/program.h"
#include "src/base/cancel.h"
#include "src/base/status.h"
#include "src/eval/database.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace sqod {

struct CompiledProgram;

// Evaluation is semi-naive with hash-indexed joins (docs/evaluator.md);
// no option selects another strategy.
struct EvalOptions {
  // A pre-compiled artifact to execute (as cached by PreparedProgram; see
  // docs/evaluator.md, "Compiled bytecode"). Must have been built by
  // CompileProgram from the same program being evaluated. Null = compile
  // on the fly (the evaluator then reports the lowering cost under
  // eval/compile_ns).
  const CompiledProgram* compiled = nullptr;
  // Abort with an error when more than this many IDB tuples are derived
  // (guards against runaway programs in tests). -1 = unlimited.
  int64_t max_derived = -1;

  // Cooperative interruption, checked once per fixpoint iteration (the
  // serving layer's cancellation granularity). When `cancel` fires,
  // evaluation unwinds with kCancelled; when `deadline_ns` (an absolute
  // NowNs() timestamp, -1 = none) passes, with kDeadlineExceeded. Stats and
  // profiles remain valid for the work done up to the interruption.
  const CancelToken* cancel = nullptr;
  int64_t deadline_ns = -1;

  // Observability hooks, all optional and off by default.
  //
  // When `tracer` is set and enabled, the evaluator emits a span tree:
  // eval > eval.stratum > eval.iteration > eval.rule (see
  // docs/observability.md for the taxonomy). When `metrics` is set,
  // aggregate and per-rule counters plus an iteration-latency histogram are
  // published under `metrics_prefix`. `profile_rules` turns on per-rule
  // wall-clock timing even without a tracer (counters are always kept; only
  // the clock reads are gated).
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
  bool profile_rules = false;
  std::string metrics_prefix = "eval";
};

// Per-rule work profile: the same counters as EvalStats, attributed to the
// rule that did the work. `time_ns` is only nonzero when timing is on
// (EvalOptions::profile_rules, or an enabled tracer, or a registry).
struct RuleProfile {
  int rule_index = -1;
  std::string head;  // head predicate name, for display
  int64_t firings = 0;
  int64_t derived = 0;
  int64_t duplicates = 0;
  int64_t probes = 0;
  int64_t cmp_checks = 0;
  // Executed bytecode ops (generic loop) or inner-loop steps (specialized
  // kernels). Surfaced by EXPLAIN ANALYZE.
  int64_t ops = 0;
  int64_t time_ns = 0;

  double duplicate_rate() const {
    return firings == 0 ? 0.0 : double(duplicates) / double(firings);
  }
};

// Aggregate work counters; the instrument behind every speedup benchmark.
// A thin facade: the evaluator accounts per rule (RuleProfile) and this is
// the sum over rules, so stats() and rule_profiles() always agree.
struct EvalStats {
  int64_t iterations = 0;
  int64_t rule_firings = 0;          // complete body matches found
  int64_t tuples_derived = 0;        // new IDB tuples
  int64_t duplicate_derivations = 0; // matches deriving an existing tuple
  int64_t join_probes = 0;           // candidate rows examined during joins
  int64_t comparison_checks = 0;     // order-atom evaluations

  // Sums `profiles` into the per-rule fields (iterations is left alone).
  static EvalStats FromProfiles(int64_t iterations,
                                const std::vector<RuleProfile>& profiles);

  std::string ToString() const;
};

// Bottom-up evaluation of a datalog program with order atoms and
// stratified negation. The paper's programs (Section 2) negate only EDB
// predicates; a negated IDB predicate must sit in a lower stratum
// (Program::Stratify), whose relation is complete before any rule that
// negates it runs.
class Evaluator {
 public:
  explicit Evaluator(const Program& program, EvalOptions options = {});

  // Computes all IDB relations from `edb`. The returned database holds IDB
  // facts only.
  Result<Database> Evaluate(const Database& edb);

  const EvalStats& stats() const { return stats_; }

  // One entry per program rule, in rule order, after Evaluate.
  const std::vector<RuleProfile>& rule_profiles() const { return profiles_; }

 private:
  const Program& program_;
  EvalOptions options_;
  EvalStats stats_;
  std::vector<RuleProfile> profiles_;
};

// Convenience: evaluates and returns the query predicate's tuples, sorted.
// `stats` and `profiles` (both optional) receive the evaluator's counters.
// A program without a query predicate is kInvalidArgument.
Result<std::vector<Tuple>> EvaluateQuery(
    const Program& program, const Database& edb, EvalOptions options = {},
    EvalStats* stats = nullptr, std::vector<RuleProfile>* profiles = nullptr);

// Renders per-rule profiles as an aligned text table (header + one row per
// rule that did any work, sorted by time then firings).
std::string RenderRuleProfileTable(const std::vector<RuleProfile>& profiles);

}  // namespace sqod

#endif  // SQOD_EVAL_EVALUATOR_H_
