#ifndef SQOD_SQO_PASS_MANAGER_H_
#define SQOD_SQO_PASS_MANAGER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/ast/program.h"
#include "src/base/status.h"
#include "src/sqo/adorn.h"
#include "src/sqo/local.h"
#include "src/sqo/optimizer.h"
#include "src/sqo/query_tree.h"

namespace sqod {

// The optimizer pipeline as composable passes. Each phase of the paper's
// algorithm (validate, normalize, fd_rewrite, local_rewrite, adorn, tree,
// residues, prune) is a named Pass with a uniform Run(PassContext&)
// interface; the PassManager owns the pipeline order, per-pass spans and
// gauges, and the SqoOptions-driven enable/disable logic. OptimizeProgram
// is a thin wrapper over this machinery.

// Shared state threaded through the pipeline. Passes read and advance
// `program`/`ics`/`local` and publish their artifacts into `report`;
// `engine` and `tree` carry the structured intermediates so later passes
// (and post-run consumers like QueryReachableAtom) can inspect them.
struct PassContext {
  // Fixed inputs for the run.
  const Program* input = nullptr;
  const std::vector<Constraint>* input_ics = nullptr;
  SqoOptions options;

  // Evolving pipeline state.
  Program program;              // the current rewriting of *input
  Provenance provenance;        // of `program`'s rules
  std::vector<Constraint> ics;  // normalized ICs (raw until `normalize`)
  LocalAtomInfo local;          // filled by `local_rewrite`
  // Hash-consing store shared by the adorn and tree passes of this run
  // (triplets, adornments, atoms, match/merge memos). Created by the
  // manager before the first pass; its stats land in the "sqo/intern_*" and
  // "sqo/memo_hits" counters per run.
  std::unique_ptr<TripletStore> store;
  std::unique_ptr<AdornmentEngine> engine;  // built by `adorn`
  std::unique_ptr<QueryTree> tree;          // built by `tree`

  SqoReport report;  // filled progressively; pass_runs by the manager

  // The pass's open span while it runs, set by the manager (an inert Span
  // when tracing is off, so passes attach attributes unconditionally).
  Span* active_span = nullptr;
  Span& span() { return *active_span; }
};

// One pipeline phase. Implementations live in pass_manager.cc; clients
// interact with passes by name through the PassManager.
class Pass {
 public:
  virtual ~Pass() = default;
  virtual const char* name() const = 0;

  // Advances `ctx`. Returning a non-OK status aborts the pipeline; the
  // status code tells clients why (kInvalidArgument for bad input,
  // kUnsupported for out-of-theory programs, kResourceExhausted for safety
  // valves).
  virtual Status Run(PassContext& ctx) = 0;

  // False when the pass has nothing to do for this context (e.g. the tree
  // pass without a query predicate). Skipped passes are recorded in
  // pass_runs with skipped=true.
  virtual bool Applicable(const PassContext& ctx) const;

  // The program this stage of the pipeline is rewriting, used for the
  // rules_after diagnostics: the working program for the pre-adornment
  // stages, the adorned/rewritten artifact afterwards.
  virtual const Program* Current(const PassContext& ctx) const;
};

// Reserves every variable of an optimizer run's input in `scope`, so the
// run's fresh names stay apart from it.
void ReserveInputVariables(const Program& program,
                           const std::vector<Constraint>& ics,
                           FreshNameScope* scope);

class PassManager {
 public:
  // Builds the standard pipeline. `options` carries both the per-phase
  // knobs and the pipeline configuration (disabled_passes).
  explicit PassManager(SqoOptions options = {});
  ~PassManager();

  PassManager(const PassManager&) = delete;
  PassManager& operator=(const PassManager&) = delete;

  // Canonical pass names, in pipeline order.
  static const std::vector<std::string>& PassNames();

  // True if `name` is listed in options.disabled_passes.
  bool IsDisabled(const std::string& name) const;

  // Runs the pipeline over `program`/`ics` and returns the report. Emits
  // one "sqo.<pass>" span per pass under an "sqo.optimize" root and
  // "sqo/phase/<pass>_ns" gauges, exactly like the pre-pass-manager
  // monolith, plus a PassRunInfo entry per pass in report.pass_runs.
  Result<SqoReport> Run(const Program& program,
                        const std::vector<Constraint>& ics);

  // Same, but leaves the full pipeline context (adornment engine, query
  // tree) accessible to the caller. `ctx` must outlive any use of the
  // returned references. The run's fresh names are scoped to this call
  // (FreshNameScope); a caller that renames the context's terms afterwards
  // opens its own scope around the call.
  Status RunInto(const Program& program, const std::vector<Constraint>& ics,
                 PassContext* ctx);

 private:
  SqoOptions options_;
  std::vector<std::unique_ptr<Pass>> passes_;
};

}  // namespace sqod

#endif  // SQOD_SQO_PASS_MANAGER_H_
