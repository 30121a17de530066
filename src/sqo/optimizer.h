#ifndef SQOD_SQO_OPTIMIZER_H_
#define SQOD_SQO_OPTIMIZER_H_

#include <string>
#include <vector>

#include "src/ast/program.h"
#include "src/base/status.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sqo/adorn.h"
#include "src/sqo/preprocess.h"
#include "src/sqo/query_tree.h"

namespace sqod {

// The end-to-end pipeline of the paper:
//
//   normalize (LMSS93 contract)
//     -> local-atom rewriting               (Section 4.2)
//     -> bottom-up adornments, P1           (Section 4.1, phase 1)
//     -> top-down labeled query tree, P'    (Section 4.1, phase 2)
//     -> residue attachment on P'           (classic SQO per specialized
//                                            rule; Example 3.1's Y > X)
//
// The result completely incorporates the ICs (Definition 3.1): for every
// database satisfying the ICs, P' computes the same query relation as P,
// and no rule chain guaranteed empty by the ICs is ever evaluated.

struct SqoOptions {
  AdornOptions adorn;
  QueryTreeOptions tree;
  int max_local_rewrite_rules = 100000;

  // Render the human-readable diagnostic artifacts (SqoReport's
  // adornment_dump, tree_dump, tree_dot) during the run. Off by default:
  // the dumps serialize every adorned predicate, rule, and goal class and
  // can cost as much as the analysis itself on adornment-heavy inputs, so
  // the serving path (Session::Prepare) should not pay for them. The CLI
  // turns this on when a --dump-* flag asks for the text.
  bool capture_dumps = false;

  // Pass-pipeline configuration: names of passes to skip (see
  // PassManager::PassNames for the vocabulary). Unknown names are an error
  // at Run time. Disabling "tree" stops after the bottom-up phase and
  // returns P1 as the rewriting; "residues" leaves residue negations off
  // the rewritten rules; "fd_rewrite" skips the FD-based join elimination
  // (ICs of the Theorem 5.5 shape). Disabling a pass other passes depend
  // on degrades gracefully: e.g. with "adorn" disabled the tree pass is
  // structurally skipped and the normalized program is the rewriting.
  std::vector<std::string> disabled_passes;

  // Observability hooks, optional and off by default. With an enabled
  // tracer the pipeline emits one span per phase under a "sqo.optimize"
  // root (sqo.validate, sqo.normalize, sqo.local_rewrite, sqo.adorn with
  // per-pass children, sqo.tree, sqo.residues, sqo.prune; see
  // docs/observability.md). With a registry, per-phase wall time lands in
  // "sqo/phase/<name>_ns" gauges and pipeline sizes in "sqo/..." gauges.
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
};

// One entry per pipeline pass, in execution order, recording what the pass
// manager did with it plus the shape delta it caused. The "before" of each
// pass is the "after" of its predecessor (the input program's shape for the
// first pass), so the rows chain into a complete account of how the
// pipeline transformed the program — EXPLAIN renders them as per-pass
// delta columns.
struct PassRunInfo {
  std::string name;
  bool disabled = false;  // switched off by options / --disable-pass
  bool skipped = false;   // structurally inapplicable (e.g. no query pred)
  int64_t wall_ns = 0;    // 0 unless the pass ran

  // Program shape around the pass: rule count, total body literals, total
  // negated literals, and total order atoms (comparisons).
  int rules_before = 0;
  int rules_after = 0;
  int literals_before = 0;
  int literals_after = 0;
  int negations_before = 0;
  int negations_after = 0;
  int comparisons_before = 0;
  int comparisons_after = 0;

  bool ran() const { return !disabled && !skipped; }
};

struct SqoReport {
  Program normalized;   // after NormalizeProgram + local-atom rewriting
  Program adorned;      // P1
  Program rewritten;    // P' (the drop-in replacement program)
  std::vector<Constraint> ics;  // normalized ICs
  // Where rewritten's rules and predicates come from (src/sqo/lower.h).
  // Session::Prepare empties it once the lowering has read it.
  Provenance provenance;

  // Per-pass diagnostics, one entry per pass in pipeline order.
  std::vector<PassRunInfo> pass_runs;

  int adorned_predicates = 0;
  int adorned_rules = 0;
  int tree_classes = 0;
  int surviving_classes = 0;
  bool query_satisfiable = true;

  // Classic-SQO accounting from the residues pass (zeros if it did not
  // run): rules deleted as guaranteed-empty, and order atoms / negations
  // the attached residues contributed.
  int residue_rules_deleted = 0;
  int residue_comparisons_added = 0;
  int residue_negations_added = 0;

  // Hash-consing effectiveness of this run's TripletStore.
  int64_t intern_hits = 0;
  int64_t intern_misses = 0;
  int64_t memo_hits = 0;
  int64_t store_size = 0;

  std::string adornment_dump;  // AdornmentEngine::ToString()
  std::string tree_dump;       // QueryTree::ToString()
  std::string tree_dot;        // QueryTree::ToDot() (Graphviz)
};

// Runs the pipeline. Requirements: `program` validates; every IC validates
// against it (EDB-only bodies); all order atoms and negated atoms of ICs
// are local (Section 4.2; an error cites the theorem otherwise). If the
// program has no query predicate, the query-tree phase is skipped and P1 is
// returned as the rewriting.
//
// This is a thin wrapper over the pass manager (src/sqo/pass_manager.h):
// it runs the standard pipeline (validate, normalize, fd_rewrite,
// local_rewrite, adorn, tree, residues, prune) honoring the option flags.
// New code that needs per-pass control, prepared-program caching, or
// repeated execution should use the engine layer (src/engine/engine.h).
Result<SqoReport> OptimizeProgram(const Program& program,
                                  const std::vector<Constraint>& ics,
                                  const SqoOptions& options = {});

// Is the query predicate satisfiable w.r.t. the ICs? (Theorem 4.1/4.2: the
// query tree has a productive root iff some consistent database yields an
// answer.)
Result<bool> QuerySatisfiable(const Program& program,
                              const std::vector<Constraint>& ics,
                              const SqoOptions& options = {});

// Is `atom` (an IDB goal, possibly with variables) query-reachable w.r.t.
// the ICs — i.e., can an instantiation of it take part in a derivation of
// some answer over a consistent database? Decided at the precision of the
// query tree's goal classes.
Result<bool> QueryReachableAtom(const Program& program,
                                const std::vector<Constraint>& ics,
                                const Atom& atom,
                                const SqoOptions& options = {});

}  // namespace sqod

#endif  // SQOD_SQO_OPTIMIZER_H_
