#ifndef SQOD_EVAL_MAINTAIN_H_
#define SQOD_EVAL_MAINTAIN_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "src/ast/program.h"
#include "src/base/status.h"
#include "src/eval/bytecode.h"
#include "src/eval/database.h"
#include "src/eval/evaluator.h"

namespace sqod {

// Incremental view maintenance (see docs/ivm.md).
//
// A materialized view keeps the full IDB warm between requests. When the
// EDB changes by a small delta, re-deriving everything from scratch wastes
// work proportional to the database; this layer propagates just the change,
// reusing the semi-naive delta plans:
//
//  * Non-recursive strata use counting: every IDB tuple carries its number
//    of distinct derivations. A delta join with the changed subgoal at
//    position i, positions < i against the new state and positions > i
//    against the old state enumerates each gained/lost derivation exactly
//    once; a tuple dies when its count reaches zero. Negated subgoals flip
//    the sign (facts removed from B create derivations through "not B").
//
//  * Recursive strata use DRed (delete-and-rederive): over-delete
//    everything transitively derivable from a deleted tuple, rederive
//    over-deleted tuples that still have an alternative derivation, then
//    propagate insertions semi-naively. Counting is unsound under recursion
//    (a tuple can support itself through a cycle), DRed is not.
//
// Old and new states coexist in one versioned Database: applying batch
// version V stamps every transition with V, so "old" is LiveAt(row, V-1)
// and "new" is live(row). No relation is copied. Every maintenance join
// runs on the bytecode VM (RunBytecode), each level reading its relation
// at the snapshot its LevelRows::as_of names.

// A batch of EDB fact changes. Deletes apply before inserts: a tuple
// present in both stays present and counts as unchanged. Deleting an
// absent tuple or inserting a present one is a no-op, not an error.
struct FactDelta {
  std::vector<Atom> inserts;
  std::vector<Atom> deletes;
  bool empty() const { return inserts.empty() && deletes.empty(); }
};

// Per-batch maintenance statistics, surfaced through EXPLAIN/ANALYZE, the
// slow-query log, and the E12 benchmark.
struct MaintainStats {
  int64_t version = 0;          // snapshot version this batch produced
  bool recomputed = false;      // fell back to a full fixpoint recompute
  int64_t edb_inserted = 0;     // net EDB tuples inserted
  int64_t edb_deleted = 0;      // net EDB tuples deleted
  int64_t idb_inserted = 0;     // IDB tuples that became live
  int64_t idb_deleted = 0;      // IDB tuples that died
  int64_t over_deleted = 0;     // DRed: tuples tentatively deleted
  int64_t rederived = 0;        // DRed: over-deleted tuples rescued
  int64_t count_updates = 0;    // counting strata: derivation-count changes
  int strata_incremental = 0;   // strata maintained by counting/DRed
  int strata_recomputed = 0;    // strata recomputed from scratch
  int strata_skipped = 0;       // strata untouched by the batch
  int64_t maintain_ns = 0;

  // Fraction of tentative DRed deletions that were rescued: wasted
  // over-deletion work. 0 when DRed never ran.
  double over_deletion_ratio() const {
    return over_deleted == 0 ? 0.0
                             : double(rederived) / double(over_deleted);
  }

  // Folds another batch's stats into this one (version/recomputed keep the
  // most recent batch's values). Used for multi-batch totals.
  void Accumulate(const MaintainStats& other);

  std::string ToString() const;
  // One line for the slow-query log / CLI batch output.
  std::string Summary() const;
};

// The static maintenance plan for one program, built on top of its
// CompiledProgram: the compiled strata (Program::Stratify's SCCs) are the
// maintenance strata, and a stratum is maintained by DRed exactly when it is
// recursive, i.e. has delta plans. The plan adds the per-rule delta and
// support plans maintenance needs beyond evaluation's, lowered to bytecode,
// and the predicate sets used to skip untouched strata. Built once per
// materialized view; immutable afterwards.
struct MaintenancePlan {
  // Per program rule, plans for every way a delta can enter its body.
  struct RuleMaint {
    int rule_index = -1;
    // Parallel to rule.body. delta_plans[i] evaluates the body with the
    // delta at position i (a negated literal is flipped positive there: the
    // delta of "not B" is a scan over the finite change to B).
    std::vector<CompiledRule> delta_plans;
    std::vector<uint8_t> negated;   // rule.body[i].negated
    std::vector<PredId> body_pred;  // rule.body[i].atom.pred()
    // Full-body plan compiled with the head registers bound; DRed support
    // checks seed them from a candidate tuple.
    CompiledRule support_plan;
  };

  // Parallel to CompiledProgram::strata.
  struct Stratum {
    std::set<PredId> heads;
    std::set<PredId> body_preds;  // positive and negated, all strata
  };

  std::vector<Stratum> strata;
  std::vector<RuleMaint> rules;     // indexed by program rule index
  // Max CompiledRule::num_regs over these plans and the compiled program's,
  // for the register file.
  int max_regs = 0;
};

// `compiled` must be CompileProgram(program).
MaintenancePlan BuildMaintenancePlan(const Program& program,
                                     const CompiledProgram& compiled);

// The warm state a MaterializedView maintains: the versioned EDB, the
// materialized (versioned, counted) IDB, and the snapshot version both are
// currently stamped at. Invariant between batches: idb is exactly the
// fixpoint of the program over edb's live tuples, and every live tuple of a
// counting-stratum predicate carries its exact derivation count.
struct MaterializedState {
  Database edb;
  Database idb;
  int64_t version = 0;
};

// Builds the initial state at version 0: `edb` becomes the versioned EDB,
// the compiled program's fixpoint over it the IDB, and every counting
// (non-recursive) stratum's derivation counts are seeded by running its
// compiled full plans. The recompute fallback of ApplyDeltaToState goes
// through the same evaluation and count seeding.
Result<MaterializedState> MaterializeState(const Program& program,
                                           const CompiledProgram& compiled,
                                           const MaintenancePlan& plan,
                                           Database edb);

struct ApplyDeltaOptions {
  // Recompute from scratch when the net EDB change exceeds this fraction
  // of the live EDB (incremental maintenance stops paying off well before
  // the delta approaches the database size).
  double recompute_fraction = 0.25;
  // Always recompute (benchmark baseline / escape hatch).
  bool force_recompute = false;
};

// Applies one batch: nets `delta` against the EDB, bumps the version, and
// brings the IDB to the fixpoint of the new EDB — incrementally per
// stratum (counting or DRed), or via the recompute fallback. On success
// state->version advanced by one and the returned stats describe the work;
// an empty net batch returns immediately without a version bump. Errors
// (non-ground atoms, arity mismatches, IDB predicates in the delta) leave
// the state untouched. `compiled` and `plan` are the ones `state` was
// materialized with.
Result<MaintainStats> ApplyDeltaToState(const Program& program,
                                        const CompiledProgram& compiled,
                                        const MaintenancePlan& plan,
                                        const FactDelta& delta,
                                        const ApplyDeltaOptions& options,
                                        MaterializedState* state);

}  // namespace sqod

#endif  // SQOD_EVAL_MAINTAIN_H_
