#ifndef SQOD_ENGINE_VIEW_H_
#define SQOD_ENGINE_VIEW_H_

#include <cstdint>
#include <shared_mutex>
#include <vector>

#include "src/engine/session.h"
#include "src/eval/maintain.h"

namespace sqod {

// A materialized view: one PreparedProgram pinned together with its warm,
// versioned IDB, kept at the fixpoint across EDB deltas (docs/ivm.md).
// Obtained from Session::Materialize — one view per session, of the
// session's own prepared program, owned by the session and valid for its
// lifetime.
//
// Thread-safety contract (the serving layer depends on it):
//  * Answers / version / SnapshotIdb / totals are safe from any number of
//    reader threads concurrently (shared lock).
//  * ApplyDelta takes the exclusive lock: batches serialize with each other
//    and with readers. Readers never observe a half-applied batch — they
//    see snapshot V or V+1, nothing in between.
//  * A reader holds the lock only while ordering and copying answers out
//    (SortedLiveTuples); returned tuples are snapshots, safe to use
//    lock-free afterwards.
class MaterializedView {
 public:
  MaterializedView(const MaterializedView&) = delete;
  MaterializedView& operator=(const MaterializedView&) = delete;

  // The rewritten program this view materializes.
  const Program& program() const { return prepared_->program(); }
  const PreparedProgram& prepared() const { return *prepared_; }
  const MaintenancePlan& plan() const { return plan_; }

  // The snapshot version currently served (0 = the initial
  // materialization; each effective ApplyDelta batch advances it by one).
  int64_t version() const;

  // The query predicate's live tuples, sorted — byte-identical to what
  // Session::Execute would return for the same EDB state, without running
  // the evaluator. `version` (optional) receives the snapshot served.
  std::vector<Tuple> Answers(int64_t* version = nullptr) const;

  // Applies one batch of EDB changes and brings the IDB back to the
  // fixpoint (incrementally, or via the recompute fallback — see
  // ApplyDeltaToState). Returns the batch's maintenance stats. Errors
  // (non-ground atoms, arity mismatches, IDB predicates in the delta)
  // leave the view unchanged.
  Result<MaintainStats> ApplyDelta(const FactDelta& delta);

  // Stats of the last effective batch, and totals across all batches.
  MaintainStats last_batch() const;
  MaintainStats totals() const;
  int64_t batches_applied() const;

  // Deep copies of the live tuples (plain, unversioned databases) — the
  // oracle side of equivalence tests and the CLI's recompute comparison.
  Database SnapshotIdb() const;
  Database SnapshotEdb() const;

 private:
  friend class Session;
  MaterializedView() = default;

  // Builds the view with MaterializeState on the prepared program's
  // compiled plans: a copy of `base` becomes the versioned EDB, the
  // fixpoint over it the IDB, with derivation counts initialized. Called by
  // Session::Materialize with the session's facts.
  static Result<std::unique_ptr<MaterializedView>> Create(
      const PreparedProgram& prepared, const Database& base);

  const PreparedProgram* prepared_ = nullptr;
  MaintenancePlan plan_;
  MaterializedState state_;
  MaintainStats last_;
  MaintainStats totals_;
  int64_t batches_ = 0;
  mutable std::shared_mutex mu_;
};

}  // namespace sqod

#endif  // SQOD_ENGINE_VIEW_H_
