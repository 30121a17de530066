#include "src/engine/view.h"

#include <memory>
#include <utility>

namespace sqod {

namespace {

Database CopyLive(const Database& db) {
  Database out;
  for (const auto& [pred, rel] : db.relations()) {
    Relation* dst = out.FindOrCreate(pred, rel.arity());
    for (TupleRef t : rel.rows()) dst->Insert(t);
  }
  return out;
}

}  // namespace

Result<std::unique_ptr<MaterializedView>> MaterializedView::Create(
    const PreparedProgram& prepared, const Database& base) {
  auto view = std::unique_ptr<MaterializedView>(new MaterializedView());
  view->prepared_ = &prepared;
  view->plan_ = BuildMaintenancePlan(prepared.program(), *prepared.compiled);
  // The view owns and mutates its EDB: a copy of `base`.
  Result<MaterializedState> state = MaterializeState(
      prepared.program(), *prepared.compiled, view->plan_, base);
  if (!state.ok()) return state.status();
  view->state_ = std::move(state).value();
  return view;
}

int64_t MaterializedView::version() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return state_.version;
}

std::vector<Tuple> MaterializedView::Answers(int64_t* version) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (version != nullptr) *version = state_.version;
  const PredId query = program().query();
  const Relation* rel = state_.idb.Find(query);
  if (rel == nullptr) rel = state_.edb.Find(query);  // EDB-only query
  if (rel == nullptr) return {};
  return SortedLiveTuples(*rel);
}

Result<MaintainStats> MaterializedView::ApplyDelta(const FactDelta& delta) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  Result<MaintainStats> stats =
      ApplyDeltaToState(program(), *prepared_->compiled, plan_, delta,
                        ApplyDeltaOptions(), &state_);
  if (stats.ok()) {
    last_ = stats.value();
    totals_.Accumulate(last_);
    ++batches_;
  }
  return stats;
}

MaintainStats MaterializedView::last_batch() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return last_;
}

MaintainStats MaterializedView::totals() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return totals_;
}

int64_t MaterializedView::batches_applied() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return batches_;
}

Database MaterializedView::SnapshotIdb() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return CopyLive(state_.idb);
}

Database MaterializedView::SnapshotEdb() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return CopyLive(state_.edb);
}

}  // namespace sqod
