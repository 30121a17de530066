#include "src/engine/session.h"

#include <condition_variable>
#include <mutex>
#include <utility>

#include "src/engine/engine.h"
#include "src/engine/view.h"
#include "src/sqo/pass_manager.h"

namespace sqod {

// The prepare slot is single-flight under `prepare_mu`: the caller that
// finds `inflight` null and nothing published runs the pipeline, everyone
// else waits on `prepare_cv` for that run. The frozen base-EDB snapshot and
// the view are built single-flight under `view_mu` (materialization is rare
// and expensive; serializing it is fine and keeps the slot simple).
struct Session::State {
  // One pipeline run: `done` flips exactly once, under prepare_mu; a
  // failed run leaves its status here for the callers that waited on it.
  struct Run {
    bool done = false;
    Status status;
  };

  std::mutex prepare_mu;
  std::condition_variable prepare_cv;
  std::unique_ptr<const PreparedProgram> prepared;  // set once, then fixed
  std::shared_ptr<Run> inflight;

  mutable std::mutex view_mu;
  std::unique_ptr<Database> shared_edb;
  std::unique_ptr<MaterializedView> view;
};

Result<PreparedProgram> PrepareProgram(const Program& program,
                                       const std::vector<Constraint>& ics,
                                       const SqoOptions& options) {
  PassManager manager(options);
  Result<SqoReport> report = manager.Run(program, ics);

  // Outside the rewriting's theory (kUnsupported), or when an optimizer
  // limit cut the run short (kResourceExhausted), the served program is P
  // itself; every other pipeline error fails the call.
  PreparedProgram prepared;
  const StatusCode code = report.status().code();
  if (code == StatusCode::kUnsupported ||
      code == StatusCode::kResourceExhausted) {
    prepared.fallback = report.status();
    prepared.report.rewritten = program;
    prepared.lowered.program = program;
    prepared.lowered.rules_before = static_cast<int>(program.rules().size());
  } else if (!report.ok()) {
    return report.status();
  } else {
    prepared.report = std::move(report).value();
    prepared.lowered = LowerProgram(prepared.report);
    prepared.report.provenance = {};  // read by the lowering only
    if (options.metrics != nullptr) {
      options.metrics->GetGauge("sqo/phase/lower_ns")
          ->Set(prepared.lowered.lower_ns);
    }
  }

  // A program that does not compile (one that does not stratify) fails
  // like an optimizer error.
  Result<CompiledProgram> bytecode = CompileProgram(prepared.program());
  if (!bytecode.ok()) {
    return bytecode.status().WithContext("compiling the served program");
  }
  auto compiled =
      std::make_shared<CompiledProgram>(std::move(bytecode).value());
  if (options.metrics != nullptr) {
    options.metrics->GetGauge("sqo/phase/plan_compile_ns")
        ->Set(compiled->compile_ns);
    options.metrics->GetCounter("eval/compile_ns")->Add(compiled->compile_ns);
  }
  prepared.compiled = std::move(compiled);
  return prepared;
}

Session::Session(Engine* engine, ParsedUnit unit)
    : engine_(engine),
      unit_(std::move(unit)),
      state_(std::make_unique<State>()) {}

Session::Session(Session&&) noexcept = default;
Session& Session::operator=(Session&&) noexcept = default;
Session::~Session() = default;

Database Session::MakeEdb() const {
  Database edb;
  for (const Atom& fact : unit_.facts) edb.InsertAtom(fact);
  return edb;
}

const Database& Session::SharedEdb() {
  std::lock_guard<std::mutex> lock(state_->view_mu);
  if (state_->shared_edb == nullptr) {
    state_->shared_edb = std::make_unique<Database>(MakeEdb());
    state_->shared_edb->Freeze();
  }
  return *state_->shared_edb;
}

Result<MaterializedView*> Session::Materialize(
    const PreparedProgram& prepared) {
  {
    std::lock_guard<std::mutex> lock(state_->prepare_mu);
    if (&prepared != state_->prepared.get()) {
      return Status::InvalidArgument(
          "Materialize takes the session's own prepared program "
          "(Session::Prepare)");
    }
  }
  std::lock_guard<std::mutex> lock(state_->view_mu);
  if (state_->view != nullptr) return state_->view.get();

  engine_->metrics().GetCounter("engine/views_materialized")->Increment();
  Result<std::unique_ptr<MaterializedView>> view =
      MaterializedView::Create(prepared, MakeEdb());
  if (!view.ok()) return view.status();
  state_->view = std::move(view).value();
  return state_->view.get();
}

bool Session::has_view() const {
  std::lock_guard<std::mutex> lock(state_->view_mu);
  return state_->view != nullptr;
}

Result<const PreparedProgram*> Session::Prepare(Tracer* tracer,
                                                bool* cache_hit) {
  if (cache_hit != nullptr) *cache_hit = false;
  MetricsRegistry& metrics = engine_->metrics();

  // Return the published program, join the in-flight run, or become the
  // caller that runs the pipeline.
  std::shared_ptr<State::Run> run;
  {
    std::unique_lock<std::mutex> lock(state_->prepare_mu);
    if (state_->prepared == nullptr && state_->inflight != nullptr) {
      metrics.GetCounter("engine/prepare_single_flight_waits")->Increment();
      std::shared_ptr<State::Run> joined = state_->inflight;
      state_->prepare_cv.wait(lock, [&] { return joined->done; });
      if (state_->prepared == nullptr) return joined->status;
    }
    if (state_->prepared != nullptr) {
      metrics.GetCounter("engine/prepare_cache_hits")->Increment();
      if (cache_hit != nullptr) *cache_hit = true;
      return state_->prepared.get();
    }
    run = state_->inflight = std::make_shared<State::Run>();
  }

  metrics.GetCounter("engine/prepare_cache_misses")->Increment();
  metrics.GetCounter("engine/pipeline_runs")->Increment();
  SqoOptions options;
  options.tracer = tracer != nullptr ? tracer : engine_->tracer();
  options.metrics = &metrics;
  Result<PreparedProgram> prepared =
      PrepareProgram(unit_.program, unit_.constraints, options);

  std::lock_guard<std::mutex> lock(state_->prepare_mu);
  if (prepared.ok()) {
    state_->prepared =
        std::make_unique<const PreparedProgram>(std::move(prepared).value());
  } else {
    run->status = prepared.status();
  }
  run->done = true;
  state_->inflight = nullptr;
  state_->prepare_cv.notify_all();
  if (!run->status.ok()) return run->status;
  return state_->prepared.get();
}

Result<std::vector<Tuple>> Session::Run(const Program& program,
                                        const Database& edb,
                                        EvalOptions options, EvalStats* stats,
                                        std::vector<RuleProfile>* profiles) {
  if (options.tracer == nullptr) options.tracer = engine_->tracer();
  if (options.metrics == nullptr) options.metrics = &engine_->metrics();
  engine_->metrics().GetCounter("engine/executions")->Increment();
  return EvaluateQuery(program, edb, options, stats, profiles);
}

Result<std::vector<Tuple>> Session::Execute(
    const PreparedProgram& prepared, const Database& edb, EvalOptions options,
    EvalStats* stats, std::vector<RuleProfile>* profiles) {
  // Thread the prepare-time compiled artifact into the evaluation (unless
  // the caller pinned its own), so warm executions skip plan lowering.
  if (options.compiled == nullptr) {
    options.compiled = prepared.compiled.get();
  }
  return Run(prepared.program(), edb, std::move(options), stats, profiles);
}

Result<std::vector<Tuple>> Session::ExecuteOriginal(
    const Database& edb, EvalOptions options, EvalStats* stats,
    std::vector<RuleProfile>* profiles) {
  return Run(unit_.program, edb, std::move(options), stats, profiles);
}

}  // namespace sqod
