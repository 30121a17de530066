#include "src/engine/session.h"

#include <algorithm>
#include <utility>

#include "src/engine/engine.h"
#include "src/engine/view.h"
#include "src/sqo/pass_manager.h"

namespace sqod {

// Lazily built shared state: the frozen base-EDB snapshot and the
// materialized views, both single-flight under one mutex (materialization
// is rare and expensive; serializing it is fine and keeps the slot simple).
struct Session::ViewCache {
  std::mutex mu;
  std::unique_ptr<Database> shared_edb;
  std::unordered_map<uint64_t, std::unique_ptr<MaterializedView>> views;
};

namespace {

uint64_t Fnv1a64(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

Session::Session(Engine* engine, ParsedUnit unit)
    : engine_(engine),
      unit_(std::move(unit)),
      cache_(std::make_unique<PrepareCache>()),
      views_(std::make_unique<ViewCache>()) {}

Session::Session(Session&&) noexcept = default;
Session& Session::operator=(Session&&) noexcept = default;
Session::~Session() = default;

Database Session::MakeEdb() const {
  Database edb;
  for (const Atom& fact : unit_.facts) edb.InsertAtom(fact);
  return edb;
}

const Database& Session::SharedEdb() {
  std::lock_guard<std::mutex> lock(views_->mu);
  if (views_->shared_edb == nullptr) {
    views_->shared_edb = std::make_unique<Database>(MakeEdb());
    views_->shared_edb->Freeze();
  }
  return *views_->shared_edb;
}

Result<MaterializedView*> Session::Materialize(
    const PreparedProgram& prepared) {
  std::lock_guard<std::mutex> lock(views_->mu);
  auto it = views_->views.find(prepared.cache_key);
  if (it != views_->views.end()) return it->second.get();

  engine_->metrics().GetCounter("engine/views_materialized")->Increment();
  Result<std::unique_ptr<MaterializedView>> view =
      MaterializedView::Create(prepared, MakeEdb());
  if (!view.ok()) return view.status();
  MaterializedView* result = view.value().get();
  views_->views.emplace(prepared.cache_key, std::move(view).value());
  engine_->metrics().GetGauge("engine/materialized_views")
      ->Set(static_cast<int64_t>(views_->views.size()));
  return result;
}

std::string Session::Fingerprint(const SqoOptions& options) const {
  // Canonical, semantically complete rendering of (program, ICs, options).
  // Observability pointers are deliberately excluded: they change where
  // diagnostics go, never what plan comes out.
  std::string fp = unit_.program.ToString();
  fp += "\n--ics--\n";
  for (const Constraint& ic : unit_.constraints) {
    fp += ic.ToString();
    fp += '\n';
  }
  fp += "--options--\n";
  fp += "max_apreds=" + std::to_string(options.adorn.max_adorned_preds) + ";";
  fp += "max_arules=" + std::to_string(options.adorn.max_adorned_rules) + ";";
  fp += "max_classes=" + std::to_string(options.tree.max_classes) + ";";
  fp += "max_local=" + std::to_string(options.max_local_rewrite_rules) + ";";
  // Not semantics, but it changes what the cached report carries.
  fp += "dumps=" + std::to_string(options.capture_dumps) + ";";
  std::vector<std::string> disabled = options.disabled_passes;
  std::sort(disabled.begin(), disabled.end());
  disabled.erase(std::unique(disabled.begin(), disabled.end()),
                 disabled.end());
  fp += "disabled=";
  for (const std::string& name : disabled) {
    fp += name;
    fp += ',';
  }
  return fp;
}

Result<const PreparedProgram*> Session::Prepare(const SqoOptions& options) {
  bool cache_hit = false;
  return Prepare(options, &cache_hit);
}

Result<const PreparedProgram*> Session::Prepare(const SqoOptions& options,
                                                bool* cache_hit) {
  *cache_hit = false;
  MetricsRegistry& metrics = engine_->metrics();
  std::string fp = Fingerprint(options);

  // Claim or join the cache slot for this fingerprint. Exactly one caller
  // (the one that created the slot) runs the pipeline; everyone else either
  // returns the published plan immediately or blocks on the in-flight run.
  std::shared_ptr<CacheEntry> entry;
  bool owner = false;
  {
    std::unique_lock<std::mutex> lock(cache_->mu);
    std::shared_ptr<CacheEntry>& slot = cache_->entries[fp];
    if (slot == nullptr) {
      slot = std::make_shared<CacheEntry>();
      owner = true;
    }
    entry = slot;
    if (!owner) {
      if (!entry->done) {
        metrics.GetCounter("engine/prepare_single_flight_waits")->Increment();
        cache_->cv.wait(lock, [&] { return entry->done; });
      }
      if (entry->prepared != nullptr) {
        metrics.GetCounter("engine/prepare_cache_hits")->Increment();
        *cache_hit = true;
        return const_cast<const PreparedProgram*>(entry->prepared.get());
      }
      // The in-flight run failed; its slot has been removed, so a later
      // Prepare retries from scratch.
      return entry->status;
    }
  }

  metrics.GetCounter("engine/prepare_cache_misses")->Increment();
  metrics.GetCounter("engine/pipeline_runs")->Increment();

  SqoOptions run_options = options;
  if (run_options.tracer == nullptr) run_options.tracer = engine_->tracer();
  if (run_options.metrics == nullptr) run_options.metrics = &metrics;
  PassManager manager(run_options);
  Result<SqoReport> report = manager.Run(unit_.program, unit_.constraints);

  // Lower P' to the served program and compile that to bytecode while no
  // lock is held; both ride in the cache entry so warm executions and
  // materialized views never redo them. Outside the rewriting's theory
  // (kUnsupported) the served program is P itself, cached like a rewriting.
  // A program that does not compile (one that does not stratify) fails
  // Prepare like an optimizer error.
  Status status = report.status();
  Status fallback;
  LoweredProgram lowered;
  std::shared_ptr<const CompiledProgram> compiled;
  if (status.code() == StatusCode::kUnsupported) {
    fallback = std::exchange(status, Status::Ok());
    SqoReport original;
    original.rewritten = unit_.program;
    report = std::move(original);
    lowered.program = unit_.program;
    lowered.rules_before = static_cast<int>(unit_.program.rules().size());
  } else if (status.ok()) {
    lowered = LowerProgram(report.value());
    metrics.GetGauge("sqo/phase/lower_ns")->Set(lowered.lower_ns);
  }
  if (status.ok()) {
    Result<CompiledProgram> bytecode = CompileProgram(lowered.program);
    if (bytecode.ok()) {
      auto owned =
          std::make_shared<CompiledProgram>(std::move(bytecode).value());
      metrics.GetGauge("sqo/phase/plan_compile_ns")->Set(owned->compile_ns);
      metrics.GetCounter("eval/compile_ns")->Add(owned->compile_ns);
      compiled = std::move(owned);
    } else {
      status = bytecode.status().WithContext("compiling the served program");
    }
  }

  std::lock_guard<std::mutex> lock(cache_->mu);
  if (!status.ok()) {
    entry->done = true;
    entry->status = status;
    cache_->entries.erase(fp);
    cache_->cv.notify_all();
    return status;
  }

  auto prepared = std::make_unique<PreparedProgram>();
  prepared->cache_key = Fnv1a64(fp);
  prepared->fallback = std::move(fallback);
  prepared->report = std::move(report).value();
  prepared->report.provenance = {};  // read by the lowering only
  prepared->lowered = std::move(lowered);
  prepared->compiled = std::move(compiled);
  const PreparedProgram* result = prepared.get();
  entry->prepared = std::move(prepared);
  entry->done = true;
  cache_->cv.notify_all();
  metrics.GetGauge("engine/prepared_programs")
      ->Set(static_cast<int64_t>(cache_->entries.size()));
  return result;
}

size_t Session::cache_size() const {
  std::lock_guard<std::mutex> lock(cache_->mu);
  return cache_->entries.size();
}

bool Session::has_views() const {
  std::lock_guard<std::mutex> lock(views_->mu);
  return !views_->views.empty();
}

void Session::ClearCache() {
  {
    // Views pin PreparedPrograms, so they go first.
    std::lock_guard<std::mutex> lock(views_->mu);
    views_->views.clear();
  }
  std::lock_guard<std::mutex> lock(cache_->mu);
  cache_->entries.clear();
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
  // Thread the Prepare-time compiled artifact into the evaluation (unless
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
