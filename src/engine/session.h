#ifndef SQOD_ENGINE_SESSION_H_
#define SQOD_ENGINE_SESSION_H_

#include <memory>
#include <vector>

#include "src/base/status.h"
#include "src/eval/bytecode.h"
#include "src/eval/evaluator.h"
#include "src/parser/parser.h"
#include "src/sqo/lower.h"
#include "src/sqo/optimizer.h"

namespace sqod {

class Engine;
class MaterializedView;

// A program ready for repeated execution: P' lowered, or P itself when the
// unit is outside the rewriting's theory or the optimizer ran out of
// budget. Session::Prepare publishes one per session, valid for the
// session's lifetime; PrepareProgram returns one by value. Immutable once
// built, so any number of threads may Execute against it concurrently.
struct PreparedProgram {
  // OK when the served program is P'' (P' lowered). Otherwise the
  // pipeline's status, and the served program is P as written: kUnsupported
  // (e.g. negation on an IDB predicate, or an IC with a non-local negated
  // atom) or kResourceExhausted (an optimizer limit such as
  // QueryTreeOptions::max_classes was hit). The report is then empty apart
  // from `rewritten` = P, and the lowering made no decision.
  Status fallback;
  // The full optimizer report, including the paper's rewriting P'.
  SqoReport report;
  // P' lowered for serving (src/sqo/lower.h): the program every Execute
  // and Materialize evaluates, plus the lowering's decisions for EXPLAIN.
  LoweredProgram lowered;
  // The served program compiled to register bytecode with per-rule
  // kernels, built once at prepare time and reused by every Execute and by
  // the materialized view's maintenance (the service warm path never
  // re-lowers). Never null: a program that does not compile fails the
  // prepare. Shared and immutable, so concurrent Executes read it without
  // synchronization.
  std::shared_ptr<const CompiledProgram> compiled;

  // The program to execute: P' lowered (its answers contain those of P' on
  // every database and equal those of P on databases satisfying the ICs;
  // src/sqo/lower.h), or P on fallback.
  const Program& program() const { return lowered.program; }
};

// The one prepare path: runs the pass pipeline on (program, ics) with
// `options`, decides whether to serve P'' or P (the fallback above), then
// lowers and compiles the served program. A pipeline kUnsupported or
// kResourceExhausted yields a program serving P; any other pipeline error
// (e.g. an unknown name in disabled_passes) and a compile error (a program
// that does not stratify) fail the call. With options.metrics set, the
// lowering and compile times land in "sqo/phase/{lower,plan_compile}_ns"
// and "eval/compile_ns".
//
// Session::Prepare calls this with the default options and caches the
// result. Ablations (disabled passes, diagnostic dumps, tighter limits) call
// it directly and own what it returns; such a program can be executed on a
// session (Session::Execute) but not materialized.
Result<PreparedProgram> PrepareProgram(const Program& program,
                                       const std::vector<Constraint>& ics,
                                       const SqoOptions& options = {});

// One loaded datalog unit (program + ICs + optional facts) with its one
// prepared program and at most one materialized view. P'' depends only on
// (P, C), so the session prepares once with the default optimizer options
// and every later call shares the result. Sessions are movable but not
// copyable, and must not outlive the Engine that opened them.
//
// Thread-safety contract (the serving layer depends on it):
//  * Prepare is safe to call from any number of threads and is
//    single-flight: N concurrent calls run the pass pipeline exactly
//    once — one caller prepares while the rest block on it and then share
//    the published PreparedProgram (observable as engine/pipeline_runs ==
//    1). A program serving P (PreparedProgram::fallback) is published too.
//    A failed run publishes nothing; a later Prepare retries.
//  * Execute / ExecuteOriginal / MakeEdb are safe concurrently, provided
//    each thread evaluates against its own Database or the session's
//    frozen SharedEdb() snapshot. A mutable Database must not be shared
//    across evaluating threads (Relation builds join indexes lazily — a
//    data race); the shared snapshot is frozen, so its lazy index builds
//    serialize internally and any number of threads may probe it.
//  * Materialize is single-flight: concurrent calls serialize and share
//    the session's one MaterializedView. The view has its own
//    reader/maintainer contract (see view.h).
class Session {
 public:
  Session(Session&&) noexcept;
  Session& operator=(Session&&) noexcept;
  ~Session();

  const Program& program() const { return unit_.program; }
  const std::vector<Constraint>& ics() const { return unit_.constraints; }
  const std::vector<Atom>& facts() const { return unit_.facts; }

  // Materializes the unit's facts as an EDB (a fresh mutable copy).
  Database MakeEdb() const;

  // The unit's facts as one immutable frozen snapshot, built lazily on
  // first use and shared by every caller after: the serving layer's warm
  // path reads it concurrently instead of copying the EDB per request.
  const Database& SharedEdb();

  // The session's prepared program: PrepareProgram with the default
  // options, run once and cached, so preparing again is a hit that performs
  // zero re-optimization. The optimizer's spans go to `tracer`, or to the
  // engine's tracer when null. Hit/miss counts land in the engine's
  // MetricsRegistry ("engine/prepare_cache_{hits,misses}"); callers that
  // blocked on another thread's in-flight run also count as hits, plus
  // "engine/prepare_single_flight_waits". `cache_hit` (optional) reports
  // whether this call was served that way rather than running the
  // pipeline itself; the serving layer surfaces it per request. The
  // returned pointer is owned by the session.
  Result<const PreparedProgram*> Prepare(Tracer* tracer = nullptr,
                                         bool* cache_hit = nullptr);

  // Evaluates the prepared (rewritten) program against `edb` and returns
  // the query predicate's tuples, sorted. The engine's tracer/metrics are
  // threaded into the evaluation unless `options` already carries its own.
  Result<std::vector<Tuple>> Execute(
      const PreparedProgram& prepared, const Database& edb,
      EvalOptions options = {}, EvalStats* stats = nullptr,
      std::vector<RuleProfile>* profiles = nullptr);

  // Same, but evaluates the session's original (unoptimized) program —
  // the baseline side of every "does the rewriting pay off" comparison.
  Result<std::vector<Tuple>> ExecuteOriginal(
      const Database& edb, EvalOptions options = {},
      EvalStats* stats = nullptr,
      std::vector<RuleProfile>* profiles = nullptr);

  // The session's materialized view of `prepared`, which must be this
  // session's own Prepare() result (anything else is kInvalidArgument).
  // The first call builds it, paying the initial fixpoint (an
  // Execute-sized cost); later calls return the warm view immediately. The
  // view is owned by the session. Maintenance runs with the
  // ApplyDeltaOptions defaults.
  Result<MaterializedView*> Materialize(const PreparedProgram& prepared);

  // True once the view exists. Its delta state cannot be rebuilt from the
  // unit's source, so the serving layer never evicts a session that holds
  // one.
  bool has_view() const;

 private:
  friend class Engine;
  Session(Engine* engine, ParsedUnit unit);

  // The prepared-program slot and the lazily built shared EDB and view;
  // defined in session.cc so this header needs neither view.h nor a
  // complete MaterializedView. Behind a unique_ptr so the Session stays
  // movable (it holds mutexes).
  struct State;

  Result<std::vector<Tuple>> Run(const Program& program, const Database& edb,
                                 EvalOptions options, EvalStats* stats,
                                 std::vector<RuleProfile>* profiles);

  Engine* engine_;
  ParsedUnit unit_;
  std::unique_ptr<State> state_;
};

}  // namespace sqod

#endif  // SQOD_ENGINE_SESSION_H_
