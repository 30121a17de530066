#ifndef SQOD_ENGINE_SESSION_H_
#define SQOD_ENGINE_SESSION_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
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
// unit is outside the rewriting's theory. Owned by the session that
// prepared it; pointers returned by Session::Prepare stay valid for the
// session's lifetime (or until ClearCache). Immutable once published, so
// any number of threads may Execute against it concurrently.
struct PreparedProgram {
  // FNV-1a hash of the canonical fingerprint (program text + ICs + the
  // semantically relevant SqoOptions fields); the cache key.
  uint64_t cache_key = 0;
  // OK when the served program is P'' (P' lowered). Otherwise the
  // pipeline's kUnsupported status (e.g. negation on an IDB predicate, or
  // an IC with a non-local negated atom) and the served program is P, as
  // written: the report is then empty apart from `rewritten` = P, and the
  // lowering made no decision.
  Status fallback;
  // The full optimizer report, including the paper's rewriting P'.
  SqoReport report;
  // P' lowered for serving (src/sqo/lower.h): the program every Execute
  // and Materialize evaluates, plus the lowering's decisions for EXPLAIN.
  LoweredProgram lowered;
  // The served program compiled to register bytecode with per-rule
  // kernels, built once at Prepare and reused by every Execute and by the
  // materialized view's maintenance (the service warm path never
  // re-lowers). Never null: a program that does not compile fails Prepare.
  // Shared and immutable, so concurrent Executes read it without
  // synchronization.
  std::shared_ptr<const CompiledProgram> compiled;

  // The program to execute: P' lowered (its answers contain those of P' on
  // every database and equal those of P on databases satisfying the ICs;
  // src/sqo/lower.h), or P on fallback.
  const Program& program() const { return lowered.program; }
};

// One loaded datalog unit (program + ICs + optional facts) with a cache of
// prepared (optimized) programs. Sessions are movable but not copyable,
// and must not outlive the Engine that opened them.
//
// Thread-safety contract (the serving layer depends on it):
//  * Prepare is safe to call from any number of threads and is
//    single-flight per fingerprint: N concurrent calls with the same
//    (program, ICs, options) fingerprint run the pass pipeline exactly
//    once — one caller optimizes while the rest block on the in-flight
//    entry and then share the published PreparedProgram (observable as
//    engine/pipeline_runs == 1). A unit outside the rewriting's theory is
//    published too, as a program serving P (PreparedProgram::fallback).
//    Other failed runs are not cached; a later Prepare retries.
//  * Execute / ExecuteOriginal / MakeEdb are safe concurrently, provided
//    each thread evaluates against its own Database or the session's
//    frozen SharedEdb() snapshot. A mutable Database must not be shared
//    across evaluating threads (Relation builds join indexes lazily — a
//    data race); the shared snapshot is frozen, so its lazy index builds
//    serialize internally and any number of threads may probe it.
//  * Materialize is single-flight per prepared program: concurrent calls
//    serialize and share one MaterializedView. The view has its own
//    reader/maintainer contract (see view.h).
//  * ClearCache invalidates the pointers Prepare and Materialize returned
//    (views pin their PreparedProgram) and must not run concurrently with
//    Prepare/Materialize or with threads still holding them.
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

  // Runs the optimizer pipeline once per distinct (program, ICs, options)
  // fingerprint and caches the result: preparing the same query twice is a
  // cache hit that performs zero re-optimization. When the pipeline returns
  // kUnsupported, the cached program serves P and carries that status in
  // `fallback`; every other pipeline or compile error fails the call.
  // Hit/miss counts land in the engine's MetricsRegistry
  // ("engine/prepare_cache_{hits,misses}");
  // callers that blocked on another thread's in-flight run also count as
  // hits, plus "engine/prepare_single_flight_waits". The returned pointer
  // is owned by the session.
  Result<const PreparedProgram*> Prepare(const SqoOptions& options = {});

  // Same, and reports whether this call was served from the cache (a hit
  // or a wait on another thread's in-flight run) rather than running the
  // pipeline itself. The serving layer surfaces this per request.
  Result<const PreparedProgram*> Prepare(const SqoOptions& options,
                                         bool* cache_hit);

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

  // The materialized view for `prepared`, building it on first use (one
  // view per prepared program, keyed by its cache key). The view is owned
  // by the session and stays valid until ClearCache. Building runs the
  // initial fixpoint, so the first call pays an Execute-sized cost; later
  // calls return the warm view immediately. Maintenance runs with the
  // ApplyDeltaOptions defaults.
  Result<MaterializedView*> Materialize(const PreparedProgram& prepared);

  // Number of distinct prepared programs cached (in-flight ones included).
  size_t cache_size() const;

  // True once any materialized view exists. A view's delta state cannot be
  // rebuilt from the unit's source, so the serving layer never evicts a
  // session that holds one.
  bool has_views() const;

  // Drops all cached prepared programs (invalidates Prepare pointers).
  void ClearCache();

 private:
  friend class Engine;
  Session(Engine* engine, ParsedUnit unit);

  // One cache slot. `done` flips exactly once, under the cache mutex; on
  // success `prepared` is set, on failure `status` carries the error and
  // the slot is removed from the map (waiters still hold the shared_ptr).
  struct CacheEntry {
    bool done = false;
    Status status;
    std::unique_ptr<PreparedProgram> prepared;
  };

  // The mutex/cv live behind a unique_ptr so the Session stays movable.
  struct PrepareCache {
    std::mutex mu;
    std::condition_variable cv;
    // Keyed by the full fingerprint (not its hash), so colliding hashes
    // can never alias two plans.
    std::unordered_map<std::string, std::shared_ptr<CacheEntry>> entries;
  };

  // Shared-EDB snapshot + materialized views; defined in session.cc so
  // this header needs neither view.h nor a complete MaterializedView.
  struct ViewCache;

  // The canonical fingerprint string hashed into the cache key.
  std::string Fingerprint(const SqoOptions& options) const;

  Result<std::vector<Tuple>> Run(const Program& program, const Database& edb,
                                 EvalOptions options, EvalStats* stats,
                                 std::vector<RuleProfile>* profiles);

  Engine* engine_;
  ParsedUnit unit_;
  std::unique_ptr<PrepareCache> cache_;
  std::unique_ptr<ViewCache> views_;
};

}  // namespace sqod

#endif  // SQOD_ENGINE_SESSION_H_
