#ifndef SQOD_ENGINE_ENGINE_H_
#define SQOD_ENGINE_ENGINE_H_

#include <string_view>
#include <vector>

#include "src/base/status.h"
#include "src/engine/session.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/parser/parser.h"

namespace sqod {

// The single reusable entry point over parser -> pass manager -> evaluator.
// An Engine holds the process-wide plumbing (metrics registry, tracer);
// Engine::Open parses/adopts one datalog unit into a Session, which
// prepares (optimizes) and executes queries against it. The intended shape
// for a server: one Engine per process, one Session per loaded program,
// many Prepare/Execute calls per session. A session prepares its unit once
// (the paper's P' depends only on the program and its ICs), so repeated
// Prepare calls return the one cached prepared program and never re-run
// the optimizer; ablations with non-default SqoOptions go through
// PrepareProgram (session.h) instead.
//
// Lifetime: an Engine must outlive every Session it opened.

struct EngineOptions {
  // External observability sinks. When null the engine owns private ones;
  // pass the CLI's/server's instances to fold engine counters (cache
  // hits/misses, executions) into one export.
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
};

class Engine {
 public:
  explicit Engine(EngineOptions options = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Parses `source` (rules, ICs, facts, query declaration) into a session.
  // Parse/validation errors surface with StatusCode::kInvalidArgument.
  Result<Session> Open(std::string_view source);

  // Adopts an already-parsed unit.
  Result<Session> Open(ParsedUnit unit);

  // Convenience for programmatically-built workloads (benches, tests).
  Result<Session> Open(Program program, std::vector<Constraint> ics,
                       std::vector<Atom> facts = {});

  // The engine's metrics registry: the external one when provided,
  // otherwise the engine-owned instance. Counters published here:
  //   engine/sessions_opened     sessions created by Open
  //   engine/prepare_cache_hits  Prepare calls served from the cache
  //   engine/prepare_cache_misses  Prepare calls that ran the pipeline
  //   engine/pipeline_runs       actual pass-pipeline executions
  //   engine/executions          Execute calls
  //   engine/views_materialized  views built by Materialize
  MetricsRegistry& metrics() {
    return options_.metrics != nullptr ? *options_.metrics : owned_metrics_;
  }

  // The engine's tracer, or nullptr when none was provided (the engine
  // does not own a tracer: tracing is opt-in by the embedder).
  Tracer* tracer() { return options_.tracer; }

 private:
  EngineOptions options_;
  MetricsRegistry owned_metrics_;
};

}  // namespace sqod

#endif  // SQOD_ENGINE_ENGINE_H_
