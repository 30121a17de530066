#ifndef SQOD_BENCH_BENCH_COMMON_H_
#define SQOD_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <cstring>
#include <utility>

#include "src/base/check.h"
#include "src/engine/engine.h"
#include "src/obs/metrics.h"
#include "src/workload/graphs.h"
#include "src/workload/programs.h"

namespace sqod {

// Evaluates `program` on `edb` through an engine session, reports work
// counters on `state`, and returns the query answers (to keep the optimizer
// honest). Counters are sourced from the engine's MetricsRegistry (the
// CLI's --stats-json carries the same eval/ counters); the evaluator's
// eval/iterations is reported as `fixpoint_iterations`, since google
// benchmark's JSON already uses `iterations` for its loop count.
inline std::vector<Tuple> RunAndReport(const Program& program,
                                       const Database& edb,
                                       benchmark::State& state) {
  MetricsRegistry metrics;
  EngineOptions engine_options;
  engine_options.metrics = &metrics;
  Engine engine(engine_options);
  Result<Session> session = engine.Open(program, {});
  SQOD_CHECK_MSG(session.ok(), session.status().message().c_str());
  Result<std::vector<Tuple>> answers = session.value().ExecuteOriginal(edb);
  SQOD_CHECK_MSG(answers.ok(), answers.status().message().c_str());
  auto counter = [&](const char* name) {
    return static_cast<double>(metrics.GetCounter(name)->value());
  };
  state.counters["fixpoint_iterations"] = counter("eval/iterations");
  state.counters["derived"] = counter("eval/tuples_derived");
  state.counters["duplicates"] = counter("eval/duplicate_derivations");
  state.counters["probes"] = counter("eval/join_probes");
  state.counters["answers"] = static_cast<double>(answers.value().size());
  // Plan-lowering cost and executed bytecode ops, per iteration like the
  // other counters.
  state.counters["compile_ns"] = counter("eval/compile_ns");
  state.counters["bytecode_ops"] = counter("eval/bytecode_ops");
  return answers.take();
}

// Prepares (optimizes, lowers and compiles) the program with PrepareProgram,
// the path a session takes; CHECK-fails on error, and on a program served
// as P (PreparedProgram::fallback: outside the rewriting's theory, or an
// optimizer limit hit). With `state`, attaches a MetricsRegistry and
// reports per-phase wall time ("opt_<phase>_ns") alongside the benchmark's
// own timings. The "Rewritten"/"Served" rows evaluate its program(): the
// program a session serves, P' lowered (src/sqo/lower.h).
inline PreparedProgram MustPrepare(const Program& program,
                                   const std::vector<Constraint>& ics,
                                   SqoOptions options = {},
                                   benchmark::State* state = nullptr) {
  MetricsRegistry metrics;
  if (state != nullptr) options.metrics = &metrics;
  Result<PreparedProgram> prepared = PrepareProgram(program, ics, options);
  SQOD_CHECK_MSG(prepared.ok(), prepared.status().message().c_str());
  SQOD_CHECK_MSG(prepared.value().fallback.ok(),
                 prepared.value().fallback.message().c_str());
  if (state != nullptr) {
    for (const auto& [name, gauge] : metrics.gauges()) {
      // "sqo/phase/adorn_ns" -> counter "opt_adorn_ns".
      constexpr const char* kPhasePrefix = "sqo/phase/";
      if (name.rfind(kPhasePrefix, 0) == 0) {
        state->counters["opt_" + name.substr(std::strlen(kPhasePrefix))] =
            static_cast<double>(gauge->value());
      }
    }
  }
  return prepared.take();
}

// The optimizer report alone; its `rewritten` is the paper's P'.
inline SqoReport MustOptimize(const Program& program,
                              const std::vector<Constraint>& ics,
                              SqoOptions options = {},
                              benchmark::State* state = nullptr) {
  return MustPrepare(program, ics, std::move(options), state).report;
}

}  // namespace sqod

#endif  // SQOD_BENCH_BENCH_COMMON_H_
