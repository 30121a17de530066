// sqo_cli — the optimizer as a command-line filter.
//
// Reads a datalog unit (rules, ICs, optional facts, a `?- q.` query
// declaration) from a file or stdin, opens it as an engine session, runs
// the semantic query optimization pass pipeline, and prints the rewritten
// program. Options expose the intermediate artifacts, the pass manager,
// and the observability layer.
//
//   usage: sqo_cli [--p1] [--tree] [--dot] [--adornments] [--eval]
//                  [--profile] [--passes]
//                  [--explain] [--analyze[=FILE]]
//                  [--facts=FILE] [--apply-delta=FILE]
//                  [--disable-pass=NAME ...] [--reprepare] [--trace=FILE]
//                  [--stats-json=FILE] <file|->
//          sqo_cli --serve-batch [--threads=N] [--requests=R]
//                  [--deadline-ms=D] [--max-queue=Q]
//                  [--slow-ms=S] [--metrics-snapshot-ms=M] [--trace=FILE]
//                  [--stats-json=FILE] <file|->
//          sqo_cli --list-passes
//          sqo_cli --check-json=FILE
//
//     --p1          print the bottom-up adorned program P1 instead of P'
//     --tree        print the query tree (the Figure 1 artifact)
//     --dot         print the query tree as Graphviz dot
//     --adornments  print the adorned predicates and their triplets
//     --eval        if the unit contains facts, evaluate both programs and
//                   report answers + work counters
//     --profile     per-rule profile tables (with --eval, for both the
//                   original and rewritten program) and a span-tree summary
//     --passes      print the per-pass report (ran/disabled/skipped, wall
//                   time, rules after) for this run
//     --explain     EXPLAIN: the per-pass delta table (rules, literals,
//                   negations, comparisons) and the plan summary (adorned
//                   sizes, goal classes, residue and interning work)
//     --analyze[=FILE]  EXPLAIN ANALYZE: --explain joined with what the
//                   rewritten program actually did — implies --eval when
//                   the unit has facts; adds per-rule runtime rows
//                   (firings, derivations, wall time against the rule
//                   text). With =FILE, also writes the report as JSON
//     --facts=FILE  merge additional ground facts (plain `p(1, 2).` lines)
//                   into the unit's EDB before anything runs; applies to
//                   every mode, so a large base EDB can live next to a
//                   small rules file
//     --apply-delta=FILE  materialize the unit's query as an incremental
//                   view, then replay a change stream against it. The file
//                   holds batches of fact changes:
//                       batch            # starts the next batch
//                       +edge(5, 6).     # insert
//                       -edge(1, 2).     # delete
//                   After every batch the maintained answers are checked
//                   against a from-scratch recompute of the same EDB, and
//                   the maintain-vs-recompute wall times are printed per
//                   batch (nonzero exit on any mismatch). With --analyze,
//                   the maintenance totals join the EXPLAIN report
//     --list-passes print the pipeline's pass names, in order, and exit
//     --disable-pass=NAME  switch off one pass (repeatable); NAME is any
//                   entry of --list-passes. In-process only: the server
//                   prepares every unit with the default options, so
//                   combining it with --serve-batch is a usage error
//     --reprepare   prepare the same program a second time to demonstrate
//                   the session's prepared-program cache (hit counters land
//                   in --stats-json under engine/prepare_cache_*).
//                   --disable-pass and the dumps (--adornments, --tree,
//                   --dot) prepare a one-off program instead of the
//                   session's own, so combining them with --reprepare or
//                   --apply-delta is a usage error
//     --trace=FILE  write a Chrome trace-event JSON file covering the
//                   optimizer phases and (with --eval) both evaluations;
//                   load it in chrome://tracing or Perfetto
//     --stats-json=FILE  write all collected metrics as JSON
//     --check-json=FILE  validate FILE with the built-in minimal JSON
//                   parser and exit (0 = valid); used by the smoke test
//     --serve-batch run the unit through an in-process sqo_server on a
//                   loopback port, driven over the wire protocol by the
//                   client library (pipelined on one connection):
//                   submit --requests=R copies (default 8) onto
//                   --threads=N workers (default 4) with an admission
//                   queue of --max-queue=Q (default 256) and a per-request
//                   deadline of --deadline-ms=D (default none), then print
//                   the outcome counts and latency percentiles. Identical
//                   requests share one session, so the optimizer pipeline
//                   runs exactly once (engine/pipeline_runs in
//                   --stats-json). With --slow-ms=S, requests slower than
//                   S ms end-to-end land in the slow-query log (printed
//                   after the batch, trace ids included); with
//                   --metrics-snapshot-ms=M a background thread appends
//                   periodic metric-delta events; with --trace=FILE every
//                   request is traced and the per-request span trees are
//                   merged into one Chrome trace, one lane per request,
//                   cross-referencable to the slow-query log by trace id.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/cq/ic_check.h"
#include "src/engine/engine.h"
#include "src/engine/explain.h"
#include "src/engine/view.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/parser/parser.h"
#include "src/obs/event_log.h"
#include "src/obs/export.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/service/query_service.h"
#include "src/sqo/pass_manager.h"

namespace {

std::string ReadAll(const char* path) {
  std::ostringstream buffer;
  if (std::strcmp(path, "-") == 0) {
    buffer << std::cin.rdbuf();
  } else {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", path);
      std::exit(2);
    }
    buffer << in.rdbuf();
  }
  return buffer.str();
}

bool WriteAll(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << content;
  return out.good();
}

// Parses an --apply-delta file: `batch` lines separate batches, `+fact.`
// inserts, `-fact.` deletes, `#` starts a comment. Returns false (with a
// message naming the line) on malformed input.
bool ParseDeltaFile(const std::string& text, const std::string& name,
                    std::vector<sqod::FactDelta>* out) {
  std::istringstream in(text);
  std::string line;
  sqod::FactDelta current;
  int lineno = 0;
  auto flush = [&] {
    if (!current.empty()) {
      out->push_back(std::move(current));
      current = sqod::FactDelta();
    }
  };
  while (std::getline(in, line)) {
    ++lineno;
    size_t begin = line.find_first_not_of(" \t\r");
    if (begin == std::string::npos) continue;
    size_t end = line.find_last_not_of(" \t\r");
    std::string trimmed = line.substr(begin, end - begin + 1);
    if (trimmed[0] == '#') continue;
    if (trimmed == "batch") {
      flush();
      continue;
    }
    if (trimmed[0] != '+' && trimmed[0] != '-') {
      std::fprintf(stderr,
                   "%s:%d: expected 'batch', '+fact.', or '-fact.'\n",
                   name.c_str(), lineno);
      return false;
    }
    sqod::Result<sqod::Atom> atom =
        sqod::ParseAtomText(std::string_view(trimmed).substr(1));
    if (!atom.ok()) {
      std::fprintf(stderr, "%s:%d: %s\n", name.c_str(), lineno,
                   atom.status().message().c_str());
      return false;
    }
    if (trimmed[0] == '+') {
      current.inserts.push_back(atom.take());
    } else {
      current.deletes.push_back(atom.take());
    }
  }
  flush();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sqod;

  bool show_p1 = false, show_tree = false, show_dot = false,
       show_adornments = false, do_eval = false, do_profile = false,
       show_passes = false, reprepare = false, serve_batch = false,
       do_explain = false, do_analyze = false;
  int threads = 4, requests = 8;
  long long deadline_ms = -1, max_queue = 256, slow_ms = -1,
            metrics_snapshot_ms = -1;
  std::string trace_path, stats_json_path, analyze_path, facts_path,
      delta_path;
  std::vector<std::string> disabled_passes;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--p1") == 0) {
      show_p1 = true;
    } else if (std::strcmp(argv[i], "--tree") == 0) {
      show_tree = true;
    } else if (std::strcmp(argv[i], "--dot") == 0) {
      show_dot = true;
    } else if (std::strcmp(argv[i], "--adornments") == 0) {
      show_adornments = true;
    } else if (std::strcmp(argv[i], "--eval") == 0) {
      do_eval = true;
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      do_profile = true;
    } else if (std::strcmp(argv[i], "--passes") == 0) {
      show_passes = true;
    } else if (std::strcmp(argv[i], "--explain") == 0) {
      do_explain = true;
    } else if (std::strcmp(argv[i], "--analyze") == 0) {
      do_analyze = true;
    } else if (std::strncmp(argv[i], "--analyze=", 10) == 0) {
      do_analyze = true;
      analyze_path = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--facts=", 8) == 0) {
      facts_path = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--apply-delta=", 14) == 0) {
      delta_path = argv[i] + 14;
    } else if (std::strcmp(argv[i], "--list-passes") == 0) {
      for (const std::string& name : PassManager::PassNames()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    } else if (std::strncmp(argv[i], "--disable-pass=", 15) == 0) {
      disabled_passes.push_back(argv[i] + 15);
    } else if (std::strcmp(argv[i], "--reprepare") == 0) {
      reprepare = true;
    } else if (std::strcmp(argv[i], "--serve-batch") == 0) {
      serve_batch = true;
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = std::atoi(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--requests=", 11) == 0) {
      requests = std::atoi(argv[i] + 11);
    } else if (std::strncmp(argv[i], "--deadline-ms=", 14) == 0) {
      deadline_ms = std::atoll(argv[i] + 14);
    } else if (std::strncmp(argv[i], "--max-queue=", 12) == 0) {
      max_queue = std::atoll(argv[i] + 12);
    } else if (std::strncmp(argv[i], "--slow-ms=", 10) == 0) {
      slow_ms = std::atoll(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--metrics-snapshot-ms=", 22) == 0) {
      metrics_snapshot_ms = std::atoll(argv[i] + 22);
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_path = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--stats-json=", 13) == 0) {
      stats_json_path = argv[i] + 13;
    } else if (std::strncmp(argv[i], "--check-json=", 13) == 0) {
      std::string text = ReadAll(argv[i] + 13);
      Status s = ValidateJson(text);
      if (!s.ok()) {
        std::fprintf(stderr, "%s: %s\n", argv[i] + 13, s.message().c_str());
        return 1;
      }
      return 0;
    } else {
      path = argv[i];
    }
  }
  if (path == nullptr) {
    std::fprintf(stderr,
                 "usage: %s [--p1] [--tree] [--dot] [--adornments] [--eval] "
                 "[--profile] [--passes] [--disable-pass=NAME ...] "
                 "[--reprepare] [--trace=FILE] [--stats-json=FILE] <file|->\n"
                 "       %s --list-passes\n"
                 "       %s --check-json=FILE\n",
                 argv[0], argv[0], argv[0]);
    return 2;
  }

  // The full unit: the named source plus any --facts side file (plain
  // ground facts appended before the parse, so they go through the same
  // validation as inline facts).
  std::string source = ReadAll(path);
  if (!facts_path.empty()) {
    source += "\n";
    source += ReadAll(facts_path.c_str());
  }

  std::vector<FactDelta> delta_batches;
  if (!delta_path.empty() &&
      !ParseDeltaFile(ReadAll(delta_path.c_str()), delta_path,
                      &delta_batches)) {
    return 2;
  }

  if (serve_batch && !disabled_passes.empty()) {
    std::fprintf(stderr,
                 "--disable-pass is in-process only; the server prepares "
                 "with the default options (drop --serve-batch)\n");
    return 2;
  }
  // An ablation (a disabled pass, or the dumps the pipeline renders only on
  // request) prepares a one-off program with PrepareProgram; the session
  // caches and materializes only its own default-options program.
  const bool ablation = !disabled_passes.empty() || show_adornments ||
                        show_tree || show_dot;
  if (ablation && (reprepare || !delta_path.empty())) {
    std::fprintf(stderr,
                 "--reprepare and --apply-delta use the session's own "
                 "prepared program; drop --disable-pass, --adornments, "
                 "--tree and --dot\n");
    return 2;
  }

  if (serve_batch) {
    // Serve-batch mode: stand up an in-process sqo_server on a loopback
    // ephemeral port and drive it through the client library, so the batch
    // exercises the real wire protocol end to end. Every request shares
    // one parsed session and one optimizer pipeline run (single-flight)
    // server-side, and evaluates against the session's shared frozen EDB
    // snapshot. Requests are pipelined on one connection; the server
    // answers in completion order.
    MetricsRegistry metrics;
    ServerOptions server_options;
    server_options.host = "127.0.0.1";
    server_options.port = 0;
    server_options.service.threads = threads;
    server_options.service.max_queue = static_cast<size_t>(max_queue);
    server_options.service.metrics = &metrics;
    server_options.service.slow_query_ms = slow_ms;
    server_options.service.metrics_snapshot_ms = metrics_snapshot_ms;
    Server server(std::move(server_options));
    Status started = server.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "server start failed: %s\n",
                   started.message().c_str());
      return 2;
    }

    ClientOptions client_options;
    client_options.port = server.port();
    Result<Client> connected = Client::Connect(client_options);
    if (!connected.ok()) {
      std::fprintf(stderr, "connect failed: %s\n",
                   connected.status().message().c_str());
      return 2;
    }
    Client& client = connected.value();

    QueryParams params;
    params.source = source;
    params.deadline_ms = deadline_ms;
    // With --trace, every request collects its own span tree; the trees
    // merge below into one Chrome trace, one lane per request.
    params.trace = !trace_path.empty();

    std::vector<uint64_t> ids;
    ids.reserve(static_cast<size_t>(requests));
    for (int i = 0; i < requests; ++i) {
      Result<uint64_t> sent = client.SendQuery(params);
      if (!sent.ok()) {
        std::fprintf(stderr, "send failed: %s\n",
                     sent.status().message().c_str());
        return 2;
      }
      ids.push_back(sent.value());
    }

    int ok = 0, rejected = 0, cancelled = 0, deadline_exceeded = 0,
        failed = 0;
    size_t answers = 0;
    bool all_match = true, have_answers = false;
    std::vector<Tuple> first_answers;
    std::vector<RequestTrace> traces;
    for (uint64_t id : ids) {
      Result<ServerMessage> reply = client.WaitFor(id);
      if (!reply.ok()) {
        std::fprintf(stderr, "connection failed: %s\n",
                     reply.status().message().c_str());
        return 2;
      }
      Response response = std::move(reply.value().query);
      if (!response.spans.empty()) {
        RequestTrace trace;
        trace.trace_id = response.trace_id;
        trace.spans = std::move(response.spans);
        traces.push_back(std::move(trace));
      }
      switch (response.status.code()) {
        case StatusCode::kOk:
          ++ok;
          if (!have_answers) {
            first_answers = response.answers;
            answers = first_answers.size();
            have_answers = true;
          } else if (response.answers != first_answers) {
            all_match = false;
          }
          break;
        case StatusCode::kResourceExhausted:
          ++rejected;
          break;
        case StatusCode::kCancelled:
          ++cancelled;
          break;
        case StatusCode::kDeadlineExceeded:
          ++deadline_exceeded;
          break;
        default:
          ++failed;
          std::fprintf(stderr, "request failed [%s]: %s\n",
                       StatusCodeName(response.status.code()),
                       response.status.message().c_str());
          break;
      }
    }
    client.Close();
    server.Stop();

    std::printf("%% serve-batch: threads=%d max_queue=%lld requests=%d "
                "deadline_ms=%lld\n",
                threads, max_queue, requests, deadline_ms);
    std::printf("%% serve-batch: ok=%d rejected=%d cancelled=%d "
                "deadline_exceeded=%d failed=%d\n",
                ok, rejected, cancelled, deadline_exceeded, failed);
    if (have_answers) {
      std::printf("%% serve-batch: answers=%zu (all match: %s)\n", answers,
                  all_match ? "yes" : "NO");
    }
    HistogramSnapshot queue_wait =
        metrics.GetHistogram("service/queue_wait_ns")->Snapshot();
    HistogramSnapshot execute =
        metrics.GetHistogram("service/execute_ns")->Snapshot();
    std::printf("%% serve-batch: queue_wait p50=%s p95=%s p99=%s max=%s\n",
                FormatDurationNs(queue_wait.p50()).c_str(),
                FormatDurationNs(queue_wait.p95()).c_str(),
                FormatDurationNs(queue_wait.p99()).c_str(),
                FormatDurationNs(queue_wait.max).c_str());
    std::printf("%% serve-batch: execute    p50=%s p95=%s p99=%s max=%s\n",
                FormatDurationNs(execute.p50()).c_str(),
                FormatDurationNs(execute.p95()).c_str(),
                FormatDurationNs(execute.p99()).c_str(),
                FormatDurationNs(execute.max).c_str());

    // The structured event log: slow queries (with their trace ids and
    // EXPLAIN summaries), errors, rejections, metric snapshots.
    std::vector<LogEvent> events = server.service().event_log().Events();
    if (!events.empty()) {
      std::printf(
          "%% serve-batch: %zu event(s), slow_queries=%zu\n", events.size(),
          server.service().event_log().EventsOfKind("slow_query").size());
      for (const LogEvent& event : events) {
        std::printf("%% event: %s\n", RenderLogEvent(event).c_str());
      }
    }

    if (!trace_path.empty() &&
        !WriteAll(trace_path, ExportChromeTrace(traces))) {
      return 2;
    }
    if (!stats_json_path.empty() &&
        !WriteAll(stats_json_path, ExportMetricsJson(metrics))) {
      return 2;
    }
    return ok == requests && all_match ? 0 : 1;
  }

  // The observability layer: spans when tracing or profiling was requested,
  // metrics whenever any report needs them. Both are handed to the engine,
  // so engine counters (cache hits, executions) land in the same export.
  Tracer tracer(!trace_path.empty() || do_profile);
  MetricsRegistry metrics;
  EngineOptions engine_options;
  engine_options.tracer = &tracer;
  engine_options.metrics = &metrics;
  Engine engine(engine_options);

  Result<Session> opened = engine.Open(source);
  if (!opened.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 opened.status().message().c_str());
    return 2;
  }
  Session& session = opened.value();

  Result<PreparedProgram> ablated = PreparedProgram{};
  Result<const PreparedProgram*> prepared = nullptr;
  if (ablation) {
    SqoOptions sqo_options;
    sqo_options.disabled_passes = disabled_passes;
    // The dump flags ask for the rendered diagnostics, which the pipeline
    // only materializes on request.
    sqo_options.capture_dumps = show_adornments || show_tree || show_dot;
    sqo_options.tracer = &tracer;
    sqo_options.metrics = &metrics;
    ablated = PrepareProgram(session.program(), session.ics(), sqo_options);
    if (ablated.ok()) {
      prepared = &ablated.value();
    } else {
      prepared = ablated.status();
    }
  } else {
    prepared = session.Prepare();
  }
  // A unit outside the rewriting's theory (or past an optimizer limit)
  // prepares as P itself; this tool prints rewritings, so it reports why
  // there is none.
  const Status& failed =
      prepared.ok() ? prepared.value()->fallback : prepared.status();
  if (!failed.ok()) {
    std::fprintf(stderr, "optimizer error [%s]: %s\n",
                 StatusCodeName(failed.code()), failed.message().c_str());
    return 2;
  }
  if (reprepare) {
    // The session's program again: served from its cache with zero
    // re-optimization (see engine/prepare_cache_hits in --stats-json).
    prepared = session.Prepare();
  }
  const SqoReport& report = prepared.value()->report;

  if (show_adornments) {
    std::printf("%% adorned predicates\n%s\n",
                report.adornment_dump.c_str());
  }
  if (show_tree) {
    std::printf("%% query tree\n%s\n", report.tree_dump.c_str());
  }
  if (show_dot) {
    std::printf("%s", report.tree_dot.c_str());
    return 0;
  }
  if (show_passes) {
    std::printf("%% pass pipeline\n");
    for (const PassRunInfo& info : report.pass_runs) {
      std::printf("%%   %-14s %-8s %8lld ns  rules=%d\n", info.name.c_str(),
                  info.disabled ? "disabled"
                                : (info.skipped ? "skipped" : "ran"),
                  static_cast<long long>(info.wall_ns), info.rules_after);
    }
  }
  std::printf("%s", show_p1 ? report.adorned.ToString().c_str()
                            : report.rewritten.ToString().c_str());
  if (!report.query_satisfiable) {
    std::printf("%% note: the query is unsatisfiable w.r.t. the ICs\n");
  }

  // EXPLAIN starts from the plan side of the optimizer report; ANALYZE
  // joins in the rewritten program's runtime below, when --eval runs it.
  ExplainReport explain =
      BuildExplainReport(report, prepared.value()->compiled.get(),
                         &prepared.value()->lowered);
  if (do_analyze) do_eval = true;  // ANALYZE means "and actually run it"

  int exit_code = 0;
  if (do_eval && !session.facts().empty()) {
    Database edb = session.MakeEdb();
    if (!SatisfiesAll(edb, session.ics())) {
      std::fprintf(stderr,
                   "warning: the facts violate the integrity constraints; "
                   "equivalence is not guaranteed\n");
    }
    EvalStats original_stats, rewritten_stats;
    std::vector<RuleProfile> original_profiles, rewritten_profiles;
    EvalOptions eval_options;
    eval_options.profile_rules = do_profile || do_analyze;

    eval_options.metrics_prefix = "eval/original";
    Result<std::vector<Tuple>> original_result = session.ExecuteOriginal(
        edb, eval_options, &original_stats, &original_profiles);
    eval_options.metrics_prefix = "eval/rewritten";
    const int64_t exec_start_ns = NowNs();
    Result<std::vector<Tuple>> rewritten_result =
        session.Execute(*prepared.value(), edb, eval_options,
                        &rewritten_stats, &rewritten_profiles);
    const int64_t execute_ns = NowNs() - exec_start_ns;
    for (const auto* result : {&original_result, &rewritten_result}) {
      if (!result->ok()) {
        std::fprintf(stderr, "evaluation error [%s]: %s\n",
                     StatusCodeName(result->status().code()),
                     result->status().message().c_str());
        return 2;
      }
    }
    const std::vector<Tuple>& original = original_result.value();
    const std::vector<Tuple>& rewritten = rewritten_result.value();
    AttachRuntime(prepared.value()->program(), rewritten_stats,
                  rewritten_profiles, static_cast<int64_t>(rewritten.size()),
                  execute_ns, &explain);
    std::printf("%% answers: %zu (match: %s)\n", original.size(),
                original == rewritten ? "yes" : "NO");
    std::printf("%% original:  %s\n%% rewritten: %s\n",
                original_stats.ToString().c_str(),
                rewritten_stats.ToString().c_str());
    metrics.GetGauge("cli/answers")
        ->Set(static_cast<int64_t>(original.size()));
    metrics.GetGauge("cli/answers_match")->Set(original == rewritten ? 1 : 0);
    if (do_profile) {
      std::printf("%% per-rule profile, original program P:\n%s",
                  RenderRuleProfileTable(original_profiles).c_str());
      std::printf("%% per-rule profile, rewritten program P':\n%s",
                  RenderRuleProfileTable(rewritten_profiles).c_str());
    }
    exit_code = original == rewritten ? 0 : 1;
  }

  if (!delta_batches.empty()) {
    // Incremental-view replay: pin the prepared program to a materialized
    // view, apply each batch, and referee the maintained answers against a
    // from-scratch recompute of the same EDB.
    Result<MaterializedView*> made = session.Materialize(*prepared.value());
    if (!made.ok()) {
      std::fprintf(stderr, "materialize error [%s]: %s\n",
                   StatusCodeName(made.status().code()),
                   made.status().message().c_str());
      return 2;
    }
    MaterializedView* view = made.value();
    EvalOptions eval_options;
    int64_t maintain_total_ns = 0, recompute_total_ns = 0;
    bool all_match = true;
    int batch_no = 0;
    for (const FactDelta& delta : delta_batches) {
      ++batch_no;
      const int64_t t0 = NowNs();
      Result<MaintainStats> stats = view->ApplyDelta(delta);
      const int64_t maintain_ns = NowNs() - t0;
      if (!stats.ok()) {
        std::fprintf(stderr, "delta batch %d rejected [%s]: %s\n", batch_no,
                     StatusCodeName(stats.status().code()),
                     stats.status().message().c_str());
        return 1;
      }
      maintain_total_ns += maintain_ns;
      Database changed = view->SnapshotEdb();
      const int64_t r0 = NowNs();
      Result<std::vector<Tuple>> fresh =
          session.Execute(*prepared.value(), changed, eval_options);
      const int64_t recompute_ns = NowNs() - r0;
      if (!fresh.ok()) {
        std::fprintf(stderr, "recompute failed on batch %d: %s\n", batch_no,
                     fresh.status().message().c_str());
        return 2;
      }
      recompute_total_ns += recompute_ns;
      std::vector<Tuple> answers = view->Answers();
      const bool match = answers == fresh.value();
      all_match = all_match && match;
      std::printf("%% delta batch %d: maintain %s recompute %s answers=%zu "
                  "(match: %s) | %s\n",
                  batch_no, FormatDurationNs(maintain_ns).c_str(),
                  FormatDurationNs(recompute_ns).c_str(), answers.size(),
                  match ? "yes" : "NO", stats.value().Summary().c_str());
    }
    const double speedup =
        maintain_total_ns > 0
            ? static_cast<double>(recompute_total_ns) /
                  static_cast<double>(maintain_total_ns)
            : 0.0;
    std::printf("%% apply-delta: %d batch(es) to v%lld, maintain %s, "
                "recompute %s (%.1fx), match: %s\n",
                batch_no, static_cast<long long>(view->version()),
                FormatDurationNs(maintain_total_ns).c_str(),
                FormatDurationNs(recompute_total_ns).c_str(), speedup,
                all_match ? "yes" : "NO");
    metrics.GetGauge("cli/delta_batches")->Set(batch_no);
    metrics.GetGauge("cli/delta_match")->Set(all_match ? 1 : 0);
    AttachMaintenance(view->totals(), view->last_batch(),
                      view->batches_applied(), &explain);
    if (!all_match) exit_code = 1;
  }

  if (do_explain || do_analyze) {
    std::printf("%% explain%s\n%s", explain.analyzed ? " analyze" : "",
                explain.ToText().c_str());
    if (!analyze_path.empty() && !WriteAll(analyze_path, explain.ToJson())) {
      return 2;
    }
  }

  if (do_profile) {
    std::printf("%% span tree:\n%s", RenderSpanTree(tracer.spans()).c_str());
    std::string table = RenderHistogramTable(metrics.Snapshot());
    if (!table.empty()) {
      std::printf("%% latency histograms:\n%s", table.c_str());
    }
  }
  if (!trace_path.empty() &&
      !WriteAll(trace_path, ExportChromeTrace(tracer.spans()))) {
    return 2;
  }
  if (!stats_json_path.empty() &&
      !WriteAll(stats_json_path, ExportMetricsJson(metrics))) {
    return 2;
  }
  return exit_code;
}
