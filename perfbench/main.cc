// perfbench — the sqod wire-level benchmark's load generator.
//
//   perfbench --server PATH --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--git-sha SHA] [--source-digest HEX]
//             [--small] [--setups N] [--corrupt-oracle]
//
// Starts the shipped sqo_server as a child process (--threads=2, every
// other flag at its default), brings it to warm state, and drives it from
// four connections in a closed loop, checking every reply against answers
// the original program gives in-process. With --trace 0 it prints the
// end-to-end metrics; with --trace 1 it also replays a seeded sample at
// concurrency 1 over the wire and in-process with spans, and prints the
// per-layer metrics. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every check passed.
//
// --small shrinks the inputs (the self-test), --setups sets how many times
// set-up is repeated for setup_s (default 5), and --corrupt-oracle flips
// one expected answer after set-up to show that a wrong reply is caught.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "perfbench/bench.h"
#include "src/obs/trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using sqod::Client;
using sqod::ClientOptions;
using sqod::JsonValue;
using sqod::NowNs;
using sqod::Result;

// Two request workers, every other sqo_server flag at its default.
constexpr char kServerFlags[] = "--threads=2";

// The metrics the final JSON line carries; BENCHMARK.json lists the same.
// The latency tail, throughput and CPU per op are printed with the
// per-layer metrics: on a shared host their run-to-run spread exceeds any
// bound the contract allows (NOTES.md).
const char* const kEndToEnd[] = {
    "setup_s",
    "query_p50_ms",
    "server_rss_peak_mb",
};
const char* const kPerLayer[] = {
    "query_p99_ms",
    "throughput_ops_s",
    "server_cpu_ms_per_op",
    "client_cpu_ms_per_op",
    "parser.parse_us_per_op",
    "parser.fact_parse_us_per_batch",
    "sqo.optimize_us_per_op",
    "sqo.adorned_rules_per_op",
    "sqo.tree_classes_per_op",
    "sqo.eval_speedup",
    "sqo.eval_speedup_min",
    "compile.compile_us_per_op",
    "eval.evaluate_us_per_op",
    "eval.collect_us_per_op",
    "eval.join_probes_per_op",
    "eval.tuples_derived_per_op",
    "eval.iterations_per_op",
    "eval.duplicate_ratio",
    "maintain.apply_us_per_batch",
    "maintain.over_deletion_ratio",
    "maintain.idb_delta_per_batch",
    "maintain.recompute_share",
    "view.answers_us_per_read",
    "engine.session_us_per_op",
    "engine.prepare_hit_ratio",
    "engine.retained_kb_per_session",
    "proto.encode_request_us_per_op",
    "proto.decode_request_us_per_op",
    "proto.encode_reply_us_per_op",
    "proto.decode_reply_us_per_op",
    "proto.request_bytes_per_op",
    "proto.reply_bytes_per_op",
    "service.queue_wait_ms_p50",
    "service.queue_wait_ms_p99",
    "net.residual_us_per_op",
    "trace.coverage",
    "trace.overhead",
    "delta_p50_ms",
    "delta_p99_ms",
    "error_rate",
};

struct Args {
  std::string server;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir = ".";
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  bool small = false;
  int setups = 5;
  bool corrupt = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    }
    auto take = [&]() -> bool {
      if (eq != std::string::npos) return true;
      if (i + 1 >= argc) return false;
      value = argv[++i];
      return true;
    };
    if (key == "--small") {
      args->small = true;
    } else if (key == "--corrupt-oracle") {
      args->corrupt = true;
    } else if (!take()) {
      return false;
    } else if (key == "--server") {
      args->server = value;
    } else if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else if (key == "--git-sha") {
      args->git_sha = value;
    } else if (key == "--source-digest") {
      args->source_digest = value;
    } else if (key == "--setups") {
      args->setups = std::max(1, std::atoi(value.c_str()));
    } else {
      return false;
    }
  }
  return !args->server.empty() && !args->workload.empty() &&
         args->seconds > 0 && (args->trace == 0 || args->trace == 1);
}

// Counter value from a Client::Metrics() export.
double Counter(const Result<JsonValue>& metrics, const std::string& name) {
  if (!metrics.ok()) return 0;
  const JsonValue* counters = metrics.value().Find("counters");
  const JsonValue* value = counters == nullptr ? nullptr : counters->Find(name);
  return value == nullptr ? 0 : value->number;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out + "\"";
}

// Adds <stem>_p50_ms and <stem>_p99_ms (see Summarize for the p99 rule).
void AddTail(Metrics* m, const std::string& stem,
             const std::vector<double>& samples) {
  const Tail t = Summarize(samples);
  const std::string n = "n=" + std::to_string(t.samples);
  (*m)[stem + "_p50_ms"] = {t.p50, "ms", n};
  char note[64];
  std::snprintf(note, sizeof(note), "p%.0f of n=%lld", t.high_pct,
                static_cast<long long>(t.samples));
  (*m)[stem + "_p99_ms"] = {t.high, "ms", note};
}

int Run(const Args& args) {
  Kind kind;
  if (!ParseKind(args.workload, &kind)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Workload w = MakeWorkload(kind, args.seed, args.small,
                            args.small ? 40 : kColdUnits);
  const uint64_t op_digest = OpSequenceDigest(w, kConnections);
  const std::string tag = w.name + "-seed" + std::to_string(args.seed) +
                          "-trace" + std::to_string(args.trace);

  // Set-up: oracles, server start, connect, warm. Repeated so setup_s is
  // a median; the last repetition's server is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<ServerProcess> server;
  std::vector<Client> clients;
  ChurnState churn;
  const int setups = args.trace == 1 ? 1 : args.setups;
  for (int r = 0; r < setups; ++r) {
    for (Client& c : clients) c.Close();
    clients.clear();
    if (server) server->Stop();
    server.reset();
    const int64_t t0 = NowNs();
    ComputeOracles(&w);
    std::string error;
    server = ServerProcess::Start(args.server, {kServerFlags},
                                  args.out_dir + "/server-" + tag + ".log",
                                  &error);
    if (!server) {
      std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
      return 1;
    }
    ClientOptions options;
    options.port = server->port();
    for (int c = 0; c < kConnections; ++c) {
      Result<Client> client = Client::Connect(options);
      if (!client.ok()) {
        std::fprintf(stderr, "set-up failed: connect: %s\n",
                     client.status().message().c_str());
        return 1;
      }
      clients.push_back(std::move(client).value());
    }
    if (!Warm(w, &clients, &churn, &error)) {
      std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
      return 1;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  if (args.corrupt) {
    // One wrong expectation: every reply it covers must now count as failed.
    Expected& e = kind == Kind::kViewChurn ? w.sessions[0].base
                                           : w.units[0].expected;
    e.digest ^= 1;
  }

  const Result<JsonValue> before = clients[0].Metrics();
  const int64_t rss_before_kb = server->RssKb();
  LoadResult load = RunLoad(w, &clients, *server, args.seconds, &churn);
  const int64_t rss_after_kb = server->RssKb();
  const Result<JsonValue> after = clients[0].Metrics();
  if (!before.ok() || !after.ok()) load.Fail("metrics export failed");
  LoadResult checks;  // quiesce, the traced run's wire pass and replay
  Quiesce(w, &clients[0], churn, &checks);

  Metrics m;
  if (args.trace == 1) {
    // Concurrency-1 round trips: per op, the median of three passes (one
    // on cold-optimize, whose units are cold only once).
    const std::vector<SampleOp> sample = MakeSample(w);
    std::vector<std::vector<double>> per_op(sample.size());
    const int passes = kind == Kind::kColdOptimize ? 1 : 3;
    for (int pass = 0; pass < passes; ++pass) {
      const std::vector<double> rt =
          WirePass(w, sample, &clients[0], &churn, &checks);
      for (size_t i = 0; i < rt.size(); ++i) per_op[i].push_back(rt[i]);
    }
    std::vector<double> wire_us;
    for (std::vector<double>& rts : per_op) wire_us.push_back(Median(rts));
    m = TracedRun(w, sample, wire_us,
                  args.out_dir + "/spans-" + tag + ".json", &checks);
  }
  const double peak_mb = static_cast<double>(server->PeakRssKb()) / 1024.0;
  for (Client& c : clients) c.Close();
  if (!server->Stop()) checks.Fail("server did not drain and exit cleanly");

  // End-to-end metrics, from the untraced loaded phase.
  const double done = static_cast<double>(std::max<int64_t>(1, load.succeeded));
  m["setup_s"] = {Median(setup_s), "s",
                  "median of " + std::to_string(setup_s.size()) + " set-ups"};
  // Rates are medians over the timed phase's full windows, or whole-phase
  // figures when it was shorter than three windows.
  std::vector<double> rate;
  std::vector<double> server_cpu;
  std::vector<double> client_cpu;
  for (const LoadResult::Window& win : load.windows) {
    if (win.ops <= 0) continue;
    rate.push_back(win.ops / win.seconds);
    server_cpu.push_back(win.server_cpu_ms / win.ops);
    client_cpu.push_back(win.client_cpu_ms / win.ops);
  }
  const bool windowed = rate.size() >= 3;
  const std::string how =
      windowed ? "median of " + std::to_string(rate.size()) + " 1-s windows"
               : "over the whole " + Num(load.wall_s) + " s";
  m["throughput_ops_s"] = {
      windowed ? Median(rate) : static_cast<double>(load.succeeded) / load.wall_s,
      "ops/s", how};
  AddTail(&m, "query", load.query_ms);
  if (kind == Kind::kViewChurn) AddTail(&m, "delta", load.delta_ms);
  m["server_cpu_ms_per_op"] = {
      windowed ? Median(server_cpu) : load.server_cpu_ms / done, "ms", how};
  m["client_cpu_ms_per_op"] = {
      windowed ? Median(client_cpu) : load.client_cpu_ms / done, "ms", how};
  m["server_rss_peak_mb"] = {peak_mb, "MiB", "VmHWM"};

  // Per-layer metrics that come from the loaded phase.
  const double hits = Counter(after, "engine/prepare_cache_hits") -
                      Counter(before, "engine/prepare_cache_hits");
  const double misses = Counter(after, "engine/prepare_cache_misses") -
                        Counter(before, "engine/prepare_cache_misses");
  const double opened = Counter(after, "engine/sessions_opened") -
                        Counter(before, "engine/sessions_opened");
  m["engine.prepare_hit_ratio"] = {
      hits + misses == 0 ? 0 : hits / (hits + misses), "ratio",
      Num(hits) + " hits, " + Num(misses) + " misses"};
  m["engine.retained_kb_per_session"] = {
      opened == 0 ? 0
                  : static_cast<double>(rss_after_kb - rss_before_kb) / opened,
      "KiB", Num(opened) + " sessions opened"};
  const Tail wait = Summarize(load.queue_wait_ms);
  m["service.queue_wait_ms_p50"] = {wait.p50, "ms",
                                    "n=" + std::to_string(wait.samples)};
  m["service.queue_wait_ms_p99"] = {
      wait.high, "ms",
      "p" + Num(wait.high_pct) + " of n=" + std::to_string(wait.samples)};
  if (kind != Kind::kViewChurn) {
    m["delta_p50_ms"] = {0, "ms", "n/a: no deltas on this workload"};
    m["delta_p99_ms"] = {0, "ms", "n/a: no deltas on this workload"};
  }
  const int64_t attempted = load.attempted + checks.attempted;
  const int64_t failed = load.failed + checks.failed;
  m["error_rate"] = {static_cast<double>(failed) /
                         static_cast<double>(std::max<int64_t>(1, attempted)),
                     "ratio",
                     std::to_string(failed) + " of " +
                         std::to_string(attempted)};
  const bool correct = failed == 0;

  // Human-readable report, then the full JSON report file.
  std::ostringstream context;
  context << "{\"git_sha\":" << Quote(args.git_sha)
          << ",\"source_digest\":" << Quote(args.source_digest)
          << ",\"build_type\":" << Quote(PERFBENCH_BUILD_TYPE)
          << ",\"num_cpus\":" << std::thread::hardware_concurrency()
          << ",\"server_flags\":" << Quote(kServerFlags)
          << ",\"connections\":" << kConnections
          << ",\"workload\":" << Quote(w.name) << ",\"seed\":" << args.seed
          << ",\"seconds\":" << Num(args.seconds) << ",\"trace\":" << args.trace
          << ",\"op_sequence_digest\":" << Quote(Hex(op_digest))
          << ",\"ops\":{\"attempted\":" << attempted
          << ",\"succeeded\":" << load.succeeded + checks.succeeded
          << ",\"failed\":" << failed << "}}";
  std::printf("context %s\n", context.str().c_str());
  for (const std::string& e : load.errors) std::printf("error %s\n", e.c_str());
  for (const std::string& e : checks.errors) {
    std::printf("error %s\n", e.c_str());
  }
  std::ostringstream report;
  report << "{\"context\":" << context.str() << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    if (metric.unit.empty()) {
      std::printf("info %s %s\n", name.c_str(), metric.note.c_str());
      continue;
    }
    std::printf("metric %s %s %s%s%s\n", name.c_str(), Num(metric.value).c_str(),
                metric.unit.c_str(), metric.note.empty() ? "" : " # ",
                metric.note.c_str());
    report << (first ? "" : ",") << Quote(name) << ":{\"value\":"
           << Num(metric.value) << ",\"unit\":" << Quote(metric.unit)
           << ",\"note\":" << Quote(metric.note) << "}";
    first = false;
  }
  report << "},\"windows\":[";
  for (size_t i = 0; i < load.windows.size(); ++i) {
    const LoadResult::Window& win = load.windows[i];
    report << (i == 0 ? "" : ",") << "{\"seconds\":" << Num(win.seconds)
           << ",\"ops\":" << Num(win.ops)
           << ",\"server_cpu_ms\":" << Num(win.server_cpu_ms)
           << ",\"client_cpu_ms\":" << Num(win.client_cpu_ms) << "}";
  }
  report << "]}\n";
  std::ofstream(args.out_dir + "/report-" + tag + ".json") << report.str();

  std::ostringstream result;
  result << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"metrics\": {";
  first = true;
  auto emit = [&](const char* name) {
    const Metric& metric = m[name];
    result << (first ? "" : ", ") << Quote(name) << ": {\"value\": "
           << Num(metric.value) << ", \"unit\": " << Quote(metric.unit) << "}";
    first = false;
  };
  if (args.trace == 0) {
    for (const char* name : kEndToEnd) emit(name);
  } else {
    for (const char* name : kPerLayer) emit(name);
  }
  result << "}}";
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --server PATH --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR] [--git-sha SHA] "
                 "[--source-digest HEX] [--small] [--setups N] "
                 "[--corrupt-oracle]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
