// The traced run: the sample replayed in-process, one public layer call at
// a time, with spans recorded around each call from this file.
//
// Each op gets a root span "op" whose children are the layer calls the
// server makes for that request (plus the client's request encode and
// reply decode). A span's self time is its duration minus the time its
// children cover; a layer's metric is the self time of its spans. The root
// span's own self time (this file's glue) counts toward no layer.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <unordered_map>
#include <utility>

#include "perfbench/bench.h"
#include "src/engine/engine.h"
#include "src/engine/view.h"
#include "src/eval/bytecode.h"
#include "src/obs/trace.h"
#include "src/proto/proto.h"
#include "src/sqo/optimizer.h"

namespace perfbench {

using namespace sqod;

namespace {

struct SpanRecord {
  const char* name = nullptr;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int64_t op = 0;
};

// In-memory span store; when disabled, recording costs one branch.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  int Open(const char* name, int64_t op) {
    if (!enabled_) return -1;
    const int index = static_cast<int>(spans_.size());
    spans_.push_back({name, NowNs(), 0, stack_.empty() ? -1 : stack_.back(),
                      op});
    stack_.push_back(index);
    return index;
  }

  void Close(int index) {
    if (index < 0) return;
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
    stack_.pop_back();
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(SpanLog* log, const char* name, int64_t op)
      : log_(log), index_(log->Open(name, op)) {}
  ~Scope() { log_->Close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

// Work counts summed over the traced pass.
struct Counts {
  int64_t ops = 0;
  int64_t reads = 0;
  int64_t writes = 0;
  int64_t optimized = 0;
  int64_t evaluated = 0;
  int64_t adorned_rules = 0;
  int64_t tree_classes = 0;
  EvalStats eval;
  int64_t recomputed = 0;
  int64_t over_deleted = 0;
  int64_t rederived = 0;
  int64_t idb_delta = 0;
  int64_t request_bytes = 0;
  int64_t reply_bytes = 0;
};

void AddEvalStats(const EvalStats& s, EvalStats* total) {
  total->iterations += s.iterations;
  total->rule_firings += s.rule_firings;
  total->tuples_derived += s.tuples_derived;
  total->duplicate_derivations += s.duplicate_derivations;
  total->join_probes += s.join_probes;
}

std::vector<Tuple> SortedAnswers(const Database& idb, PredId query) {
  std::vector<Tuple> out;
  if (const Relation* rel = idb.Find(query)) {
    out.reserve(static_cast<size_t>(rel->size()));
    for (TupleRef t : rel->rows()) out.push_back(t.Materialize());
  }
  std::sort(out.begin(), out.end(), [](const Tuple& a, const Tuple& b) {
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      const int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  });
  return out;
}

std::string_view Payload(const std::string& frame) {
  return std::string_view(frame).substr(kFrameHeaderBytes);
}

// The replay state for one pass: an engine of its own, the warmed pool
// sessions (oneshot-eval) or materialized views (view-churn).
class Replay {
 public:
  Replay(const Workload& w, SpanLog* log, Counts* counts, LoadResult* result)
      : w_(w), log_(log), counts_(counts), result_(result) {
    for (const Unit& unit : w.units) {
      if (w.kind != Kind::kOneshotEval) break;
      auto session = std::make_unique<Session>(engine_.Open(unit.source).take());
      session->Prepare().value();
      session->SharedEdb();
      pool_[&unit] = session.get();
      sessions_.push_back(std::move(session));
    }
    for (const ViewSession& vs : w.sessions) {
      auto session = std::make_unique<Session>(engine_.Open(vs.source).take());
      const PreparedProgram* prepared = session->Prepare().value();
      session->Materialize(*prepared).value();
      views_.push_back(session.get());
      sessions_.push_back(std::move(session));
    }
  }

  void Run(const SampleOp& op, int64_t id) {
    Scope root(log_, "op", id);
    ++counts_->ops;
    switch (op.type) {
      case SampleOp::Type::kInline:
        if (w_.kind == Kind::kColdOptimize) {
          ColdQuery(*op.unit, id);
        } else {
          WarmQuery(*op.unit, id);
        }
        break;
      case SampleOp::Type::kWrite:
        Write(op, id);
        break;
      case SampleOp::Type::kRead:
        Read(op, id);
        break;
    }
  }

 private:
  std::string EncodeInline(const std::string& source, int64_t id) {
    Scope s(log_, "proto.encode_request", id);
    QueryParams params;
    params.source = source;
    return EncodeFrame(EncodeQuery(static_cast<uint64_t>(id), params));
  }

  std::optional<ClientMessage> DecodeRequest(const std::string& frame,
                                             int64_t id) {
    counts_->request_bytes += static_cast<int64_t>(frame.size());
    Scope s(log_, "proto.decode_request", id);
    Result<ClientMessage> msg = DecodeClientMessage(Payload(frame));
    if (!msg.ok()) return std::nullopt;
    return std::move(msg).value();
  }

  // Encodes the reply server-side and decodes it client-side.
  std::optional<ServerMessage> RoundTripReply(const std::string& frame,
                                              int64_t id) {
    counts_->reply_bytes += static_cast<int64_t>(frame.size());
    Scope s(log_, "proto.decode_reply", id);
    Result<ServerMessage> msg = DecodeServerMessage(Payload(frame));
    if (!msg.ok()) return std::nullopt;
    return std::move(msg).value();
  }

  void CheckQuery(const std::optional<ServerMessage>& reply,
                  const Expected& expected, const std::string& what) {
    if (!reply || !reply->status.ok() || !reply->query.status.ok() ||
        AnswerDigest(reply->query.answers) != expected.digest) {
      result_->Fail("in-process replay: wrong answers for " + what);
    }
  }

  // Evaluates `program` (compiled as `compiled`) and encodes the reply.
  std::string EvaluateAndEncode(const Program& program,
                                const CompiledProgram* compiled,
                                const Database& edb, int64_t id) {
    Response response;
    std::optional<Database> idb;
    {
      Scope s(log_, "eval.evaluate", id);
      // As the server runs it: the engine's registry receives the
      // evaluator's counters.
      EvalOptions options;
      options.compiled = compiled;
      options.metrics = &engine_.metrics();
      Evaluator evaluator(program, options);
      Result<Database> evaluated = evaluator.Evaluate(edb);
      response.stats = evaluator.stats();
      if (evaluated.ok()) {
        idb = std::move(evaluated).value();
      } else {
        response.status = evaluated.status();
      }
    }
    ++counts_->evaluated;
    AddEvalStats(response.stats, &counts_->eval);
    {
      Scope s(log_, "eval.collect", id);
      if (idb) response.answers = SortedAnswers(*idb, program.query());
      idb.reset();
    }
    response.optimized = true;
    response.snapshot_version = 0;
    Scope s(log_, "proto.encode_reply", id);
    return EncodeFrame(
        EncodeQueryResponse(static_cast<uint64_t>(id), MsgType::kQuery, response));
  }

  // cold-optimize: parse, optimize, compile and evaluate a new unit.
  void ColdQuery(const Unit& unit, int64_t id) {
    const std::optional<ClientMessage> msg =
        DecodeRequest(EncodeInline(unit.source, id), id);
    std::optional<Session> session;
    {
      Result<ParsedUnit> parsed = [&] {
        Scope s(log_, "parser.parse", id);
        return ParseUnit(msg ? msg->query.source : std::string());
      }();
      if (!parsed.ok()) {
        result_->Fail("in-process replay: parse failed for " + unit.family);
        return;
      }
      Scope s(log_, "engine.open", id);
      session.emplace(engine_.Open(std::move(parsed).value()).take());
    }
    Result<SqoReport> report = [&] {
      Scope s(log_, "sqo.optimize", id);
      SqoOptions options;
      options.metrics = &engine_.metrics();
      return OptimizeProgram(session->program(), session->ics(), options);
    }();
    if (!report.ok()) {
      result_->Fail("in-process replay: optimize failed for " + unit.family);
      return;
    }
    ++counts_->optimized;
    counts_->adorned_rules += report.value().adorned_rules;
    counts_->tree_classes += report.value().tree_classes;
    Result<CompiledProgram> compiled = [&] {
      Scope s(log_, "compile.compile", id);
      return CompileProgram(report.value().rewritten);
    }();
    const Database* edb = nullptr;
    {
      Scope s(log_, "engine.edb", id);
      edb = &session->SharedEdb();
    }
    const std::string reply = EvaluateAndEncode(
        report.value().rewritten, compiled.ok() ? &compiled.value() : nullptr,
        *edb, id);
    CheckQuery(RoundTripReply(reply, id), unit.expected, unit.family);
  }

  // oneshot-eval: a warm unit; Prepare is a cache hit.
  void WarmQuery(const Unit& unit, int64_t id) {
    const std::optional<ClientMessage> msg =
        DecodeRequest(EncodeInline(unit.source, id), id);
    Session* session = pool_.at(&unit);
    const PreparedProgram* prepared = nullptr;
    const Database* edb = nullptr;
    {
      Scope s(log_, "engine.prepare", id);
      prepared = session->Prepare().value();
      edb = &session->SharedEdb();
    }
    const std::string reply = EvaluateAndEncode(
        prepared->program(), prepared->compiled.get(), *edb, id);
    CheckQuery(RoundTripReply(reply, id), unit.expected, unit.family);
  }

  MaterializedView* View(int session, int64_t id) {
    Scope s(log_, "engine.prepare", id);
    Session* owner = views_[static_cast<size_t>(session)];
    return owner->Materialize(*owner->Prepare().value()).value();
  }

  void Write(const SampleOp& op, int64_t id) {
    ++counts_->writes;
    const ViewSession& vs = w_.sessions[static_cast<size_t>(op.session)];
    const Batch& batch = vs.BatchFor(op.batch);
    std::string request;
    {
      Scope s(log_, "proto.encode_request", id);
      ApplyDeltaParams params;
      params.session = vs.name;
      params.inserts = batch.inserts;
      params.deletes = batch.deletes;
      request = EncodeFrame(EncodeApplyDelta(static_cast<uint64_t>(id), params));
    }
    const std::optional<ClientMessage> msg = DecodeRequest(request, id);
    FactDelta delta;
    {
      Scope s(log_, "parser.fact_parse", id);
      if (msg) {
        for (const std::string& text : msg->delta.inserts) {
          delta.inserts.push_back(ParseAtomText(text).value());
        }
        for (const std::string& text : msg->delta.deletes) {
          delta.deletes.push_back(ParseAtomText(text).value());
        }
      }
    }
    MaterializedView* view = View(op.session, id);
    DeltaResponse response;
    {
      Scope s(log_, "maintain.apply", id);
      Result<MaintainStats> stats = view->ApplyDelta(delta);
      if (stats.ok()) {
        response.stats = stats.value();
        response.snapshot_version = stats.value().version;
      } else {
        response.status = stats.status();
      }
    }
    counts_->recomputed += response.stats.recomputed ? 1 : 0;
    counts_->over_deleted += response.stats.over_deleted;
    counts_->rederived += response.stats.rederived;
    counts_->idb_delta += response.stats.idb_inserted + response.stats.idb_deleted;
    std::string reply;
    {
      Scope s(log_, "proto.encode_reply", id);
      reply = EncodeFrame(
          EncodeApplyDeltaResponse(static_cast<uint64_t>(id), response));
    }
    const std::optional<ServerMessage> decoded = RoundTripReply(reply, id);
    if (!decoded || !decoded->delta.status.ok()) {
      result_->Fail("in-process replay: delta failed on " + vs.name);
    }
    batches_[op.session] = op.batch + 1;
  }

  void Read(const SampleOp& op, int64_t id) {
    ++counts_->reads;
    const ViewSession& vs = w_.sessions[static_cast<size_t>(op.session)];
    std::string request;
    {
      Scope s(log_, "proto.encode_request", id);
      QueryParams params;
      params.session = vs.name;
      request = EncodeFrame(EncodeQuery(static_cast<uint64_t>(id), params));
    }
    DecodeRequest(request, id);
    MaterializedView* view = View(op.session, id);
    Response response;
    {
      Scope s(log_, "view.answers", id);
      response.answers = view->Answers(&response.snapshot_version);
    }
    response.served_from_view = true;
    response.optimized = true;
    std::string reply;
    {
      Scope s(log_, "proto.encode_reply", id);
      reply = EncodeFrame(
          EncodeQueryResponse(static_cast<uint64_t>(id), MsgType::kQuery, response));
    }
    // The in-process view starts at the base facts; after sample batch b
    // it holds the state of pair-sequence position b + 1.
    auto it = batches_.find(op.session);
    const int64_t logical = it == batches_.end() ? 0 : it->second;
    CheckQuery(RoundTripReply(reply, id), vs.ExpectedAt(logical), vs.name);
  }

  const Workload& w_;
  SpanLog* log_;
  Counts* counts_;
  LoadResult* result_;
  Engine engine_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::unordered_map<const Unit*, Session*> pool_;  // oneshot-eval
  std::vector<Session*> views_;  // view-churn, indexed like w_.sessions
  std::unordered_map<int, int64_t> batches_;  // session -> batches applied
};

// Span name -> (per-layer metric, denominator) for every layer call.
enum class Per { kOp, kWrite, kRead };
struct LayerMetric {
  const char* span;
  const char* metric;
  Per per;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"parser.parse", "parser.parse_us_per_op", Per::kOp},
    {"parser.fact_parse", "parser.fact_parse_us_per_batch", Per::kWrite},
    {"sqo.optimize", "sqo.optimize_us_per_op", Per::kOp},
    {"compile.compile", "compile.compile_us_per_op", Per::kOp},
    {"eval.evaluate", "eval.evaluate_us_per_op", Per::kOp},
    {"eval.collect", "eval.collect_us_per_op", Per::kOp},
    {"engine.open", "engine.session_us_per_op", Per::kOp},
    {"engine.edb", "engine.session_us_per_op", Per::kOp},
    {"engine.prepare", "engine.session_us_per_op", Per::kOp},
    {"maintain.apply", "maintain.apply_us_per_batch", Per::kWrite},
    {"view.answers", "view.answers_us_per_read", Per::kRead},
    {"proto.encode_request", "proto.encode_request_us_per_op", Per::kOp},
    {"proto.decode_request", "proto.decode_request_us_per_op", Per::kOp},
    {"proto.encode_reply", "proto.encode_reply_us_per_op", Per::kOp},
    {"proto.decode_reply", "proto.decode_reply_us_per_op", Per::kOp},
};

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

void WriteSpans(const std::string& path, const Workload& w,
                const std::vector<std::vector<SpanRecord>>& passes) {
  std::ofstream out(path);
  out << "{\"workload\":\"" << w.name << "\",\"seed\":" << w.seed
      << ",\"spans\":[";
  const char* sep = "";
  for (size_t pass = 0; pass < passes.size(); ++pass) {
    const std::vector<SpanRecord>& spans = passes[pass];
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      out << sep << "\n{\"pass\":" << pass << ",\"id\":" << i
          << ",\"name\":\"" << s.name << "\",\"op\":" << s.op
          << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << "}";
      sep = ",";
    }
  }
  out << "\n]}\n";
}

// Self time of every span of one pass, keyed by (op, span name); the root
// "op" spans are left out.
std::map<std::pair<int64_t, std::string>, double> SelfTimes(
    const std::vector<SpanRecord>& recs) {
  std::vector<int64_t> child_ns(recs.size(), 0);
  for (const SpanRecord& s : recs) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::pair<int64_t, std::string>, double> self;
  for (size_t i = 0; i < recs.size(); ++i) {
    const SpanRecord& s = recs[i];
    if (std::string(s.name) == "op") continue;
    self[{s.op, s.name}] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]);
  }
  return self;
}

}  // namespace

Metrics TracedRun(const Workload& w, const std::vector<SampleOp>& sample,
                  const std::vector<double>& wire_us,
                  const std::string& spans_path, LoadResult* result) {
  // Untraced and traced passes alternate, five of each; every figure is a
  // median over the five, which keeps a burst of outside load in one pass
  // (on a shared host, whole passes run twice as slow) out of the result.
  // Counts are identical in every pass.
  constexpr int kPasses = 5;
  std::vector<double> untraced_ns;
  std::vector<double> traced_ns;
  std::vector<std::vector<SpanRecord>> traced_spans;
  Counts counts;
  for (int pass = 0; pass < 2 * kPasses; ++pass) {
    const bool traced = pass % 2 == 1;
    SpanLog log(traced);
    Counts pass_counts;
    LoadResult scratch;
    auto replay = std::make_unique<Replay>(w, &log, &pass_counts, &scratch);
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < sample.size(); ++i) {
      replay->Run(sample[i], static_cast<int64_t>(i));
    }
    const double ns = static_cast<double>(NowNs() - t0);
    if (traced) {
      traced_ns.push_back(ns);
      traced_spans.push_back(log.spans());
      counts = pass_counts;
    } else {
      untraced_ns.push_back(ns);
    }
    result->attempted += static_cast<int64_t>(sample.size());
    result->succeeded += static_cast<int64_t>(sample.size()) - scratch.failed;
    result->Merge(std::move(scratch));
  }
  WriteSpans(spans_path, w, traced_spans);

  // Median self time per (op, span name) over the traced passes, folded
  // per layer and per op.
  std::map<std::pair<int64_t, std::string>, std::vector<double>> samples;
  for (const std::vector<SpanRecord>& recs : traced_spans) {
    for (const auto& [key, ns] : SelfTimes(recs)) samples[key].push_back(ns);
  }
  std::map<std::string, double> layer_ns;
  std::vector<double> op_self_ns(sample.size(), 0);
  std::map<std::string, std::map<std::string, double>> by_type;
  for (const auto& [key, values] : samples) {
    const double self = Median(values);
    layer_ns[key.second] += self;
    op_self_ns[static_cast<size_t>(key.first)] += self;
    const SampleOp& op = sample[static_cast<size_t>(key.first)];
    const char* type = op.type == SampleOp::Type::kInline  ? "query"
                       : op.type == SampleOp::Type::kWrite ? "write"
                                                           : "read";
    by_type[type][key.second] += self / 1e3;
  }

  Metrics m;
  const double ops = static_cast<double>(counts.ops);
  for (const LayerMetric& lm : kLayerMetrics) {
    Metric& metric = m[lm.metric];
    metric.unit = "us";
    const double den = lm.per == Per::kOp      ? ops
                       : lm.per == Per::kWrite ? static_cast<double>(counts.writes)
                                               : static_cast<double>(counts.reads);
    auto it = layer_ns.find(lm.span);
    if (it != layer_ns.end()) metric.value += Ratio(it->second / 1e3, den);
  }
  auto count = [&m](const char* name, double value, const char* unit) {
    m[name] = {value, unit, ""};
  };
  count("sqo.adorned_rules_per_op",
        Ratio(static_cast<double>(counts.adorned_rules),
              static_cast<double>(counts.optimized)),
        "count");
  count("sqo.tree_classes_per_op",
        Ratio(static_cast<double>(counts.tree_classes),
              static_cast<double>(counts.optimized)),
        "count");
  const double evaluated = static_cast<double>(counts.evaluated);
  count("eval.join_probes_per_op",
        Ratio(static_cast<double>(counts.eval.join_probes), evaluated), "count");
  count("eval.tuples_derived_per_op",
        Ratio(static_cast<double>(counts.eval.tuples_derived), evaluated),
        "count");
  count("eval.iterations_per_op",
        Ratio(static_cast<double>(counts.eval.iterations), evaluated), "count");
  count("eval.duplicate_ratio",
        Ratio(static_cast<double>(counts.eval.duplicate_derivations),
              static_cast<double>(counts.eval.rule_firings)),
        "ratio");
  const double writes = static_cast<double>(counts.writes);
  count("maintain.over_deletion_ratio",
        Ratio(static_cast<double>(counts.rederived),
              static_cast<double>(counts.over_deleted)),
        "ratio");
  count("maintain.idb_delta_per_batch",
        Ratio(static_cast<double>(counts.idb_delta), writes), "count");
  count("maintain.recompute_share",
        Ratio(static_cast<double>(counts.recomputed), writes), "ratio");
  count("proto.request_bytes_per_op",
        Ratio(static_cast<double>(counts.request_bytes), ops), "bytes");
  count("proto.reply_bytes_per_op",
        Ratio(static_cast<double>(counts.reply_bytes), ops), "bytes");

  // sqo.eval_speedup: original over rewritten evaluation time per pool
  // unit, each the fastest of three runs.
  double speedup_sum = 0;
  double speedup_min = 0;
  if (w.kind == Kind::kOneshotEval) {
    Engine engine;
    for (const Unit& unit : w.units) {
      std::optional<Session> session;
      session.emplace(engine.Open(unit.source).take());
      const PreparedProgram* prepared = session->Prepare().value();
      const Database& edb = session->SharedEdb();
      double original = 1e300;
      double rewritten = 1e300;
      for (int rep = 0; rep < 3; ++rep) {
        int64_t t0 = NowNs();
        session->ExecuteOriginal(edb).value();
        original = std::min(original, static_cast<double>(NowNs() - t0));
        t0 = NowNs();
        session->Execute(*prepared, edb).value();
        rewritten = std::min(rewritten, static_cast<double>(NowNs() - t0));
      }
      const double speedup = original / rewritten;
      speedup_sum += speedup;
      speedup_min = speedup_min == 0 ? speedup : std::min(speedup_min, speedup);
    }
    speedup_sum /= static_cast<double>(w.units.size());
  }
  count("sqo.eval_speedup", speedup_sum, "ratio");
  count("sqo.eval_speedup_min", speedup_min, "ratio");

  // Coverage and the residual against the concurrency-1 wire round trips.
  double wire_total = 0;
  double self_total = 0;
  for (size_t i = 0; i < sample.size() && i < wire_us.size(); ++i) {
    wire_total += wire_us[i];
    self_total += op_self_ns[i] / 1e3;
  }
  count("trace.coverage", Ratio(self_total, wire_total), "ratio");
  count("net.residual_us_per_op",
        Ratio(wire_total - self_total, static_cast<double>(wire_us.size())),
        "us");
  count("trace.overhead", Ratio(Median(traced_ns), Median(untraced_ns)),
        "ratio");

  // The largest layers by self time per op type, for the report.
  for (const auto& [type, layers] : by_type) {
    std::vector<std::pair<double, std::string>> ranked;
    for (const auto& [name, us] : layers) ranked.emplace_back(us, name);
    std::sort(ranked.rbegin(), ranked.rend());
    std::string line;
    for (size_t i = 0; i < ranked.size() && i < 4; ++i) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%s%s %.0fus", i == 0 ? "" : ", ",
                    ranked[i].second.c_str(), ranked[i].first);
      line += buf;
    }
    m["trace.top_self." + type] = {0, "", line};
  }
  return m;
}

}  // namespace perfbench
