#include "src/service/query_service.h"

#include <chrono>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/engine/explain.h"
#include "src/obs/export.h"
#include "src/obs/trace.h"

namespace sqod {

namespace {

EngineOptions MakeEngineOptions(const ServiceOptions& options) {
  EngineOptions engine_options;
  engine_options.metrics = options.metrics;
  return engine_options;
}

ThreadPool::Options MakePoolOptions(const ServiceOptions& options) {
  ThreadPool::Options pool_options;
  pool_options.threads = options.threads;
  pool_options.max_queue = options.max_queue;
  return pool_options;
}

// Per-tenant metric names live under "tenant/<name>/"; empty tenant means
// untenanted (no extra series — the service/ aggregates already cover it).
std::string TenantMetric(const std::string& tenant, const char* suffix) {
  return "tenant/" + tenant + "/" + suffix;
}

template <typename Req>
constexpr bool kIsDelta = std::is_same_v<Req, DeltaRequest>;

// The absolute deadline of a request, or why it is rejected before
// admission. A delta batch has no deadline.
template <typename Req>
Result<int64_t> AdmissionDeadline([[maybe_unused]] const Req& request,
                                  int64_t submit_ns) {
  if constexpr (kIsDelta<Req>) {
    return DeadlineNsFromMs(-1, submit_ns);
  } else {
    return DeadlineNsFromMs(request.deadline_ms, submit_ns);
  }
}

// The outcome counter a finished request bumps. Queries split
// cancellations and deadline misses from other failures; batches have
// neither.
const char* OutcomeCounter(bool delta, StatusCode code) {
  if (delta) {
    return code == StatusCode::kOk ? "service/delta_batches_completed"
                                   : "service/delta_batches_failed";
  }
  switch (code) {
    case StatusCode::kOk:
      return "service/requests_completed";
    case StatusCode::kCancelled:
      return "service/requests_cancelled";
    case StatusCode::kDeadlineExceeded:
      return "service/requests_deadline_exceeded";
    default:
      return "service/requests_failed";
  }
}

LogEvent NewEvent(const TraceContext& trace, const char* kind) {
  LogEvent event;
  event.ts_ns = NowNs();
  event.trace_id = trace.trace_id;
  event.request_id = trace.request_id;
  event.kind = kind;
  return event;
}

// A query's EXPLAIN report: the plan (or why P is served), joined with the
// evaluation's runtime when `profiles` is given and with the maintenance
// history of the view it was served from when `view` is given.
ExplainReport ExplainQuery(const PreparedProgram& prepared,
                           const Response& response,
                           const std::vector<RuleProfile>* profiles,
                           const MaterializedView* view) {
  ExplainReport explain =
      BuildExplainReport(prepared.report, prepared.compiled.get(),
                         &prepared.lowered);
  explain.fallback = prepared.fallback;
  if (profiles != nullptr) {
    AttachRuntime(prepared.program(), response.stats, *profiles,
                  static_cast<int64_t>(response.answers.size()),
                  response.execute_ns, &explain);
  }
  if (view != nullptr) {
    AttachMaintenance(view->totals(), view->last_batch(),
                      view->batches_applied(), &explain);
  }
  return explain;
}

// Adapts the callback API to a future: the returned callback fulfils
// `future`'s promise.
template <typename Resp>
std::function<void(Resp)> FulfilInto(std::future<Resp>* future) {
  auto promise = std::make_shared<std::promise<Resp>>();
  *future = promise->get_future();
  return [promise](Resp response) { promise->set_value(std::move(response)); };
}

}  // namespace

Result<int64_t> DeadlineNsFromMs(int64_t deadline_ms, int64_t now_ns) {
  if (deadline_ms == -1) return int64_t{-1};
  if (deadline_ms < 0) {
    return Status::InvalidArgument(
        "deadline_ms must be -1 (none) or >= 0, got " +
        std::to_string(deadline_ms));
  }
  // now_ns + deadline_ms * 1e6 must fit in int64; check before multiplying.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  if (deadline_ms > (kMax - now_ns) / 1'000'000) {
    return Status::InvalidArgument("deadline_ms " +
                                   std::to_string(deadline_ms) +
                                   " overflows the ns deadline scale");
  }
  return now_ns + deadline_ms * 1'000'000;
}

QueryService::QueryService(ServiceOptions options)
    : options_(options),
      engine_(MakeEngineOptions(options)),
      event_log_(kEventLogCapacity),
      pool_(MakePoolOptions(options)) {
  if (options_.metrics_snapshot_ms > 0) {
    // Baseline the diff window here, not in the thread: a request served
    // before the thread's first instruction must still show up in the
    // first delta.
    snapshot_thread_ = std::thread(
        [this, prev = metrics().Snapshot()]() mutable {
          SnapshotLoop(std::move(prev));
        });
  }
}

QueryService::~QueryService() { Shutdown(); }

void QueryService::Submit(Request request,
                          std::function<void(Response)> done) {
  Admit(std::move(request), std::move(done));
}

std::future<Response> QueryService::Submit(Request request) {
  std::future<Response> future;
  Submit(std::move(request), FulfilInto(&future));
  return future;
}

Response QueryService::Call(Request request) {
  return Submit(std::move(request)).get();
}

void QueryService::ApplyDelta(DeltaRequest request,
                              std::function<void(DeltaResponse)> done) {
  Admit(std::move(request), std::move(done));
}

std::future<DeltaResponse> QueryService::ApplyDelta(DeltaRequest request) {
  std::future<DeltaResponse> future;
  ApplyDelta(std::move(request), FulfilInto(&future));
  return future;
}

DeltaResponse QueryService::CallApplyDelta(DeltaRequest request) {
  return ApplyDelta(std::move(request)).get();
}

template <typename Req, typename Resp>
void QueryService::Admit(Req request, std::function<void(Resp)> done) {
  constexpr bool kDelta = kIsDelta<Req>;
  auto job = std::make_shared<Job<Req, Resp>>();
  job->request = std::move(request);
  job->done = std::move(done);
  TraceContext& trace = job->trace;
  trace.submit_ns = NowNs();
  trace.trace_id = NextTraceId();
  trace.request_id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  trace.metrics = &metrics();
  trace.tracer.set_enabled(job->request.trace);
  Tracer& tracer = trace.tracer;
  const std::string& tenant = job->request.tenant;

  // Rejection accounting under the kind's names; queries also count the
  // cause.
  auto reject = [&](Status status, const char* cause) {
    metrics()
        .GetCounter(kDelta ? "service/delta_batches_rejected"
                           : "service/requests_rejected")
        ->Increment();
    if (!kDelta) metrics().GetCounter(cause)->Increment();
    if (!tenant.empty()) {
      metrics().GetCounter(TenantMetric(tenant, "rejected"))->Increment();
    }
    Resp response;
    response.trace_id = trace.trace_id;
    response.status = std::move(status);
    return response;
  };

  // The single ms→ns deadline conversion. Invalid deadlines are rejected
  // here, before admission, like any other malformed request.
  Result<int64_t> deadline = AdmissionDeadline(job->request, trace.submit_ns);
  if (!deadline.ok()) {
    job->done(reject(deadline.status(), "service/requests_rejected_invalid"));
    return;
  }
  trace.deadline_ns = deadline.value();

  // Everything the submitting thread records must happen strictly before
  // the pool handoff: a worker may start (and touch the tracer) the moment
  // the job is enqueued.
  // No trace-id attr here: the Chrome-trace exporter stamps every event's
  // args with the hex trace id, and a second (integer) copy on the root
  // span would shadow it.
  job->root_span =
      tracer.StartSpanAt(kDelta ? "delta" : "request", trace.submit_ns);
  job->root_span.SetAttr("request_id",
                         static_cast<int64_t>(trace.request_id));
  if constexpr (kDelta) {
    job->root_span.SetAttr(
        "inserts", static_cast<int64_t>(job->request.delta.inserts.size()));
    job->root_span.SetAttr(
        "deletes", static_cast<int64_t>(job->request.delta.deletes.size()));
  }
  {
    Span admission =
        tracer.StartSpan(kDelta ? "delta.admission" : "request.admission");
    admission.SetAttr("queue_depth",
                      static_cast<int64_t>(pool_.queue_depth()));
  }

  ThreadPool::SubmitResult submitted =
      pool_.Submit([this, job] { Process(job.get()); });
  if (submitted == ThreadPool::SubmitResult::kAccepted) {
    metrics()
        .GetCounter(kDelta ? "service/delta_batches"
                           : "service/requests_accepted")
        ->Increment();
    if (!tenant.empty()) {
      metrics()
          .GetCounter(TenantMetric(tenant, kDelta ? "delta_batches"
                                                  : "requests"))
          ->Increment();
    }
    return;
  }

  const bool queue_full = submitted == ThreadPool::SubmitResult::kQueueFull;
  Resp response =
      queue_full
          ? reject(Status::ResourceExhausted(
                       "admission queue full (max_queue=" +
                       std::to_string(options_.max_queue) + ")"),
                   "service/requests_rejected_queue_full")
          : reject(Status::FailedPrecondition("service is shut down"),
                   "service/requests_rejected_shutdown");
  // Rejected queries never waited, but they still contribute a sample: the
  // queue-wait distribution covers every submitted query, so load shedding
  // pulls the percentiles down instead of hiding them.
  if (!kDelta) metrics().GetHistogram("service/queue_wait_ns")->Record(0);
  job->root_span.SetAttr("rejected", 1);
  job->root_span.End();
  if (tracer.enabled()) response.spans = tracer.TakeSpans();

  LogEvent event = NewEvent(trace, "request_rejected");
  event.fields.emplace_back("queue_full", queue_full ? 1 : 0);
  if (kDelta) event.fields.emplace_back("delta", 1);
  event.message = response.status.message();
  event_log_.Append(std::move(event));
  job->done(std::move(response));
}

void QueryService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    stopping_ = true;
  }
  snapshot_cv_.notify_all();
  if (snapshot_thread_.joinable()) snapshot_thread_.join();
  pool_.Shutdown();
}

void QueryService::SnapshotLoop(MetricsSnapshot prev) {
  const auto period = std::chrono::milliseconds(options_.metrics_snapshot_ms);
  std::unique_lock<std::mutex> lock(snapshot_mu_);
  while (!stopping_) {
    snapshot_cv_.wait_for(lock, period, [&] { return stopping_; });
    if (stopping_) break;
    // Snapshot without holding snapshot_mu_? Not needed: the registry has
    // its own lock and nothing else takes snapshot_mu_ except Shutdown.
    MetricsSnapshot curr = metrics().Snapshot();
    MetricsSnapshot diff = DiffSnapshots(prev, curr);
    prev = std::move(curr);
    if (diff.empty()) continue;
    LogEvent event;
    event.ts_ns = NowNs();
    event.kind = "metrics_snapshot";
    event.fields.emplace_back(
        "counters", static_cast<int64_t>(diff.counters.size()));
    event.fields.emplace_back("gauges",
                              static_cast<int64_t>(diff.gauges.size()));
    event.fields.emplace_back(
        "histograms", static_cast<int64_t>(diff.histograms.size()));
    event.message = RenderSnapshotDiff(diff);
    event_log_.Append(std::move(event));
  }
}

std::shared_ptr<QueryService::SessionEntry> QueryService::GetSession(
    const std::string& tenant, const std::string& source) {
  // Tenant-qualified key: identical sources under different tenants parse
  // into separate Session objects (separate prepared programs, separate
  // materialized views) — a tenant can never warm or observe another's
  // state. '\x1f' (ASCII unit separator) cannot appear in a tenant name.
  std::string key;
  key.reserve(tenant.size() + 1 + source.size());
  key.append(tenant);
  key.push_back('\x1f');
  key.append(source);
  std::shared_ptr<SessionEntry> entry;
  // Evicted entries are destroyed after the lock is released, so tearing
  // down a large session does not stall every other request's lookup.
  std::vector<std::shared_ptr<SessionEntry>> evicted;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    auto [it, inserted] = sessions_.try_emplace(std::move(key));
    if (inserted) {
      it->second = std::make_shared<SessionEntry>();
      lru_.push_front(&*it);
      it->second->lru_pos = lru_.begin();
      it->second->in_lru = true;
    } else if (it->second->in_lru) {
      lru_.splice(lru_.begin(), lru_, it->second->lru_pos);
    }
    entry = it->second;
    // `entry` is held, so the walk cannot evict the session just touched.
    EvictIdleSessionsLocked(&evicted);
    metrics().GetGauge("service/sessions_live")
        ->Set(static_cast<int64_t>(sessions_.size()));
  }
  // Parse single-flight, outside the map lock: concurrent first requests
  // for the same source block here instead of serializing all sources.
  std::call_once(entry->once, [&] {
    Result<Session> opened = engine_.Open(source);
    if (opened.ok()) {
      entry->session = std::make_unique<Session>(std::move(opened).value());
    } else {
      entry->status = opened.status();
    }
  });
  return entry;
}

void QueryService::EvictIdleSessionsLocked(
    std::vector<std::shared_ptr<SessionEntry>>* evicted) {
  auto it = lru_.end();
  while (lru_.size() > kSessionCacheCapacity && it != lru_.begin()) {
    --it;
    SessionMap::value_type* node = *it;
    SessionEntry& entry = *node->second;
    // A use count of 1 is the map's own reference: no request holds the
    // entry, and none can take it while sessions_mu_ is held, so no parse,
    // prepare or delta is under way on it.
    if (node->second.use_count() > 1) continue;
    it = lru_.erase(it);
    if (entry.session != nullptr && entry.session->has_view()) {
      entry.in_lru = false;  // retained for good
      continue;
    }
    auto map_it = sessions_.find(node->first);
    evicted->push_back(std::move(map_it->second));
    sessions_.erase(map_it);
    metrics().GetCounter("service/sessions_evicted")->Increment();
  }
}

template <typename Req, typename Resp>
Resp QueryService::Dequeue(Job<Req, Resp>* job) {
  const int64_t queue_wait_ns = NowNs() - job->trace.submit_ns;
  metrics().GetHistogram("service/queue_wait_ns")->Record(queue_wait_ns);
  {
    // Retroactive: the wait was observed ending now, having started at
    // submission.
    Span queue = job->trace.tracer.StartSpanAt(
        kIsDelta<Req> ? "delta.queue" : "request.queue",
        job->trace.submit_ns);
  }
  Resp response;
  response.trace_id = job->trace.trace_id;
  response.queue_wait_ns = queue_wait_ns;
  return response;
}

template <typename Req, typename Resp>
Status QueryService::OpenAndPrepare(Job<Req, Resp>* job, Resp* response,
                                    std::shared_ptr<SessionEntry>* entry,
                                    const PreparedProgram** prepared) {
  constexpr bool kDelta = kIsDelta<Req>;
  Tracer& tracer = job->trace.tracer;
  // A query's prepare span and prepare_ns include the session lookup (and
  // the parse on a first touch); a batch's span covers Prepare alone.
  const int64_t start_ns = NowNs();
  Span span;
  if (!kDelta) span = tracer.StartSpan("request.prepare");
  *entry = GetSession(job->request.tenant, job->request.source);
  if ((*entry)->session == nullptr) return (*entry)->status;
  // A unit without `?-` has no answers to compute or to maintain.
  if ((*entry)->session->program().query() == -1) {
    if (!kDelta) {
      metrics().GetCounter("service/requests_rejected_invalid")->Increment();
    }
    return Status::InvalidArgument("the unit has no query (?- p.)");
  }
  if (kDelta) span = tracer.StartSpan("delta.prepare");

  // Prepare is single-flight in the session: the first request for this
  // unit runs the Levy–Sagiv pipeline (its "sqo.*" spans landing under this
  // request's prepare span), concurrent ones block on the in-flight entry,
  // later ones hit the cache.
  bool cache_hit = false;
  Result<const PreparedProgram*> result =
      (*entry)->session->Prepare(&tracer, &cache_hit);
  span.SetAttr("cache_hit", cache_hit ? 1 : 0);
  if constexpr (!kDelta) {
    response->prepare_ns = NowNs() - start_ns;
    response->prepare_cache_hit = cache_hit;
    metrics().GetHistogram("service/prepare_ns")->Record(response->prepare_ns);
  }
  if (!result.ok()) return result.status();
  *prepared = result.value();
  if (!(*prepared)->fallback.ok()) {
    metrics().GetCounter("service/prepare_fallbacks")->Increment();
  }
  if constexpr (!kDelta) {
    response->optimized = (*prepared)->fallback.ok();
    for (const PassRunInfo& info : (*prepared)->report.pass_runs) {
      if (info.ran()) ++response->passes_ran;
    }
  }
  return Status::Ok();
}

template <typename Req, typename Resp>
void QueryService::Finish(
    Job<Req, Resp>* job, Resp response, Status status,
    const std::function<std::string(const std::type_identity_t<Resp>&)>&
        summary) {
  constexpr bool kDelta = kIsDelta<Req>;
  MetricsRegistry& metrics = this->metrics();
  response.status = std::move(status);
  const StatusCode code = response.status.code();
  metrics.GetCounter(OutcomeCounter(kDelta, code))->Increment();

  const int64_t total_ns = NowNs() - job->trace.submit_ns;
  const std::string& tenant = job->request.tenant;
  if (!tenant.empty()) {
    metrics
        .GetCounter(TenantMetric(tenant, response.status.ok() ? "completed"
                                                              : "errors"))
        ->Increment();
    metrics.GetHistogram(TenantMetric(tenant, "latency_ns"))
        ->Record(total_ns);
  }
  job->root_span.SetAttr("status_code", static_cast<int64_t>(code));
  if constexpr (kDelta) {
    job->root_span.SetAttr("version", response.snapshot_version);
  } else {
    job->root_span.SetAttr("answers",
                           static_cast<int64_t>(response.answers.size()));
  }
  job->root_span.End();
  Tracer& tracer = job->trace.tracer;
  if (tracer.enabled()) response.spans = tracer.TakeSpans();

  const std::string error =
      response.status.ok() ? std::string()
                           : std::string(StatusCodeName(code)) + ": " +
                                 response.status.message();
  if (!response.status.ok()) {
    LogEvent event = NewEvent(job->trace, "request_error");
    event.fields.emplace_back("code", static_cast<int64_t>(code));
    event.fields.emplace_back("total_ns", total_ns);
    if (kDelta) event.fields.emplace_back("delta", 1);
    event.message = error;
    event_log_.Append(std::move(event));
  }

  // Slow batches land in the same ring as slow queries, joinable with
  // their span tree by trace id.
  if (options_.slow_query_ms >= 0 &&
      total_ns >= options_.slow_query_ms * 1'000'000) {
    metrics.GetCounter("service/slow_queries")->Increment();
    LogEvent event =
        NewEvent(job->trace, kDelta ? "slow_delta" : "slow_query");
    event.fields.emplace_back("total_ns", total_ns);
    event.fields.emplace_back("queue_wait_ns", response.queue_wait_ns);
    if constexpr (kDelta) {
      event.fields.emplace_back("materialize_ns", response.materialize_ns);
      event.fields.emplace_back("maintain_ns", response.maintain_ns);
      event.fields.emplace_back("version", response.snapshot_version);
    } else {
      event.fields.emplace_back("prepare_ns", response.prepare_ns);
      event.fields.emplace_back("execute_ns", response.execute_ns);
      event.fields.emplace_back(
          "answers", static_cast<int64_t>(response.answers.size()));
    }
    event.message = response.status.ok() ? summary(response) : error;
    event_log_.Append(std::move(event));
  }

  job->done(std::move(response));
}

void QueryService::Process(Job<DeltaRequest, DeltaResponse>* job) {
  DeltaResponse response = Dequeue(job);
  auto finish = [&](Status status) {
    Finish(job, std::move(response), std::move(status),
           [](const DeltaResponse& done) { return done.stats.Summary(); });
  };

  std::shared_ptr<SessionEntry> entry;
  const PreparedProgram* prepared = nullptr;
  Status opened = OpenAndPrepare(job, &response, &entry, &prepared);
  if (!opened.ok()) {
    finish(std::move(opened));
    return;
  }

  Tracer& tracer = job->trace.tracer;
  Span materialize_span = tracer.StartSpan("delta.materialize");
  const int64_t materialize_start_ns = NowNs();
  Result<MaterializedView*> view = entry->session->Materialize(*prepared);
  response.materialize_ns = NowNs() - materialize_start_ns;
  materialize_span.End();
  if (!view.ok()) {
    finish(view.status());
    return;
  }

  Span maintain_span = tracer.StartSpan("delta.maintain");
  const int64_t maintain_start_ns = NowNs();
  Result<MaintainStats> stats = view.value()->ApplyDelta(job->request.delta);
  response.maintain_ns = NowNs() - maintain_start_ns;
  metrics().GetHistogram("service/apply_delta_ns")
      ->Record(response.maintain_ns);
  if (!stats.ok()) {
    maintain_span.End();
    finish(stats.status());
    return;
  }
  response.stats = stats.value();
  response.snapshot_version = response.stats.version;
  maintain_span.SetAttr("version", response.snapshot_version);
  maintain_span.SetAttr("recomputed", response.stats.recomputed ? 1 : 0);
  maintain_span.SetAttr("idb_delta", response.stats.idb_inserted +
                                         response.stats.idb_deleted);
  maintain_span.End();
  finish(Status::Ok());
}

void QueryService::Process(Job<Request, Response>* job) {
  Response response = Dequeue(job);
  MetricsRegistry& metrics = this->metrics();
  Tracer& tracer = job->trace.tracer;

  // What the EXPLAIN report joins; filled as the request advances.
  const PreparedProgram* prepared = nullptr;
  const MaterializedView* served_view = nullptr;
  std::vector<RuleProfile> profiles;
  auto finish = [&](Status status) {
    // Only an OK request is summarized, and it always got past Prepare.
    Finish(job, std::move(response), std::move(status),
           [&](const Response& done) {
             return ExplainQuery(*prepared, done, &profiles, served_view)
                 .Summary();
           });
  };

  const CancelToken* cancel = job->request.cancel.get();
  if (cancel != nullptr && cancel->cancelled()) {
    finish(Status::Cancelled("request cancelled before execution"));
    return;
  }
  const int64_t deadline_ns = job->trace.deadline_ns;
  if (deadline_ns >= 0 && NowNs() >= deadline_ns) {
    metrics.GetCounter("service/requests_expired_in_queue")->Increment();
    finish(Status::DeadlineExceeded("deadline expired in the queue after " +
                                    FormatDurationNs(response.queue_wait_ns)));
    return;
  }

  std::shared_ptr<SessionEntry> entry;
  Status opened = OpenAndPrepare(job, &response, &entry, &prepared);
  if (!opened.ok()) {
    finish(std::move(opened));
    return;
  }
  Session& session = *entry->session;

  // Load-only requests (the front-end's LoadProgram) stop here: the unit
  // parsed and the optimizer pipeline ran, so later queries on this session
  // reuse its prepared program.
  if (job->request.load_only) {
    response.snapshot_version = 0;
    finish(Status::Ok());
    return;
  }

  // Materialized-view fast path: copy the warm answers out under the
  // view's shared lock instead of evaluating. The first such request pays
  // the initial fixpoint (inside Materialize).
  if (job->request.materialized) {
    Span view_span = tracer.StartSpan("request.view");
    const int64_t exec_start_ns = NowNs();
    Result<MaterializedView*> view = session.Materialize(*prepared);
    if (!view.ok()) {
      view_span.End();
      finish(view.status());
      return;
    }
    served_view = view.value();
    response.answers = served_view->Answers(&response.snapshot_version);
    response.execute_ns = NowNs() - exec_start_ns;
    metrics.GetHistogram("service/execute_ns")->Record(response.execute_ns);
    metrics.GetCounter("service/view_serves")->Increment();
    view_span.SetAttr("version", response.snapshot_version);
    view_span.SetAttr("answers",
                      static_cast<int64_t>(response.answers.size()));
    view_span.End();
    response.served_from_view = true;
    if (job->request.want_explain) {
      response.explain_json =
          ExplainQuery(*prepared, response, nullptr, served_view).ToJson();
    }
    finish(Status::Ok());
    return;
  }

  // Every request reads the session's frozen shared base snapshot — the
  // per-request EDB copy is gone. Freeze makes concurrent lazy index
  // builds safe; evaluation writes only to its own IDB relations.
  const Database& edb = session.SharedEdb();

  EvalOptions eval;
  eval.cancel = cancel;
  eval.deadline_ns = deadline_ns;
  eval.tracer = &tracer;
  // Per-rule profiles feed the slow-query log's EXPLAIN summary and the
  // traced response; untraced fast-path requests skip the clock reads.
  const bool slow_armed = options_.slow_query_ms >= 0;
  const bool want_profiles =
      slow_armed || job->request.trace || job->request.want_explain;
  eval.profile_rules = slow_armed;

  Span execute_span = tracer.StartSpan("request.execute");
  const int64_t exec_start_ns = NowNs();
  Result<std::vector<Tuple>> answers =
      session.Execute(*prepared, edb, eval, &response.stats,
                      want_profiles ? &profiles : nullptr);
  response.execute_ns = NowNs() - exec_start_ns;
  metrics.GetHistogram("service/execute_ns")->Record(response.execute_ns);
  execute_span.End();

  if (!answers.ok()) {
    finish(answers.status());
    return;
  }
  response.answers = std::move(answers).value();
  response.snapshot_version = 0;  // the immutable base snapshot
  if (job->request.want_explain) {
    response.explain_json =
        ExplainQuery(*prepared, response, &profiles, nullptr).ToJson();
  }
  finish(Status::Ok());
}

}  // namespace sqod
