#include "src/service/query_service.h"

#include <chrono>
#include <limits>
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
      event_log_(options.event_log_capacity),
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

void QueryService::Deliver(Job* job, Response response) {
  if (job->callback) {
    job->callback(std::move(response));
  } else {
    job->promise.set_value(std::move(response));
  }
}

void QueryService::Deliver(DeltaJob* job, DeltaResponse response) {
  if (job->callback) {
    job->callback(std::move(response));
  } else {
    job->promise.set_value(std::move(response));
  }
}

std::future<Response> QueryService::Submit(Request request) {
  auto job = std::make_shared<Job>();
  job->request = std::move(request);
  std::future<Response> future = job->promise.get_future();
  SubmitJob(std::move(job));
  return future;
}

void QueryService::Submit(Request request,
                          std::function<void(Response)> done) {
  auto job = std::make_shared<Job>();
  job->request = std::move(request);
  job->callback = std::move(done);
  SubmitJob(std::move(job));
}

void QueryService::SubmitJob(std::shared_ptr<Job> job) {
  job->submit_ns = NowNs();

  job->trace.trace_id = NextTraceId();
  job->trace.request_id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed);
  job->trace.submit_ns = job->submit_ns;
  job->trace.metrics = &metrics();
  job->trace.tracer.set_enabled(job->request.trace);
  Tracer& tracer = job->trace.tracer;

  // The single ms→ns deadline conversion. Invalid deadlines are rejected
  // here, before admission, like any other malformed request.
  Result<int64_t> deadline =
      DeadlineNsFromMs(job->request.deadline_ms, job->submit_ns);
  if (!deadline.ok()) {
    metrics().GetCounter("service/requests_rejected")->Increment();
    metrics().GetCounter("service/requests_rejected_invalid")->Increment();
    if (!job->request.tenant.empty()) {
      metrics()
          .GetCounter(TenantMetric(job->request.tenant, "rejected"))
          ->Increment();
    }
    Response response;
    response.trace_id = job->trace.trace_id;
    response.status = deadline.status();
    Deliver(job.get(), std::move(response));
    return;
  }
  job->deadline_ns = deadline.value();
  job->trace.deadline_ns = job->deadline_ns;

  // Everything the submitting thread records must happen strictly before
  // the pool handoff: a worker may start (and touch the tracer) the moment
  // Submit enqueues the job.
  // No trace-id attr here: the Chrome-trace exporter stamps every event's
  // args with the hex trace id, and a second (integer) copy on the root
  // span would shadow it.
  job->root_span = tracer.StartSpanAt("request", job->submit_ns);
  job->root_span.SetAttr("request_id",
                         static_cast<int64_t>(job->trace.request_id));
  {
    Span admission = tracer.StartSpan("request.admission");
    admission.SetAttr("queue_depth",
                      static_cast<int64_t>(pool_.queue_depth()));
  }

  ThreadPool::SubmitResult submitted =
      pool_.Submit([this, job] { Process(job.get()); });
  if (submitted == ThreadPool::SubmitResult::kAccepted) {
    metrics().GetCounter("service/requests_accepted")->Increment();
    if (!job->request.tenant.empty()) {
      metrics()
          .GetCounter(TenantMetric(job->request.tenant, "requests"))
          ->Increment();
    }
    return;
  }

  const bool queue_full = submitted == ThreadPool::SubmitResult::kQueueFull;
  metrics().GetCounter("service/requests_rejected")->Increment();
  metrics()
      .GetCounter(queue_full ? "service/requests_rejected_queue_full"
                             : "service/requests_rejected_shutdown")
      ->Increment();
  if (!job->request.tenant.empty()) {
    metrics()
        .GetCounter(TenantMetric(job->request.tenant, "rejected"))
        ->Increment();
  }
  // Rejected requests never waited, but they still contribute a sample:
  // the queue-wait distribution covers every submitted request, so load
  // shedding pulls the percentiles down instead of hiding them.
  metrics().GetHistogram("service/queue_wait_ns")->Record(0);

  Response response;
  response.trace_id = job->trace.trace_id;
  response.status =
      queue_full ? Status::ResourceExhausted(
                       "admission queue full (max_queue=" +
                       std::to_string(options_.max_queue) + ")")
                 : Status::FailedPrecondition("service is shut down");
  job->root_span.SetAttr("rejected", 1);
  job->root_span.End();
  if (tracer.enabled()) response.spans = tracer.TakeSpans();

  LogEvent event;
  event.ts_ns = NowNs();
  event.trace_id = job->trace.trace_id;
  event.request_id = job->trace.request_id;
  event.kind = "request_rejected";
  event.fields.emplace_back("queue_full", queue_full ? 1 : 0);
  event.message = response.status.message();
  event_log_.Append(std::move(event));

  Deliver(job.get(), std::move(response));
}

Response QueryService::Call(Request request) {
  return Submit(std::move(request)).get();
}

std::future<DeltaResponse> QueryService::ApplyDelta(DeltaRequest request) {
  auto job = std::make_shared<DeltaJob>();
  job->request = std::move(request);
  std::future<DeltaResponse> future = job->promise.get_future();
  SubmitDeltaJob(std::move(job));
  return future;
}

void QueryService::ApplyDelta(DeltaRequest request,
                              std::function<void(DeltaResponse)> done) {
  auto job = std::make_shared<DeltaJob>();
  job->request = std::move(request);
  job->callback = std::move(done);
  SubmitDeltaJob(std::move(job));
}

void QueryService::SubmitDeltaJob(std::shared_ptr<DeltaJob> job) {
  job->submit_ns = NowNs();

  job->trace.trace_id = NextTraceId();
  job->trace.request_id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed);
  job->trace.submit_ns = job->submit_ns;
  job->trace.metrics = &metrics();
  job->trace.tracer.set_enabled(job->request.trace);

  Tracer& tracer = job->trace.tracer;
  job->root_span = tracer.StartSpanAt("delta", job->submit_ns);
  job->root_span.SetAttr("request_id",
                         static_cast<int64_t>(job->trace.request_id));
  job->root_span.SetAttr(
      "inserts", static_cast<int64_t>(job->request.delta.inserts.size()));
  job->root_span.SetAttr(
      "deletes", static_cast<int64_t>(job->request.delta.deletes.size()));
  {
    Span admission = tracer.StartSpan("delta.admission");
    admission.SetAttr("queue_depth",
                      static_cast<int64_t>(pool_.queue_depth()));
  }

  ThreadPool::SubmitResult submitted =
      pool_.Submit([this, job] { ProcessDelta(job.get()); });
  if (submitted == ThreadPool::SubmitResult::kAccepted) {
    metrics().GetCounter("service/delta_batches")->Increment();
    if (!job->request.tenant.empty()) {
      metrics()
          .GetCounter(TenantMetric(job->request.tenant, "delta_batches"))
          ->Increment();
    }
    return;
  }

  const bool queue_full = submitted == ThreadPool::SubmitResult::kQueueFull;
  metrics().GetCounter("service/delta_batches_rejected")->Increment();
  if (!job->request.tenant.empty()) {
    metrics()
        .GetCounter(TenantMetric(job->request.tenant, "rejected"))
        ->Increment();
  }

  DeltaResponse response;
  response.trace_id = job->trace.trace_id;
  response.status =
      queue_full ? Status::ResourceExhausted(
                       "admission queue full (max_queue=" +
                       std::to_string(options_.max_queue) + ")")
                 : Status::FailedPrecondition("service is shut down");
  job->root_span.SetAttr("rejected", 1);
  job->root_span.End();
  if (tracer.enabled()) response.spans = tracer.TakeSpans();

  LogEvent event;
  event.ts_ns = NowNs();
  event.trace_id = job->trace.trace_id;
  event.request_id = job->trace.request_id;
  event.kind = "request_rejected";
  event.fields.emplace_back("queue_full", queue_full ? 1 : 0);
  event.fields.emplace_back("delta", 1);
  event.message = response.status.message();
  event_log_.Append(std::move(event));

  Deliver(job.get(), std::move(response));
}

DeltaResponse QueryService::CallApplyDelta(DeltaRequest request) {
  return ApplyDelta(std::move(request)).get();
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
  // into separate Session objects (separate prepare caches, separate
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
    if (entry.session != nullptr && entry.session->has_views()) {
      entry.in_lru = false;  // retained for good
      continue;
    }
    auto map_it = sessions_.find(node->first);
    evicted->push_back(std::move(map_it->second));
    sessions_.erase(map_it);
    metrics().GetCounter("service/sessions_evicted")->Increment();
  }
}

void QueryService::ProcessDelta(DeltaJob* job) {
  const int64_t start_ns = NowNs();
  MetricsRegistry& metrics = this->metrics();
  metrics.GetHistogram("service/queue_wait_ns")
      ->Record(start_ns - job->submit_ns);

  Tracer& tracer = job->trace.tracer;
  {
    Span queue = tracer.StartSpanAt("delta.queue", job->submit_ns);
  }

  DeltaResponse response;
  response.trace_id = job->trace.trace_id;
  response.queue_wait_ns = start_ns - job->submit_ns;

  auto finish = [&](Status status) {
    response.status = std::move(status);
    metrics
        .GetCounter(response.status.ok() ? "service/delta_batches_completed"
                                         : "service/delta_batches_failed")
        ->Increment();

    const int64_t total_ns = NowNs() - job->submit_ns;
    if (!job->request.tenant.empty()) {
      metrics
          .GetCounter(TenantMetric(job->request.tenant,
                                   response.status.ok() ? "completed"
                                                        : "errors"))
          ->Increment();
      metrics.GetHistogram(TenantMetric(job->request.tenant, "latency_ns"))
          ->Record(total_ns);
    }
    job->root_span.SetAttr("status_code",
                           static_cast<int64_t>(response.status.code()));
    job->root_span.SetAttr("version", response.snapshot_version);
    job->root_span.End();
    if (tracer.enabled()) response.spans = tracer.TakeSpans();

    if (!response.status.ok()) {
      LogEvent event;
      event.ts_ns = NowNs();
      event.trace_id = job->trace.trace_id;
      event.request_id = job->trace.request_id;
      event.kind = "request_error";
      event.fields.emplace_back("code",
                                static_cast<int64_t>(response.status.code()));
      event.fields.emplace_back("total_ns", total_ns);
      event.fields.emplace_back("delta", 1);
      event.message = std::string(StatusCodeName(response.status.code())) +
                      ": " + response.status.message();
      event_log_.Append(std::move(event));
    }

    // Slow maintenance batches land in the same ring as slow queries,
    // joinable with their span tree by trace id.
    if (options_.slow_query_ms >= 0 &&
        total_ns >= options_.slow_query_ms * 1'000'000) {
      metrics.GetCounter("service/slow_queries")->Increment();
      LogEvent event;
      event.ts_ns = NowNs();
      event.trace_id = job->trace.trace_id;
      event.request_id = job->trace.request_id;
      event.kind = "slow_delta";
      event.fields.emplace_back("total_ns", total_ns);
      event.fields.emplace_back("queue_wait_ns", response.queue_wait_ns);
      event.fields.emplace_back("materialize_ns", response.materialize_ns);
      event.fields.emplace_back("maintain_ns", response.maintain_ns);
      event.fields.emplace_back("version", response.snapshot_version);
      if (response.status.ok()) {
        event.message = response.stats.Summary();
      } else {
        event.message = std::string(StatusCodeName(response.status.code())) +
                        ": " + response.status.message();
      }
      event_log_.Append(std::move(event));
    }

    Deliver(job, std::move(response));
  };

  std::shared_ptr<SessionEntry> entry =
      GetSession(job->request.tenant, job->request.source);
  if (entry->session == nullptr) {
    finish(entry->status);
    return;
  }
  Session& session = *entry->session;

  // Maintenance has no original-program fallback: a view exists only for a
  // prepared (rewritten) program, so Prepare errors fail the batch.
  Span prepare_span = tracer.StartSpan("delta.prepare");
  SqoOptions sqo = job->request.sqo;
  if (sqo.tracer == nullptr) sqo.tracer = &tracer;
  bool cache_hit = false;
  Result<const PreparedProgram*> prepared = session.Prepare(sqo, &cache_hit);
  prepare_span.SetAttr("cache_hit", cache_hit ? 1 : 0);
  prepare_span.End();
  if (!prepared.ok()) {
    finish(prepared.status());
    return;
  }

  Span materialize_span = tracer.StartSpan("delta.materialize");
  const int64_t materialize_start_ns = NowNs();
  Result<MaterializedView*> view =
      session.Materialize(*prepared.value(), job->request.materialize);
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
  metrics.GetHistogram("service/apply_delta_ns")
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

void QueryService::Process(Job* job) {
  const int64_t start_ns = NowNs();
  MetricsRegistry& metrics = this->metrics();
  metrics.GetHistogram("service/queue_wait_ns")
      ->Record(start_ns - job->submit_ns);

  Tracer& tracer = job->trace.tracer;
  {
    // Retroactive: the wait was observed ending now, having started at
    // submission.
    Span queue = tracer.StartSpanAt("request.queue", job->submit_ns);
  }

  Response response;
  response.trace_id = job->trace.trace_id;
  response.queue_wait_ns = start_ns - job->submit_ns;

  // State the slow-query log reads at finish; filled as the request
  // advances.
  const PreparedProgram* prepared_program = nullptr;
  const MaterializedView* served_view = nullptr;
  std::vector<RuleProfile> profiles;
  const bool slow_armed = options_.slow_query_ms >= 0;

  auto finish = [&](Status status) {
    response.status = std::move(status);
    switch (response.status.code()) {
      case StatusCode::kOk:
        metrics.GetCounter("service/requests_completed")->Increment();
        break;
      case StatusCode::kCancelled:
        metrics.GetCounter("service/requests_cancelled")->Increment();
        break;
      case StatusCode::kDeadlineExceeded:
        metrics.GetCounter("service/requests_deadline_exceeded")->Increment();
        break;
      default:
        metrics.GetCounter("service/requests_failed")->Increment();
        break;
    }

    const int64_t total_ns = NowNs() - job->submit_ns;
    if (!job->request.tenant.empty()) {
      metrics
          .GetCounter(TenantMetric(job->request.tenant,
                                   response.status.ok() ? "completed"
                                                        : "errors"))
          ->Increment();
      metrics.GetHistogram(TenantMetric(job->request.tenant, "latency_ns"))
          ->Record(total_ns);
    }
    job->root_span.SetAttr("status_code",
                           static_cast<int64_t>(response.status.code()));
    job->root_span.SetAttr("answers",
                           static_cast<int64_t>(response.answers.size()));
    job->root_span.End();
    if (tracer.enabled()) response.spans = tracer.TakeSpans();

    if (!response.status.ok()) {
      LogEvent event;
      event.ts_ns = NowNs();
      event.trace_id = job->trace.trace_id;
      event.request_id = job->trace.request_id;
      event.kind = "request_error";
      event.fields.emplace_back("code",
                                static_cast<int64_t>(response.status.code()));
      event.fields.emplace_back("total_ns", total_ns);
      event.message = std::string(StatusCodeName(response.status.code())) +
                      ": " + response.status.message();
      event_log_.Append(std::move(event));
    }

    if (slow_armed && total_ns >= options_.slow_query_ms * 1'000'000) {
      metrics.GetCounter("service/slow_queries")->Increment();
      LogEvent event;
      event.ts_ns = NowNs();
      event.trace_id = job->trace.trace_id;
      event.request_id = job->trace.request_id;
      event.kind = "slow_query";
      event.fields.emplace_back("total_ns", total_ns);
      event.fields.emplace_back("queue_wait_ns", response.queue_wait_ns);
      event.fields.emplace_back("prepare_ns", response.prepare_ns);
      event.fields.emplace_back("execute_ns", response.execute_ns);
      event.fields.emplace_back(
          "answers", static_cast<int64_t>(response.answers.size()));
      if (!response.status.ok()) {
        event.message = std::string(StatusCodeName(response.status.code())) +
                        ": " + response.status.message();
      } else if (prepared_program != nullptr) {
        ExplainReport explain = BuildExplainReport(
            prepared_program->report, prepared_program->compiled.get());
        AttachRuntime(prepared_program->report, response.stats, profiles,
                      static_cast<int64_t>(response.answers.size()),
                      response.execute_ns, &explain);
        if (served_view != nullptr) {
          AttachMaintenance(served_view->totals(), served_view->last_batch(),
                            served_view->batches_applied(), &explain);
        }
        event.message = explain.Summary();
      }
      event_log_.Append(std::move(event));
    }

    Deliver(job, std::move(response));
  };

  const CancelToken* cancel = job->request.cancel.get();
  if (cancel != nullptr && cancel->cancelled()) {
    finish(Status::Cancelled("request cancelled before execution"));
    return;
  }
  if (job->deadline_ns >= 0 && NowNs() >= job->deadline_ns) {
    metrics.GetCounter("service/requests_expired_in_queue")->Increment();
    finish(Status::DeadlineExceeded("deadline expired in the queue after " +
                                    FormatDurationNs(response.queue_wait_ns)));
    return;
  }

  Span prepare_span = tracer.StartSpan("request.prepare");
  const int64_t prepare_start_ns = NowNs();
  std::shared_ptr<SessionEntry> entry =
      GetSession(job->request.tenant, job->request.source);
  if (entry->session == nullptr) {
    prepare_span.End();
    finish(entry->status);
    return;
  }
  Session& session = *entry->session;

  // Prepare is single-flight in the session: the first request for this
  // fingerprint runs the Levy–Sagiv pipeline (its "sqo.*" spans landing
  // under this request's prepare span), concurrent ones block on the
  // in-flight entry, later ones hit the cache.
  SqoOptions sqo = job->request.sqo;
  if (sqo.tracer == nullptr) sqo.tracer = &tracer;
  bool cache_hit = false;
  Result<const PreparedProgram*> prepared = session.Prepare(sqo, &cache_hit);
  response.prepare_ns = NowNs() - prepare_start_ns;
  response.prepare_cache_hit = cache_hit;
  metrics.GetHistogram("service/prepare_ns")->Record(response.prepare_ns);
  prepare_span.SetAttr("cache_hit", cache_hit ? 1 : 0);
  bool fallback = false;
  if (!prepared.ok()) {
    if (options_.fallback_to_original &&
        prepared.status().code() == StatusCode::kUnsupported) {
      // Outside the rewriting's theory (e.g. IDB negation): serve the
      // original program rather than failing the request.
      metrics.GetCounter("service/prepare_fallbacks")->Increment();
      fallback = true;
    } else {
      prepare_span.End();
      finish(prepared.status());
      return;
    }
  } else {
    prepared_program = prepared.value();
    for (const PassRunInfo& info : prepared_program->report.pass_runs) {
      if (info.ran()) ++response.passes_ran;
    }
  }
  prepare_span.End();

  // Load-only requests (the front-end's LoadProgram) stop here: the unit
  // parsed and the optimizer pipeline ran (or the fallback was noted), so
  // later queries on this session hit the plan cache.
  if (job->request.load_only) {
    response.optimized = !fallback;
    response.snapshot_version = 0;
    finish(Status::Ok());
    return;
  }

  // Materialized-view fast path: copy the warm answers out under the
  // view's shared lock instead of evaluating. The first such request pays
  // the initial fixpoint (inside Materialize); the fallback path cannot
  // serve from a view (no prepared program), so it evaluates below.
  if (job->request.materialized && !fallback) {
    Span view_span = tracer.StartSpan("request.view");
    const int64_t exec_start_ns = NowNs();
    Result<MaterializedView*> view =
        session.Materialize(*prepared.value(), job->request.materialize);
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
    response.optimized = true;
    if (job->request.want_explain) {
      ExplainReport explain = BuildExplainReport(
          prepared_program->report, prepared_program->compiled.get());
      AttachMaintenance(served_view->totals(), served_view->last_batch(),
                        served_view->batches_applied(), &explain);
      response.explain_json = explain.ToJson();
    }
    finish(Status::Ok());
    return;
  }

  // Every request reads the session's frozen shared base snapshot — the
  // per-request EDB copy is gone. Freeze makes concurrent lazy index
  // builds safe; evaluation writes only to its own IDB relations.
  const Database& edb = session.SharedEdb();

  EvalOptions eval = job->request.eval;
  eval.cancel = cancel;
  if (job->deadline_ns >= 0 &&
      (eval.deadline_ns < 0 || job->deadline_ns < eval.deadline_ns)) {
    eval.deadline_ns = job->deadline_ns;
  }
  if (eval.tracer == nullptr) eval.tracer = &tracer;
  // Per-rule profiles feed the slow-query log's EXPLAIN summary and the
  // traced response; untraced fast-path requests skip the clock reads.
  const bool want_profiles = slow_armed || job->request.trace ||
                             eval.profile_rules ||
                             job->request.want_explain;
  if (slow_armed) eval.profile_rules = true;

  Span execute_span = tracer.StartSpan("request.execute");
  const int64_t exec_start_ns = NowNs();
  Result<std::vector<Tuple>> answers =
      fallback ? session.ExecuteOriginal(edb, eval, &response.stats,
                                         want_profiles ? &profiles : nullptr)
               : session.Execute(*prepared.value(), edb, eval, &response.stats,
                                 want_profiles ? &profiles : nullptr);
  response.execute_ns = NowNs() - exec_start_ns;
  metrics.GetHistogram("service/execute_ns")->Record(response.execute_ns);
  execute_span.End();

  if (!answers.ok()) {
    finish(answers.status());
    return;
  }
  response.answers = std::move(answers).value();
  response.optimized = !fallback;
  response.snapshot_version = 0;  // the immutable base snapshot
  if (job->request.want_explain && prepared_program != nullptr) {
    ExplainReport explain = BuildExplainReport(
        prepared_program->report, prepared_program->compiled.get());
    AttachRuntime(prepared_program->report, response.stats, profiles,
                  static_cast<int64_t>(response.answers.size()),
                  response.execute_ns, &explain);
    response.explain_json = explain.ToJson();
  }
  finish(Status::Ok());
}

}  // namespace sqod
