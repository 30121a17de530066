#ifndef SQOD_SERVICE_QUERY_SERVICE_H_
#define SQOD_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "src/base/cancel.h"
#include "src/base/status.h"
#include "src/engine/engine.h"
#include "src/engine/view.h"
#include "src/obs/context.h"
#include "src/obs/event_log.h"
#include "src/service/thread_pool.h"

namespace sqod {

// The concurrent query-serving runtime: a bounded admission queue feeding a
// fixed worker pool, with one shared Engine underneath. Sessions are
// deduplicated by source text and Session::Prepare is single-flight, so N
// concurrent requests for the same unit trigger exactly one optimizer
// pipeline run — the Levy–Sagiv rewriting cost is paid once and amortized
// across every request that follows. Every request prepares with the
// default optimizer options, so queries and delta batches on one unit
// share one prepared program and one materialized view. A unit outside the
// rewriting's theory, or one whose optimization hits a limit, is prepared
// as P itself (PreparedProgram::fallback) and is served, materialized,
// maintained and explained the same way.
//
// Queries (Submit) and delta batches (ApplyDelta) are two kinds of request
// on one pipeline: admission (trace id, deadline check, root span, pool
// hand-off or rejection), a worker prologue (session lookup, Prepare), the
// kind's own work (evaluate or serve a view; materialize and maintain), and
// one finish (outcome counters, tenant metrics, root span, error and slow-
// log events). Every result is delivered through a callback; the future
// APIs wrap it. Each kind reports under its own counter and span names.
//
// Request lifecycle and its observable failure modes:
//   Submit ── invalid deadline ──────────→ kInvalidArgument (rejected)
//         ─── queue full ────────────────→ kResourceExhausted (rejected)
//         ─── after Shutdown ────────────→ kFailedPrecondition (rejected)
//         ─── queued → worker picks it up
//               token already cancelled ─→ kCancelled
//               deadline already passed ─→ kDeadlineExceeded
//               parse / prepare error  ──→ that error
//               evaluation, interrupted at iteration boundaries by the
//               token or the deadline ───→ kCancelled / kDeadlineExceeded
//               otherwise ──────────────→ kOk with the sorted answers
//
// Per-request observability: service/... counters and latency histograms
// in metrics(), exported like all registries; docs/observability.md lists
// every name and what counts toward it.
//
// Session retention: parsed sessions are kept in LRU order, and past
// kSessionCacheCapacity the least recently used idle one is evicted (its
// source re-parses and re-prepares on its next request, with the same
// answers). A session is idle when no request holds it; one that holds a
// materialized view is never evicted, because its delta state cannot be
// rebuilt from source.
//
// Request-scoped tracing: every submitted request gets a TraceContext (a
// process-unique trace id plus a per-request Tracer). With Request::trace
// set, the spans from admission through queue wait, prepare, and per-
// stratum evaluation come back in Response::spans, stitched into one trace
// (export many with ExportChromeTrace over RequestTrace). The per-request
// Tracer stays single-threaded: the submitting thread records admission
// strictly before the pool handoff (a happens-before edge), after which
// only the one worker that dequeued the request touches it.
//
// The event log (event_log()) is a bounded ring of structured events:
// "slow_query" entries (requests slower end-to-end than slow_query_ms,
// carrying the trace id and an EXPLAIN summary), "request_error" /
// "request_rejected" entries, and — with metrics_snapshot_ms set — periodic
// "metrics_snapshot" entries holding the window's metric deltas.

struct ServiceOptions {
  // Worker threads executing requests.
  int threads = 4;
  // Admission limit: maximum requests waiting for a worker (running
  // requests don't count). 0 = unbounded.
  size_t max_queue = 256;
  // External metrics sink; the service's engine owns a private registry
  // when null. There is no service-wide tracer: each request that sets
  // Request::trace / DeltaRequest::trace gets its own Tracer and its span
  // tree back in the response.
  MetricsRegistry* metrics = nullptr;

  // Slow-query log threshold, in milliseconds of end-to-end latency (queue
  // wait + prepare + execute). Requests at or over it produce a
  // "slow_query" event with the trace id and an EXPLAIN summary, and rule
  // profiling is armed for every request so the summary has runtime rows.
  // -1 = off. 0 logs everything (the smoke-test setting).
  int64_t slow_query_ms = -1;
  // Period of the background metrics differ: every period, the delta of
  // the metrics registry against the previous snapshot is appended to the
  // event log as a "metrics_snapshot" event. -1 = off.
  int64_t metrics_snapshot_ms = -1;
};

// The single conversion point between caller-facing millisecond deadlines
// and the evaluator's absolute nanosecond deadlines. -1 = no deadline;
// any other negative value, or one whose absolute ns deadline would
// overflow int64, is kInvalidArgument (Submit rejects such requests before
// they reach the queue).
Result<int64_t> DeadlineNsFromMs(int64_t deadline_ms, int64_t now_ns);

struct Request {
  // A full datalog unit: rules, ICs, optional facts, query declaration.
  // Requests with byte-identical sources share one parsed session (and
  // therefore one prepared program) while it is retained; an evicted
  // session (QueryService::kSessionCacheCapacity) is parsed and prepared
  // again on its source's next request.
  std::string source;
  // Tenant namespace. Sessions are deduplicated per (tenant, source), so
  // tenants never share Engine session state even for byte-identical
  // programs, and non-empty tenants get tenant/<name>/... counters and
  // latency histograms next to the service/... ones. "" = untenanted.
  std::string tenant;
  // Relative deadline from submission, in milliseconds. 0 is already
  // expired (useful for testing the deadline path); -1 = no deadline.
  int64_t deadline_ms = -1;
  // Optional cooperative cancellation, shared with the caller. Checked
  // when a worker dequeues the request and at evaluator iteration
  // boundaries.
  std::shared_ptr<CancelToken> cancel;
  // Collect this request's span tree (admission → queue → prepare →
  // evaluation) into Response::spans. Off by default: untraced requests
  // pay one branch per instrumentation site.
  bool trace = false;
  // Serve from the session's materialized view instead of evaluating: the
  // first such request pays the initial fixpoint (materialization), later
  // ones copy the warm answers out under a shared lock. Combine with
  // ApplyDelta to keep the view current as the EDB changes. A view pins
  // its session against eviction, so the network front-end sets this only
  // for queries on named sessions, never for inline one-shot units.
  bool materialized = false;
  // Validate and warm only: parse the unit (single-flight per session) and
  // run Prepare, then finish without executing. The network front-end's
  // LoadProgram maps here — the optimizer pipeline runs once at load time
  // and every later query on the session reuses its prepared program.
  bool load_only = false;
  // Attach an EXPLAIN/ANALYZE report (ExplainReport::ToJson) to the
  // response. Costs per-rule profiling on this request.
  bool want_explain = false;
};

struct Response {
  Status status;
  // The query predicate's tuples, sorted (empty on error).
  std::vector<Tuple> answers;
  EvalStats stats;
  // False when P itself was served (PreparedProgram::fallback): the unit is
  // outside the rewriting's theory, or its optimization hit a limit.
  bool optimized = false;
  // Time spent waiting for a worker, preparing, and executing.
  int64_t queue_wait_ns = 0;
  int64_t prepare_ns = 0;
  int64_t execute_ns = 0;
  // The request's trace id (assigned at Submit, also for rejections);
  // matches slow-query-log entries and TraceIdHex renderings.
  uint64_t trace_id = 0;
  // Whether Prepare returned the session's cached program, and how many
  // pipeline passes the plan's preparation ran (0 when P is served).
  bool prepare_cache_hit = false;
  int passes_ran = 0;
  // The request's span tree (empty unless Request::trace was set).
  std::vector<SpanRecord> spans;
  // The EDB snapshot version the answers reflect: a materialized-view
  // request reports the view's current version; a plain evaluation reports
  // 0 (the session's immutable base snapshot). -1 on error/rejection.
  int64_t snapshot_version = -1;
  // How the answers were produced: true when they were copied from the
  // warm materialized view without running the evaluator.
  bool served_from_view = false;
  // EXPLAIN/ANALYZE report (ExplainReport::ToJson) when the request set
  // want_explain and reached execution; empty otherwise.
  std::string explain_json;
};

// One batch of EDB changes against a session's materialized view: the
// delta kind of request, on the same pipeline as Request (it has no
// deadline or cancel token). The worker prepares the program (cache hit
// after the first), materializes the view if this is the first touch, and
// applies the batch.
struct DeltaRequest {
  // The datalog unit whose view to maintain; requests with byte-identical
  // sources share one session, and therefore one view.
  std::string source;
  // Tenant namespace, as in Request::tenant.
  std::string tenant;
  // The facts to delete and insert (deletes first; see FactDelta).
  FactDelta delta;
  // Collect the span tree (admission → queue → materialize → maintain).
  bool trace = false;
};

struct DeltaResponse {
  Status status;
  // The batch's maintenance stats (see MaintainStats); zeros on error.
  MaintainStats stats;
  // The view's snapshot version after the batch (-1 on error). An empty
  // net batch leaves the version unchanged.
  int64_t snapshot_version = -1;
  int64_t queue_wait_ns = 0;
  // Time materializing the view (0 when it was already warm) and applying
  // the batch.
  int64_t materialize_ns = 0;
  int64_t maintain_ns = 0;
  // Trace id (joinable with slow-query-log entries), span tree as above.
  uint64_t trace_id = 0;
  std::vector<SpanRecord> spans;
};

class QueryService {
 public:
  // Parsed sessions kept for reuse; past it the least recently used idle
  // one is evicted. A session seen holding a materialized view is retained
  // for good and stops counting; a session some request holds is skipped,
  // so the count may exceed the capacity by the requests in flight. Bounds
  // the memory a stream of distinct programs can pin.
  static constexpr size_t kSessionCacheCapacity = 256;
  // Events the event log retains; older ones are overwritten.
  static constexpr size_t kEventLogCapacity = 1024;

  explicit QueryService(ServiceOptions options = {});
  ~QueryService();  // implies Shutdown()

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // Admission-controlled, non-blocking submit for transports that must
  // never block: `done` runs on the worker thread that completed the
  // request, or on the submitting thread for immediate rejections (queue
  // full, shut down, invalid deadline). Exactly one invocation
  // per submit, rejection included.
  void Submit(Request request, std::function<void(Response)> done);

  // The same, delivered through a future (always valid).
  std::future<Response> Submit(Request request);

  // Convenience: Submit and wait.
  Response Call(Request request);

  // Admission-controlled submit of one maintenance batch, delivered like
  // the callback Submit. Batches share the worker pool and admission queue
  // with queries; batches against the same view serialize on the view's
  // writer lock while readers of other views (and queries) proceed. A
  // batch reports under service/delta_batches{,_completed,_rejected,
  // _failed}, the service/apply_delta_ns histogram, and — past
  // slow_query_ms — a "slow_delta" event joinable with spans by trace id.
  void ApplyDelta(DeltaRequest request,
                  std::function<void(DeltaResponse)> done);

  // The same, delivered through a future.
  std::future<DeltaResponse> ApplyDelta(DeltaRequest request);

  // Convenience: ApplyDelta and wait.
  DeltaResponse CallApplyDelta(DeltaRequest request);

  // Stops admission, drains queued and in-flight requests, joins the
  // workers. Every future obtained from Submit is ready afterwards.
  // Idempotent; also run by the destructor.
  void Shutdown();

  // Requests currently waiting for a worker.
  size_t queue_depth() const { return pool_.queue_depth(); }

  MetricsRegistry& metrics() { return engine_.metrics(); }
  Engine& engine() { return engine_; }

  // The structured event ring: slow queries, request errors/rejections,
  // periodic metric snapshots. Thread-safe.
  EventLog& event_log() { return event_log_; }

 private:
  struct SessionEntry;
  using SessionMap =
      std::unordered_map<std::string, std::shared_ptr<SessionEntry>>;
  using LruList = std::list<SessionMap::value_type*>;

  // A parsed-session slot, created single-flight per distinct source text.
  struct SessionEntry {
    std::once_flag once;
    Status status;  // parse/validation error when session == nullptr
    std::unique_ptr<Session> session;
    // The entry's place in lru_, guarded by sessions_mu_; in_lru turns
    // false for good once the entry is seen holding a view.
    LruList::iterator lru_pos;
    bool in_lru = false;
  };

  // One request of either kind: Job<Request, Response> for queries,
  // Job<DeltaRequest, DeltaResponse> for delta batches.
  template <typename Req, typename Resp>
  struct Job {
    Req request;
    std::function<void(Resp)> done;
    // Request-scoped telemetry: trace id, submit time and absolute
    // deadline, the span collector, and the root "request" / "delta" span
    // (opened at admission, closed by Finish). The embedded Tracer is
    // touched by the submitting thread only before the pool handoff, and
    // by the owning worker only after — the pool's queue is the
    // happens-before edge between the two.
    TraceContext trace;
    Span root_span;
  };

  // Session lookup key: tenant-qualified source text. Marks the entry most
  // recently used and evicts idle ones past the capacity.
  std::shared_ptr<SessionEntry> GetSession(const std::string& tenant,
                                           const std::string& source);
  // Walks lru_ from the least recently used end while it holds more than
  // kSessionCacheCapacity entries: moves idle view-free entries out of the
  // map into `evicted` (the caller destroys them after unlocking), unlinks
  // view holders for good, skips in-flight ones. Caller holds sessions_mu_.
  void EvictIdleSessionsLocked(
      std::vector<std::shared_ptr<SessionEntry>>* evicted);
  // Builds the job (trace context, deadline check, root and admission
  // spans) and hands it to the pool; delivers the rejection
  // inline on failure.
  template <typename Req, typename Resp>
  void Admit(Req request, std::function<void(Resp)> done);
  // The worker's first step: queue-wait accounting and the response shell.
  template <typename Req, typename Resp>
  Resp Dequeue(Job<Req, Resp>* job);
  // The worker prologue: the job's session (parsed once per source) and
  // its prepared program (single-flight per unit; on fallback it serves P).
  template <typename Req, typename Resp>
  Status OpenAndPrepare(Job<Req, Resp>* job, Resp* response,
                        std::shared_ptr<SessionEntry>* entry,
                        const PreparedProgram** prepared);
  // The kind's own work; each ends in one Finish call.
  void Process(Job<Request, Response>* job);
  void Process(Job<DeltaRequest, DeltaResponse>* job);
  // Records the outcome (counters, tenant metrics, root span, the
  // request_error and slow-log events) and delivers `response`. `summary`
  // renders a successful request's slow-log message.
  template <typename Req, typename Resp>
  void Finish(Job<Req, Resp>* job, Resp response, Status status,
              const std::function<std::string(
                  const std::type_identity_t<Resp>&)>& summary);
  // `prev` is the baseline the first window diffs against; captured by the
  // constructor before any request can arrive, so the first published
  // delta covers everything since service start even when the OS schedules
  // the snapshot thread late.
  void SnapshotLoop(MetricsSnapshot prev);

  ServiceOptions options_;
  Engine engine_;
  std::mutex sessions_mu_;
  SessionMap sessions_;
  // Entries that may be evicted, most recently used first. Map nodes are
  // address-stable, so the list points at them directly.
  LruList lru_;
  EventLog event_log_;
  std::atomic<uint64_t> next_request_id_{1};

  // Background metrics differ (running only with metrics_snapshot_ms > 0).
  std::mutex snapshot_mu_;
  std::condition_variable snapshot_cv_;
  bool stopping_ = false;
  std::thread snapshot_thread_;

  ThreadPool pool_;  // last member: workers stop before the rest tears down
};

}  // namespace sqod

#endif  // SQOD_SERVICE_QUERY_SERVICE_H_
