// Tests for the concurrent query-serving runtime: the ThreadPool's bounded
// admission and graceful drain, and the QueryService's single-flight
// prepare, deadlines, cancellation, fallback, and per-request metrics.
// These are the tests CI also runs under ThreadSanitizer.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/base/value.h"
#include "src/parser/parser.h"
#include "src/service/query_service.h"
#include "src/service/thread_pool.h"

namespace sqod {
namespace {

constexpr const char* kFigure1 = R"(
  p(X, Y) :- a(X, Y).
  p(X, Y) :- b(X, Y).
  p(X, Y) :- a(X, Z), p(Z, Y).
  p(X, Y) :- b(X, Z), p(Z, Y).
  :- a(X, Y), b(Y, Z).
  b(1, 2). b(2, 3). a(3, 4). a(4, 5).
  ?- p.
)";

// A transitive closure over a step-chain of n nodes: O(n) fixpoint
// iterations and O(n^2) path tuples, so evaluation is long enough that
// deadlines and cancellation reliably interrupt it mid-flight.
std::string MakeChainSource(int n) {
  std::ostringstream out;
  out << "path(X, Y) :- step(X, Y).\n";
  out << "path(X, Y) :- step(X, Z), path(Z, Y).\n";
  for (int i = 0; i < n; ++i) out << "step(" << i << ", " << i + 1 << ").\n";
  out << "?- path.\n";
  return out.str();
}

int64_t ServiceCounter(QueryService& service, const std::string& name) {
  return service.metrics().GetCounter(name)->value();
}

// ------------------------------------------------------------ thread pool

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool::Options options;
  options.threads = 4;
  ThreadPool pool(options);
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(pool.Submit([&ran] { ran.fetch_add(1); }),
              ThreadPool::SubmitResult::kAccepted);
  }
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolTest, BoundedQueueRejectsWhenFull) {
  ThreadPool::Options options;
  options.threads = 1;
  options.max_queue = 1;
  ThreadPool pool(options);

  // Park the single worker on a gate so the queue state is deterministic.
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::promise<void> running;
  ASSERT_EQ(pool.Submit([opened, &running] {
              running.set_value();
              opened.wait();
            }),
            ThreadPool::SubmitResult::kAccepted);
  running.get_future().wait();  // the worker is now busy, queue is empty

  std::atomic<int> ran{0};
  EXPECT_EQ(pool.Submit([&ran] { ran.fetch_add(1); }),
            ThreadPool::SubmitResult::kAccepted);  // fills the queue
  EXPECT_EQ(pool.queue_depth(), 1u);
  EXPECT_EQ(pool.Submit([&ran] { ran.fetch_add(1); }),
            ThreadPool::SubmitResult::kQueueFull);
  EXPECT_EQ(pool.Submit([&ran] { ran.fetch_add(1); }),
            ThreadPool::SubmitResult::kQueueFull);

  gate.set_value();
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 1);  // the accepted task ran, rejected ones didn't
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedTasks) {
  ThreadPool::Options options;
  options.threads = 1;
  ThreadPool pool(options);

  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  ASSERT_EQ(pool.Submit([opened] { opened.wait(); }),
            ThreadPool::SubmitResult::kAccepted);
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    ASSERT_EQ(pool.Submit([&ran] { ran.fetch_add(1); }),
              ThreadPool::SubmitResult::kAccepted);
  }
  gate.set_value();
  // Graceful drain: Shutdown stops admission but runs what was accepted.
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPoolTest, SubmitAfterShutdownIsRejected) {
  ThreadPool pool(ThreadPool::Options{});
  pool.Shutdown();
  EXPECT_EQ(pool.Submit([] {}), ThreadPool::SubmitResult::kShutdown);
  pool.Shutdown();  // idempotent
}

// ---------------------------------------------------------- query service

TEST(ServiceTest, SingleFlightPrepareAcrossConcurrentRequests) {
  ServiceOptions options;
  options.threads = 4;
  QueryService service(options);

  constexpr int kRequests = 8;
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < kRequests; ++i) {
    Request request;
    request.source = kFigure1;
    futures.push_back(service.Submit(std::move(request)));
  }

  std::vector<Response> responses;
  for (std::future<Response>& future : futures) {
    responses.push_back(future.get());
  }
  for (const Response& response : responses) {
    ASSERT_TRUE(response.status.ok()) << response.status.message();
    EXPECT_TRUE(response.optimized);
    EXPECT_FALSE(response.answers.empty());
    EXPECT_EQ(response.answers, responses[0].answers);
  }

  // One parse, one optimizer pipeline run, N served requests: that is the
  // whole point of the serving layer.
  EXPECT_EQ(service.metrics().GetCounter("engine/pipeline_runs")->value(), 1);
  EXPECT_EQ(service.metrics().GetCounter("engine/sessions_opened")->value(),
            1);
  EXPECT_EQ(ServiceCounter(service, "service/requests_accepted"), kRequests);
  EXPECT_EQ(ServiceCounter(service, "service/requests_completed"), kRequests);
  EXPECT_EQ(ServiceCounter(service, "service/requests_rejected"), 0);
  EXPECT_EQ(
      service.metrics().GetHistogram("service/queue_wait_ns")->count(),
      kRequests);
  EXPECT_EQ(service.metrics().GetHistogram("service/execute_ns")->count(),
            kRequests);
}

TEST(ServiceTest, ZeroDeadlineIsDeadlineExceeded) {
  QueryService service;
  Request request;
  request.source = kFigure1;
  request.deadline_ms = 0;  // already expired when a worker picks it up
  Response response = service.Call(std::move(request));
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(response.answers.empty());
  EXPECT_EQ(ServiceCounter(service, "service/requests_deadline_exceeded"), 1);
  // The deadline fired before a worker started evaluating, so the expired-
  // in-queue split counter records it (distinct from mid-eval expiry).
  EXPECT_EQ(ServiceCounter(service, "service/requests_expired_in_queue"), 1);
}

TEST(ServiceTest, DeadlineInterruptsLongEvaluation) {
  QueryService service;
  Request request;
  request.source = MakeChainSource(600);
  request.deadline_ms = 1;
  Response response = service.Call(std::move(request));
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(ServiceCounter(service, "service/requests_deadline_exceeded"), 1);
}

TEST(ServiceTest, CancelledTokenYieldsCancelled) {
  QueryService service;
  Request request;
  request.source = MakeChainSource(600);
  request.cancel = std::make_shared<CancelToken>();
  std::shared_ptr<CancelToken> token = request.cancel;
  std::future<Response> future = service.Submit(std::move(request));
  // Depending on timing the worker sees the cancel before or during
  // evaluation; either way the outcome is kCancelled.
  token->Cancel();
  Response response = future.get();
  EXPECT_EQ(response.status.code(), StatusCode::kCancelled);
  EXPECT_EQ(ServiceCounter(service, "service/requests_cancelled"), 1);
}

TEST(ServiceTest, AdmissionControlRejectsWhenQueueIsFull) {
  ServiceOptions options;
  options.threads = 1;
  options.max_queue = 1;
  QueryService service(options);

  // One worker, one queue slot, eight slow requests: at most two can be
  // admitted before the rest pile up, so rejections are guaranteed.
  constexpr int kRequests = 8;
  std::vector<std::shared_ptr<CancelToken>> tokens;
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < kRequests; ++i) {
    Request request;
    request.source = MakeChainSource(400);
    request.cancel = std::make_shared<CancelToken>();
    tokens.push_back(request.cancel);
    futures.push_back(service.Submit(std::move(request)));
  }
  // Unblock whatever was admitted so the test finishes promptly (and the
  // cancellation path gets exercised under real queueing).
  for (const std::shared_ptr<CancelToken>& token : tokens) token->Cancel();

  int rejected = 0, other = 0;
  for (std::future<Response>& future : futures) {
    Response response = future.get();
    if (response.status.code() == StatusCode::kResourceExhausted) {
      ++rejected;
      EXPECT_NE(response.status.message().find("max_queue=1"),
                std::string::npos);
    } else {
      ++other;
    }
  }
  EXPECT_GE(rejected, kRequests - 2);
  EXPECT_EQ(rejected + other, kRequests);
  EXPECT_EQ(ServiceCounter(service, "service/requests_rejected"), rejected);
  // Rejections are split by cause; a full queue is not a shutdown.
  EXPECT_EQ(ServiceCounter(service, "service/requests_rejected_queue_full"),
            rejected);
  EXPECT_EQ(ServiceCounter(service, "service/requests_rejected_shutdown"), 0);
  EXPECT_EQ(ServiceCounter(service, "service/requests_accepted"), other);
  // Every request contributes a queue-wait sample — rejected ones as a 0,
  // so load shedding visibly pulls the percentiles down rather than
  // silently vanishing from the distribution.
  EXPECT_EQ(service.metrics().GetHistogram("service/queue_wait_ns")->count(),
            kRequests);
}

TEST(ServiceTest, ShutdownDrainsAcceptedRequests) {
  ServiceOptions options;
  options.threads = 2;
  QueryService service(options);
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 6; ++i) {
    Request request;
    request.source = kFigure1;
    futures.push_back(service.Submit(std::move(request)));
  }
  service.Shutdown();
  // Every accepted request was served before the workers went away.
  for (std::future<Response>& future : futures) {
    Response response = future.get();
    EXPECT_TRUE(response.status.ok()) << response.status.message();
  }
  EXPECT_EQ(ServiceCounter(service, "service/requests_completed"), 6);
}

TEST(ServiceTest, SubmitAfterShutdownFailsPrecondition) {
  QueryService service;
  service.Shutdown();
  Request request;
  request.source = kFigure1;
  Response response = service.Call(std::move(request));
  EXPECT_EQ(response.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(ServiceCounter(service, "service/requests_rejected"), 1);
  EXPECT_EQ(ServiceCounter(service, "service/requests_rejected_shutdown"), 1);
  EXPECT_EQ(ServiceCounter(service, "service/requests_rejected_queue_full"),
            0);
}

TEST(ServiceTest, ParseErrorsSurfacePerRequest) {
  QueryService service;
  Request request;
  request.source = "p(X :- q(X).";
  Response response = service.Call(std::move(request));
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ServiceCounter(service, "service/requests_failed"), 1);

  // A bad source only poisons its own session slot; a good request after a
  // bad one is unaffected.
  Request good;
  good.source = kFigure1;
  Response ok = service.Call(std::move(good));
  EXPECT_TRUE(ok.status.ok()) << ok.status.message();
}

// IDB negation is outside the rewriting's theory: the pipeline reports
// kUnsupported, and Prepare publishes a program that serves P itself. It is
// cached like any other, so it also gets a view, delta batches and EXPLAIN.
TEST(ServiceTest, UnsupportedProgramFallsBackToOriginal) {
  const std::string rules = R"(
    q(X) :- e(X, Y).
    p(X) :- e(X, Y), !q(Y).
    ?- p.
  )";
  const std::string source = rules + "e(1, 2). e(2, 3).\n";
  QueryService service;
  for (int i = 0; i < 5; ++i) {
    Request request;
    request.source = source;
    Response response = service.Call(std::move(request));
    ASSERT_TRUE(response.status.ok()) << response.status.message();
    EXPECT_FALSE(response.optimized);
    EXPECT_EQ(response.passes_ran, 0);
    EXPECT_EQ(response.prepare_cache_hit, i > 0);
    // p(2): e(2, 3) with q(3) false.
    EXPECT_EQ(response.answers, std::vector<Tuple>{{Value::Int(2)}});
  }
  EXPECT_EQ(ServiceCounter(service, "engine/pipeline_runs"), 1);
  EXPECT_EQ(ServiceCounter(service, "service/prepare_fallbacks"), 5);
  EXPECT_EQ(ServiceCounter(service, "service/requests_completed"), 5);

  Request read;
  read.source = source;
  read.materialized = true;
  Response before = service.Call(read);
  ASSERT_TRUE(before.status.ok()) << before.status.message();
  EXPECT_TRUE(before.served_from_view);
  EXPECT_FALSE(before.optimized);
  EXPECT_EQ(before.snapshot_version, 0);
  EXPECT_EQ(before.answers, std::vector<Tuple>{{Value::Int(2)}});

  DeltaRequest batch;
  batch.source = source;
  batch.delta.inserts.push_back(ParseAtomText("e(3, 4)").take());
  batch.delta.deletes.push_back(ParseAtomText("e(1, 2)").take());
  DeltaResponse applied = service.CallApplyDelta(std::move(batch));
  ASSERT_TRUE(applied.status.ok()) << applied.status.message();
  EXPECT_EQ(applied.snapshot_version, 1);

  read.want_explain = true;
  Response after = service.Call(read);
  ASSERT_TRUE(after.status.ok()) << after.status.message();
  EXPECT_EQ(after.snapshot_version, 1);
  // The oracle: P evaluated from scratch on the updated facts.
  Engine engine;
  Session oracle = engine.Open(rules + "e(2, 3). e(3, 4).\n").take();
  const std::vector<Tuple> expected =
      oracle.ExecuteOriginal(oracle.MakeEdb()).take();
  EXPECT_EQ(expected, std::vector<Tuple>{{Value::Int(3)}});
  EXPECT_EQ(after.answers, expected);
  EXPECT_NE(after.explain_json.find("UNSUPPORTED"), std::string::npos)
      << after.explain_json;
  EXPECT_NE(after.explain_json.find("\"fallback\""), std::string::npos)
      << after.explain_json;
  EXPECT_EQ(ServiceCounter(service, "engine/pipeline_runs"), 1);
  EXPECT_EQ(ServiceCounter(service, "engine/views_materialized"), 1);
}

// The a/b closure with one IC forbidding an alternating a/b chain of
// `width` edges. At width 16 the query tree outgrows the default
// max_classes after a few seconds of optimizer work.
std::string WideIcSource(int width) {
  std::ostringstream out;
  out << "p(X, Y) :- a(X, Y).\n"
      << "p(X, Y) :- b(X, Y).\n"
      << "p(X, Y) :- a(X, Z), p(Z, Y).\n"
      << "p(X, Y) :- b(X, Z), p(Z, Y).\n"
      << ":- ";
  for (int i = 0; i < width; ++i) {
    if (i > 0) out << ", ";
    out << (i % 2 == 0 ? "a" : "b") << "(V" << i << ", V" << i + 1 << ")";
  }
  out << ".\na(1, 2). b(2, 3). a(3, 4).\n?- p.\n";
  return out.str();
}

TEST(ServiceTest, ExhaustedOptimizerBudgetServesOriginalOnce) {
  const std::string source = WideIcSource(16);
  QueryService service;
  const std::vector<Tuple> expected = {
      {Value::Int(1), Value::Int(2)}, {Value::Int(1), Value::Int(3)},
      {Value::Int(1), Value::Int(4)}, {Value::Int(2), Value::Int(3)},
      {Value::Int(2), Value::Int(4)}, {Value::Int(3), Value::Int(4)}};
  for (int i = 0; i < 2; ++i) {
    Request request;
    request.source = source;
    Response response = service.Call(std::move(request));
    ASSERT_TRUE(response.status.ok()) << response.status.message();
    EXPECT_FALSE(response.optimized);
    EXPECT_EQ(response.prepare_cache_hit, i > 0);
    EXPECT_EQ(response.answers, expected);
  }
  // The second request reused the cached fallback instead of paying for
  // the optimizer run again.
  EXPECT_EQ(ServiceCounter(service, "engine/pipeline_runs"), 1);
  EXPECT_EQ(ServiceCounter(service, "service/prepare_fallbacks"), 2);
}

TEST(ServiceTest, DistinctSourcesGetDistinctSessions) {
  QueryService service;
  Request a;
  a.source = kFigure1;
  Request b;
  b.source = MakeChainSource(5);
  Response ra = service.Call(std::move(a));
  Response rb = service.Call(std::move(b));
  ASSERT_TRUE(ra.status.ok());
  ASSERT_TRUE(rb.status.ok());
  EXPECT_NE(ra.answers, rb.answers);
  EXPECT_EQ(service.metrics().GetCounter("engine/sessions_opened")->value(),
            2);
  EXPECT_EQ(service.metrics().GetCounter("engine/pipeline_runs")->value(), 2);
}

TEST(ServiceTest, ExternalMetricsRegistryReceivesServiceCounters) {
  MetricsRegistry metrics;
  ServiceOptions options;
  options.metrics = &metrics;
  {
    QueryService service(options);
    Request request;
    request.source = kFigure1;
    EXPECT_TRUE(service.Call(std::move(request)).status.ok());
  }  // destructor shuts down cleanly
  EXPECT_EQ(metrics.GetCounter("service/requests_accepted")->value(), 1);
  EXPECT_EQ(metrics.GetCounter("service/requests_completed")->value(), 1);
  EXPECT_EQ(metrics.Snapshot().histograms.at("service/execute_ns").count, 1);
}

// ----------------------------------------------------- request telemetry

// Every span a traced request produces must belong to that request's trace:
// one root "request" span, with admission / queue / prepare / execute
// phases nested under it, even though admission runs on the submitting
// thread and the rest on a pool worker. Run under TSan in CI, this is also
// the proof that the tracer handoff across the pool boundary is race-free.
TEST(ServiceTest, TracedRequestSpansShareOneTracePerRequest) {
  ServiceOptions options;
  options.threads = 4;
  QueryService service(options);

  constexpr int kRequests = 8;
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < kRequests; ++i) {
    Request request;
    request.source = kFigure1;
    request.trace = true;
    futures.push_back(service.Submit(std::move(request)));
  }

  std::set<uint64_t> trace_ids;
  for (std::future<Response>& future : futures) {
    Response response = future.get();
    ASSERT_TRUE(response.status.ok()) << response.status.message();
    ASSERT_NE(response.trace_id, 0u);
    trace_ids.insert(response.trace_id);

    ASSERT_FALSE(response.spans.empty());
    int roots = 0;
    std::set<std::string> names;
    for (const SpanRecord& span : response.spans) {
      names.insert(span.name);
      if (span.parent_id == -1) {
        ++roots;
        EXPECT_EQ(span.name, "request");
      }
    }
    // A single connected tree: one root, every phase stitched under it.
    EXPECT_EQ(roots, 1);
    EXPECT_TRUE(names.count("request.admission"));
    EXPECT_TRUE(names.count("request.queue"));
    EXPECT_TRUE(names.count("request.prepare"));
    EXPECT_TRUE(names.count("request.execute"));
  }
  // Requests never share a trace id.
  EXPECT_EQ(trace_ids.size(), static_cast<size_t>(kRequests));

  // Untraced requests stay span-free (the tracer is disabled, not merely
  // discarded).
  Request untraced;
  untraced.source = kFigure1;
  Response response = service.Call(std::move(untraced));
  ASSERT_TRUE(response.status.ok());
  EXPECT_NE(response.trace_id, 0u);
  EXPECT_TRUE(response.spans.empty());
}

TEST(ServiceTest, SlowQueryLogEntryMatchesRequestTrace) {
  ServiceOptions options;
  options.slow_query_ms = 0;  // every request is "slow"
  QueryService service(options);

  Request request;
  request.source = kFigure1;
  request.trace = true;
  Response response = service.Call(std::move(request));
  ASSERT_TRUE(response.status.ok()) << response.status.message();

  std::vector<LogEvent> slow = service.event_log().EventsOfKind("slow_query");
  ASSERT_EQ(slow.size(), 1u);
  const LogEvent& event = slow[0];
  // The log entry and the exported trace are joinable on the trace id.
  EXPECT_EQ(event.trace_id, response.trace_id);
  EXPECT_EQ(ServiceCounter(service, "service/slow_queries"), 1);
  // The message is the explain summary for the request.
  EXPECT_NE(event.message.find("sat="), std::string::npos);
  EXPECT_NE(event.message.find("answers="), std::string::npos);
  bool has_total = false;
  for (const auto& [key, value] : event.fields) {
    if (key == "total_ns") {
      has_total = true;
      EXPECT_GT(value, 0);
    }
  }
  EXPECT_TRUE(has_total);

  // Fast path untouched: with the threshold disabled nothing is logged.
  QueryService quiet;
  Request fast;
  fast.source = kFigure1;
  ASSERT_TRUE(quiet.Call(std::move(fast)).status.ok());
  EXPECT_TRUE(quiet.event_log().EventsOfKind("slow_query").empty());
  EXPECT_EQ(ServiceCounter(quiet, "service/slow_queries"), 0);
}

TEST(ServiceTest, ResponseCarriesPrepareTelemetry) {
  QueryService service;
  Request first;
  first.source = kFigure1;
  Response cold = service.Call(std::move(first));
  ASSERT_TRUE(cold.status.ok()) << cold.status.message();
  EXPECT_FALSE(cold.prepare_cache_hit);
  EXPECT_GT(cold.prepare_ns, 0);
  EXPECT_GT(cold.passes_ran, 0);

  Request second;
  second.source = kFigure1;
  Response warm = service.Call(std::move(second));
  ASSERT_TRUE(warm.status.ok());
  EXPECT_TRUE(warm.prepare_cache_hit);
  EXPECT_NE(warm.trace_id, cold.trace_id);
  EXPECT_EQ(service.metrics().GetHistogram("service/prepare_ns")->count(), 2);
}

TEST(ServiceTest, SnapshotLoopEmitsMetricsDeltaEvents) {
  ServiceOptions options;
  options.metrics_snapshot_ms = 10;
  QueryService service(options);
  Request request;
  request.source = kFigure1;
  ASSERT_TRUE(service.Call(std::move(request)).status.ok());
  // The background loop publishes a delta within a period or two; poll with
  // a generous bound so a loaded CI machine doesn't flake.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool saw_completion = false;
  while (std::chrono::steady_clock::now() < deadline && !saw_completion) {
    // A period can elapse mid-request, so the first delta may only cover
    // the accept; scan until one covers the completion.
    for (const LogEvent& event :
         service.event_log().EventsOfKind("metrics_snapshot")) {
      if (event.message.find("service/requests_completed") !=
          std::string::npos) {
        saw_completion = true;
      }
    }
    if (!saw_completion) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_TRUE(saw_completion);
  service.Shutdown();  // joins the snapshot thread cleanly
}

// ------------------------------------------------------- deadline units

TEST(ServiceTest, DeadlineNsFromMsConvertsAtTheSinglePoint) {
  // -1 is the "no deadline" sentinel and stays -1 regardless of now.
  Result<int64_t> none = DeadlineNsFromMs(-1, 123456789);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none.value(), -1);

  // 0 means "already expired": the absolute deadline is now itself.
  Result<int64_t> zero = DeadlineNsFromMs(0, 5000);
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(zero.value(), 5000);

  Result<int64_t> five = DeadlineNsFromMs(5, 1000);
  ASSERT_TRUE(five.ok());
  EXPECT_EQ(five.value(), 1000 + 5 * 1'000'000);
}

TEST(ServiceTest, DeadlineNsFromMsRejectsNegativeAndOverflow) {
  for (int64_t bad : {int64_t{-2}, int64_t{-1000}, INT64_MIN}) {
    Result<int64_t> result = DeadlineNsFromMs(bad, 0);
    ASSERT_FALSE(result.ok()) << bad;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  // Values whose ms -> ns conversion (plus now) cannot fit an int64.
  const int64_t now_ns = 1'000'000'000;
  for (int64_t bad : {INT64_MAX, INT64_MAX / 1'000'000,
                      (INT64_MAX - now_ns) / 1'000'000 + 1}) {
    Result<int64_t> result = DeadlineNsFromMs(bad, now_ns);
    ASSERT_FALSE(result.ok()) << bad;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  // The largest representable deadline is fine.
  Result<int64_t> edge =
      DeadlineNsFromMs((INT64_MAX - now_ns) / 1'000'000, now_ns);
  ASSERT_TRUE(edge.ok());
}

TEST(ServiceTest, InvalidDeadlineIsRejectedBeforeTheQueue) {
  QueryService service;
  Request request;
  request.source = kFigure1;
  request.deadline_ms = -7;
  Response response = service.Call(std::move(request));
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(response.trace_id, 0u);  // rejections still carry a trace id
  EXPECT_EQ(ServiceCounter(service, "service/requests_rejected_invalid"),
            1);
  EXPECT_EQ(ServiceCounter(service, "service/requests_accepted"), 0);
  service.Shutdown();
}

// --------------------------------------------------------- shutdown drain

TEST(ServiceTest, ShutdownResolvesEveryFutureNoMatterTheRace) {
  // A tiny pool with a deep backlog, shut down while requests are queued,
  // racing a second submitter: every future must resolve — completed or
  // rejected — with no hangs and no dropped promises. Run several rounds
  // so the shutdown lands at different queue depths (and TSan sees the
  // handoffs).
  const std::string slow = MakeChainSource(30);
  for (int round = 0; round < 6; ++round) {
    ServiceOptions options;
    options.threads = 1;
    options.max_queue = 16;
    QueryService service(options);

    std::vector<std::future<Response>> futures;
    for (int i = 0; i < 8; ++i) {
      Request request;
      request.source = slow;
      futures.push_back(service.Submit(std::move(request)));
    }

    // A competing submitter keeps pushing while Shutdown runs.
    std::vector<std::future<Response>> racing;
    std::thread submitter([&] {
      for (int i = 0; i < 8; ++i) {
        Request request;
        request.source = slow;
        racing.push_back(service.Submit(std::move(request)));
      }
    });
    std::thread closer([&] { service.Shutdown(); });
    submitter.join();
    closer.join();

    futures.insert(futures.end(),
                   std::make_move_iterator(racing.begin()),
                   std::make_move_iterator(racing.end()));
    int completed = 0, rejected = 0;
    for (std::future<Response>& future : futures) {
      Response response = future.get();  // must never hang
      if (response.status.ok()) {
        ++completed;
        EXPECT_FALSE(response.answers.empty());
      } else {
        ASSERT_TRUE(response.status.code() ==
                        StatusCode::kFailedPrecondition ||
                    response.status.code() ==
                        StatusCode::kResourceExhausted)
            << response.status.message();
        ++rejected;
      }
    }
    EXPECT_EQ(completed + rejected, 16);
  }
}

// ------------------------------------------------------ randomized stress

// Sorted transitive closure of the 0 -> 1 -> ... -> last chain: the
// recompute oracle for the stress test below.
std::vector<Tuple> ChainClosure(int last) {
  std::vector<Tuple> out;
  for (int i = 0; i < last; ++i) {
    for (int j = i + 1; j <= last; ++j) {
      out.push_back({Value::Int(i), Value::Int(j)});
    }
  }
  return out;
}

TEST(ServiceTest, ConcurrentSubmitAndApplyDeltaKeepViewsConsistent) {
  // Two tenants maintain views over the same source while queries race the
  // maintenance. Each tenant's delta stream extends its chain one edge per
  // batch, so the EDB at snapshot version v is fully determined and every
  // query answer can be checked against the closed-form closure of the
  // version it reports. Versions must advance monotonically per tenant.
  constexpr int kBaseChain = 5;
  constexpr int kBatches = 8;
  constexpr int kQueries = 12;
  const std::string source = MakeChainSource(kBaseChain);

  ServiceOptions options;
  options.threads = 4;
  QueryService service(options);

  auto delta_thread = [&](const std::string& tenant) {
    for (int v = 1; v <= kBatches; ++v) {
      DeltaRequest request;
      request.source = source;
      request.tenant = tenant;
      const int from = kBaseChain + v - 1;
      Result<Atom> fact = ParseAtomText("step(" + std::to_string(from) +
                                        ", " + std::to_string(from + 1) +
                                        ")");
      ASSERT_TRUE(fact.ok());
      request.delta.inserts.push_back(fact.take());
      DeltaResponse response = service.CallApplyDelta(std::move(request));
      ASSERT_TRUE(response.status.ok()) << response.status.message();
      // Monotonic per tenant: exactly one version per batch, in order.
      ASSERT_EQ(response.snapshot_version, v);
    }
  };
  auto query_thread = [&](const std::string& tenant, unsigned seed) {
    std::mt19937 rng(seed);
    int64_t last_seen = -1;
    for (int i = 0; i < kQueries; ++i) {
      Request request;
      request.source = source;
      request.tenant = tenant;
      request.materialized = true;
      Response response = service.Call(std::move(request));
      ASSERT_TRUE(response.status.ok()) << response.status.message();
      const int64_t version = response.snapshot_version;
      ASSERT_GE(version, 0);
      ASSERT_LE(version, kBatches);
      // The view never moves backwards under a single reader.
      ASSERT_GE(version, last_seen);
      last_seen = version;
      // The answers are exactly the recompute of the version they claim.
      ASSERT_EQ(response.answers,
                ChainClosure(kBaseChain + static_cast<int>(version)))
          << tenant << " at version " << version;
      if (rng() % 2 == 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(rng() % 500));
      }
    }
  };

  std::vector<std::thread> threads;
  threads.emplace_back(delta_thread, "acme");
  threads.emplace_back(delta_thread, "beta");
  threads.emplace_back(query_thread, "acme", 1u);
  threads.emplace_back(query_thread, "acme", 2u);
  threads.emplace_back(query_thread, "beta", 3u);
  threads.emplace_back(query_thread, "beta", 4u);
  for (std::thread& thread : threads) thread.join();

  // Both tenants saw every batch; the per-tenant counters agree.
  EXPECT_EQ(ServiceCounter(service, "tenant/acme/delta_batches"), kBatches);
  EXPECT_EQ(ServiceCounter(service, "tenant/beta/delta_batches"), kBatches);
  EXPECT_EQ(ServiceCounter(service, "tenant/acme/requests"), 2 * kQueries);
  EXPECT_EQ(ServiceCounter(service, "tenant/beta/requests"), 2 * kQueries);
  service.Shutdown();
}

// ------------------------------------------------------ session retention

int64_t SessionsOpened(QueryService& service) {
  return ServiceCounter(service, "engine/sessions_opened");
}

// Calls `source` and expects success. With one worker thread a request's
// session is released before the next request's lookup, so the eviction
// walks below see every earlier entry idle.
Response CallOk(QueryService& service, const std::string& source) {
  Request request;
  request.source = source;
  Response response = service.Call(std::move(request));
  EXPECT_TRUE(response.status.ok()) << response.status.message();
  return response;
}

// A cheap unit whose text differs for each `i`, so each opens its own
// session.
std::string ColdSource(int i) {
  return MakeChainSource(2) + "% cold unit " + std::to_string(i) + "\n";
}

constexpr int kCapacity =
    static_cast<int>(QueryService::kSessionCacheCapacity);

TEST(ServiceTest, SessionsAreEvictedInLruOrder) {
  ServiceOptions options;
  options.threads = 1;
  QueryService service(options);
  std::vector<std::string> s;
  for (int i = 0; i <= kCapacity; ++i) s.push_back(ColdSource(i));

  for (int i = 0; i < kCapacity; ++i) CallOk(service, s[i]);
  CallOk(service, s[0]);  // touch: s[1] is now least recently used
  EXPECT_EQ(SessionsOpened(service), kCapacity);
  EXPECT_EQ(ServiceCounter(service, "service/sessions_evicted"), 0);
  CallOk(service, s[kCapacity]);  // over capacity: evicts s[1]
  EXPECT_EQ(SessionsOpened(service), kCapacity + 1);
  EXPECT_EQ(ServiceCounter(service, "service/sessions_evicted"), 1);
  EXPECT_EQ(service.metrics().GetGauge("service/sessions_live")->value(),
            kCapacity);

  CallOk(service, s[0]);
  CallOk(service, s[2]);
  EXPECT_EQ(SessionsOpened(service), kCapacity + 1);  // both retained
  CallOk(service, s[1]);  // re-opened; evicts s[3], now the oldest
  EXPECT_EQ(SessionsOpened(service), kCapacity + 2);
  CallOk(service, s[4]);
  EXPECT_EQ(SessionsOpened(service), kCapacity + 2);  // retained
  CallOk(service, s[3]);  // re-opened; evicts s[5]
  EXPECT_EQ(SessionsOpened(service), kCapacity + 3);
  EXPECT_EQ(ServiceCounter(service, "service/sessions_evicted"), 3);
}

TEST(ServiceTest, ViewHoldingSessionsSurviveEviction) {
  // A view's delta state cannot be rebuilt from source: its session must
  // outlive any number of cold programs, and its versions keep counting.
  constexpr int kBaseChain = 5;
  ServiceOptions options;
  options.threads = 1;
  QueryService service(options);
  const std::string source = MakeChainSource(kBaseChain);

  auto extend = [&](int version) {
    DeltaRequest request;
    request.source = source;
    const int from = kBaseChain + version - 1;
    request.delta.inserts.push_back(
        ParseAtomText("step(" + std::to_string(from) + ", " +
                      std::to_string(from + 1) + ")")
            .take());
    DeltaResponse response = service.CallApplyDelta(std::move(request));
    ASSERT_TRUE(response.status.ok()) << response.status.message();
    EXPECT_EQ(response.snapshot_version, version);
  };
  extend(1);
  for (int i = 0; i < kCapacity + 100; ++i) CallOk(service, ColdSource(i));
  // The view holder left the LRU list instead of being evicted, so exactly
  // the 100 cold units past the capacity went.
  EXPECT_EQ(ServiceCounter(service, "service/sessions_evicted"), 100);
  extend(2);  // a rebuilt view would restart at version 1

  Request read;
  read.source = source;
  read.materialized = true;
  Response response = service.Call(std::move(read));
  ASSERT_TRUE(response.status.ok()) << response.status.message();
  EXPECT_EQ(response.snapshot_version, 2);
  EXPECT_EQ(response.answers, ChainClosure(kBaseChain + 2));
  EXPECT_EQ(SessionsOpened(service), kCapacity + 101);
}

TEST(ServiceTest, InFlightSessionIsNotEvicted) {
  ServiceOptions options;
  options.threads = 2;
  QueryService service(options);

  // A long evaluation holds its session until cancelled; its chain is far
  // too long to finish while the cold requests below run.
  const std::string slow_source = MakeChainSource(5000);
  auto cancel = std::make_shared<CancelToken>();
  Request slow;
  slow.source = slow_source;
  slow.cancel = cancel;
  slow.deadline_ms = 60'000;
  std::future<Response> slow_response = service.Submit(std::move(slow));
  while (SessionsOpened(service) < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The slow session is the least recently used from the moment the list
  // fills, but only idle entries may go: each cold request past the
  // capacity evicts the oldest cold one instead.
  for (int i = 0; i <= kCapacity; ++i) CallOk(service, ColdSource(i));
  EXPECT_EQ(ServiceCounter(service, "service/sessions_evicted"), 2);
  cancel->Cancel();
  EXPECT_EQ(slow_response.get().status.code(), StatusCode::kCancelled);

  // The slow source's session survived: asking again opens nothing.
  const int64_t opened = SessionsOpened(service);
  Request again;
  again.source = slow_source;
  again.load_only = true;
  ASSERT_TRUE(service.Call(std::move(again)).status.ok());
  EXPECT_EQ(SessionsOpened(service), opened);
}

TEST(ServiceTest, EvictedSourceAnswersIdentically) {
  ServiceOptions options;
  options.threads = 1;
  QueryService service(options);

  Response first = CallOk(service, kFigure1);
  // Past the capacity: the Figure 1 session is the oldest and goes.
  for (int i = 0; i < kCapacity; ++i) CallOk(service, ColdSource(i));
  EXPECT_EQ(ServiceCounter(service, "service/sessions_evicted"), 1);
  Response again = CallOk(service, kFigure1);
  EXPECT_EQ(again.answers, first.answers);
  EXPECT_FALSE(again.prepare_cache_hit);  // re-parsed and re-prepared
  EXPECT_EQ(SessionsOpened(service), kCapacity + 2);
  EXPECT_EQ(ServiceCounter(service, "engine/pipeline_runs"), kCapacity + 2);
}


// ------------------------------------------ the pipeline's observable contract

// What one request left behind: its status and span tree, plus the
// counters, histogram samples and event-log entries it added.
struct Footprint {
  StatusCode code = StatusCode::kOk;
  // Counter deltas and histogram sample counts under service/, tenant/ and
  // engine/ (zero deltas dropped).
  std::map<std::string, int64_t> counters;
  std::map<std::string, int64_t> samples;
  // One line per event carrying the request's trace id: the kind, then each
  // field in order, with its value unless it is a duration, then the
  // message's first word.
  std::vector<std::string> events;
  // "root[attr keys] > direct children in start order"; "" when untraced.
  std::string spans;
};

bool Pinned(const std::string& name) {
  return name.rfind("service/", 0) == 0 || name.rfind("tenant/", 0) == 0 ||
         name.rfind("engine/", 0) == 0;
}

std::string EventShape(const LogEvent& event) {
  std::string out = event.kind;
  for (const auto& [key, value] : event.fields) {
    out += " " + key;
    const bool duration = key.size() > 3 &&
                          key.compare(key.size() - 3, 3, "_ns") == 0;
    if (!duration) out += "=" + std::to_string(value);
  }
  return out + " | " + event.message.substr(0, event.message.find(' '));
}

std::string SpanShape(std::vector<SpanRecord> spans) {
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.id < b.id;
            });
  std::string out;
  for (const SpanRecord& span : spans) {
    if (span.parent_id != -1) continue;
    out += span.name + "[";
    for (size_t i = 0; i < span.attrs.size(); ++i) {
      out += (i == 0 ? "" : ",") + span.attrs[i].first;
    }
    out += "] >";
    for (const SpanRecord& child : spans) {
      if (child.parent_id == span.id) out += " " + child.name;
    }
  }
  return out;
}

// Delivers through the future API or the callback API. The callback owns
// its promise, so the worker never touches this frame after delivery.
Response Send(QueryService& service, Request request, bool callback) {
  if (!callback) return service.Submit(std::move(request)).get();
  auto done = std::make_shared<std::promise<Response>>();
  std::future<Response> response = done->get_future();
  service.Submit(std::move(request),
                 [done](Response r) { done->set_value(std::move(r)); });
  return response.get();
}

DeltaResponse Send(QueryService& service, DeltaRequest request,
                   bool callback) {
  if (!callback) return service.ApplyDelta(std::move(request)).get();
  auto done = std::make_shared<std::promise<DeltaResponse>>();
  std::future<DeltaResponse> response = done->get_future();
  service.ApplyDelta(std::move(request), [done](DeltaResponse r) {
    done->set_value(std::move(r));
  });
  return response.get();
}

enum class Outcome { kAccepted, kFailed, kQueueFull, kShutdown, kSlow };

// Runs `request` on a fresh one-worker service set up for `outcome` and
// returns its footprint. For kQueueFull a blocker occupies the worker (its
// callback waits on a gate) and a filler takes the one queue slot, so the
// request is rejected deterministically; both finished or were queued
// before the first snapshot, so the diff is the request's alone.
template <typename Req>
Footprint RunOnce(Outcome outcome, Req request, bool callback) {
  std::promise<void> started;
  std::promise<void> gate;
  std::shared_future<void> gate_open = gate.get_future().share();
  ServiceOptions options;
  options.threads = 1;
  options.max_queue = 1;
  if (outcome == Outcome::kSlow) options.slow_query_ms = 0;
  QueryService service(options);
  if (outcome == Outcome::kShutdown) service.Shutdown();
  if (outcome == Outcome::kQueueFull) {
    Request blocker;
    blocker.source = kFigure1;
    service.Submit(std::move(blocker), [&started, gate_open](Response) {
      started.set_value();
      gate_open.wait();
    });
    started.get_future().wait();
    Request filler;
    filler.source = kFigure1;
    service.Submit(std::move(filler), [](Response) {});
  }

  const MetricsSnapshot before = service.metrics().Snapshot();
  const auto response = Send(service, std::move(request), callback);
  const MetricsSnapshot diff =
      DiffSnapshots(before, service.metrics().Snapshot());
  Footprint footprint;
  footprint.code = response.status.code();
  for (const auto& [name, delta] : diff.counters) {
    if (Pinned(name) && delta != 0) footprint.counters[name] = delta;
  }
  for (const auto& [name, histogram] : diff.histograms) {
    if (Pinned(name) && histogram.count != 0) {
      footprint.samples[name] = histogram.count;
    }
  }
  for (const LogEvent& event : service.event_log().Events()) {
    if (event.trace_id == response.trace_id) {
      footprint.events.push_back(EventShape(event));
    }
  }
  footprint.spans = SpanShape(response.spans);
  if (outcome == Outcome::kQueueFull) gate.set_value();
  return footprint;
}

void ExpectFootprint(const Footprint& got, const Footprint& want) {
  EXPECT_EQ(got.code, want.code);
  EXPECT_EQ(got.counters, want.counters);
  EXPECT_EQ(got.samples, want.samples);
  EXPECT_EQ(got.events, want.events);
  EXPECT_EQ(got.spans, want.spans);
}

Request TracedQuery(const std::string& source) {
  Request request;
  request.source = source;
  request.tenant = "acme";
  request.trace = true;
  return request;
}

DeltaRequest TracedDelta(const std::string& source) {
  DeltaRequest request;
  request.source = source;
  request.tenant = "acme";
  request.trace = true;
  request.delta.inserts.push_back(ParseAtomText("step(5, 6)").take());
  return request;
}

// Pins, for each request kind and both delivery APIs, the exact metrics,
// events and span names of every way a request can end: accepted, failed,
// rejected by a full queue, rejected after Shutdown, and logged as slow.
// Queries and delta batches report under their own counter names.
TEST(ServiceTest, EveryRequestKindKeepsItsObservableContract) {
  const std::string chain = MakeChainSource(5);
  const std::string broken = "p(X :- q(X).";
  const std::string query_spans =
      "request[request_id,status_code,answers] > request.admission "
      "request.queue request.prepare request.execute";
  const std::string delta_spans =
      "delta[request_id,inserts,deletes,status_code,version] > "
      "delta.admission delta.queue delta.prepare delta.materialize "
      "delta.maintain";
  const int64_t kInvalid = static_cast<int64_t>(StatusCode::kInvalidArgument);

  for (bool callback : {false, true}) {
    SCOPED_TRACE(callback ? "callback API" : "future API");

    const std::map<std::string, int64_t> query_ran = {
        {"engine/executions", 1},
        {"engine/pipeline_runs", 1},
        {"engine/prepare_cache_misses", 1},
        {"engine/sessions_opened", 1},
        {"service/requests_accepted", 1},
        {"service/requests_completed", 1},
        {"tenant/acme/completed", 1},
        {"tenant/acme/requests", 1}};
    const std::map<std::string, int64_t> query_samples = {
        {"service/execute_ns", 1},
        {"service/prepare_ns", 1},
        {"service/queue_wait_ns", 1},
        {"tenant/acme/latency_ns", 1}};
    ExpectFootprint(
        RunOnce(Outcome::kAccepted, TracedQuery(kFigure1), callback),
        {StatusCode::kOk, query_ran, query_samples, {}, query_spans});

    std::map<std::string, int64_t> slow_query_ran = query_ran;
    slow_query_ran["service/slow_queries"] = 1;
    Footprint slow_query =
        RunOnce(Outcome::kSlow, TracedQuery(kFigure1), callback);
    ExpectFootprint(slow_query,
                    {StatusCode::kOk,
                     slow_query_ran,
                     query_samples,
                     {"slow_query total_ns queue_wait_ns prepare_ns "
                      "execute_ns answers=10 | sat=yes"},
                     query_spans});

    ExpectFootprint(
        RunOnce(Outcome::kFailed, TracedQuery(broken), callback),
        {StatusCode::kInvalidArgument,
         {{"service/requests_accepted", 1},
          {"service/requests_failed", 1},
          {"tenant/acme/errors", 1},
          {"tenant/acme/requests", 1}},
         {{"service/queue_wait_ns", 1}, {"tenant/acme/latency_ns", 1}},
         {"request_error code=" + std::to_string(kInvalid) +
          " total_ns | INVALID_ARGUMENT:"},
         "request[request_id,status_code,answers] > request.admission "
         "request.queue request.prepare"});

    ExpectFootprint(
        RunOnce(Outcome::kQueueFull, TracedQuery(kFigure1), callback),
        {StatusCode::kResourceExhausted,
         {{"service/requests_rejected", 1},
          {"service/requests_rejected_queue_full", 1},
          {"tenant/acme/rejected", 1}},
         {{"service/queue_wait_ns", 1}},
         {"request_rejected queue_full=1 | admission"},
         "request[request_id,rejected] > request.admission"});

    ExpectFootprint(
        RunOnce(Outcome::kShutdown, TracedQuery(kFigure1), callback),
        {StatusCode::kFailedPrecondition,
         {{"service/requests_rejected", 1},
          {"service/requests_rejected_shutdown", 1},
          {"tenant/acme/rejected", 1}},
         {{"service/queue_wait_ns", 1}},
         {"request_rejected queue_full=0 | service"},
         "request[request_id,rejected] > request.admission"});

    const std::map<std::string, int64_t> delta_ran = {
        {"engine/pipeline_runs", 1},
        {"engine/prepare_cache_misses", 1},
        {"engine/sessions_opened", 1},
        {"engine/views_materialized", 1},
        {"service/delta_batches", 1},
        {"service/delta_batches_completed", 1},
        {"tenant/acme/completed", 1},
        {"tenant/acme/delta_batches", 1}};
    const std::map<std::string, int64_t> delta_samples = {
        {"service/apply_delta_ns", 1},
        {"service/queue_wait_ns", 1},
        {"tenant/acme/latency_ns", 1}};
    ExpectFootprint(
        RunOnce(Outcome::kAccepted, TracedDelta(chain), callback),
        {StatusCode::kOk, delta_ran, delta_samples, {}, delta_spans});

    std::map<std::string, int64_t> slow_delta_ran = delta_ran;
    slow_delta_ran["service/slow_queries"] = 1;
    ExpectFootprint(
        RunOnce(Outcome::kSlow, TracedDelta(chain), callback),
        {StatusCode::kOk,
         slow_delta_ran,
         delta_samples,
         {"slow_delta total_ns queue_wait_ns materialize_ns maintain_ns "
          "version=1 | v1"},
         delta_spans});

    ExpectFootprint(
        RunOnce(Outcome::kFailed, TracedDelta(broken), callback),
        {StatusCode::kInvalidArgument,
         {{"service/delta_batches", 1},
          {"service/delta_batches_failed", 1},
          {"tenant/acme/delta_batches", 1},
          {"tenant/acme/errors", 1}},
         {{"service/queue_wait_ns", 1}, {"tenant/acme/latency_ns", 1}},
         {"request_error code=" + std::to_string(kInvalid) +
          " total_ns delta=1 | INVALID_ARGUMENT:"},
         "delta[request_id,inserts,deletes,status_code,version] > "
         "delta.admission delta.queue"});

    // A rejected batch has no cause split and no queue-wait sample.
    ExpectFootprint(
        RunOnce(Outcome::kQueueFull, TracedDelta(chain), callback),
        {StatusCode::kResourceExhausted,
         {{"service/delta_batches_rejected", 1}, {"tenant/acme/rejected", 1}},
         {},
         {"request_rejected queue_full=1 delta=1 | admission"},
         "delta[request_id,inserts,deletes,rejected] > delta.admission"});

    ExpectFootprint(
        RunOnce(Outcome::kShutdown, TracedDelta(chain), callback),
        {StatusCode::kFailedPrecondition,
         {{"service/delta_batches_rejected", 1}, {"tenant/acme/rejected", 1}},
         {},
         {"request_rejected queue_full=0 delta=1 | service"},
         "delta[request_id,inserts,deletes,rejected] > delta.admission"});

    // An invalid deadline is rejected before admission: no span, no event,
    // no queue-wait sample.
    Request invalid = TracedQuery(kFigure1);
    invalid.deadline_ms = -7;
    ExpectFootprint(RunOnce(Outcome::kAccepted, std::move(invalid), callback),
                    {StatusCode::kInvalidArgument,
                     {{"service/requests_rejected", 1},
                      {"service/requests_rejected_invalid", 1},
                      {"tenant/acme/rejected", 1}},
                     {},
                     {},
                     ""});
  }
}

// Queries and delta batches prepare with the same (default) options, so a
// materialized read and a delta batch on one unit share one prepared
// program and one view: the read after the batch sees it.
TEST(ServiceTest, MaterializedReadsAndDeltaBatchesShareOneView) {
  const std::string source = R"(
    tc(X, Y) :- step(X, Y).
    tc(X, Y) :- step(X, Z), tc(Z, Y).
    step(1, 2). step(2, 3).
    ?- tc.
  )";
  QueryService service;
  Request read;
  read.source = source;
  read.materialized = true;
  Response before = service.Call(read);
  ASSERT_TRUE(before.status.ok()) << before.status.message();
  EXPECT_EQ(before.answers.size(), 3u);

  DeltaRequest batch;
  batch.source = source;
  batch.delta.inserts.push_back(ParseAtomText("step(3, 4)").take());
  DeltaResponse applied = service.CallApplyDelta(std::move(batch));
  ASSERT_TRUE(applied.status.ok()) << applied.status.message();
  EXPECT_EQ(applied.snapshot_version, 1);

  Response after = service.Call(read);
  ASSERT_TRUE(after.status.ok()) << after.status.message();
  EXPECT_EQ(after.snapshot_version, 1);
  EXPECT_EQ(after.answers.size(), 6u);
  EXPECT_EQ(ServiceCounter(service, "engine/pipeline_runs"), 1);
  EXPECT_EQ(ServiceCounter(service, "engine/views_materialized"), 1);

  // A plain evaluation reads the unchanged base snapshot.
  Request plain;
  plain.source = source;
  Response base = service.Call(std::move(plain));
  ASSERT_TRUE(base.status.ok()) << base.status.message();
  EXPECT_EQ(base.snapshot_version, 0);
  EXPECT_EQ(base.answers.size(), 3u);
}

}  // namespace
}  // namespace sqod
