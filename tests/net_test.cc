// Tests for the network front-end: an in-process Server driven over real
// loopback TCP by the client library. Covers the hello handshake (auth,
// version negotiation and the encoding each version gets), the wire layer
// timers, multi-tenant isolation and quotas, named sessions
// with monotonic snapshot versions under delta batches, pipelining, and
// graceful drain.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/base/value.h"
#include "src/net/client.h"
#include "src/net/server.h"

namespace sqod {
namespace {

constexpr const char* kChain = R"(
  path(X, Y) :- step(X, Y).
  path(X, Y) :- step(X, Z), path(Z, Y).
  step(1, 2). step(2, 3).
  ?- path.
)";

Tuple T(int64_t a, int64_t b) { return {Value::Int(a), Value::Int(b)}; }

// A transitive closure big enough that evaluation takes real wall time,
// so pipelined requests overlap deterministically.
std::string SlowChainSource(int n) {
  std::ostringstream out;
  out << "path(X, Y) :- step(X, Y).\n";
  out << "path(X, Y) :- step(X, Z), path(Z, Y).\n";
  for (int i = 0; i < n; ++i) out << "step(" << i << ", " << i + 1 << ").\n";
  out << "?- path.\n";
  return out.str();
}

int64_t CounterFromExport(const JsonValue& metrics,
                          const std::string& name) {
  const JsonValue* counters = metrics.Find("counters");
  if (counters == nullptr) return -1;
  const JsonValue* counter = counters->Find(name);
  if (counter == nullptr || !counter->is_number()) return -1;
  return static_cast<int64_t>(counter->number);
}

ServerOptions TwoTenantOptions() {
  ServerOptions options;
  options.service.threads = 2;
  TenantConfig acme;
  acme.name = "acme";
  acme.token = "acme-token";
  TenantConfig beta;
  beta.name = "beta";
  beta.token = "beta-token";
  options.tenants = {acme, beta};
  return options;
}

Result<Client> ConnectAs(const Server& server, const std::string& token) {
  ClientOptions options;
  options.port = const_cast<Server&>(server).port();
  options.token = token;
  return Client::Connect(options);
}

// ---------------------------------------------------------------- handshake

TEST(NetTest, OpenServerResolvesEveryTokenToDefaultTenant) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  Result<Client> client = ConnectAs(server, "anything");
  ASSERT_TRUE(client.ok());
  EXPECT_EQ(client.value().hello().tenant, "default");
  EXPECT_EQ(client.value().hello().version, kProtoVersionMax);
  server.Stop();
}

TEST(NetTest, UnknownTokenIsRejected) {
  Server server(TwoTenantOptions());
  ASSERT_TRUE(server.Start().ok());
  Result<Client> client = ConnectAs(server, "wrong-token");
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(server.metrics().GetCounter("net/auth_failures")->value(), 1);
  server.Stop();
}

TEST(NetTest, VersionNegotiationFailsAboveServerMax) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  ClientOptions options;
  options.port = server.port();
  options.min_version = kProtoVersionMax + 1;
  options.max_version = kProtoVersionMax + 1;
  Result<Client> client = Client::Connect(options);
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kUnsupported);
  server.Stop();
}

TEST(NetTest, RequestBeforeHelloClosesConnection) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  Result<UniqueFd> fd = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(fd.ok());
  const std::string frame = EncodeFrame(R"({"type":"metrics","id":1})");
  ASSERT_TRUE(WriteAll(fd.value().get(), frame.data(), frame.size()).ok());
  // The server answers with a FAILED_PRECONDITION error and closes.
  FrameReader reader;
  char buf[4096];
  std::string payload;
  while (true) {
    Result<bool> next = reader.Next(&payload);
    ASSERT_TRUE(next.ok());
    if (next.value()) break;
    Result<int64_t> got = ReadSome(fd.value().get(), buf, sizeof(buf));
    ASSERT_TRUE(got.ok());
    ASSERT_NE(got.value(), 0) << "server closed without replying";
    if (got.value() > 0) {
      reader.Append(buf, static_cast<size_t>(got.value()));
    }
  }
  Result<ServerMessage> reply = DecodeServerMessage(payload);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().status.code(), StatusCode::kFailedPrecondition);
  // EOF follows.
  int64_t got;
  do {
    Result<int64_t> r = ReadSome(fd.value().get(), buf, sizeof(buf));
    ASSERT_TRUE(r.ok());
    got = r.value();
  } while (got > 0);
  EXPECT_EQ(got, 0);
  server.Stop();
}

// A raw protocol connection: payloads go out as given and come back
// undecoded, so a test sees exactly which encoding the server chose.
struct RawConnection {
  UniqueFd fd;
  FrameReader reader;

  static RawConnection Open(uint16_t port) {
    RawConnection conn;
    Result<UniqueFd> fd = ConnectTcp("127.0.0.1", port);
    if (fd.ok()) conn.fd = std::move(fd).value();
    return conn;
  }

  bool Send(const std::string& payload) {
    const std::string frame = EncodeFrame(payload);
    return WriteAll(fd.get(), frame.data(), frame.size()).ok();
  }

  // The next payload, or "" once the server has closed.
  std::string Next() {
    char buf[16 * 1024];
    std::string payload;
    while (true) {
      Result<bool> next = reader.Next(&payload);
      if (!next.ok()) return "";
      if (next.value()) return payload;
      Result<int64_t> got = ReadSome(fd.get(), buf, sizeof(buf));
      if (!got.ok() || got.value() == 0) return "";
      if (got.value() > 0) reader.Append(buf, static_cast<size_t>(got.value()));
    }
  }

  // Sends `payload` and returns its reply.
  std::string Call(const std::string& payload) {
    return Send(payload) ? Next() : "";
  }
};

std::string RawHello(int min_version, int max_version) {
  HelloParams hello;
  hello.min_version = min_version;
  hello.max_version = max_version;
  return EncodeHello(1, hello);
}

TEST(NetTest, HelloWithVersionBeyondInt32IsRefused) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  RawConnection conn = RawConnection::Open(server.port());
  ASSERT_TRUE(conn.fd.valid());
  // 2^32 + 2: an unchecked narrowing would negotiate version 2.
  const std::string reply = conn.Call(
      R"({"type":"hello","id":1,"min_version":1,"max_version":4294967298})");
  Result<ServerMessage> decoded = DecodeServerMessage(reply);
  ASSERT_TRUE(decoded.ok()) << reply;
  // ASSERT: an accepted hello leaves the connection open, and Next()
  // below would block.
  ASSERT_EQ(decoded.value().status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(conn.Next(), "") << "the server must close after refusing";
  EXPECT_EQ(server.metrics().GetCounter("net/protocol_errors")->value(), 1);
  server.Stop();
}

TEST(NetTest, DefaultClientNegotiatesVersion2) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(kProtoVersionMin, 2);
  EXPECT_EQ(kProtoVersionMax, 2);
  EXPECT_EQ(ClientOptions{}.min_version, 2);
  EXPECT_EQ(ClientOptions{}.max_version, 2);
  const std::vector<Tuple> expected = {T(1, 2), T(1, 3), T(2, 3)};
  QueryParams params;
  params.source = kChain;
  ClientOptions options;
  options.port = server.port();
  Result<Client> client = Client::Connect(options);
  ASSERT_TRUE(client.ok());
  EXPECT_EQ(client.value().hello().version, 2);
  Result<Response> response = client.value().Query(params);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().answers, expected);

  // On the wire the answers lead the reply as a block; there is no JSON
  // answer array.
  RawConnection conn = RawConnection::Open(server.port());
  Result<ServerMessage> hello =
      DecodeServerMessage(conn.Call(RawHello(1, 2)));
  ASSERT_TRUE(hello.ok());
  EXPECT_EQ(hello.value().hello.version, 2);
  const std::string reply = conn.Call(EncodeQuery(2, params));
  ASSERT_FALSE(reply.empty());
  EXPECT_EQ(reply[0], '\0');
  EXPECT_EQ(reply.find("\"answers\""), std::string::npos);
  Result<ServerMessage> decoded = DecodeServerMessage(reply);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().query.answers, expected);
  server.Stop();
}

// Version 1 (JSON answer arrays) is retired: a client that speaks only
// version 1 gets one JSON UNSUPPORTED reply to its hello, never a binary
// payload, and the server closes the connection.
TEST(NetTest, V1ConnectionNeverReceivesBinaryPayload) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  RawConnection conn = RawConnection::Open(server.port());
  ASSERT_TRUE(conn.fd.valid());
  const std::string reply = conn.Call(RawHello(1, 1));
  ASSERT_FALSE(reply.empty());
  EXPECT_EQ(reply[0], '{');
  Result<ServerMessage> decoded = DecodeServerMessage(reply);
  ASSERT_TRUE(decoded.ok()) << reply;
  // ASSERT: an accepted hello leaves the connection open, and Next()
  // below would block.
  ASSERT_EQ(decoded.value().status.code(), StatusCode::kUnsupported)
      << reply;
  EXPECT_NE(decoded.value().status.message().find(
                "no common protocol version"),
            std::string::npos)
      << reply;
  EXPECT_EQ(conn.Next(), "") << "the server must close after refusing";

  // The client library reports the same refusal.
  ClientOptions options;
  options.port = server.port();
  options.min_version = 1;
  options.max_version = 1;
  Result<Client> client = Client::Connect(options);
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kUnsupported);
  server.Stop();
}

TEST(NetTest, WireLayerTimersRecordAQuery) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  Result<Client> client = ConnectAs(server, "");
  ASSERT_TRUE(client.ok());
  QueryParams params;
  params.source = kChain;
  ASSERT_TRUE(client.value().Query(params).ok());
  MetricsRegistry& metrics = server.metrics();
  // The hello and the query are decoded on the poll thread.
  EXPECT_EQ(metrics.GetHistogram("net/decode_request_ns")->count(), 2);
  // Only the query's reply is encoded by a worker.
  EXPECT_EQ(metrics.GetHistogram("net/encode_reply_ns")->count(), 1);
  HistogramSnapshot bytes =
      metrics.GetHistogram("net/reply_bytes")->Snapshot();
  EXPECT_EQ(bytes.count, 1);
  EXPECT_GT(bytes.sum, static_cast<int64_t>(kFrameHeaderBytes));
  server.Stop();
}

// ------------------------------------------------------- sessions + queries

TEST(NetTest, InlineQueryComputesAnswers) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  Result<Client> connected = ConnectAs(server, "");
  ASSERT_TRUE(connected.ok());
  Client& client = connected.value();

  QueryParams params;
  params.source = kChain;
  Result<Response> response = client.Query(params);
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response.value().status.ok())
      << response.value().status.message();
  EXPECT_EQ(response.value().answers,
            (std::vector<Tuple>{T(1, 2), T(1, 3), T(2, 3)}));
  EXPECT_EQ(response.value().snapshot_version, 0);
  EXPECT_TRUE(response.value().optimized);
  EXPECT_TRUE(client.Close().ok());
  server.Stop();
}

TEST(NetTest, NamedSessionServesFromViewAndDeltasAdvanceVersion) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  Result<Client> connected = ConnectAs(server, "");
  ASSERT_TRUE(connected.ok());
  Client& client = connected.value();

  Result<Response> loaded = client.LoadProgram("tc", kChain);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded.value().status.ok()) << loaded.value().status.message();

  QueryParams params;
  params.session = "tc";
  Result<Response> q0 = client.Query(params);
  ASSERT_TRUE(q0.ok());
  ASSERT_TRUE(q0.value().status.ok());
  EXPECT_EQ(q0.value().answers,
            (std::vector<Tuple>{T(1, 2), T(1, 3), T(2, 3)}));
  EXPECT_EQ(q0.value().snapshot_version, 0);

  // Insert step(3, 4): three new paths appear, version goes to 1.
  Result<DeltaResponse> d1 = client.ApplyDelta("tc", {"step(3, 4)"}, {});
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(d1.value().status.ok()) << d1.value().status.message();
  EXPECT_EQ(d1.value().snapshot_version, 1);
  EXPECT_EQ(d1.value().stats.edb_inserted, 1);

  Result<Response> q1 = client.Query(params);
  ASSERT_TRUE(q1.ok());
  EXPECT_EQ(q1.value().answers,
            (std::vector<Tuple>{T(1, 2), T(1, 3), T(1, 4), T(2, 3), T(2, 4),
                                T(3, 4)}));
  EXPECT_EQ(q1.value().snapshot_version, 1);
  EXPECT_TRUE(q1.value().served_from_view);

  // Delete step(1, 2): every path out of 1 disappears, version 2.
  Result<DeltaResponse> d2 = client.ApplyDelta("tc", {}, {"step(1, 2)"});
  ASSERT_TRUE(d2.ok());
  ASSERT_TRUE(d2.value().status.ok());
  EXPECT_EQ(d2.value().snapshot_version, 2);

  Result<Response> q2 = client.Query(params);
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(q2.value().answers,
            (std::vector<Tuple>{T(2, 3), T(2, 4), T(3, 4)}));
  EXPECT_EQ(q2.value().snapshot_version, 2);

  // EXPLAIN against the session reports the maintained view.
  Result<Response> explained = client.Explain("tc");
  ASSERT_TRUE(explained.ok());
  ASSERT_TRUE(explained.value().status.ok());
  EXPECT_FALSE(explained.value().explain_json.empty());

  EXPECT_TRUE(client.Close().ok());
  server.Stop();
}

// Every query prepares with the default optimizer options, so a retired
// `disabled_passes` key changes nothing: a session-addressed query that
// carries it still reads the view the delta batch advanced, and an inline
// one evaluates as usual.
TEST(NetTest, SessionQueryIgnoresDisabledPasses) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  RawConnection conn = RawConnection::Open(server.port());
  ASSERT_TRUE(conn.fd.valid());
  ASSERT_TRUE(DecodeServerMessage(conn.Call(RawHello(2, 2))).ok());
  LoadProgramParams load;
  load.session = "tc";
  load.source = kChain;
  Result<ServerMessage> loaded =
      DecodeServerMessage(conn.Call(EncodeLoadProgram(2, load)));
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded.value().status.ok());
  ApplyDeltaParams delta;
  delta.session = "tc";
  delta.inserts = {"step(3, 4)"};
  Result<ServerMessage> applied =
      DecodeServerMessage(conn.Call(EncodeApplyDelta(3, delta)));
  ASSERT_TRUE(applied.ok());
  ASSERT_TRUE(applied.value().delta.status.ok());

  Result<ServerMessage> ablated = DecodeServerMessage(conn.Call(
      R"({"type":"query","id":4,"session":"tc",)"
      R"("disabled_passes":["residues"]})"));
  ASSERT_TRUE(ablated.ok());
  const Response& view_read = ablated.value().query;
  ASSERT_TRUE(view_read.status.ok()) << view_read.status.message();
  EXPECT_TRUE(view_read.served_from_view);
  EXPECT_EQ(view_read.snapshot_version, 1);
  EXPECT_EQ(view_read.answers.size(), 6u);

  QueryParams params;
  params.source = kChain;
  std::string inline_payload = EncodeQuery(5, params);
  inline_payload.insert(inline_payload.size() - 1,
                        R"(,"disabled_passes":["residues"])");
  Result<ServerMessage> inline_query =
      DecodeServerMessage(conn.Call(inline_payload));
  ASSERT_TRUE(inline_query.ok());
  ASSERT_TRUE(inline_query.value().query.status.ok());
  EXPECT_EQ(inline_query.value().query.answers.size(), 3u);
  server.Stop();
}

// Views belong to named sessions: an inline query's retired
// `"materialized": true` builds none, so a stream of distinct inline units
// stays within the session cache and the oldest are evicted.
TEST(NetTest, InlineQueriesNeverPinViews) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  RawConnection conn = RawConnection::Open(server.port());
  ASSERT_TRUE(conn.fd.valid());
  ASSERT_TRUE(DecodeServerMessage(conn.Call(RawHello(2, 2))).ok());
  const int units = static_cast<int>(QueryService::kSessionCacheCapacity) + 8;
  for (int i = 0; i < units; ++i) {
    // kChain plus one distinct fact, written out as an older client sent
    // it: a raw frame with the key set.
    const std::string payload =
        R"({"type":"query","id":)" + std::to_string(2 + i) +
        R"(,"source":"path(X, Y) :- step(X, Y). )"
        R"(path(X, Y) :- step(X, Z), path(Z, Y). step(1, 2). step(2, 3). )"
        "step(" + std::to_string(100 + i) + R"(, 1). ?- path.",)"
        R"("materialized":true})";
    Result<ServerMessage> reply = DecodeServerMessage(conn.Call(payload));
    ASSERT_TRUE(reply.ok()) << "unit " << i;
    const Response& response = reply.value().query;
    ASSERT_TRUE(response.status.ok()) << response.status.message();
    EXPECT_FALSE(response.served_from_view);
    EXPECT_EQ(response.answers.size(), 6u) << "unit " << i;
  }
  MetricsRegistry& metrics = server.metrics();
  EXPECT_GT(metrics.GetCounter("service/sessions_evicted")->value(), 0);
  EXPECT_EQ(metrics.GetCounter("engine/views_materialized")->value(), 0);
  server.Stop();
}

// A load_program reply carries the prepare telemetry a query reply does,
// so a client sees at load time whether the unit is served as P.
TEST(NetTest, LoadProgramReportsWhetherTheUnitIsOptimized) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  Result<Client> connected = ConnectAs(server, "");
  ASSERT_TRUE(connected.ok());
  Client& client = connected.value();

  Result<Response> figure1 = client.LoadProgram("figure1", R"(
    p(X, Y) :- a(X, Y).
    p(X, Y) :- b(X, Y).
    p(X, Y) :- a(X, Z), p(Z, Y).
    p(X, Y) :- b(X, Z), p(Z, Y).
    :- a(X, Y), b(Y, Z).
    b(1, 2). b(2, 3). a(3, 4). a(4, 5).
    ?- p.
  )");
  ASSERT_TRUE(figure1.ok());
  ASSERT_TRUE(figure1.value().status.ok()) << figure1.value().status.message();
  EXPECT_TRUE(figure1.value().optimized);
  EXPECT_FALSE(figure1.value().prepare_cache_hit);
  EXPECT_GT(figure1.value().passes_ran, 0);
  EXPECT_GT(figure1.value().prepare_ns, 0);
  EXPECT_NE(figure1.value().trace_id, 0u);

  Result<Response> negation = client.LoadProgram("negation", R"(
    q(X) :- e(X, Y).
    p(X) :- e(X, Y), !q(Y).
    e(1, 2). e(2, 3).
    ?- p.
  )");
  ASSERT_TRUE(negation.ok());
  ASSERT_TRUE(negation.value().status.ok())
      << negation.value().status.message();
  EXPECT_FALSE(negation.value().optimized);
  EXPECT_EQ(negation.value().passes_ran, 0);
  EXPECT_TRUE(client.Close().ok());
  server.Stop();
}

TEST(NetTest, UnknownSessionIsNonFatal) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  Result<Client> connected = ConnectAs(server, "");
  ASSERT_TRUE(connected.ok());
  Client& client = connected.value();

  QueryParams params;
  params.session = "nope";
  Result<Response> missing = client.Query(params);
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().status.code(), StatusCode::kFailedPrecondition);

  Result<DeltaResponse> delta = client.ApplyDelta("nope", {"step(1, 2)"}, {});
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta.value().status.code(), StatusCode::kFailedPrecondition);

  // The connection survives; an inline query still works.
  params.session.clear();
  params.source = kChain;
  Result<Response> inline_query = client.Query(params);
  ASSERT_TRUE(inline_query.ok());
  EXPECT_TRUE(inline_query.value().status.ok());
  EXPECT_TRUE(client.Close().ok());
  server.Stop();
}

// A unit without `?-` is the client's error, not the server's: the reply
// is INVALID_ARGUMENT and the same connection answers the next query.
TEST(NetTest, UnitWithoutQueryIsInvalidArgumentAndServerKeepsServing) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  Result<Client> connected = ConnectAs(server, "");
  ASSERT_TRUE(connected.ok());
  Client& client = connected.value();

  QueryParams params;
  params.source = "p(X) :- e(X). e(1).";
  Result<Response> no_query = client.Query(params);
  ASSERT_TRUE(no_query.ok());
  EXPECT_EQ(no_query.value().status.code(), StatusCode::kInvalidArgument)
      << no_query.value().status.message();
  EXPECT_TRUE(no_query.value().answers.empty());

  params.source = kChain;
  Result<Response> good = client.Query(params);
  ASSERT_TRUE(good.ok());
  ASSERT_TRUE(good.value().status.ok()) << good.value().status.message();
  EXPECT_EQ(good.value().answers.size(), 3u);

  Result<JsonValue> metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(
      CounterFromExport(metrics.value(), "service/requests_rejected_invalid"),
      1);
  EXPECT_TRUE(client.Close().ok());
  server.Stop();
}

TEST(NetTest, MalformedDeltaFactIsRejectedBeforeDispatch) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  Result<Client> connected = ConnectAs(server, "");
  ASSERT_TRUE(connected.ok());
  Client& client = connected.value();
  ASSERT_TRUE(client.LoadProgram("tc", kChain).ok());

  Result<DeltaResponse> bad =
      client.ApplyDelta("tc", {"step(1, "}, {});
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad.value().status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(client.Close().ok());
  server.Stop();
}

// ------------------------------------------------------------ multi-tenancy

TEST(NetTest, TenantsAreIsolatedEvenForIdenticalSessionNames) {
  Server server(TwoTenantOptions());
  ASSERT_TRUE(server.Start().ok());
  Result<Client> acme = ConnectAs(server, "acme-token");
  Result<Client> beta = ConnectAs(server, "beta-token");
  ASSERT_TRUE(acme.ok());
  ASSERT_TRUE(beta.ok());
  EXPECT_EQ(acme.value().hello().tenant, "acme");
  EXPECT_EQ(beta.value().hello().tenant, "beta");

  // Both tenants bind the same session name to byte-identical programs;
  // acme then mutates its view. Beta's answers must not move.
  ASSERT_TRUE(acme.value().LoadProgram("tc", kChain).value().status.ok());
  ASSERT_TRUE(beta.value().LoadProgram("tc", kChain).value().status.ok());

  Result<DeltaResponse> d =
      acme.value().ApplyDelta("tc", {"step(3, 4)"}, {});
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE(d.value().status.ok());
  EXPECT_EQ(d.value().snapshot_version, 1);

  QueryParams params;
  params.session = "tc";
  Result<Response> acme_q = acme.value().Query(params);
  Result<Response> beta_q = beta.value().Query(params);
  ASSERT_TRUE(acme_q.ok());
  ASSERT_TRUE(beta_q.ok());
  EXPECT_EQ(acme_q.value().answers.size(), 6u);
  EXPECT_EQ(acme_q.value().snapshot_version, 1);
  EXPECT_EQ(beta_q.value().answers.size(), 3u);
  EXPECT_EQ(beta_q.value().snapshot_version, 0);

  // Per-tenant counters landed under distinct prefixes, and the metrics
  // export round-trips them over the wire.
  Result<JsonValue> metrics = acme.value().Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_GE(CounterFromExport(metrics.value(), "tenant/acme/requests"), 2);
  EXPECT_GE(CounterFromExport(metrics.value(), "tenant/beta/requests"), 2);
  EXPECT_EQ(CounterFromExport(metrics.value(), "tenant/acme/delta_batches"),
            1);
  EXPECT_TRUE(acme.value().Close().ok());
  EXPECT_TRUE(beta.value().Close().ok());
  server.Stop();
}

TEST(NetTest, TenantQuotaRejectsExcessInflightRequests) {
  ServerOptions options;
  options.service.threads = 2;
  TenantConfig tenant;
  tenant.name = "quota";
  tenant.token = "quota-token";
  tenant.max_inflight = 1;
  options.tenants = {tenant};
  Server server(options);
  ASSERT_TRUE(server.Start().ok());
  RawConnection conn = RawConnection::Open(server.port());
  ASSERT_TRUE(conn.fd.valid());
  HelloParams hello;
  hello.token = "quota-token";
  Result<ServerMessage> greeted =
      DecodeServerMessage(conn.Call(EncodeHello(1, hello)));
  ASSERT_TRUE(greeted.ok());
  ASSERT_TRUE(greeted.value().status.ok());

  // Three slow queries in one write. The poll thread reads all three
  // frames and admits them in one pass, and it releases a quota slot only
  // when it applies a reply at the top of its next pass, so with an
  // inflight quota of 1 the second and third find the first still holding
  // it, however the client thread is scheduled.
  QueryParams params;
  params.source = SlowChainSource(120);
  std::string frames;
  std::vector<uint64_t> ids;
  for (uint64_t id = 2; id <= 4; ++id) {
    frames += EncodeFrame(EncodeQuery(id, params));
    ids.push_back(id);
  }
  ASSERT_TRUE(WriteAll(conn.fd.get(), frames.data(), frames.size()).ok());
  int ok = 0, rejected = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    Result<ServerMessage> reply = DecodeServerMessage(conn.Next());
    ASSERT_TRUE(reply.ok());
    EXPECT_NE(std::find(ids.begin(), ids.end(), reply.value().id), ids.end());
    if (reply.value().status.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(reply.value().status.code(),
                StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  // Every request was answered; at least one tripped the quota.
  EXPECT_EQ(ok + rejected, 3);
  EXPECT_GE(ok, 1);
  EXPECT_GE(rejected, 1);
  EXPECT_EQ(
      server.metrics().GetCounter("tenant/quota/quota_rejected")->value(),
      rejected);
  Result<ServerMessage> closed = DecodeServerMessage(conn.Call(EncodeClose(5)));
  ASSERT_TRUE(closed.ok());
  EXPECT_TRUE(closed.value().status.ok());
  server.Stop();
}

// ------------------------------------------------------------- pipelining

// Every configured tenant's quota counter is exported from the start, so
// "never rejected" reads 0 rather than a missing counter.
TEST(NetTest, FreshTenantExportsZeroQuotaRejections) {
  ServerOptions options;
  TenantConfig acme;
  acme.name = "acme";
  acme.token = "acme-token";
  acme.max_inflight = 4;
  TenantConfig beta;
  beta.name = "beta";
  beta.token = "beta-token";
  options.tenants = {acme, beta};
  Server server(options);
  ASSERT_TRUE(server.Start().ok());
  Result<Client> connected = ConnectAs(server, "beta-token");
  ASSERT_TRUE(connected.ok());
  Result<JsonValue> metrics = connected.value().Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(CounterFromExport(metrics.value(), "tenant/acme/quota_rejected"),
            0);
  EXPECT_EQ(CounterFromExport(metrics.value(), "tenant/beta/quota_rejected"),
            0);
  EXPECT_TRUE(connected.value().Close().ok());
  server.Stop();
}

TEST(NetTest, PipelinedRequestsAllComplete) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  Result<Client> connected = ConnectAs(server, "");
  ASSERT_TRUE(connected.ok());
  Client& client = connected.value();

  QueryParams params;
  params.source = kChain;
  std::vector<uint64_t> ids;
  for (int i = 0; i < 16; ++i) {
    Result<uint64_t> sent = client.SendQuery(params);
    ASSERT_TRUE(sent.ok());
    ids.push_back(sent.value());
  }
  // Collect in reverse submission order to exercise the reply stash.
  std::set<uint64_t> trace_ids;
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
    Result<ServerMessage> reply = client.WaitFor(*it);
    ASSERT_TRUE(reply.ok());
    ASSERT_TRUE(reply.value().status.ok());
    EXPECT_EQ(reply.value().query.answers.size(), 3u);
    trace_ids.insert(reply.value().query.trace_id);
  }
  // Every request got its own trace id.
  EXPECT_EQ(trace_ids.size(), 16u);
  // All 16 shared one parsed session and one optimizer run.
  EXPECT_EQ(server.metrics().GetCounter("engine/sessions_opened")->value(),
            1);
  EXPECT_EQ(server.metrics().GetCounter("engine/pipeline_runs")->value(), 1);
  EXPECT_TRUE(client.Close().ok());
  server.Stop();
}

TEST(NetTest, OversizeFrameClosesConnectionWithResourceExhausted) {
  ServerOptions options;
  options.max_frame_bytes = 256;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());

  ClientOptions client_options;
  client_options.port = server.port();
  Result<Client> connected = Client::Connect(client_options);
  ASSERT_TRUE(connected.ok());
  Client& client = connected.value();

  QueryParams params;
  params.source = std::string(kChain) + std::string(512, ' ');
  Result<uint64_t> sent = client.SendQuery(params);
  ASSERT_TRUE(sent.ok());
  Result<ServerMessage> reply = client.WaitFor(sent.value());
  // The server replies with a protocol error frame and closes; either the
  // decoded error or the subsequent EOF is acceptable to observe first.
  if (reply.ok()) {
    EXPECT_EQ(reply.value().status.code(), StatusCode::kResourceExhausted);
  }
  EXPECT_EQ(server.metrics().GetCounter("net/protocol_errors")->value(), 1);
  server.Stop();
}

// ------------------------------------------------------------------ drain

TEST(NetTest, GracefulDrainAnswersInflightRequestsBeforeExit) {
  ServerOptions options;
  options.service.threads = 2;
  options.drain_log_path = "/dev/null";
  Server server(options);
  ASSERT_TRUE(server.Start().ok());
  Result<Client> connected = ConnectAs(server, "");
  ASSERT_TRUE(connected.ok());
  Client& client = connected.value();

  // Several slow queries in flight, then drain.
  QueryParams params;
  params.source = SlowChainSource(80);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    Result<uint64_t> sent = client.SendQuery(params);
    ASSERT_TRUE(sent.ok());
    ids.push_back(sent.value());
  }
  // Let the poll thread dispatch all four before draining, so the test
  // exercises "drain with work in flight" and not "drain an idle server".
  while (server.metrics().GetCounter("service/requests_accepted")->value() <
         4) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.RequestDrain();

  // Every in-flight request is still answered (completion order).
  for (uint64_t id : ids) {
    Result<ServerMessage> reply = client.WaitFor(id);
    ASSERT_TRUE(reply.ok()) << reply.status().message();
    ASSERT_TRUE(reply.value().status.ok())
        << reply.value().status.message();
    EXPECT_EQ(reply.value().query.answers.size(),
              (80u * 81u) / 2u);  // n(n+1)/2 paths in an 80-step chain
  }
  server.Wait();
  EXPECT_EQ(server.open_connections(), 0u);

  // A new connection is refused after the drain.
  EXPECT_FALSE(ConnectAs(server, "").ok());
}

}  // namespace
}  // namespace sqod
