// Tests for the sqo_server wire protocol: frame encode/decode over
// arbitrary stream fragmentation, oversize/malformed-frame rejection,
// request/response schema round trips, protocol-version fields, and the
// int64 encodings that survive the minimal JSON parser's double storage.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/value.h"
#include "src/obs/json.h"
#include "src/proto/proto.h"

namespace sqod {
namespace {

// ----------------------------------------------------------------- frames

TEST(ProtoTest, FrameRoundTripsThroughReader) {
  FrameReader reader;
  reader.Append(EncodeFrame(R"({"type":"close","id":7})"));
  std::string payload;
  Result<bool> next = reader.Next(&payload);
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(next.value());
  EXPECT_EQ(payload, R"({"type":"close","id":7})");
  // Nothing left.
  next = reader.Next(&payload);
  ASSERT_TRUE(next.ok());
  EXPECT_FALSE(next.value());
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(ProtoTest, FrameReaderHandlesByteAtATimeDelivery) {
  const std::string frame = EncodeFrame(R"({"type":"metrics","id":1})") +
                            EncodeFrame(R"({"type":"close","id":2})");
  FrameReader reader;
  std::vector<std::string> payloads;
  for (char byte : frame) {
    reader.Append(&byte, 1);
    std::string payload;
    Result<bool> next = reader.Next(&payload);
    ASSERT_TRUE(next.ok());
    if (next.value()) payloads.push_back(payload);
  }
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_EQ(payloads[0], R"({"type":"metrics","id":1})");
  EXPECT_EQ(payloads[1], R"({"type":"close","id":2})");
}

TEST(ProtoTest, FrameReaderRejectsDegenerateFrame) {
  // A 1-byte payload can never be a JSON object.
  FrameReader reader;
  const char header_and_byte[] = {0, 0, 0, 1, '{'};
  reader.Append(header_and_byte, sizeof(header_and_byte));
  std::string payload;
  Result<bool> next = reader.Next(&payload);
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProtoTest, FrameReaderRejectsOversizeFrameFromHeaderAlone) {
  // The limit triggers off the declared length, before any payload bytes
  // arrive — a hostile header can't make the reader buffer 4 GiB.
  FrameReader reader(/*max_frame_bytes=*/64);
  const char header[] = {0x7f, 0x00, 0x00, 0x00};
  reader.Append(header, sizeof(header));
  std::string payload;
  Result<bool> next = reader.Next(&payload);
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kResourceExhausted);
}

TEST(ProtoTest, FrameReaderAcceptsFrameExactlyAtLimit) {
  const std::string payload_in(64, 'x');
  FrameReader reader(/*max_frame_bytes=*/64);
  reader.Append(EncodeFrame(payload_in));
  std::string payload;
  Result<bool> next = reader.Next(&payload);
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(next.value());
  EXPECT_EQ(payload, payload_in);
}

TEST(ProtoTest, FrameReaderCompactsConsumedPrefix) {
  // Push enough frames through one reader that the consumed-prefix
  // compaction must run; every frame still comes out intact.
  FrameReader reader;
  const std::string frame = EncodeFrame(std::string(512, 'y'));
  for (int round = 0; round < 64; ++round) {
    reader.Append(frame);
    std::string payload;
    Result<bool> next = reader.Next(&payload);
    ASSERT_TRUE(next.ok());
    ASSERT_TRUE(next.value());
    ASSERT_EQ(payload.size(), 512u);
  }
  EXPECT_EQ(reader.buffered(), 0u);
}

// --------------------------------------------------------------- messages

TEST(ProtoTest, HelloRoundTrips) {
  HelloParams params;
  params.token = "secret";
  params.min_version = 1;
  params.max_version = 3;
  Result<ClientMessage> decoded =
      DecodeClientMessage(EncodeHello(5, params));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().type, MsgType::kHello);
  EXPECT_EQ(decoded.value().id, 5u);
  EXPECT_EQ(decoded.value().hello.token, "secret");
  EXPECT_EQ(decoded.value().hello.min_version, 1);
  EXPECT_EQ(decoded.value().hello.max_version, 3);

  HelloResult result;
  result.version = 1;
  result.tenant = "acme";
  result.server = "sqo_server";
  result.max_frame_bytes = 1 << 20;
  Result<ServerMessage> reply =
      DecodeServerMessage(EncodeHelloResponse(5, result));
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply.value().status.ok());
  EXPECT_EQ(reply.value().hello.version, 1);
  EXPECT_EQ(reply.value().hello.tenant, "acme");
  EXPECT_EQ(reply.value().hello.max_frame_bytes, 1 << 20);
}

TEST(ProtoTest, QueryRoundTripsEveryField) {
  QueryParams params;
  params.session = "tc";
  params.deadline_ms = 1500;
  params.materialized = true;
  params.trace = true;
  params.explain = true;
  params.disabled_passes = {"residues", "prune"};
  Result<ClientMessage> decoded =
      DecodeClientMessage(EncodeQuery(9, params));
  ASSERT_TRUE(decoded.ok());
  const QueryParams& q = decoded.value().query;
  EXPECT_EQ(decoded.value().type, MsgType::kQuery);
  EXPECT_EQ(decoded.value().id, 9u);
  EXPECT_EQ(q.session, "tc");
  EXPECT_EQ(q.deadline_ms, 1500);
  EXPECT_TRUE(q.materialized);
  EXPECT_TRUE(q.trace);
  EXPECT_TRUE(q.explain);
  EXPECT_EQ(q.disabled_passes,
            (std::vector<std::string>{"residues", "prune"}));
}

TEST(ProtoTest, QueryRequiresExactlyOneAddressingMode) {
  QueryParams neither;
  EXPECT_FALSE(DecodeClientMessage(EncodeQuery(1, neither)).ok());

  // Hand-built payload with both session and source set.
  Result<ClientMessage> both = DecodeClientMessage(
      R"({"type":"query","id":1,"session":"s","source":"?- p."})");
  ASSERT_FALSE(both.ok());
  EXPECT_EQ(both.status().code(), StatusCode::kInvalidArgument);
}

// The decoder ignores keys it does not know, so a request from a client
// that still sends the retired execution-mode key decodes exactly like one
// carrying any other unknown key.
TEST(ProtoTest, QueryIgnoresUnknownKeys) {
  for (const char* payload : {
           R"({"type":"query","id":1,"session":"s","future_knob":"x"})",
           R"({"type":"query","id":1,"session":"s","eval_mode":"interpret"})",
       }) {
    Result<ClientMessage> decoded = DecodeClientMessage(payload);
    ASSERT_TRUE(decoded.ok()) << payload << ": "
                              << decoded.status().message();
    EXPECT_EQ(decoded.value().type, MsgType::kQuery) << payload;
    EXPECT_EQ(decoded.value().query.session, "s") << payload;
  }
}

TEST(ProtoTest, ApplyDeltaRoundTrips) {
  ApplyDeltaParams params;
  params.session = "tc";
  params.inserts = {"edge(1, 2)", "edge(2, 3)"};
  params.deletes = {"edge(9, 9)"};
  params.trace = true;
  Result<ClientMessage> decoded =
      DecodeClientMessage(EncodeApplyDelta(3, params));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().type, MsgType::kApplyDelta);
  EXPECT_EQ(decoded.value().delta.session, "tc");
  EXPECT_EQ(decoded.value().delta.inserts,
            (std::vector<std::string>{"edge(1, 2)", "edge(2, 3)"}));
  EXPECT_EQ(decoded.value().delta.deletes,
            (std::vector<std::string>{"edge(9, 9)"}));
  EXPECT_TRUE(decoded.value().delta.trace);
}

TEST(ProtoTest, MalformedPayloadsAreInvalidArgument) {
  for (const char* payload : {
           "not json",
           "[1, 2, 3]",                      // not an object
           R"({"id":1})",                    // no type
           R"({"type":"warp","id":1})",      // unknown type
           R"({"type":"query"})",            // no id
           R"({"type":"load_program","id":1,"session":"s"})",  // no source
       }) {
    Result<ClientMessage> decoded = DecodeClientMessage(payload);
    ASSERT_FALSE(decoded.ok()) << payload;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
        << payload;
  }
}

TEST(ProtoTest, QueryResponseRoundTripsAnswersAndTelemetry) {
  Response response;
  response.status = Status::Ok();
  response.answers = {{Value::Int(1), Value::Symbol("rome")},
                      {Value::Int(2), Value::Symbol("paris")}};
  response.optimized = true;
  response.queue_wait_ns = 1000;
  response.prepare_ns = 2000;
  response.execute_ns = 3000;
  response.trace_id = 0xdeadbeefcafe0123ull;
  response.prepare_cache_hit = true;
  response.passes_ran = 8;
  response.snapshot_version = 4;
  response.served_from_view = true;
  response.stats.iterations = 6;
  response.stats.tuples_derived = 42;
  response.explain_json = R"({"analyzed": true})";

  Result<ServerMessage> decoded = DecodeServerMessage(
      EncodeQueryResponse(11, MsgType::kQuery, response));
  ASSERT_TRUE(decoded.ok());
  const Response& r = decoded.value().query;
  EXPECT_EQ(decoded.value().id, 11u);
  EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(r.answers, response.answers);
  EXPECT_TRUE(r.optimized);
  EXPECT_EQ(r.queue_wait_ns, 1000);
  EXPECT_EQ(r.prepare_ns, 2000);
  EXPECT_EQ(r.execute_ns, 3000);
  EXPECT_EQ(r.trace_id, 0xdeadbeefcafe0123ull);
  EXPECT_TRUE(r.prepare_cache_hit);
  EXPECT_EQ(r.passes_ran, 8);
  EXPECT_EQ(r.snapshot_version, 4);
  EXPECT_TRUE(r.served_from_view);
  EXPECT_EQ(r.stats.iterations, 6);
  EXPECT_EQ(r.stats.tuples_derived, 42);
  EXPECT_EQ(r.explain_json, R"({"analyzed": true})");
}

TEST(ProtoTest, ErrorResponseCarriesCodeAndMessage) {
  Status error = Status::ResourceExhausted("tenant quota exceeded");
  Result<ServerMessage> decoded = DecodeServerMessage(
      EncodeErrorResponse(4, MsgType::kQuery, error));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().id, 4u);
  EXPECT_EQ(decoded.value().status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(decoded.value().status.message(), "tenant quota exceeded");
  // The typed payload mirrors the envelope status.
  EXPECT_EQ(decoded.value().query.status.code(),
            StatusCode::kResourceExhausted);
}

TEST(ProtoTest, DeltaResponseRoundTripsMaintainStats) {
  DeltaResponse response;
  response.status = Status::Ok();
  response.snapshot_version = 17;
  response.queue_wait_ns = 5;
  response.materialize_ns = 6;
  response.maintain_ns = 7;
  response.trace_id = 0xabc;
  response.stats.version = 17;
  response.stats.edb_inserted = 2;
  response.stats.idb_inserted = 9;
  response.stats.over_deleted = 1;
  response.stats.rederived = 1;
  response.stats.strata_incremental = 3;

  Result<ServerMessage> decoded =
      DecodeServerMessage(EncodeApplyDeltaResponse(6, response));
  ASSERT_TRUE(decoded.ok());
  const DeltaResponse& r = decoded.value().delta;
  EXPECT_EQ(r.snapshot_version, 17);
  EXPECT_EQ(r.stats.version, 17);
  EXPECT_EQ(r.stats.edb_inserted, 2);
  EXPECT_EQ(r.stats.idb_inserted, 9);
  EXPECT_EQ(r.stats.over_deleted, 1);
  EXPECT_EQ(r.stats.rederived, 1);
  EXPECT_EQ(r.stats.strata_incremental, 3);
  EXPECT_EQ(r.maintain_ns, 7);
}

TEST(ProtoTest, StatusCodeNamesRoundTripAllCodes) {
  for (int code = 0; code <= static_cast<int>(StatusCode::kCancelled);
       ++code) {
    const StatusCode status_code = static_cast<StatusCode>(code);
    Result<StatusCode> parsed =
        StatusCodeFromName(StatusCodeName(status_code));
    ASSERT_TRUE(parsed.ok()) << StatusCodeName(status_code);
    EXPECT_EQ(parsed.value(), status_code);
  }
  EXPECT_FALSE(StatusCodeFromName("NOT_A_CODE").ok());
}

// ----------------------------------------------------------- wire int64s

TEST(ProtoTest, WireInt64SurvivesBeyondDoubleRange) {
  // 2^53 - 1 is the last integer a double stores exactly; above it the
  // encoding switches to a decimal string. Both round trip.
  const int64_t kBoundary = (int64_t{1} << 53) - 1;
  for (int64_t value : {int64_t{0}, int64_t{-1}, kBoundary, kBoundary + 1,
                        -kBoundary - 1, INT64_MAX, INT64_MIN}) {
    std::string out;
    AppendWireInt64(value, &out);
    Result<JsonValue> parsed = ParseJson(out);
    ASSERT_TRUE(parsed.ok()) << out;
    Result<int64_t> back = WireInt64(parsed.value());
    ASSERT_TRUE(back.ok()) << out;
    EXPECT_EQ(back.value(), value) << out;
  }
}

TEST(ProtoTest, WireInt64EncodingShapeMatchesRange) {
  std::string small, big;
  AppendWireInt64((int64_t{1} << 53) - 1, &small);
  AppendWireInt64(int64_t{1} << 53, &big);
  EXPECT_EQ(small.front(), '9');   // a bare JSON number
  EXPECT_EQ(big.front(), '"');     // a decimal string
}

TEST(ProtoTest, WireInt64RejectsNonIntegers) {
  for (const char* text : {"1.5", "\"abc\"", "true", "[]"}) {
    Result<JsonValue> parsed = ParseJson(text);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_FALSE(WireInt64(parsed.value()).ok()) << text;
  }
}

TEST(ProtoTest, WireValueRoundTripsIntsAndSymbols) {
  for (const Value& value :
       {Value::Int(42), Value::Int((int64_t{1} << 53) + 7),
        Value::Symbol("rome"), Value::Symbol("with \"quotes\"")}) {
    std::string out;
    AppendWireValue(value, &out);
    Result<JsonValue> parsed = ParseJson(out);
    ASSERT_TRUE(parsed.ok()) << out;
    Result<Value> back = WireValue(parsed.value());
    ASSERT_TRUE(back.ok()) << out;
    EXPECT_EQ(back.value(), value) << out;
  }
}

}  // namespace
}  // namespace sqod
