// Tests for the sqo_server wire protocol: frame encode/decode over
// arbitrary stream fragmentation, oversize/malformed-frame rejection,
// request/response schema round trips, protocol-version fields, the
// int64 encodings that survive the minimal JSON parser's double storage,
// and the binary answer blocks of query replies (round trips and every
// decoder limit).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/base/value.h"
#include "src/eval/relation.h"
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
  params.trace = true;
  params.explain = true;
  Result<ClientMessage> decoded =
      DecodeClientMessage(EncodeQuery(9, params));
  ASSERT_TRUE(decoded.ok());
  const QueryParams& q = decoded.value().query;
  EXPECT_EQ(decoded.value().type, MsgType::kQuery);
  EXPECT_EQ(decoded.value().id, 9u);
  EXPECT_EQ(q.session, "tc");
  EXPECT_EQ(q.deadline_ms, 1500);
  EXPECT_TRUE(q.trace);
  EXPECT_TRUE(q.explain);
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
// that still sends a retired key (the execution mode, or optimizer passes
// to disable, whatever their shape) decodes exactly like one carrying any
// other unknown key.
TEST(ProtoTest, QueryIgnoresUnknownKeys) {
  for (const char* payload : {
           R"({"type":"query","id":1,"session":"s","future_knob":"x"})",
           R"({"type":"query","id":1,"session":"s","eval_mode":"interpret"})",
           R"({"type":"query","id":1,"session":"s",)"
           R"("disabled_passes":["residues","prune"]})",
           R"({"type":"query","id":1,"session":"s","disabled_passes":7})",
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

  // A load_program reply carries the same prepare telemetry.
  Result<ServerMessage> loaded =
      DecodeServerMessage(EncodeLoadProgramResponse(12, response));
  ASSERT_TRUE(loaded.ok());
  const Response& l = loaded.value().query;
  EXPECT_EQ(loaded.value().type, MsgType::kLoadProgram);
  EXPECT_TRUE(l.status.ok());
  EXPECT_EQ(l.trace_id, 0xdeadbeefcafe0123ull);
  EXPECT_TRUE(l.optimized);
  EXPECT_TRUE(l.prepare_cache_hit);
  EXPECT_EQ(l.passes_ran, 8);
  EXPECT_EQ(l.queue_wait_ns, 1000);
  EXPECT_EQ(l.prepare_ns, 2000);
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

TEST(ProtoTest, HelloRejectsVersionsOutsideInt32) {
  // 4294967298 = 2^32 + 2 would narrow to 2 without the range check.
  for (const char* payload : {
           R"({"type":"hello","id":1,"max_version":4294967298})",
           R"({"type":"hello","id":1,"min_version":4294967297})",
           R"({"type":"hello","id":1,"min_version":0,"max_version":2})",
           R"({"type":"hello","id":1,"min_version":-1,"max_version":2})",
           R"({"type":"hello","id":1,"min_version":1,"max_version":2.5})",
           R"({"type":"hello","id":1,"min_version":1,"max_version":1e300})",
           R"({"type":"hello","id":1,"min_version":1,"max_version":"two"})",
       }) {
    Result<ClientMessage> decoded = DecodeClientMessage(payload);
    ASSERT_FALSE(decoded.ok()) << payload;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
        << payload;
  }
  Result<ClientMessage> widest = DecodeClientMessage(
      R"({"type":"hello","id":1,"min_version":1,"max_version":2147483647})");
  ASSERT_TRUE(widest.ok());
  EXPECT_EQ(widest.value().hello.max_version, INT32_MAX);
}

// --------------------------------------------------------- answer blocks

Response AnswersResponse(std::vector<Tuple> answers) {
  Response response;
  response.status = Status::Ok();
  response.answers = std::move(answers);
  response.snapshot_version = 3;
  response.stats.iterations = 2;
  return response;
}

// Encodes `answers` into a reply, which must lead with the block, carry no
// JSON answer array, and decode back to them.
void ExpectAnswersRoundTrip(const std::vector<Tuple>& answers) {
  const Response response = AnswersResponse(answers);
  const std::string payload = EncodeQueryResponse(9, MsgType::kQuery, response);
  ASSERT_FALSE(payload.empty());
  EXPECT_EQ(payload[0], '\0');
  EXPECT_EQ(payload.find("\"answers\""), std::string::npos);
  Result<ServerMessage> decoded = DecodeServerMessage(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded.value().query.answers, answers);
  EXPECT_EQ(decoded.value().query.snapshot_version, 3);
  EXPECT_EQ(decoded.value().query.stats.iterations, 2);
}

TEST(ProtoTest, AnswerBlockRoundTripsInt64Extremes) {
  ExpectAnswersRoundTrip({{Value::Int(INT64_MIN), Value::Int(INT64_MAX)},
                          {Value::Int(-1), Value::Int(0)},
                          {Value::Int(0), Value::Int(INT64_MIN)},
                          {Value::Int(INT64_MAX), Value::Int(-7)}});
  // Column 0 delta-codes modulo 2^64, so an unsorted column survives too.
  ExpectAnswersRoundTrip({{Value::Int(INT64_MAX)},
                          {Value::Int(INT64_MIN)},
                          {Value::Int(5)},
                          {Value::Int(-5)}});
}

TEST(ProtoTest, AnswerBlockRoundTripsQuotedAndUtf8Symbols) {
  ExpectAnswersRoundTrip(
      {{Value::Symbol("with \"quotes\""), Value::Symbol("back\\slash")},
       {Value::Symbol("caf\xc3\xa9"),
        Value::Symbol("\xe6\x9d\xb1\xe4\xba\xac")},
       {Value::Symbol(""), Value::Symbol("line\nbreak")},
       {Value::Symbol("caf\xc3\xa9"), Value::Symbol("with \"quotes\"")}});
}

TEST(ProtoTest, AnswerBlockRoundTripsMixedColumns) {
  ExpectAnswersRoundTrip(
      {{Value::Int(1), Value::Symbol("a"), Value::Int(-3)},
       {Value::Int(2), Value::Int(40), Value::Symbol("a")},
       {Value::Symbol("z"), Value::Symbol("b"), Value::Int(INT64_MIN)}});
}

TEST(ProtoTest, AnswerBlockRoundTripsEmptyAndZeroAryAnswers) {
  ExpectAnswersRoundTrip({});
  ExpectAnswersRoundTrip({Tuple{}});
}

TEST(ProtoTest, AnswerBlockStoresEachSymbolOnce) {
  std::vector<Tuple> answers;
  for (int i = 0; i < 100; ++i) {
    answers.push_back({Value::Int(i), Value::Symbol("a-rather-long-symbol")});
  }
  std::string block;
  AppendAnswerBlock(answers, &block);
  EXPECT_EQ(block.find("a-rather-long-symbol"),
            block.rfind("a-rather-long-symbol"));
  // 100 delta-coded ints and 100 one-byte indices, plus a small header.
  EXPECT_LT(block.size(), 260u);
}

TEST(ProtoTest, ErrorQueryReplyStaysJsonUnderV2) {
  Response response;
  response.status = Status::DeadlineExceeded("too slow");
  const std::string payload = EncodeQueryResponse(3, MsgType::kQuery, response);
  ASSERT_FALSE(payload.empty());
  EXPECT_EQ(payload[0], '{');
  Result<ServerMessage> decoded = DecodeServerMessage(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().status.code(), StatusCode::kDeadlineExceeded);

  // Only a failed reply is pure JSON: an OK query or explain reply without
  // an answer block (a retired version-1 reply, say) is malformed.
  for (const char* ok_json : {
           R"({"type":"query","id":3,"code":"OK","answers":[[1,2]]})",
           R"({"type":"explain","id":3,"code":"OK","explain":"{}"})",
       }) {
    Result<ServerMessage> blockless = DecodeServerMessage(ok_json);
    ASSERT_FALSE(blockless.ok()) << ok_json;
    EXPECT_EQ(blockless.status().code(), StatusCode::kInvalidArgument)
        << ok_json;
  }
}

std::string Varint(uint64_t v) {
  std::string out;
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
  return out;
}

TEST(ProtoTest, AnswerBlockDecoderRejectsMalformedBlocks) {
  const std::string ten_byte_varint =
      "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01";
  // A valid 1 x 1 block: arity 1, one row, no symbols, int column, 5.
  const std::string valid = Varint(1) + Varint(1) + Varint(0) +
                            std::string(1, '\0') + Varint(10);
  ASSERT_TRUE(DecodeAnswerBlock(valid).ok());
  ASSERT_TRUE(DecodeAnswerBlock(Varint(1) + Varint(1) + Varint(0) +
                                std::string(1, '\0') + ten_byte_varint)
                  .ok());
  const std::vector<std::pair<const char*, std::string>> cases = {
      {"empty", ""},
      {"arity over the cap", Varint(Relation::kMaxArity + 1) + Varint(0) +
                                 Varint(0)},
      {"0-ary with two rows", Varint(0) + Varint(2) + Varint(0)},
      {"rows x arity beyond the bytes",
       Varint(2) + Varint(1000) + Varint(0) + std::string(8, '\0')},
      {"rows overflow", Varint(64) + Varint(UINT64_MAX / 32) + Varint(0) +
                            std::string(64, '\0')},
      {"symbol count beyond the bytes", Varint(1) + Varint(1) + Varint(50)},
      {"symbol length beyond the bytes",
       Varint(1) + Varint(1) + Varint(1) + Varint(200) + "abc"},
      {"symbol index outside the table",
       Varint(1) + Varint(1) + Varint(1) + Varint(1) + "a" +
           std::string(1, '\1') + Varint(1)},
      {"varint longer than 10 bytes",
       Varint(1) + Varint(1) + Varint(0) + std::string(1, '\0') +
           "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"},
      {"varint overflowing 64 bits",
       Varint(1) + Varint(1) + Varint(0) + std::string(1, '\0') +
           "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x02"},
      {"truncated varint",
       Varint(1) + Varint(1) + Varint(0) + std::string(1, '\0') + "\x80"},
      {"unknown column kind",
       Varint(1) + Varint(1) + Varint(0) + std::string(1, '\7') + Varint(1)},
      {"unknown mixed tag", Varint(1) + Varint(1) + Varint(0) +
                                std::string(1, '\2') + "\x05" + Varint(1)},
      {"trailing bytes", valid + "x"},
  };
  for (const auto& [what, block] : cases) {
    Result<std::vector<Tuple>> decoded = DecodeAnswerBlock(block);
    ASSERT_FALSE(decoded.ok()) << what;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument) << what;
  }
}

TEST(ProtoTest, BlockPrefixIsCheckedAgainstThePayload) {
  const std::string json = R"({"type":"query","id":1,"code":"OK"})";
  std::string block;
  AppendAnswerBlock({{Value::Int(1)}}, &block);
  auto prefixed = [&](uint32_t n, const std::string& body) {
    std::string out(1, '\0');
    for (int shift : {24, 16, 8, 0}) {
      out.push_back(static_cast<char>((n >> shift) & 0xff));
    }
    return out + body;
  };
  ASSERT_TRUE(DecodeServerMessage(
                  prefixed(static_cast<uint32_t>(block.size()), block + json))
                  .ok());
  for (const std::string& payload :
       {std::string(3, '\0'),
        prefixed(static_cast<uint32_t>(block.size() + json.size() + 1),
                 block + json),
        prefixed(0xffffffffu, block + json),
        prefixed(static_cast<uint32_t>(block.size()), block),
        // A block on a reply type that carries no answers.
        prefixed(static_cast<uint32_t>(block.size()),
                 block + R"({"type":"metrics","id":1,"code":"OK"})")}) {
    Result<ServerMessage> decoded = DecodeServerMessage(payload);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace sqod
