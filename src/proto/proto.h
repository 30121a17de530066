#ifndef SQOD_PROTO_PROTO_H_
#define SQOD_PROTO_PROTO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/status.h"
#include "src/obs/json.h"
#include "src/service/query_service.h"

namespace sqod {

// The sqo_server wire protocol: length-prefixed JSON frames carrying a
// small, versioned request/response schema (docs/protocol.md).
//
// Frame format:
//   uint32 (big endian) payload length | payload bytes (UTF-8 JSON)
// One payload is not pure JSON: a successful query/explain reply carries
// its answers as a binary column block ahead of the JSON object,
//   0x00 | uint32 (big endian) block length | block | JSON object
// (see "Answer blocks" below). Every other payload starts with '{', so a
// decoder tells the two apart from the first byte.
// A frame's payload must be at least 2 bytes ("{}") and at most
// max_frame_bytes; anything else is a protocol error and the peer closes
// the connection. FrameReader is the incremental decoder both sides use.
//
// Every request payload is one JSON object:
//   {"type": "<kind>", "id": <client-chosen uint>, ...fields}
// and every response echoes the type and id plus a status:
//   {"type": "<kind>", "id": <id>, "code": "OK", ...payload}
//   {"type": "<kind>", "id": <id>, "code": "INVALID_ARGUMENT",
//    "error": "<message>"}
// Responses may arrive out of request order (the server replies in
// completion order); the id is the correlation key.
//
// The first message on a connection must be `hello`, which authenticates
// the tenant (by token) and negotiates the protocol version: the client
// sends the [min_version, max_version] range it speaks, the server picks
// the highest version both sides support or rejects the connection with
// UNSUPPORTED. The server speaks version 2 only. Everything after the
// hello runs under the hello'd tenant's namespace, quotas, and metric
// prefix.
//
// Integers wider than 2^53-1 do not survive the JSON number round trip
// (the minimal parser stores doubles), so encoders emit any int64 outside
// the exact-double range as a decimal string and decoders accept both
// renderings (WireInt64 below). Trace ids are always hex strings, matching
// the slow-query log's rendering.

inline constexpr int kProtoVersionMin = 2;
inline constexpr int kProtoVersionMax = 2;
inline constexpr size_t kFrameHeaderBytes = 4;
inline constexpr size_t kDefaultMaxFrameBytes = 4u << 20;  // 4 MiB

// ------------------------------------------------------------------ frames

// Wraps a payload into one wire frame (header + payload).
std::string EncodeFrame(std::string_view payload);

// Incremental frame decoder over a byte stream. Append whatever arrived,
// then call Next until it reports "no complete frame yet". Oversize and
// degenerate (empty) frames surface as errors — the connection is beyond
// resync at that point and must be closed.
class FrameReader {
 public:
  explicit FrameReader(size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void Append(const char* data, size_t n) { buf_.append(data, n); }
  void Append(std::string_view data) { buf_.append(data); }

  // Extracts the next complete frame payload. Returns true and fills
  // `payload` when a frame was complete, false when more bytes are needed;
  // kInvalidArgument on a zero-length frame, kResourceExhausted on a frame
  // larger than max_frame_bytes.
  Result<bool> Next(std::string* payload);

  // Bytes buffered but not yet consumed by Next.
  size_t buffered() const { return buf_.size() - pos_; }

  size_t max_frame_bytes() const { return max_frame_bytes_; }

 private:
  size_t max_frame_bytes_;
  std::string buf_;
  size_t pos_ = 0;  // consumed prefix; compacted once it grows
};

// ---------------------------------------------------------------- messages

enum class MsgType {
  kHello,
  kLoadProgram,
  kQuery,
  kApplyDelta,
  kExplain,
  kMetrics,
  kClose,
};

// Stable wire name ("hello", "load_program", ...).
const char* MsgTypeName(MsgType type);
Result<MsgType> MsgTypeFromName(std::string_view name);

struct HelloParams {
  std::string token;
  int min_version = kProtoVersionMin;
  int max_version = kProtoVersionMax;
};

struct HelloResult {
  int version = 0;            // the negotiated protocol version
  std::string tenant;         // the resolved tenant namespace
  std::string server;         // server software name, informational
  int64_t max_frame_bytes = 0;  // the server's frame ceiling
};

struct LoadProgramParams {
  std::string session;  // tenant-scoped session name
  std::string source;   // full datalog unit (rules, ICs, facts, query)
};

struct QueryParams {
  // Exactly one of `session` (a name loaded earlier on this tenant) or
  // `source` (an inline one-shot unit) must be set.
  std::string session;
  std::string source;
  int64_t deadline_ms = -1;
  bool trace = false;
  bool explain = false;
};

struct ApplyDeltaParams {
  std::string session;
  // Ground facts in source syntax, e.g. "edge(1, 2)".
  std::vector<std::string> inserts;
  std::vector<std::string> deletes;
  bool trace = false;
};

// A decoded client->server message: the type tag plus the params for that
// type (the others are left default). Explain carries its session in
// `query.session`; Metrics and Close have no params.
struct ClientMessage {
  MsgType type = MsgType::kHello;
  uint64_t id = 0;
  HelloParams hello;
  LoadProgramParams load;
  QueryParams query;
  ApplyDeltaParams delta;
};

// A decoded server->client message. `status` is the request's outcome;
// payload fields are only meaningful when it is OK (except trace_id, which
// rejections carry too).
struct ServerMessage {
  MsgType type = MsgType::kHello;
  uint64_t id = 0;
  Status status;
  HelloResult hello;
  // Query/Explain results decode into the service's own Response type, so
  // a remote call returns exactly what an in-process Submit would.
  Response query;
  DeltaResponse delta;
  // The full metrics export, parsed (counters/gauges/histograms objects).
  JsonValue metrics;
};

// -------------------------------------------------------------- encode side

std::string EncodeHello(uint64_t id, const HelloParams& params);
std::string EncodeLoadProgram(uint64_t id, const LoadProgramParams& params);
std::string EncodeQuery(uint64_t id, const QueryParams& params);
std::string EncodeExplain(uint64_t id, const std::string& session);
std::string EncodeApplyDelta(uint64_t id, const ApplyDeltaParams& params);
std::string EncodeMetricsRequest(uint64_t id);
std::string EncodeClose(uint64_t id);

std::string EncodeHelloResponse(uint64_t id, const HelloResult& result);
// Carries the status, trace id and the prepare telemetry of a query reply
// (optimized, prepare_cache_hit, passes_ran, queue_wait_ns, prepare_ns).
std::string EncodeLoadProgramResponse(uint64_t id, const Response& response);
// `type` is kQuery or kExplain (the echo tag). A successful reply carries
// its answers as an answer block ahead of the JSON object.
std::string EncodeQueryResponse(uint64_t id, MsgType type,
                                const Response& response);
std::string EncodeApplyDeltaResponse(uint64_t id,
                                     const DeltaResponse& response);
// `metrics_json` must be a complete JSON object (ExportMetricsJson output);
// it is spliced into the payload verbatim.
std::string EncodeMetricsResponse(uint64_t id,
                                  const std::string& metrics_json);
std::string EncodeCloseResponse(uint64_t id);
// An error reply for any request type (also used for protocol errors,
// where `id` is the offending request's id or 0 when unknowable).
std::string EncodeErrorResponse(uint64_t id, MsgType type,
                                const Status& status);

// -------------------------------------------------------------- decode side

// Decodes one request payload (server side). Malformed JSON, unknown
// types, and missing/mis-typed fields are kInvalidArgument.
Result<ClientMessage> DecodeClientMessage(std::string_view payload);

// Decodes one response payload (client side), JSON or answer-block
// prefixed; any malformed byte is kInvalidArgument, and so is a successful
// query/explain reply without an answer block.
Result<ServerMessage> DecodeServerMessage(std::string_view payload);

// ----------------------------------------------------------- answer blocks
// A query's answer set, column-major (docs/protocol.md, "Answer blocks"):
//   varint arity | varint rows | varint symbols | symbols x (varint
//   length | bytes) | arity x column
// where a column is one kind byte and `rows` values: 0 = integers as
// zigzag varints (column 0 delta-coded against the previous row, modulo
// 2^64), 1 = symbols as table indices, 2 = mixed, each value a tag byte
// (0 int, 1 symbol) then its varint. Varints are LEB128, at most 10 bytes.

// Appends the block for `answers`; every tuple must have the same arity.
void AppendAnswerBlock(const std::vector<Tuple>& answers, std::string* out);

// Decodes a block that must span all of `block`. The block is untrusted:
// lengths and counts are checked against the bytes left before anything
// is allocated, arity is capped at Relation::kMaxArity, and a 0-ary block
// holds at most one row. Any violation is kInvalidArgument.
Result<std::vector<Tuple>> DecodeAnswerBlock(std::string_view block);

// ------------------------------------------------------------ wire helpers
// Exposed for tests and for code that splices custom fields.

// Appends `value` to `out` as a JSON number when exactly representable as
// a double, else as a decimal string.
void AppendWireInt64(int64_t value, std::string* out);
// Reads an int64 encoded either way; kInvalidArgument on anything else.
Result<int64_t> WireInt64(const JsonValue& value);

// StatusCode <-> stable wire name round trip ("OK", "INVALID_ARGUMENT"...).
Result<StatusCode> StatusCodeFromName(std::string_view name);

}  // namespace sqod

#endif  // SQOD_PROTO_PROTO_H_
