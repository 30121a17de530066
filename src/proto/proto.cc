#include "src/proto/proto.h"

#include <climits>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

#include "src/base/check.h"
#include "src/eval/relation.h"
#include "src/obs/context.h"

namespace sqod {

namespace {

// Exact-double range for int64s on the wire; see the header comment.
constexpr int64_t kMaxExactDouble = (int64_t{1} << 53) - 1;

void AppendQuoted(std::string_view s, std::string* out) {
  out->push_back('"');
  out->append(JsonEscape(s));
  out->push_back('"');
}

void AppendKey(std::string_view key, std::string* out) {
  AppendQuoted(key, out);
  out->push_back(':');
}

void AppendBool(bool b, std::string* out) {
  out->append(b ? "true" : "false");
}

// ---- decode helpers: every accessor yields kInvalidArgument with the
// field name, so protocol errors point at the offending key.

Status MissingField(std::string_view key) {
  return Status::InvalidArgument("missing or mis-typed field '" +
                                 std::string(key) + "'");
}

Result<const JsonValue*> GetMember(const JsonValue& obj,
                                   const std::string& key) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return MissingField(key);
  return v;
}

Result<std::string> GetString(const JsonValue& obj, const std::string& key) {
  SQOD_ASSIGN_OR_RETURN(const JsonValue* v, GetMember(obj, key));
  if (!v->is_string()) return MissingField(key);
  return v->string;
}

std::string GetStringOr(const JsonValue& obj, const std::string& key,
                        std::string fallback) {
  const JsonValue* v = obj.Find(key);
  return v != nullptr && v->is_string() ? v->string : std::move(fallback);
}

Result<int64_t> GetInt64(const JsonValue& obj, const std::string& key) {
  SQOD_ASSIGN_OR_RETURN(const JsonValue* v, GetMember(obj, key));
  Result<int64_t> parsed = WireInt64(*v);
  if (!parsed.ok()) return MissingField(key);
  return parsed;
}

int64_t GetInt64Or(const JsonValue& obj, const std::string& key,
                   int64_t fallback) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return fallback;
  Result<int64_t> parsed = WireInt64(*v);
  return parsed.ok() ? parsed.value() : fallback;
}

bool GetBoolOr(const JsonValue& obj, const std::string& key, bool fallback) {
  const JsonValue* v = obj.Find(key);
  return v != nullptr && v->kind == JsonValue::Kind::kBool ? v->boolean
                                                           : fallback;
}

// ---- spans: serialized so remote callers see the same per-request span
// trees an in-process Submit returns (and sqo_cli can merge Chrome traces
// from over the wire).

void AppendSpans(const std::vector<SpanRecord>& spans, std::string* out) {
  AppendKey("spans", out);
  out->push_back('[');
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    if (i > 0) out->push_back(',');
    out->append("{\"id\":");
    AppendWireInt64(span.id, out);
    out->append(",\"parent\":");
    AppendWireInt64(span.parent_id, out);
    out->push_back(',');
    AppendKey("name", out);
    AppendQuoted(span.name, out);
    out->push_back(',');
    AppendKey("start_ns", out);
    AppendWireInt64(span.start_ns, out);
    out->push_back(',');
    AppendKey("dur_ns", out);
    AppendWireInt64(span.duration_ns, out);
    out->push_back(',');
    AppendKey("attrs", out);
    out->push_back('{');
    for (size_t a = 0; a < span.attrs.size(); ++a) {
      if (a > 0) out->push_back(',');
      AppendKey(span.attrs[a].first, out);
      AppendWireInt64(span.attrs[a].second, out);
    }
    out->append("}}");
  }
  out->push_back(']');
}

std::vector<SpanRecord> DecodeSpans(const JsonValue& payload) {
  std::vector<SpanRecord> spans;
  const JsonValue* arr = payload.Find("spans");
  if (arr == nullptr || !arr->is_array()) return spans;
  spans.reserve(arr->array.size());
  for (const JsonValue& item : arr->array) {
    if (!item.is_object()) continue;
    SpanRecord span;
    span.id = static_cast<int>(GetInt64Or(item, "id", -1));
    span.parent_id = static_cast<int>(GetInt64Or(item, "parent", -1));
    span.name = GetStringOr(item, "name", "");
    span.start_ns = GetInt64Or(item, "start_ns", 0);
    span.duration_ns = GetInt64Or(item, "dur_ns", 0);
    const JsonValue* attrs = item.Find("attrs");
    if (attrs != nullptr && attrs->is_object()) {
      for (const auto& [key, value] : attrs->object) {
        Result<int64_t> parsed = WireInt64(value);
        if (parsed.ok()) span.attrs.emplace_back(key, parsed.value());
      }
    }
    spans.push_back(std::move(span));
  }
  return spans;
}

void AppendEvalStats(const EvalStats& stats, std::string* out) {
  AppendKey("stats", out);
  out->push_back('{');
  AppendKey("iterations", out);
  AppendWireInt64(stats.iterations, out);
  out->push_back(',');
  AppendKey("rule_firings", out);
  AppendWireInt64(stats.rule_firings, out);
  out->push_back(',');
  AppendKey("tuples_derived", out);
  AppendWireInt64(stats.tuples_derived, out);
  out->push_back(',');
  AppendKey("duplicate_derivations", out);
  AppendWireInt64(stats.duplicate_derivations, out);
  out->push_back(',');
  AppendKey("join_probes", out);
  AppendWireInt64(stats.join_probes, out);
  out->push_back(',');
  AppendKey("comparison_checks", out);
  AppendWireInt64(stats.comparison_checks, out);
  out->push_back('}');
}

EvalStats DecodeEvalStats(const JsonValue& payload) {
  EvalStats stats;
  const JsonValue* obj = payload.Find("stats");
  if (obj == nullptr || !obj->is_object()) return stats;
  stats.iterations = GetInt64Or(*obj, "iterations", 0);
  stats.rule_firings = GetInt64Or(*obj, "rule_firings", 0);
  stats.tuples_derived = GetInt64Or(*obj, "tuples_derived", 0);
  stats.duplicate_derivations = GetInt64Or(*obj, "duplicate_derivations", 0);
  stats.join_probes = GetInt64Or(*obj, "join_probes", 0);
  stats.comparison_checks = GetInt64Or(*obj, "comparison_checks", 0);
  return stats;
}

void AppendMaintainStats(const MaintainStats& stats, std::string* out) {
  AppendKey("stats", out);
  out->push_back('{');
  AppendKey("version", out);
  AppendWireInt64(stats.version, out);
  out->push_back(',');
  AppendKey("recomputed", out);
  AppendBool(stats.recomputed, out);
  out->push_back(',');
  AppendKey("edb_inserted", out);
  AppendWireInt64(stats.edb_inserted, out);
  out->push_back(',');
  AppendKey("edb_deleted", out);
  AppendWireInt64(stats.edb_deleted, out);
  out->push_back(',');
  AppendKey("idb_inserted", out);
  AppendWireInt64(stats.idb_inserted, out);
  out->push_back(',');
  AppendKey("idb_deleted", out);
  AppendWireInt64(stats.idb_deleted, out);
  out->push_back(',');
  AppendKey("over_deleted", out);
  AppendWireInt64(stats.over_deleted, out);
  out->push_back(',');
  AppendKey("rederived", out);
  AppendWireInt64(stats.rederived, out);
  out->push_back(',');
  AppendKey("count_updates", out);
  AppendWireInt64(stats.count_updates, out);
  out->push_back(',');
  AppendKey("strata_incremental", out);
  AppendWireInt64(stats.strata_incremental, out);
  out->push_back(',');
  AppendKey("strata_recomputed", out);
  AppendWireInt64(stats.strata_recomputed, out);
  out->push_back(',');
  AppendKey("strata_skipped", out);
  AppendWireInt64(stats.strata_skipped, out);
  out->push_back(',');
  AppendKey("maintain_ns", out);
  AppendWireInt64(stats.maintain_ns, out);
  out->push_back('}');
}

MaintainStats DecodeMaintainStats(const JsonValue& payload) {
  MaintainStats stats;
  const JsonValue* obj = payload.Find("stats");
  if (obj == nullptr || !obj->is_object()) return stats;
  stats.version = GetInt64Or(*obj, "version", 0);
  stats.recomputed = GetBoolOr(*obj, "recomputed", false);
  stats.edb_inserted = GetInt64Or(*obj, "edb_inserted", 0);
  stats.edb_deleted = GetInt64Or(*obj, "edb_deleted", 0);
  stats.idb_inserted = GetInt64Or(*obj, "idb_inserted", 0);
  stats.idb_deleted = GetInt64Or(*obj, "idb_deleted", 0);
  stats.over_deleted = GetInt64Or(*obj, "over_deleted", 0);
  stats.rederived = GetInt64Or(*obj, "rederived", 0);
  stats.count_updates = GetInt64Or(*obj, "count_updates", 0);
  stats.strata_incremental =
      static_cast<int>(GetInt64Or(*obj, "strata_incremental", 0));
  stats.strata_recomputed =
      static_cast<int>(GetInt64Or(*obj, "strata_recomputed", 0));
  stats.strata_skipped =
      static_cast<int>(GetInt64Or(*obj, "strata_skipped", 0));
  stats.maintain_ns = GetInt64Or(*obj, "maintain_ns", 0);
  return stats;
}

// The prepare telemetry a query and a load_program reply share, appended
// as top-level fields (each with its leading comma).
void AppendPrepareTelemetry(const Response& response, std::string* out) {
  out->append(",\"optimized\":");
  AppendBool(response.optimized, out);
  out->append(",\"prepare_cache_hit\":");
  AppendBool(response.prepare_cache_hit, out);
  out->append(",\"passes_ran\":");
  AppendWireInt64(response.passes_ran, out);
  out->append(",\"queue_wait_ns\":");
  AppendWireInt64(response.queue_wait_ns, out);
  out->append(",\"prepare_ns\":");
  AppendWireInt64(response.prepare_ns, out);
}

void DecodePrepareTelemetry(const JsonValue& payload, Response* response) {
  response->optimized = GetBoolOr(payload, "optimized", false);
  response->prepare_cache_hit = GetBoolOr(payload, "prepare_cache_hit", false);
  response->passes_ran =
      static_cast<int>(GetInt64Or(payload, "passes_ran", 0));
  response->queue_wait_ns = GetInt64Or(payload, "queue_wait_ns", 0);
  response->prepare_ns = GetInt64Or(payload, "prepare_ns", 0);
}

// A hello version bound: absent means `fallback`; present, it must be an
// integer in [1, INT32_MAX] (an unchecked narrowing would read 2^32 + 2
// as 2).
Result<int> GetVersionOr(const JsonValue& obj, const std::string& key,
                         int fallback) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return fallback;
  Result<int64_t> parsed = WireInt64(*v);
  if (!parsed.ok() || parsed.value() < 1 || parsed.value() > INT32_MAX) {
    return Status::InvalidArgument("hello field '" + key +
                                   "' must be an integer in [1, " +
                                   std::to_string(INT32_MAX) + "]");
  }
  return static_cast<int>(parsed.value());
}

// ---- answer-block primitives (see the header's block layout).

constexpr uint8_t kColumnInt = 0;
constexpr uint8_t kColumnSymbol = 1;
constexpr uint8_t kColumnMixed = 2;
constexpr size_t kBlockPrefixBytes = 5;  // 0x00 | u32be block length
constexpr int kMaxVarintBytes = 10;

void AppendVarint(uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t u) {
  return static_cast<int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

void PutU32(size_t pos, uint32_t n, std::string* out) {
  (*out)[pos] = static_cast<char>((n >> 24) & 0xff);
  (*out)[pos + 1] = static_cast<char>((n >> 16) & 0xff);
  (*out)[pos + 2] = static_cast<char>((n >> 8) & 0xff);
  (*out)[pos + 3] = static_cast<char>(n & 0xff);
}

uint32_t GetU32(const char* p) {
  const unsigned char* h = reinterpret_cast<const unsigned char*>(p);
  return (uint32_t{h[0]} << 24) | (uint32_t{h[1]} << 16) |
         (uint32_t{h[2]} << 8) | uint32_t{h[3]};
}

Status BadBlock(const std::string& what) {
  return Status::InvalidArgument("malformed answer block: " + what);
}

// A bounds-checked cursor over an untrusted block.
class BlockReader {
 public:
  explicit BlockReader(std::string_view bytes) : bytes_(bytes) {}

  size_t remaining() const { return bytes_.size() - pos_; }

  Result<uint8_t> Byte() {
    if (remaining() == 0) return BadBlock("truncated");
    return static_cast<uint8_t>(bytes_[pos_++]);
  }

  Result<uint64_t> Varint() {
    uint64_t v = 0;
    for (int i = 0; i < kMaxVarintBytes; ++i) {
      if (remaining() == 0) return BadBlock("truncated varint");
      const uint8_t b = static_cast<uint8_t>(bytes_[pos_++]);
      // The tenth byte holds bit 63 alone.
      if (i == kMaxVarintBytes - 1 && b > 1) {
        return BadBlock("varint overflows 64 bits");
      }
      v |= static_cast<uint64_t>(b & 0x7f) << (7 * i);
      if ((b & 0x80) == 0) return v;
    }
    return BadBlock("varint longer than 10 bytes");
  }

  // A count of items of at least one byte each: it must fit in what is
  // left.
  Result<size_t> Count(const char* what) {
    SQOD_ASSIGN_OR_RETURN(uint64_t n, Varint());
    if (n > remaining()) {
      return BadBlock(std::string(what) + " " + std::to_string(n) +
                      " exceeds the " + std::to_string(remaining()) +
                      " bytes left");
    }
    return static_cast<size_t>(n);
  }

  std::string_view Take(size_t n) {
    std::string_view out = bytes_.substr(pos_, n);
    pos_ += n;
    return out;
  }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

// Envelope opener: {"type":"<t>","id":N  — callers append the rest.
std::string OpenEnvelope(MsgType type, uint64_t id) {
  std::string out = "{\"type\":\"";
  out.append(MsgTypeName(type));
  out.append("\",\"id\":");
  AppendWireInt64(static_cast<int64_t>(id), &out);
  return out;
}

void AppendStatus(const Status& status, std::string* out) {
  out->push_back(',');
  AppendKey("code", out);
  AppendQuoted(StatusCodeName(status.code()), out);
  if (!status.ok()) {
    out->push_back(',');
    AppendKey("error", out);
    AppendQuoted(status.message(), out);
  }
}

Status DecodeStatus(const JsonValue& payload) {
  Result<std::string> code_name = GetString(payload, "code");
  if (!code_name.ok()) return code_name.status();
  Result<StatusCode> code = StatusCodeFromName(code_name.value());
  if (!code.ok()) return code.status();
  if (code.value() == StatusCode::kOk) return Status::Ok();
  return Status::Error(code.value(), GetStringOr(payload, "error", ""));
}

}  // namespace

// ------------------------------------------------------------------ frames

std::string EncodeFrame(std::string_view payload) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  frame.append(kFrameHeaderBytes, '\0');
  PutU32(0, static_cast<uint32_t>(payload.size()), &frame);
  frame.append(payload);
  return frame;
}

Result<bool> FrameReader::Next(std::string* payload) {
  if (buf_.size() - pos_ < kFrameHeaderBytes) {
    // Compact eagerly when everything buffered has been consumed: the
    // common steady state, and it keeps the buffer from creeping.
    if (pos_ == buf_.size() && pos_ != 0) {
      buf_.clear();
      pos_ = 0;
    }
    return false;
  }
  const size_t n = GetU32(buf_.data() + pos_);
  if (n < 2) {
    return Status::InvalidArgument("malformed frame: payload of " +
                                   std::to_string(n) + " byte(s)");
  }
  if (n > max_frame_bytes_) {
    return Status::ResourceExhausted(
        "frame of " + std::to_string(n) + " bytes exceeds the limit of " +
        std::to_string(max_frame_bytes_));
  }
  if (buf_.size() - pos_ - kFrameHeaderBytes < n) return false;
  payload->assign(buf_, pos_ + kFrameHeaderBytes, n);
  pos_ += kFrameHeaderBytes + n;
  // Compact once the dead prefix dominates, so long-lived connections
  // don't accrete every frame they ever read.
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  return true;
}

// ------------------------------------------------------------ wire helpers

void AppendWireInt64(int64_t value, std::string* out) {
  if (value >= -kMaxExactDouble && value <= kMaxExactDouble) {
    out->append(std::to_string(value));
  } else {
    out->push_back('"');
    out->append(std::to_string(value));
    out->push_back('"');
  }
}

Result<int64_t> WireInt64(const JsonValue& value) {
  if (value.is_number()) {
    const double d = value.number;
    // The range test also rejects NaN and the infinities; casting a double
    // outside int64's range is undefined.
    if (std::nearbyint(d) != d || !(d >= -0x1p63 && d < 0x1p63)) {
      return Status::InvalidArgument("expected an integer, got " +
                                     std::to_string(d));
    }
    return static_cast<int64_t>(d);
  }
  if (value.is_string()) {
    const std::string& s = value.string;
    char* end = nullptr;
    errno = 0;
    const long long parsed = std::strtoll(s.c_str(), &end, 10);
    if (s.empty() || end != s.c_str() + s.size() || errno == ERANGE) {
      return Status::InvalidArgument("not a decimal int64: '" + s + "'");
    }
    return static_cast<int64_t>(parsed);
  }
  return Status::InvalidArgument("expected an integer");
}

Result<StatusCode> StatusCodeFromName(std::string_view name) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kCancelled); ++c) {
    const StatusCode code = static_cast<StatusCode>(c);
    if (name == StatusCodeName(code)) return code;
  }
  return Status::InvalidArgument("unknown status code '" +
                                 std::string(name) + "'");
}

// ---------------------------------------------------------------- messages

const char* MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kHello: return "hello";
    case MsgType::kLoadProgram: return "load_program";
    case MsgType::kQuery: return "query";
    case MsgType::kApplyDelta: return "apply_delta";
    case MsgType::kExplain: return "explain";
    case MsgType::kMetrics: return "metrics";
    case MsgType::kClose: return "close";
  }
  return "unknown";
}

Result<MsgType> MsgTypeFromName(std::string_view name) {
  for (MsgType type :
       {MsgType::kHello, MsgType::kLoadProgram, MsgType::kQuery,
        MsgType::kApplyDelta, MsgType::kExplain, MsgType::kMetrics,
        MsgType::kClose}) {
    if (name == MsgTypeName(type)) return type;
  }
  return Status::InvalidArgument("unknown message type '" +
                                 std::string(name) + "'");
}

// -------------------------------------------------------------- encode side

std::string EncodeHello(uint64_t id, const HelloParams& params) {
  std::string out = OpenEnvelope(MsgType::kHello, id);
  out.push_back(',');
  AppendKey("token", &out);
  AppendQuoted(params.token, &out);
  out.append(",\"min_version\":");
  AppendWireInt64(params.min_version, &out);
  out.append(",\"max_version\":");
  AppendWireInt64(params.max_version, &out);
  out.push_back('}');
  return out;
}

std::string EncodeLoadProgram(uint64_t id, const LoadProgramParams& params) {
  std::string out = OpenEnvelope(MsgType::kLoadProgram, id);
  out.push_back(',');
  AppendKey("session", &out);
  AppendQuoted(params.session, &out);
  out.push_back(',');
  AppendKey("source", &out);
  AppendQuoted(params.source, &out);
  out.push_back('}');
  return out;
}

std::string EncodeQuery(uint64_t id, const QueryParams& params) {
  std::string out = OpenEnvelope(MsgType::kQuery, id);
  if (!params.session.empty()) {
    out.push_back(',');
    AppendKey("session", &out);
    AppendQuoted(params.session, &out);
  }
  if (!params.source.empty()) {
    out.push_back(',');
    AppendKey("source", &out);
    AppendQuoted(params.source, &out);
  }
  out.append(",\"deadline_ms\":");
  AppendWireInt64(params.deadline_ms, &out);
  out.append(",\"trace\":");
  AppendBool(params.trace, &out);
  out.append(",\"explain\":");
  AppendBool(params.explain, &out);
  out.push_back('}');
  return out;
}

std::string EncodeExplain(uint64_t id, const std::string& session) {
  std::string out = OpenEnvelope(MsgType::kExplain, id);
  out.push_back(',');
  AppendKey("session", &out);
  AppendQuoted(session, &out);
  out.push_back('}');
  return out;
}

std::string EncodeApplyDelta(uint64_t id, const ApplyDeltaParams& params) {
  std::string out = OpenEnvelope(MsgType::kApplyDelta, id);
  out.push_back(',');
  AppendKey("session", &out);
  AppendQuoted(params.session, &out);
  for (const auto& [key, facts] :
       {std::pair<const char*, const std::vector<std::string>*>(
            "inserts", &params.inserts),
        std::pair<const char*, const std::vector<std::string>*>(
            "deletes", &params.deletes)}) {
    out.push_back(',');
    AppendKey(key, &out);
    out.push_back('[');
    for (size_t i = 0; i < facts->size(); ++i) {
      if (i > 0) out.push_back(',');
      AppendQuoted((*facts)[i], &out);
    }
    out.push_back(']');
  }
  out.append(",\"trace\":");
  AppendBool(params.trace, &out);
  out.push_back('}');
  return out;
}

std::string EncodeMetricsRequest(uint64_t id) {
  std::string out = OpenEnvelope(MsgType::kMetrics, id);
  out.push_back('}');
  return out;
}

std::string EncodeClose(uint64_t id) {
  std::string out = OpenEnvelope(MsgType::kClose, id);
  out.push_back('}');
  return out;
}

std::string EncodeHelloResponse(uint64_t id, const HelloResult& result) {
  std::string out = OpenEnvelope(MsgType::kHello, id);
  AppendStatus(Status::Ok(), &out);
  out.append(",\"version\":");
  AppendWireInt64(result.version, &out);
  out.push_back(',');
  AppendKey("tenant", &out);
  AppendQuoted(result.tenant, &out);
  out.push_back(',');
  AppendKey("server", &out);
  AppendQuoted(result.server, &out);
  out.append(",\"max_frame_bytes\":");
  AppendWireInt64(result.max_frame_bytes, &out);
  out.push_back('}');
  return out;
}

std::string EncodeLoadProgramResponse(uint64_t id, const Response& response) {
  std::string out = OpenEnvelope(MsgType::kLoadProgram, id);
  AppendStatus(response.status, &out);
  out.push_back(',');
  AppendKey("trace_id", &out);
  AppendQuoted(TraceIdHex(response.trace_id), &out);
  AppendPrepareTelemetry(response, &out);
  out.push_back('}');
  return out;
}

std::string EncodeQueryResponse(uint64_t id, MsgType type,
                                const Response& response) {
  std::string out;
  if (response.status.ok()) {
    out.append(kBlockPrefixBytes, '\0');
    AppendAnswerBlock(response.answers, &out);
    PutU32(1, static_cast<uint32_t>(out.size() - kBlockPrefixBytes), &out);
  }
  out.append(OpenEnvelope(type, id));
  AppendStatus(response.status, &out);
  out.push_back(',');
  AppendKey("trace_id", &out);
  AppendQuoted(TraceIdHex(response.trace_id), &out);
  if (response.status.ok()) {
    out.push_back(',');
    AppendEvalStats(response.stats, &out);
  }
  out.append(",\"snapshot_version\":");
  AppendWireInt64(response.snapshot_version, &out);
  out.append(",\"served_from_view\":");
  AppendBool(response.served_from_view, &out);
  AppendPrepareTelemetry(response, &out);
  out.append(",\"execute_ns\":");
  AppendWireInt64(response.execute_ns, &out);
  if (!response.spans.empty()) {
    out.push_back(',');
    AppendSpans(response.spans, &out);
  }
  if (!response.explain_json.empty()) {
    out.push_back(',');
    AppendKey("explain", &out);
    AppendQuoted(response.explain_json, &out);
  }
  out.push_back('}');
  return out;
}

std::string EncodeApplyDeltaResponse(uint64_t id,
                                     const DeltaResponse& response) {
  std::string out = OpenEnvelope(MsgType::kApplyDelta, id);
  AppendStatus(response.status, &out);
  out.push_back(',');
  AppendKey("trace_id", &out);
  AppendQuoted(TraceIdHex(response.trace_id), &out);
  out.append(",\"snapshot_version\":");
  AppendWireInt64(response.snapshot_version, &out);
  if (response.status.ok()) {
    out.push_back(',');
    AppendMaintainStats(response.stats, &out);
  }
  out.append(",\"queue_wait_ns\":");
  AppendWireInt64(response.queue_wait_ns, &out);
  out.append(",\"materialize_ns\":");
  AppendWireInt64(response.materialize_ns, &out);
  out.append(",\"maintain_ns\":");
  AppendWireInt64(response.maintain_ns, &out);
  if (!response.spans.empty()) {
    out.push_back(',');
    AppendSpans(response.spans, &out);
  }
  out.push_back('}');
  return out;
}

std::string EncodeMetricsResponse(uint64_t id,
                                  const std::string& metrics_json) {
  std::string out = OpenEnvelope(MsgType::kMetrics, id);
  AppendStatus(Status::Ok(), &out);
  out.push_back(',');
  AppendKey("metrics", &out);
  out.append(metrics_json);
  out.push_back('}');
  return out;
}

std::string EncodeCloseResponse(uint64_t id) {
  std::string out = OpenEnvelope(MsgType::kClose, id);
  AppendStatus(Status::Ok(), &out);
  out.push_back('}');
  return out;
}

std::string EncodeErrorResponse(uint64_t id, MsgType type,
                                const Status& status) {
  std::string out = OpenEnvelope(type, id);
  AppendStatus(status, &out);
  out.push_back('}');
  return out;
}

// -------------------------------------------------------------- decode side

Result<ClientMessage> DecodeClientMessage(std::string_view payload) {
  SQOD_ASSIGN_OR_RETURN(JsonValue root, ParseJson(payload));
  if (!root.is_object()) {
    return Status::InvalidArgument("request payload is not a JSON object");
  }
  ClientMessage msg;
  SQOD_ASSIGN_OR_RETURN(std::string type_name, GetString(root, "type"));
  SQOD_ASSIGN_OR_RETURN(msg.type, MsgTypeFromName(type_name));
  SQOD_ASSIGN_OR_RETURN(int64_t id, GetInt64(root, "id"));
  msg.id = static_cast<uint64_t>(id);

  switch (msg.type) {
    case MsgType::kHello: {
      msg.hello.token = GetStringOr(root, "token", "");
      SQOD_ASSIGN_OR_RETURN(
          msg.hello.min_version,
          GetVersionOr(root, "min_version", kProtoVersionMin));
      SQOD_ASSIGN_OR_RETURN(
          msg.hello.max_version,
          GetVersionOr(root, "max_version", msg.hello.min_version));
      break;
    }
    case MsgType::kLoadProgram: {
      SQOD_ASSIGN_OR_RETURN(msg.load.session, GetString(root, "session"));
      SQOD_ASSIGN_OR_RETURN(msg.load.source, GetString(root, "source"));
      break;
    }
    case MsgType::kQuery: {
      msg.query.session = GetStringOr(root, "session", "");
      msg.query.source = GetStringOr(root, "source", "");
      if (msg.query.session.empty() == msg.query.source.empty()) {
        return Status::InvalidArgument(
            "query needs exactly one of 'session' or 'source'");
      }
      msg.query.deadline_ms = GetInt64Or(root, "deadline_ms", -1);
      msg.query.trace = GetBoolOr(root, "trace", false);
      msg.query.explain = GetBoolOr(root, "explain", false);
      break;
    }
    case MsgType::kExplain: {
      SQOD_ASSIGN_OR_RETURN(msg.query.session, GetString(root, "session"));
      msg.query.explain = true;
      break;
    }
    case MsgType::kApplyDelta: {
      SQOD_ASSIGN_OR_RETURN(msg.delta.session, GetString(root, "session"));
      for (const auto& [key, into] :
           {std::pair<const char*, std::vector<std::string>*>(
                "inserts", &msg.delta.inserts),
            std::pair<const char*, std::vector<std::string>*>(
                "deletes", &msg.delta.deletes)}) {
        const JsonValue* arr = root.Find(key);
        if (arr == nullptr) continue;
        if (!arr->is_array()) return MissingField(key);
        for (const JsonValue& item : arr->array) {
          if (!item.is_string()) {
            return Status::InvalidArgument(
                std::string(key) + " entries must be fact strings");
          }
          into->push_back(item.string);
        }
      }
      msg.delta.trace = GetBoolOr(root, "trace", false);
      break;
    }
    case MsgType::kMetrics:
    case MsgType::kClose:
      break;
  }
  return msg;
}

Result<ServerMessage> DecodeServerMessage(std::string_view payload) {
  const bool has_block = !payload.empty() && payload[0] == '\0';
  std::vector<Tuple> block_answers;
  if (has_block) {
    if (payload.size() < kBlockPrefixBytes) {
      return BadBlock("truncated length prefix");
    }
    const size_t n = GetU32(payload.data() + 1);
    if (n > payload.size() - kBlockPrefixBytes) {
      return BadBlock("length " + std::to_string(n) + " overruns the " +
                      std::to_string(payload.size()) + "-byte payload");
    }
    SQOD_ASSIGN_OR_RETURN(block_answers,
                          DecodeAnswerBlock(payload.substr(
                              kBlockPrefixBytes, n)));
    payload.remove_prefix(kBlockPrefixBytes + n);
  }
  SQOD_ASSIGN_OR_RETURN(JsonValue root, ParseJson(payload));
  if (!root.is_object()) {
    return Status::InvalidArgument("response payload is not a JSON object");
  }
  ServerMessage msg;
  SQOD_ASSIGN_OR_RETURN(std::string type_name, GetString(root, "type"));
  SQOD_ASSIGN_OR_RETURN(msg.type, MsgTypeFromName(type_name));
  SQOD_ASSIGN_OR_RETURN(int64_t id, GetInt64(root, "id"));
  msg.id = static_cast<uint64_t>(id);
  msg.status = DecodeStatus(root);
  if (has_block && msg.type != MsgType::kQuery &&
      msg.type != MsgType::kExplain) {
    return BadBlock(std::string("answers on a '") + MsgTypeName(msg.type) +
                    "' reply");
  }

  switch (msg.type) {
    case MsgType::kHello: {
      msg.hello.version = static_cast<int>(GetInt64Or(root, "version", 0));
      msg.hello.tenant = GetStringOr(root, "tenant", "");
      msg.hello.server = GetStringOr(root, "server", "");
      msg.hello.max_frame_bytes = GetInt64Or(root, "max_frame_bytes", 0);
      break;
    }
    case MsgType::kLoadProgram: {
      msg.query.status = msg.status;
      msg.query.trace_id = TraceIdFromHex(GetStringOr(root, "trace_id", ""));
      DecodePrepareTelemetry(root, &msg.query);
      break;
    }
    case MsgType::kQuery:
    case MsgType::kExplain: {
      Response& r = msg.query;
      r.status = msg.status;
      r.trace_id = TraceIdFromHex(GetStringOr(root, "trace_id", ""));
      if (r.status.ok() && !has_block) {
        return Status::InvalidArgument(std::string("an OK '") +
                                       MsgTypeName(msg.type) +
                                       "' reply carries no answer block");
      }
      r.answers = std::move(block_answers);
      r.stats = DecodeEvalStats(root);
      r.snapshot_version = GetInt64Or(root, "snapshot_version", -1);
      r.served_from_view = GetBoolOr(root, "served_from_view", false);
      DecodePrepareTelemetry(root, &r);
      r.execute_ns = GetInt64Or(root, "execute_ns", 0);
      r.spans = DecodeSpans(root);
      r.explain_json = GetStringOr(root, "explain", "");
      break;
    }
    case MsgType::kApplyDelta: {
      DeltaResponse& r = msg.delta;
      r.status = msg.status;
      r.trace_id = TraceIdFromHex(GetStringOr(root, "trace_id", ""));
      r.snapshot_version = GetInt64Or(root, "snapshot_version", -1);
      r.stats = DecodeMaintainStats(root);
      r.queue_wait_ns = GetInt64Or(root, "queue_wait_ns", 0);
      r.materialize_ns = GetInt64Or(root, "materialize_ns", 0);
      r.maintain_ns = GetInt64Or(root, "maintain_ns", 0);
      r.spans = DecodeSpans(root);
      break;
    }
    case MsgType::kMetrics: {
      const JsonValue* metrics = root.Find("metrics");
      if (metrics != nullptr) msg.metrics = *metrics;
      break;
    }
    case MsgType::kClose:
      break;
  }
  return msg;
}

// ----------------------------------------------------------- answer blocks

void AppendAnswerBlock(const std::vector<Tuple>& answers, std::string* out) {
  const size_t arity = answers.empty() ? 0 : answers[0].size();
  AppendVarint(arity, out);
  AppendVarint(answers.size(), out);

  // Per-reply symbol table, in first-appearance order.
  std::unordered_map<SymbolId, uint64_t> symbol_index;
  std::vector<SymbolId> symbols;
  std::vector<uint8_t> kinds(arity, 0);  // bit 0: saw an int, bit 1: symbol
  for (const Tuple& tuple : answers) {
    SQOD_CHECK_MSG(tuple.size() == arity, "answer tuples differ in arity");
    for (size_t c = 0; c < arity; ++c) {
      const Value& v = tuple[c];
      if (v.is_int()) {
        kinds[c] |= 1;
      } else {
        kinds[c] |= 2;
        if (symbol_index.emplace(v.symbol_id(), symbols.size()).second) {
          symbols.push_back(v.symbol_id());
        }
      }
    }
  }
  AppendVarint(symbols.size(), out);
  for (SymbolId id : symbols) {
    const std::string& name = GlobalStrings().Name(id);
    AppendVarint(name.size(), out);
    out->append(name);
  }

  for (size_t c = 0; c < arity; ++c) {
    const uint8_t kind = kinds[c] == 2   ? kColumnSymbol
                         : kinds[c] == 3 ? kColumnMixed
                                         : kColumnInt;
    out->push_back(static_cast<char>(kind));
    uint64_t prev = 0;  // delta base of column 0
    for (const Tuple& tuple : answers) {
      const Value& v = tuple[c];
      if (kind == kColumnMixed) {
        out->push_back(static_cast<char>(v.is_int() ? kColumnInt
                                                    : kColumnSymbol));
      }
      if (!v.is_int()) {
        AppendVarint(symbol_index[v.symbol_id()], out);
      } else if (kind == kColumnInt && c == 0) {
        const uint64_t bits = static_cast<uint64_t>(v.as_int());
        AppendVarint(ZigZag(static_cast<int64_t>(bits - prev)), out);
        prev = bits;
      } else {
        AppendVarint(ZigZag(v.as_int()), out);
      }
    }
  }
}

Result<std::vector<Tuple>> DecodeAnswerBlock(std::string_view block) {
  BlockReader in(block);
  SQOD_ASSIGN_OR_RETURN(uint64_t arity, in.Varint());
  if (arity > static_cast<uint64_t>(Relation::kMaxArity)) {
    return BadBlock("arity " + std::to_string(arity) + " exceeds " +
                    std::to_string(Relation::kMaxArity));
  }
  SQOD_ASSIGN_OR_RETURN(uint64_t rows, in.Varint());
  if (arity == 0 && rows > 1) {
    return BadBlock("a 0-ary answer set holds at most one row");
  }
  // Each symbol takes at least its length byte.
  SQOD_ASSIGN_OR_RETURN(size_t num_symbols, in.Count("symbol count"));
  std::vector<Value> symbols;
  symbols.reserve(num_symbols);
  for (size_t i = 0; i < num_symbols; ++i) {
    SQOD_ASSIGN_OR_RETURN(size_t len, in.Count("symbol length"));
    symbols.push_back(Value::Symbol(in.Take(len)));
  }
  // Each column takes its kind byte, and each value at least one byte.
  if (arity > 0 &&
      (arity > in.remaining() || rows > (in.remaining() - arity) / arity)) {
    return BadBlock(std::to_string(rows) + " rows of arity " +
                    std::to_string(arity) + " exceed the " +
                    std::to_string(in.remaining()) + " bytes left");
  }

  std::vector<Tuple> answers(rows, Tuple(arity));
  for (size_t c = 0; c < arity; ++c) {
    SQOD_ASSIGN_OR_RETURN(uint8_t kind, in.Byte());
    if (kind > kColumnMixed) {
      return BadBlock("unknown column kind " + std::to_string(kind));
    }
    uint64_t prev = 0;
    for (Tuple& tuple : answers) {
      uint8_t tag = kind;
      if (kind == kColumnMixed) {
        SQOD_ASSIGN_OR_RETURN(tag, in.Byte());
        if (tag > kColumnSymbol) {
          return BadBlock("unknown value tag " + std::to_string(tag));
        }
      }
      SQOD_ASSIGN_OR_RETURN(uint64_t raw, in.Varint());
      if (tag == kColumnSymbol) {
        if (raw >= symbols.size()) {
          return BadBlock("symbol index " + std::to_string(raw) +
                          " outside a table of " +
                          std::to_string(symbols.size()));
        }
        tuple[c] = symbols[raw];
      } else if (kind == kColumnInt && c == 0) {
        prev += static_cast<uint64_t>(UnZigZag(raw));
        tuple[c] = Value::Int(static_cast<int64_t>(prev));
      } else {
        tuple[c] = Value::Int(UnZigZag(raw));
      }
    }
  }
  if (in.remaining() != 0) {
    return BadBlock(std::to_string(in.remaining()) + " trailing bytes");
  }
  return answers;
}

}  // namespace sqod
