#include "src/proto/proto.h"

#include <cmath>
#include <cstdlib>
#include <cstring>

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
  const uint32_t n = static_cast<uint32_t>(payload.size());
  frame.push_back(static_cast<char>((n >> 24) & 0xff));
  frame.push_back(static_cast<char>((n >> 16) & 0xff));
  frame.push_back(static_cast<char>((n >> 8) & 0xff));
  frame.push_back(static_cast<char>(n & 0xff));
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
  const unsigned char* h =
      reinterpret_cast<const unsigned char*>(buf_.data() + pos_);
  const size_t n = (size_t{h[0]} << 24) | (size_t{h[1]} << 16) |
                   (size_t{h[2]} << 8) | size_t{h[3]};
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
    if (std::nearbyint(d) != d) {
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

void AppendWireValue(const Value& value, std::string* out) {
  if (value.is_int()) {
    const int64_t v = value.as_int();
    if (v >= -kMaxExactDouble && v <= kMaxExactDouble) {
      out->append(std::to_string(v));
    } else {
      out->append("{\"i\":\"");
      out->append(std::to_string(v));
      out->append("\"}");
    }
  } else {
    AppendQuoted(value.symbol_name(), out);
  }
}

Result<Value> WireValue(const JsonValue& value) {
  if (value.is_number()) {
    SQOD_ASSIGN_OR_RETURN(int64_t v, WireInt64(value));
    return Value::Int(v);
  }
  if (value.is_string()) return Value::Symbol(value.string);
  if (value.is_object()) {
    const JsonValue* i = value.Find("i");
    if (i != nullptr) {
      SQOD_ASSIGN_OR_RETURN(int64_t v, WireInt64(*i));
      return Value::Int(v);
    }
  }
  return Status::InvalidArgument("malformed value in answer tuple");
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
  out.append(",\"materialized\":");
  AppendBool(params.materialized, &out);
  out.append(",\"trace\":");
  AppendBool(params.trace, &out);
  out.append(",\"explain\":");
  AppendBool(params.explain, &out);
  if (!params.disabled_passes.empty()) {
    out.push_back(',');
    AppendKey("disabled_passes", &out);
    out.push_back('[');
    for (size_t i = 0; i < params.disabled_passes.size(); ++i) {
      if (i > 0) out.push_back(',');
      AppendQuoted(params.disabled_passes[i], &out);
    }
    out.push_back(']');
  }
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
  out.push_back('}');
  return out;
}

std::string EncodeQueryResponse(uint64_t id, MsgType type,
                                const Response& response) {
  std::string out = OpenEnvelope(type, id);
  AppendStatus(response.status, &out);
  out.push_back(',');
  AppendKey("trace_id", &out);
  AppendQuoted(TraceIdHex(response.trace_id), &out);
  if (response.status.ok()) {
    out.push_back(',');
    AppendKey("answers", &out);
    out.push_back('[');
    for (size_t i = 0; i < response.answers.size(); ++i) {
      if (i > 0) out.push_back(',');
      out.push_back('[');
      const Tuple& tuple = response.answers[i];
      for (size_t j = 0; j < tuple.size(); ++j) {
        if (j > 0) out.push_back(',');
        AppendWireValue(tuple[j], &out);
      }
      out.push_back(']');
    }
    out.push_back(']');
    out.push_back(',');
    AppendEvalStats(response.stats, &out);
  }
  out.append(",\"snapshot_version\":");
  AppendWireInt64(response.snapshot_version, &out);
  out.append(",\"served_from_view\":");
  AppendBool(response.served_from_view, &out);
  out.append(",\"optimized\":");
  AppendBool(response.optimized, &out);
  out.append(",\"prepare_cache_hit\":");
  AppendBool(response.prepare_cache_hit, &out);
  out.append(",\"passes_ran\":");
  AppendWireInt64(response.passes_ran, &out);
  out.append(",\"queue_wait_ns\":");
  AppendWireInt64(response.queue_wait_ns, &out);
  out.append(",\"prepare_ns\":");
  AppendWireInt64(response.prepare_ns, &out);
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
      msg.hello.min_version = static_cast<int>(
          GetInt64Or(root, "min_version", kProtoVersionMin));
      msg.hello.max_version = static_cast<int>(
          GetInt64Or(root, "max_version", msg.hello.min_version));
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
      msg.query.materialized = GetBoolOr(root, "materialized", false);
      msg.query.trace = GetBoolOr(root, "trace", false);
      msg.query.explain = GetBoolOr(root, "explain", false);
      const JsonValue* passes = root.Find("disabled_passes");
      if (passes != nullptr) {
        if (!passes->is_array()) return MissingField("disabled_passes");
        for (const JsonValue& item : passes->array) {
          if (!item.is_string()) return MissingField("disabled_passes");
          msg.query.disabled_passes.push_back(item.string);
        }
      }
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
      break;
    }
    case MsgType::kQuery:
    case MsgType::kExplain: {
      Response& r = msg.query;
      r.status = msg.status;
      r.trace_id = TraceIdFromHex(GetStringOr(root, "trace_id", ""));
      const JsonValue* answers = root.Find("answers");
      if (answers != nullptr && answers->is_array()) {
        r.answers.reserve(answers->array.size());
        for (const JsonValue& row : answers->array) {
          if (!row.is_array()) {
            return Status::InvalidArgument("answer row is not an array");
          }
          Tuple tuple;
          tuple.reserve(row.array.size());
          for (const JsonValue& cell : row.array) {
            SQOD_ASSIGN_OR_RETURN(Value v, WireValue(cell));
            tuple.push_back(v);
          }
          r.answers.push_back(std::move(tuple));
        }
      }
      r.stats = DecodeEvalStats(root);
      r.snapshot_version = GetInt64Or(root, "snapshot_version", -1);
      r.served_from_view = GetBoolOr(root, "served_from_view", false);
      r.optimized = GetBoolOr(root, "optimized", false);
      r.prepare_cache_hit = GetBoolOr(root, "prepare_cache_hit", false);
      r.passes_ran = static_cast<int>(GetInt64Or(root, "passes_ran", 0));
      r.queue_wait_ns = GetInt64Or(root, "queue_wait_ns", 0);
      r.prepare_ns = GetInt64Or(root, "prepare_ns", 0);
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

}  // namespace sqod
