#include "src/net/client.h"

#include <utility>

namespace sqod {

Result<Client> Client::Connect(const ClientOptions& options) {
  Client client;
  client.reader_ = FrameReader(options.max_frame_bytes);
  SQOD_ASSIGN_OR_RETURN(client.fd_,
                        ConnectTcp(options.host, options.port));

  HelloParams hello;
  hello.token = options.token;
  hello.min_version = options.min_version;
  hello.max_version = options.max_version;
  const uint64_t id = client.next_id_++;
  SQOD_RETURN_IF_ERROR(client.SendPayload(EncodeHello(id, hello)));
  SQOD_ASSIGN_OR_RETURN(ServerMessage reply, client.ReadMessage());
  if (reply.type != MsgType::kHello || reply.id != id) {
    return Status::Internal("hello reply mismatch");
  }
  if (!reply.status.ok()) return reply.status;
  if (reply.hello.version < options.min_version ||
      reply.hello.version > options.max_version) {
    return Status::Unsupported(
        "server chose protocol version " +
        std::to_string(reply.hello.version) + " outside the requested [" +
        std::to_string(options.min_version) + ", " +
        std::to_string(options.max_version) + "]");
  }
  client.hello_ = reply.hello;
  return client;
}

Status Client::SendPayload(const std::string& payload) {
  if (!fd_.valid()) {
    return Status::FailedPrecondition("client is not connected");
  }
  const std::string frame = EncodeFrame(payload);
  return WriteAll(fd_.get(), frame.data(), frame.size());
}

Result<ServerMessage> Client::ReadMessage() {
  std::string payload;
  char buf[16 * 1024];
  while (true) {
    SQOD_ASSIGN_OR_RETURN(bool complete, reader_.Next(&payload));
    if (complete) break;
    SQOD_ASSIGN_OR_RETURN(int64_t got,
                          ReadSome(fd_.get(), buf, sizeof(buf)));
    if (got == 0) {
      fd_.Reset();
      return Status::Internal("connection closed by server");
    }
    if (got < 0) {
      // Blocking socket: EAGAIN should not occur; retry defensively.
      continue;
    }
    reader_.Append(buf, static_cast<size_t>(got));
  }
  return DecodeServerMessage(payload);
}

Result<ServerMessage> Client::WaitFor(uint64_t id) {
  auto it = stash_.find(id);
  if (it != stash_.end()) {
    ServerMessage msg = std::move(it->second);
    stash_.erase(it);
    return msg;
  }
  while (true) {
    SQOD_ASSIGN_OR_RETURN(ServerMessage msg, ReadMessage());
    if (msg.id == id) return msg;
    stash_[msg.id] = std::move(msg);
  }
}

Result<ServerMessage> Client::Call(std::string payload, uint64_t id) {
  SQOD_RETURN_IF_ERROR(SendPayload(payload));
  return WaitFor(id);
}

Result<Response> Client::LoadProgram(const std::string& session,
                                     const std::string& source) {
  LoadProgramParams params;
  params.session = session;
  params.source = source;
  const uint64_t id = next_id_++;
  SQOD_ASSIGN_OR_RETURN(ServerMessage reply,
                        Call(EncodeLoadProgram(id, params), id));
  return std::move(reply.query);
}

Result<Response> Client::Query(const QueryParams& params) {
  const uint64_t id = next_id_++;
  SQOD_ASSIGN_OR_RETURN(ServerMessage reply,
                        Call(EncodeQuery(id, params), id));
  return std::move(reply.query);
}

Result<Response> Client::Explain(const std::string& session) {
  const uint64_t id = next_id_++;
  SQOD_ASSIGN_OR_RETURN(ServerMessage reply,
                        Call(EncodeExplain(id, session), id));
  return std::move(reply.query);
}

Result<DeltaResponse> Client::ApplyDelta(const std::string& session,
                                         std::vector<std::string> inserts,
                                         std::vector<std::string> deletes,
                                         bool trace) {
  ApplyDeltaParams params;
  params.session = session;
  params.inserts = std::move(inserts);
  params.deletes = std::move(deletes);
  params.trace = trace;
  const uint64_t id = next_id_++;
  SQOD_ASSIGN_OR_RETURN(ServerMessage reply,
                        Call(EncodeApplyDelta(id, params), id));
  return std::move(reply.delta);
}

Result<JsonValue> Client::Metrics() {
  const uint64_t id = next_id_++;
  SQOD_ASSIGN_OR_RETURN(ServerMessage reply,
                        Call(EncodeMetricsRequest(id), id));
  if (!reply.status.ok()) return reply.status;
  return std::move(reply.metrics);
}

Status Client::Close() {
  if (!fd_.valid()) return Status::Ok();
  const uint64_t id = next_id_++;
  Result<ServerMessage> reply = Call(EncodeClose(id), id);
  fd_.Reset();
  if (!reply.ok()) return reply.status();
  return reply.value().status;
}

Result<uint64_t> Client::SendQuery(const QueryParams& params) {
  const uint64_t id = next_id_++;
  SQOD_RETURN_IF_ERROR(SendPayload(EncodeQuery(id, params)));
  return id;
}

Result<uint64_t> Client::SendApplyDelta(const std::string& session,
                                        std::vector<std::string> inserts,
                                        std::vector<std::string> deletes,
                                        bool trace) {
  ApplyDeltaParams params;
  params.session = session;
  params.inserts = std::move(inserts);
  params.deletes = std::move(deletes);
  params.trace = trace;
  const uint64_t id = next_id_++;
  SQOD_RETURN_IF_ERROR(SendPayload(EncodeApplyDelta(id, params)));
  return id;
}

}  // namespace sqod
