#include "src/net/server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "src/obs/export.h"
#include "src/obs/trace.h"
#include "src/parser/parser.h"

namespace sqod {

namespace {

// Wake-pipe bytes: each is a one-shot command the poll thread reads.
constexpr char kWakeReply = 'w';
constexpr char kWakeDrain = 'd';
constexpr char kWakeStop = 's';

std::string QuotaMetric(const std::string& tenant) {
  return "tenant/" + tenant + "/quota_rejected";
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)), service_(options_.service) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("server already started");
  }

  // Tenant table validation up front: a bad table is a configuration
  // error, not something to discover at hello time.
  if (options_.tenants.empty()) {
    // Open access: every token resolves to "default", no quota.
    auto tenant = std::make_unique<Tenant>();
    tenant->config.name = "default";
    tenants_.push_back(std::move(tenant));
  } else {
    for (const TenantConfig& config : options_.tenants) {
      if (config.name.empty() ||
          config.name.find('\x1f') != std::string::npos) {
        return Status::InvalidArgument("bad tenant name '" + config.name +
                                       "'");
      }
      if (config.token.empty()) {
        return Status::InvalidArgument("tenant '" + config.name +
                                       "' has an empty token");
      }
      if (config.max_inflight < 0) {
        return Status::InvalidArgument("tenant '" + config.name +
                                       "' has a negative quota");
      }
      if (by_token_.count(config.token) != 0) {
        return Status::InvalidArgument(
            "duplicate token (tenants must have distinct tokens)");
      }
      auto tenant = std::make_unique<Tenant>();
      tenant->config = config;
      by_token_[config.token] = tenant.get();
      tenants_.push_back(std::move(tenant));
      // Registered up front, so the export lists 0 for a tenant that never
      // tripped its quota rather than omitting the counter.
      metrics().GetCounter(QuotaMetric(config.name));
    }
  }

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    return Status::Internal("pipe: " + std::string(std::strerror(errno)));
  }
  wake_read_ = UniqueFd(pipe_fds[0]);
  wake_write_ = UniqueFd(pipe_fds[1]);
  SQOD_RETURN_IF_ERROR(SetNonBlocking(wake_read_.get()));
  SQOD_RETURN_IF_ERROR(SetNonBlocking(wake_write_.get()));

  SQOD_ASSIGN_OR_RETURN(listener_,
                        ListenTcp(options_.host, options_.port,
                                  options_.backlog));
  SQOD_ASSIGN_OR_RETURN(uint16_t port, LocalPort(listener_.get()));
  port_.store(port, std::memory_order_release);

  poll_thread_ = std::thread([this] { PollLoop(); });
  return Status::Ok();
}

void Server::Stop() {
  if (!started_.load() || stopped_.exchange(true)) {
    // Never started (nothing to join) or already stopped.
    if (started_.load()) Wait();
    return;
  }
  WakePoll(kWakeStop);
  Wait();
}

void Server::RequestDrain() {
  // Async-signal-safe: one write(2), no locks, no allocation.
  if (wake_write_.valid()) {
    [[maybe_unused]] ssize_t n = ::write(wake_write_.get(), &kWakeDrain, 1);
  }
}

void Server::Wait() {
  // Joinable-then-join is racy across threads; serialize the join. Never
  // replies_mu_: the poll thread takes that to exit.
  std::lock_guard<std::mutex> lock(join_mu_);
  if (poll_thread_.joinable()) poll_thread_.join();
}

void Server::WakePoll(char byte) {
  if (!wake_write_.valid()) return;
  while (true) {
    const ssize_t n = ::write(wake_write_.get(), &byte, 1);
    if (n == 1) return;
    if (n < 0 && errno == EINTR) continue;
    // EAGAIN: the pipe is full, so the poll thread has wakeups pending
    // anyway — for kWakeReply that is enough. Control bytes must not be
    // lost, but a full pipe means thousands of unread bytes, which only
    // happens if the poll thread is already exiting.
    return;
  }
}

void Server::QueueReply(uint64_t conn_id, Tenant* tenant, std::string frame) {
  {
    std::lock_guard<std::mutex> lock(replies_mu_);
    pending_replies_.push_back(PendingReply{conn_id, tenant,
                                            std::move(frame)});
  }
  WakePoll(kWakeReply);
}

void Server::EncodeAndQueueReply(uint64_t conn_id, Tenant* tenant,
                                 const std::function<std::string()>& encode) {
  const int64_t start = NowNs();
  std::string frame = EncodeFrame(encode());
  MetricsRegistry& metrics = this->metrics();
  metrics.GetHistogram("net/encode_reply_ns")->Record(NowNs() - start);
  metrics.GetHistogram("net/reply_bytes")
      ->Record(static_cast<int64_t>(frame.size()));
  QueueReply(conn_id, tenant, std::move(frame));
}

void Server::ApplyPendingReplies() {
  std::vector<PendingReply> replies;
  {
    std::lock_guard<std::mutex> lock(replies_mu_);
    replies.swap(pending_replies_);
  }
  for (PendingReply& reply : replies) {
    if (reply.tenant != nullptr) --reply.tenant->inflight;
    auto it = conns_.find(reply.conn_id);
    if (it == conns_.end()) continue;  // connection died mid-request
    --it->second->inflight;
    it->second->out.append(reply.frame);
    metrics().GetCounter("net/frames_out")->Increment();
  }
}

void Server::AcceptPending() {
  while (true) {
    const int fd = ::accept(listener_.get(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN, or a transient accept error: poll again
    }
    UniqueFd owned(fd);
    if (!SetNonBlocking(fd).ok()) continue;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>(options_.max_frame_bytes);
    conn->fd = std::move(owned);
    conn->id = next_conn_id_++;
    conns_[conn->id] = std::move(conn);
    open_connections_.fetch_add(1, std::memory_order_relaxed);
    metrics().GetCounter("net/connections_accepted")->Increment();
  }
}

void Server::CloseConnection(uint64_t conn_id) {
  if (conns_.erase(conn_id) > 0) {
    open_connections_.fetch_sub(1, std::memory_order_relaxed);
    metrics().GetCounter("net/connections_closed")->Increment();
  }
}

Server::Tenant* Server::ResolveToken(const std::string& token) {
  if (options_.tenants.empty()) return tenants_.front().get();
  auto it = by_token_.find(token);
  return it == by_token_.end() ? nullptr : it->second;
}

bool Server::FlushWrites(Connection* conn) {
  while (conn->out_pos < conn->out.size()) {
    Result<int64_t> put =
        WriteSome(conn->fd.get(), conn->out.data() + conn->out_pos,
                  conn->out.size() - conn->out_pos);
    if (!put.ok()) return false;
    if (put.value() < 0) return true;  // would block; POLLOUT resumes
    conn->out_pos += static_cast<size_t>(put.value());
    metrics().GetCounter("net/bytes_out")->Add(put.value());
  }
  conn->out.clear();
  conn->out_pos = 0;
  // A closing connection lingers only for its unflushed replies.
  return !(conn->closing && conn->inflight == 0);
}

bool Server::HandleMessage(Connection* conn, const ClientMessage& msg) {
  MetricsRegistry& metrics = this->metrics();

  // Hello-first: nothing else is dispatchable until the tenant is known.
  if (conn->tenant == nullptr) {
    if (msg.type != MsgType::kHello) {
      conn->out.append(EncodeFrame(EncodeErrorResponse(
          msg.id, msg.type,
          Status::FailedPrecondition("first message must be hello"))));
      conn->closing = true;
      metrics.GetCounter("net/protocol_errors")->Increment();
      return true;
    }
    Tenant* tenant = ResolveToken(msg.hello.token);
    if (tenant == nullptr) {
      conn->out.append(EncodeFrame(EncodeErrorResponse(
          msg.id, MsgType::kHello,
          Status::InvalidArgument("unknown token"))));
      conn->closing = true;
      metrics.GetCounter("net/auth_failures")->Increment();
      return true;
    }
    const int version = std::min(msg.hello.max_version, kProtoVersionMax);
    const int floor = std::max(msg.hello.min_version, kProtoVersionMin);
    if (version < floor) {
      conn->out.append(EncodeFrame(EncodeErrorResponse(
          msg.id, MsgType::kHello,
          Status::Unsupported(
              "no common protocol version: server speaks [" +
              std::to_string(kProtoVersionMin) + ", " +
              std::to_string(kProtoVersionMax) + "], client asked [" +
              std::to_string(msg.hello.min_version) + ", " +
              std::to_string(msg.hello.max_version) + "]"))));
      conn->closing = true;
      return true;
    }
    conn->tenant = tenant;
    metrics.GetCounter("tenant/" + tenant->config.name + "/connections")
        ->Increment();
    HelloResult result;
    result.version = version;
    result.tenant = tenant->config.name;
    result.server = options_.server_name;
    result.max_frame_bytes =
        static_cast<int64_t>(options_.max_frame_bytes);
    conn->out.append(EncodeFrame(EncodeHelloResponse(msg.id, result)));
    return true;
  }

  Tenant* tenant = conn->tenant;
  const std::string& tenant_name = tenant->config.name;

  // Per-tenant admission quota, checked before the service's bounded
  // queue so one tenant cannot monopolize it.
  auto admit = [&]() -> bool {
    if (tenant->config.max_inflight > 0 &&
        tenant->inflight >= tenant->config.max_inflight) {
      metrics.GetCounter(QuotaMetric(tenant_name))->Increment();
      conn->out.append(EncodeFrame(EncodeErrorResponse(
          msg.id, msg.type,
          Status::ResourceExhausted(
              "tenant '" + tenant_name + "' is at its inflight quota (" +
              std::to_string(tenant->config.max_inflight) + ")"))));
      return false;
    }
    ++tenant->inflight;
    ++conn->inflight;
    return true;
  };

  switch (msg.type) {
    case MsgType::kHello: {
      conn->out.append(EncodeFrame(EncodeErrorResponse(
          msg.id, MsgType::kHello,
          Status::FailedPrecondition("connection already helloed"))));
      conn->closing = true;
      metrics.GetCounter("net/protocol_errors")->Increment();
      return true;
    }

    case MsgType::kLoadProgram: {
      if (msg.load.session.empty()) {
        conn->out.append(EncodeFrame(EncodeErrorResponse(
            msg.id, msg.type,
            Status::InvalidArgument("load_program needs a session name"))));
        return true;
      }
      if (!admit()) return true;
      // Bind the name now (poll thread owns the map); a failed load keeps
      // the binding and every later query reports the same error.
      tenant->sessions[msg.load.session] = msg.load.source;
      Request request;
      request.source = msg.load.source;
      request.tenant = tenant_name;
      request.load_only = true;
      const uint64_t conn_id = conn->id;
      const uint64_t id = msg.id;
      service_.Submit(std::move(request),
                      [this, conn_id, tenant, id](Response response) {
                        EncodeAndQueueReply(conn_id, tenant, [&] {
                          return EncodeLoadProgramResponse(id, response);
                        });
                      });
      return true;
    }

    case MsgType::kQuery:
    case MsgType::kExplain: {
      std::string source = msg.query.source;
      if (!msg.query.session.empty()) {
        auto it = tenant->sessions.find(msg.query.session);
        if (it == tenant->sessions.end()) {
          conn->out.append(EncodeFrame(EncodeErrorResponse(
              msg.id, msg.type,
              Status::FailedPrecondition("unknown session '" +
                                         msg.query.session + "'"))));
          return true;
        }
        source = it->second;
      }
      if (!admit()) return true;
      Request request;
      request.source = std::move(source);
      request.tenant = tenant_name;
      request.deadline_ms = msg.query.deadline_ms;
      request.trace = msg.query.trace;
      request.want_explain = msg.query.explain;
      // Session-addressed queries serve from the session's pinned
      // materialized view (snapshot-versioned answers that ApplyDelta
      // advances); inline one-shots evaluate against the base snapshot and
      // never build a view, so their sessions stay evictable.
      request.materialized = !msg.query.session.empty();
      const uint64_t conn_id = conn->id;
      const uint64_t id = msg.id;
      const MsgType type = msg.type;
      service_.Submit(std::move(request),
                      [this, conn_id, tenant, id, type](Response response) {
                        EncodeAndQueueReply(conn_id, tenant, [&] {
                          return EncodeQueryResponse(id, type, response);
                        });
                      });
      return true;
    }

    case MsgType::kApplyDelta: {
      auto it = tenant->sessions.find(msg.delta.session);
      if (it == tenant->sessions.end()) {
        conn->out.append(EncodeFrame(EncodeErrorResponse(
            msg.id, msg.type,
            Status::FailedPrecondition("unknown session '" +
                                       msg.delta.session + "'"))));
        return true;
      }
      FactDelta delta;
      Status parse = Status::Ok();
      for (const auto& [facts, into] :
           {std::pair<const std::vector<std::string>*, std::vector<Atom>*>(
                &msg.delta.inserts, &delta.inserts),
            std::pair<const std::vector<std::string>*, std::vector<Atom>*>(
                &msg.delta.deletes, &delta.deletes)}) {
        for (const std::string& text : *facts) {
          Result<Atom> atom = ParseAtomText(text);
          if (!atom.ok()) {
            parse = atom.status().WithContext("bad fact '" + text + "'");
            break;
          }
          into->push_back(std::move(atom).value());
        }
        if (!parse.ok()) break;
      }
      if (!parse.ok()) {
        conn->out.append(EncodeFrame(
            EncodeErrorResponse(msg.id, msg.type, parse)));
        return true;
      }
      if (!admit()) return true;
      DeltaRequest request;
      request.source = it->second;
      request.tenant = tenant_name;
      request.delta = std::move(delta);
      request.trace = msg.delta.trace;
      const uint64_t conn_id = conn->id;
      const uint64_t id = msg.id;
      service_.ApplyDelta(
          std::move(request),
          [this, conn_id, tenant, id](DeltaResponse response) {
            EncodeAndQueueReply(conn_id, tenant, [&] {
              return EncodeApplyDeltaResponse(id, response);
            });
          });
      return true;
    }

    case MsgType::kMetrics: {
      // Answered inline: the registry snapshot is thread-safe and cheap,
      // and metrics must stay readable even when the queue is full.
      conn->out.append(EncodeFrame(EncodeMetricsResponse(
          msg.id, ExportMetricsJson(metrics))));
      return true;
    }

    case MsgType::kClose: {
      conn->out.append(EncodeFrame(EncodeCloseResponse(msg.id)));
      conn->closing = true;
      return true;
    }
  }
  return true;
}

bool Server::HandleReadable(Connection* conn) {
  char buf[16 * 1024];
  while (true) {
    Result<int64_t> got = ReadSome(conn->fd.get(), buf, sizeof(buf));
    if (!got.ok()) return false;
    if (got.value() < 0) break;  // drained the socket
    if (got.value() == 0) {
      // EOF. Anything buffered is an incomplete frame; drop it.
      return false;
    }
    conn->reader.Append(buf, static_cast<size_t>(got.value()));
    metrics().GetCounter("net/bytes_in")->Add(got.value());
    if (static_cast<size_t>(got.value()) < sizeof(buf)) break;
  }

  std::string payload;
  while (!conn->closing) {
    Result<bool> next = conn->reader.Next(&payload);
    if (!next.ok()) {
      // Malformed or oversize frame: the stream cannot be resynced. Tell
      // the client why (best effort) and close.
      metrics().GetCounter("net/protocol_errors")->Increment();
      conn->out.append(EncodeFrame(
          EncodeErrorResponse(0, MsgType::kClose, next.status())));
      conn->closing = true;
      return true;  // lingers to flush the error, then closes
    }
    if (!next.value()) break;
    metrics().GetCounter("net/frames_in")->Increment();
    const int64_t start = NowNs();
    Result<ClientMessage> msg = DecodeClientMessage(payload);
    metrics().GetHistogram("net/decode_request_ns")->Record(NowNs() - start);
    if (!msg.ok()) {
      metrics().GetCounter("net/protocol_errors")->Increment();
      conn->out.append(EncodeFrame(
          EncodeErrorResponse(0, MsgType::kClose, msg.status())));
      conn->closing = true;
      break;
    }
    if (!HandleMessage(conn, msg.value())) return false;
  }
  return true;
}

void Server::PollLoop() {
  std::vector<pollfd> fds;
  std::vector<uint64_t> fd_conn_ids;
  bool drained = false;

  while (true) {
    ApplyPendingReplies();

    if (stop_requested_) break;

    if (draining_) {
      listener_.Reset();  // stop accepting
      // Close every connection that has nothing left to say. Flush first:
      // replies applied above may complete a connection this iteration.
      std::vector<uint64_t> done;
      for (auto& [id, conn] : conns_) {
        if (!FlushWrites(conn.get())) {
          done.push_back(id);
          continue;
        }
        if (conn->inflight == 0 && conn->out.empty()) done.push_back(id);
      }
      for (uint64_t id : done) CloseConnection(id);
      if (conns_.empty()) {
        drained = true;
        break;
      }
    }

    fds.clear();
    fd_conn_ids.clear();
    fds.push_back(pollfd{wake_read_.get(), POLLIN, 0});
    fd_conn_ids.push_back(0);
    if (listener_.valid()) {
      fds.push_back(pollfd{listener_.get(), POLLIN, 0});
      fd_conn_ids.push_back(0);
    }
    for (auto& [id, conn] : conns_) {
      short events = 0;
      // A draining server reads nothing new; a closing connection only
      // flushes. POLLERR/POLLHUP are always reported.
      if (!draining_ && !conn->closing) events |= POLLIN;
      if (conn->out_pos < conn->out.size() || !conn->out.empty()) {
        events |= POLLOUT;
      }
      fds.push_back(pollfd{conn->fd.get(), events, 0});
      fd_conn_ids.push_back(id);
    }

    int ready;
    do {
      ready = ::poll(fds.data(), fds.size(), -1);
    } while (ready < 0 && errno == EINTR);
    if (ready < 0) break;  // unrecoverable poll failure

    // Wake pipe first: it may carry stop/drain commands that change how
    // the rest of this iteration proceeds.
    if (fds[0].revents & POLLIN) {
      char cmds[256];
      while (true) {
        const ssize_t n = ::read(wake_read_.get(), cmds, sizeof(cmds));
        if (n <= 0) break;
        for (ssize_t i = 0; i < n; ++i) {
          if (cmds[i] == kWakeDrain) draining_ = true;
          if (cmds[i] == kWakeStop) stop_requested_ = true;
        }
      }
    }
    if (stop_requested_) break;

    size_t index = 1;
    if (listener_.valid()) {
      if (fds[index].revents & POLLIN) AcceptPending();
      ++index;
    }

    std::vector<uint64_t> to_close;
    for (; index < fds.size(); ++index) {
      const uint64_t conn_id = fd_conn_ids[index];
      auto it = conns_.find(conn_id);
      if (it == conns_.end()) continue;
      Connection* conn = it->second.get();
      const short revents = fds[index].revents;
      if (revents & (POLLERR | POLLNVAL)) {
        to_close.push_back(conn_id);
        continue;
      }
      if ((revents & POLLIN) && !HandleReadable(conn)) {
        to_close.push_back(conn_id);
        continue;
      }
      if ((revents & POLLHUP) && conn->out_pos >= conn->out.size()) {
        // Peer hung up and nothing is left to flush toward it.
        to_close.push_back(conn_id);
        continue;
      }
      if (!conn->out.empty() && !FlushWrites(conn)) {
        to_close.push_back(conn_id);
        continue;
      }
    }
    for (uint64_t id : to_close) CloseConnection(id);
  }

  listener_.Reset();
  while (!conns_.empty()) CloseConnection(conns_.begin()->first);
  // Drain the service after the transport: in-flight requests complete
  // (their replies were flushed above in the drain case) and the pool
  // joins. Late callbacks just queue replies nobody routes.
  service_.Shutdown();
  ApplyPendingReplies();  // release tenant quota bookkeeping
  if (drained) FlushDrainLog();
}

void Server::FlushDrainLog() {
  std::string out;
  for (const LogEvent& event : service_.event_log().Events()) {
    out += LogEventToJson(event);
    out += '\n';
  }
  if (options_.drain_log_path.empty()) {
    if (!out.empty()) {
      [[maybe_unused]] ssize_t n = ::write(2, out.data(), out.size());
    }
    return;
  }
  const int fd = ::open(options_.drain_log_path.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  [[maybe_unused]] ssize_t n = ::write(fd, out.data(), out.size());
  ::close(fd);
}

}  // namespace sqod
