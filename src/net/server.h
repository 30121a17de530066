#ifndef SQOD_NET_SERVER_H_
#define SQOD_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/net/socket.h"
#include "src/proto/proto.h"
#include "src/service/query_service.h"

namespace sqod {

// The network front-end over QueryService: one poll(2) thread owns the
// listener, the per-connection read/write buffers, and all protocol state;
// evaluation runs on the service's worker pool. The transport never blocks
// on a query: a dispatched request carries a completion callback that
// encodes the reply on the worker thread, queues the frame, and wakes the
// poll thread through a self-pipe to flush it. Responses therefore go out
// in completion order (the protocol's id field is the correlation key).
//
// Multi-tenancy: each configured tenant authenticates with its token in
// the hello message and gets (a) its own Engine session namespace — two
// tenants loading byte-identical programs share nothing, (b) an inflight
// admission quota checked before the service's bounded queue, with
// rejections visible as tenant/<name>/quota_rejected, and (c) per-tenant
// request/latency series next to the service-wide ones. With no tenants
// configured the server is open: every token resolves to "default".
//
// Named sessions: LoadProgram binds a tenant-scoped name to a program
// source (and warms its prepared plan); queries and delta batches then
// address the name. Session-addressed queries serve from the session's
// pinned materialized view, so every reply carries the view's snapshot
// version and ApplyDelta advances it monotonically. Inline queries never
// build a view.
//
// Graceful drain (RequestDrain, wired to SIGTERM by sqo_server): stop
// accepting, stop reading new frames, let in-flight requests finish and
// flush their replies, close the connections, then shut the service down.
// No accepted request goes unanswered.

struct TenantConfig {
  std::string name;   // metric prefix component; no '\x1f', non-empty
  std::string token;  // hello credential; must be unique across tenants
  // Admission quota: maximum requests in flight (dispatched, reply not yet
  // queued) across all of this tenant's connections. 0 = unlimited.
  int max_inflight = 0;
};

struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; resolved port via Server::port()
  int backlog = 64;
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  std::string server_name = "sqo_server";
  // Tenant table; empty = open access (any token -> tenant "default",
  // no quota).
  std::vector<TenantConfig> tenants;
  // The service underneath (worker threads, admission queue, slow-query
  // log, metrics snapshot cadence).
  ServiceOptions service;
  // Where a graceful drain writes the retained event log (slow queries,
  // errors, metric snapshots), one JSON object per line. "" = stderr.
  std::string drain_log_path;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();  // implies Stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Validates the tenant table, binds, listens, and starts the poll
  // thread. Fails with kInvalidArgument on a bad tenant table and
  // kInternal on socket errors.
  Status Start();

  // Hard stop: abandon open connections, drain the service, join. Replies
  // still in flight are discarded. Idempotent.
  void Stop();

  // Begin a graceful drain. Async-signal-safe (one write to the wake
  // pipe): callable straight from a SIGTERM handler. Wait() returns once
  // every in-flight request has been answered and the log flushed.
  void RequestDrain();

  // Blocks until the poll thread exits (after Stop or a completed drain).
  void Wait();

  // The bound port (useful with port 0).
  uint16_t port() const { return port_; }

  QueryService& service() { return service_; }
  MetricsRegistry& metrics() { return service_.metrics(); }

  // Currently open connections (tests, stats).
  size_t open_connections() const {
    return open_connections_.load(std::memory_order_relaxed);
  }

 private:
  struct Tenant {
    TenantConfig config;
    // Requests dispatched into the service whose replies have not yet been
    // queued for write. Only the poll thread mutates it (dispatch and
    // reply application both happen there), so a plain int suffices.
    int inflight = 0;
    // Named sessions: name -> program source. Poll thread only.
    std::unordered_map<std::string, std::string> sessions;
  };

  struct Connection {
    UniqueFd fd;
    uint64_t id = 0;
    FrameReader reader;
    std::string out;       // encoded frames awaiting write
    size_t out_pos = 0;    // written prefix of `out`
    Tenant* tenant = nullptr;  // set by a successful hello
    int inflight = 0;      // dispatched, reply not yet queued
    bool closing = false;  // close once `out` flushes

    explicit Connection(size_t max_frame_bytes)
        : reader(max_frame_bytes) {}
  };

  // A completed request's encoded reply, queued by a worker thread for the
  // poll thread to route to its connection (dropped if it closed).
  struct PendingReply {
    uint64_t conn_id = 0;
    Tenant* tenant = nullptr;  // quota release, even if the conn is gone
    std::string frame;
  };

  void PollLoop();
  void AcceptPending();
  void ApplyPendingReplies();
  // Reads, frames, and dispatches everything available on `conn`. Returns
  // false when the connection must close (EOF, error, protocol violation).
  bool HandleReadable(Connection* conn);
  bool FlushWrites(Connection* conn);
  // Dispatches one decoded message; appends any immediate reply to
  // conn->out. Returns false to close the connection.
  bool HandleMessage(Connection* conn, const ClientMessage& msg);
  void QueueReply(uint64_t conn_id, Tenant* tenant, std::string frame);
  // Worker-side completion: encodes and frames a reply, records
  // net/encode_reply_ns and net/reply_bytes, then queues it.
  void EncodeAndQueueReply(uint64_t conn_id, Tenant* tenant,
                           const std::function<std::string()>& encode);
  void WakePoll(char byte);
  void CloseConnection(uint64_t conn_id);
  void FlushDrainLog();
  Tenant* ResolveToken(const std::string& token);

  ServerOptions options_;
  QueryService service_;

  UniqueFd listener_;
  UniqueFd wake_read_;
  UniqueFd wake_write_;
  std::atomic<uint16_t> port_{0};

  std::thread poll_thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};

  // Poll-thread state (no locks: only PollLoop and its callees touch it).
  bool draining_ = false;
  bool stop_requested_ = false;
  uint64_t next_conn_id_ = 1;
  std::map<uint64_t, std::unique_ptr<Connection>> conns_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::unordered_map<std::string, Tenant*> by_token_;

  std::atomic<size_t> open_connections_{0};

  std::mutex join_mu_;  // serializes Wait()/Stop() joining the poll thread

  std::mutex replies_mu_;
  std::vector<PendingReply> pending_replies_;
};

}  // namespace sqod

#endif  // SQOD_NET_SERVER_H_
