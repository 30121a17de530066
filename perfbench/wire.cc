// The wire side of the benchmark: the sqo_server child process, the timed
// closed loop over src/net Clients, reply checking, and the concurrency-1
// pass the traced run compares against.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "perfbench/bench.h"
#include "src/engine/engine.h"
#include "src/obs/trace.h"

namespace perfbench {

using namespace sqod;

// ------------------------------------------------------------------ server

std::unique_ptr<ServerProcess> ServerProcess::Start(
    const std::string& binary, const std::vector<std::string>& flags,
    const std::string& log_path, std::string* error) {
  int out[2];
  if (pipe(out) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return nullptr;
  }
  const int log_fd =
      open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    *error = "cannot open " + log_path + ": " + std::strerror(errno);
    close(out[0]);
    close(out[1]);
    return nullptr;
  }
  std::vector<std::string> args = {binary};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = fork();
  if (pid == 0) {
    // The server must not outlive the load generator.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    dup2(out[1], STDOUT_FILENO);
    dup2(log_fd, STDERR_FILENO);
    close(out[0]);
    close(out[1]);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(out[1]);
  close(log_fd);
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    close(out[0]);
    return nullptr;
  }
  std::unique_ptr<ServerProcess> server(new ServerProcess());
  server->pid_ = pid;
  server->stdout_fd_ = out[0];

  // Read the announce line: "listening on port N".
  std::string line;
  const int64_t deadline = NowNs() + 30'000'000'000;
  while (line.find('\n') == std::string::npos) {
    const int64_t left_ms = (deadline - NowNs()) / 1'000'000;
    pollfd p = {server->stdout_fd_, POLLIN, 0};
    if (left_ms <= 0 || poll(&p, 1, static_cast<int>(left_ms)) <= 0) {
      *error = "server did not announce its port";
      return nullptr;
    }
    char buf[256];
    const ssize_t got = read(server->stdout_fd_, buf, sizeof(buf));
    if (got <= 0) {
      *error = "server exited before announcing its port (see " + log_path +
               ")";
      return nullptr;
    }
    line.append(buf, static_cast<size_t>(got));
  }
  unsigned port = 0;
  if (std::sscanf(line.c_str(), "listening on port %u", &port) != 1 ||
      port == 0 || port > 65535) {
    *error = "unexpected server announce: " + line;
    return nullptr;
  }
  server->port_ = static_cast<uint16_t>(port);
  return server;
}

ServerProcess::~ServerProcess() { Stop(); }

bool ServerProcess::Stop() {
  if (pid_ > 0) {
    kill(pid_, SIGTERM);
    int status = 0;
    const int64_t deadline = NowNs() + 20'000'000'000;
    pid_t done = 0;
    while ((done = waitpid(pid_, &status, WNOHANG)) == 0 &&
           NowNs() < deadline) {
      usleep(2000);
    }
    if (done == 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
    } else {
      exited_ok_ = done == pid_ && WIFEXITED(status) &&
                   WEXITSTATUS(status) == 0;
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    close(stdout_fd_);
    stdout_fd_ = -1;
  }
  return exited_ok_;
}

double ServerProcess::CpuMs() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields overall.
  const size_t close_paren = stat.rfind(')');
  if (close_paren == std::string::npos) return 0;
  std::istringstream fields(stat.substr(close_paren + 2));
  std::string field;
  double utime = 0;
  double stime = 0;
  for (int i = 3; i <= 15 && (fields >> field); ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  return (utime + stime) * 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

int64_t ServerProcess::StatusKb(const char* key) const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  const size_t key_len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0 && line.size() > key_len &&
        line[key_len] == ':') {
      return std::stoll(line.substr(key_len + 1));
    }
  }
  return 0;
}

int64_t ServerProcess::RssKb() const { return StatusKb("VmRSS"); }
int64_t ServerProcess::PeakRssKb() const { return StatusKb("VmHWM"); }

double ProcessCpuMs() {
  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

// ------------------------------------------------------------------ checks

void LoadResult::Fail(const std::string& what) {
  ++failed;
  if (errors.size() < 8) errors.push_back(what);
}

void LoadResult::Merge(LoadResult&& other) {
  auto append = [](std::vector<double>* to, std::vector<double>* from) {
    to->insert(to->end(), from->begin(), from->end());
  };
  append(&query_ms, &other.query_ms);
  append(&delta_ms, &other.delta_ms);
  append(&queue_wait_ms, &other.queue_wait_ms);
  attempted += other.attempted;
  succeeded += other.succeeded;
  failed += other.failed;
  for (std::string& e : other.errors) {
    if (errors.size() < 8) errors.push_back(std::move(e));
  }
}

namespace {

// Checks a query reply against its oracle; "" when it matches.
std::string CheckAnswers(const Result<Response>& reply,
                         const Expected& expected) {
  if (!reply.ok()) return "transport: " + reply.status().message();
  const Response& r = reply.value();
  if (!r.status.ok()) {
    return std::string(StatusCodeName(r.status.code())) + ": " +
           r.status.message();
  }
  if (static_cast<int64_t>(r.answers.size()) != expected.count ||
      AnswerDigest(r.answers) != expected.digest) {
    return "wrong answers (digest mismatch): got " +
           std::to_string(r.answers.size()) + " tuples, expected " +
           std::to_string(expected.count);
  }
  return "";
}

std::string CheckDelta(const Result<DeltaResponse>& reply,
                       int64_t expected_version) {
  if (!reply.ok()) return "transport: " + reply.status().message();
  const DeltaResponse& r = reply.value();
  if (!r.status.ok()) {
    return std::string(StatusCodeName(r.status.code())) + ": " +
           r.status.message();
  }
  if (r.snapshot_version != expected_version) {
    return "delta version " + std::to_string(r.snapshot_version) +
           ", expected " + std::to_string(expected_version);
  }
  return "";
}

// Reads a session through its view; checks the version is at least
// `min_version` and the answers match `expected`, or by default the oracle
// of the version served.
std::string ReadSession(Client* client, const ViewSession& s,
                        int64_t min_version, int64_t* version,
                        Result<Response>* reply_out = nullptr,
                        const Expected* expected = nullptr) {
  QueryParams params;
  params.session = s.name;
  Result<Response> reply = client->Query(params);
  if (!reply.ok()) return "transport: " + reply.status().message();
  const Response& r = reply.value();
  if (r.status.ok() && r.snapshot_version < min_version) {
    return "snapshot version went back from " + std::to_string(min_version) +
           " to " + std::to_string(r.snapshot_version);
  }
  std::string bad = CheckAnswers(
      reply, expected != nullptr ? *expected : s.ExpectedAt(r.snapshot_version));
  *version = r.snapshot_version;
  if (reply_out != nullptr) *reply_out = std::move(reply);
  return bad;
}

Result<DeltaResponse> SendBatch(Client* client, const ViewSession& s,
                                int64_t index) {
  const Batch& batch = s.BatchFor(index);
  return client->ApplyDelta(s.name, batch.inserts, batch.deletes);
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

// ------------------------------------------------------------------ phases

bool Warm(const Workload& w, std::vector<Client>* clients, ChurnState* churn,
          std::string* error) {
  Client& client = (*clients)[0];
  churn->batches.assign(w.sessions.size(), 0);
  churn->tracked.clear();
  for (const ViewSession& s : w.sessions) {
    Result<Response> loaded = client.LoadProgram(s.name, s.source);
    if (!loaded.ok() || !loaded.value().status.ok()) {
      *error = "load_program " + s.name + " failed";
      return false;
    }
    int64_t version = -1;
    std::string bad = ReadSession(&client, s, 0, &version);
    if (!bad.empty() || version != 0) {
      *error = "materializing " + s.name + ": " + bad;
      return false;
    }
    Engine engine;
    churn->tracked.push_back(engine.Open(s.source).value().MakeEdb());
  }
  if (w.kind == Kind::kOneshotEval) {
    for (const Unit& unit : w.units) {
      QueryParams params;
      params.source = unit.source;
      std::string bad = CheckAnswers(client.Query(params), unit.expected);
      if (!bad.empty()) {
        *error = "warming " + unit.family + ": " + bad;
        return false;
      }
    }
  }
  return true;
}

LoadResult RunLoad(const Workload& w, std::vector<Client>* clients,
                   const ServerProcess& server, double seconds,
                   ChurnState* churn) {
  std::vector<LoadResult> per_conn(clients->size());
  std::atomic<int64_t> next_unit{0};
  std::atomic<int64_t> completed{0};
  std::atomic<int> finished{0};
  std::atomic<bool> go{false};
  int64_t deadline = 0;

  auto run = [&](int c) {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    Client& client = (*clients)[static_cast<size_t>(c)];
    LoadResult& out = per_conn[static_cast<size_t>(c)];
    // view-churn: connection s < #sessions writes session s, the others
    // read; each writer stops only after an inverse batch, so every
    // session ends the phase at its base facts.
    const bool writer =
        w.kind == Kind::kViewChurn && c < static_cast<int>(w.sessions.size());
    std::vector<int64_t> seen(w.sessions.size(), 0);
    for (int64_t i = 0;; ++i) {
      std::string bad;
      bool fatal = false;  // the connection or the batch sequence is broken
      const int64_t t0 = NowNs();
      if (w.kind != Kind::kViewChurn) {
        // cold-optimize sends each unit once; oneshot-eval draws from the
        // pool.
        const Unit* unit = nullptr;
        if (w.kind == Kind::kColdOptimize) {
          const int64_t u = next_unit.fetch_add(1);
          if (u >= static_cast<int64_t>(w.units.size())) break;
          unit = &w.units[static_cast<size_t>(u)];
        } else {
          unit = &w.units[static_cast<size_t>(
              Pick(w.seed, c, i, static_cast<int>(w.units.size())))];
        }
        if (NowNs() > deadline) break;
        QueryParams params;
        params.source = unit->source;
        ++out.attempted;
        const int64_t sent_ns = NowNs();
        Result<Response> reply = client.Query(params);
        const int64_t t1 = NowNs();
        bad = CheckAnswers(reply, unit->expected);
        if (!bad.empty()) bad = unit->family + ": " + bad;
        fatal = !reply.ok();
        if (bad.empty()) {
          out.query_ms.push_back(Ms(t1 - sent_ns));
          out.queue_wait_ms.push_back(Ms(reply.value().queue_wait_ns));
        }
      } else if (writer) {
        const size_t s = static_cast<size_t>(c);
        int64_t& sent = churn->batches[s];
        if (NowNs() > deadline && sent % 2 == 0) break;
        const ViewSession& session = w.sessions[s];
        ++out.attempted;
        Result<DeltaResponse> reply = SendBatch(&client, session, sent);
        const int64_t t1 = NowNs();
        bad = CheckDelta(reply, sent + 1);
        if (!bad.empty()) {
          bad = session.name + " delta: " + bad;
          fatal = true;
        } else {
          ApplyBatchText(session.BatchFor(sent), &churn->tracked[s]);
          ++sent;
          out.delta_ms.push_back(Ms(t1 - t0));
          out.queue_wait_ms.push_back(Ms(reply.value().queue_wait_ns));
        }
      } else {
        if (NowNs() > deadline) break;
        const size_t s = static_cast<size_t>(
            Pick(w.seed, c, i, static_cast<int>(w.sessions.size())));
        int64_t version = -1;
        Result<Response> reply = Status::Internal("not sent");
        ++out.attempted;
        bad = ReadSession(&client, w.sessions[s], seen[s], &version, &reply);
        const int64_t t1 = NowNs();
        if (!bad.empty()) {
          bad = w.sessions[s].name + " read: " + bad;
          fatal = !reply.ok();
        } else {
          seen[s] = version;
          out.query_ms.push_back(Ms(t1 - t0));
          out.queue_wait_ms.push_back(Ms(reply.value().queue_wait_ns));
        }
      }
      if (!bad.empty()) {
        out.Fail(bad);
        if (fatal) break;
        continue;
      }
      ++out.succeeded;
      completed.fetch_add(1, std::memory_order_relaxed);
    }
    finished.fetch_add(1, std::memory_order_release);
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < static_cast<int>(clients->size()); ++c) {
    threads.emplace_back(run, c);
  }
  LoadResult result;
  LoadResult::Window window;
  auto sample = [&](int64_t now) {
    window.seconds = static_cast<double>(now) / 1e9;
    window.ops = static_cast<double>(completed.load(std::memory_order_relaxed));
    window.server_cpu_ms = server.CpuMs();
    window.client_cpu_ms = ProcessCpuMs();
    return window;
  };
  const int64_t start = NowNs();
  const LoadResult::Window first = sample(start);
  // cold-optimize is bounded by its unit count; the deadline is a guard.
  deadline = start + static_cast<int64_t>(
                         (w.kind == Kind::kColdOptimize ? 6 * seconds + 60
                                                        : seconds) *
                         1e9);
  go.store(true, std::memory_order_release);
  // Sample the counters once per window while the connections run; the
  // final, partial window is left out of the window medians.
  LoadResult::Window prev = first;
  int64_t next = start + kWindowNs;
  while (finished.load(std::memory_order_acquire) <
         static_cast<int>(threads.size())) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const int64_t now = NowNs();
    if (now < next) continue;
    const LoadResult::Window cur = sample(now);
    result.windows.push_back({cur.seconds - prev.seconds, cur.ops - prev.ops,
                              cur.server_cpu_ms - prev.server_cpu_ms,
                              cur.client_cpu_ms - prev.client_cpu_ms});
    prev = cur;
    next += kWindowNs;
  }
  for (std::thread& t : threads) t.join();
  const LoadResult::Window last = sample(NowNs());

  result.wall_s = last.seconds - first.seconds;
  result.server_cpu_ms = last.server_cpu_ms - first.server_cpu_ms;
  result.client_cpu_ms = last.client_cpu_ms - first.client_cpu_ms;
  for (LoadResult& r : per_conn) result.Merge(std::move(r));
  if (w.kind == Kind::kColdOptimize &&
      next_unit.load() < static_cast<int64_t>(w.units.size())) {
    result.Fail("cold-optimize: deadline passed before every unit was sent");
  }
  return result;
}

void Quiesce(const Workload& w, Client* client, const ChurnState& churn,
             LoadResult* result) {
  Engine engine;
  for (size_t s = 0; s < w.sessions.size(); ++s) {
    const ViewSession& session = w.sessions[s];
    ++result->attempted;
    int64_t version = -1;
    Result<Response> reply = Status::Internal("not sent");
    std::string bad = ReadSession(client, session, churn.batches[s], &version,
                                  &reply);
    if (bad.empty() && version != churn.batches[s]) {
      bad = "quiesced version " + std::to_string(version) + ", expected " +
            std::to_string(churn.batches[s]);
    }
    if (bad.empty()) {
      // An oracle independent of the precomputed digests: the original
      // program evaluated on the EDB the generator tracked batch by batch.
      Result<Session> oracle = engine.Open(session.source);
      Result<std::vector<Tuple>> want =
          oracle.value().ExecuteOriginal(churn.tracked[s]);
      if (!want.ok() ||
          AnswerDigest(want.value()) != AnswerDigest(reply.value().answers)) {
        bad = "view differs from the original program on the tracked EDB";
      }
    }
    if (!bad.empty()) {
      result->Fail(session.name + " quiesce: " + bad);
    } else {
      ++result->succeeded;
    }
  }
}

std::vector<SampleOp> MakeSample(const Workload& w) {
  std::vector<SampleOp> sample;
  switch (w.kind) {
    case Kind::kColdOptimize:
      for (const Unit& unit : w.sample_units) {
        SampleOp op;
        op.unit = &unit;
        sample.push_back(op);
      }
      break;
    case Kind::kOneshotEval: {
      const int n = static_cast<int>(w.units.size());
      for (int64_t i = 0; i < 10 * n; ++i) {
        SampleOp op;
        op.unit = &w.units[static_cast<size_t>(Pick(w.seed, kSampleStream, i, n))];
        sample.push_back(op);
      }
      break;
    }
    case Kind::kViewChurn:
      // Per session: every forward/inverse pair once, each batch followed
      // by a read. The batch index is the pair sequence's own, not the
      // view's version, so the sample is the same whatever the loaded phase
      // did.
      for (size_t s = 0; s < w.sessions.size(); ++s) {
        const int64_t batches = 2 * static_cast<int64_t>(w.sessions[s].forward.size());
        for (int64_t b = 0; b < batches; ++b) {
          SampleOp write;
          write.type = SampleOp::Type::kWrite;
          write.session = static_cast<int>(s);
          write.batch = b;
          sample.push_back(write);
          SampleOp read;
          read.type = SampleOp::Type::kRead;
          read.session = static_cast<int>(s);
          sample.push_back(read);
        }
      }
      break;
  }
  return sample;
}

std::vector<double> WirePass(const Workload& w,
                             const std::vector<SampleOp>& sample,
                             Client* client, ChurnState* churn,
                             LoadResult* result) {
  std::vector<double> rt_us;
  // Per session, the sample batches applied so far in this pass: every
  // pass starts, and the loaded phase ended, at the base facts.
  std::vector<int64_t> applied(w.sessions.size(), 0);
  for (const SampleOp& op : sample) {
    ++result->attempted;
    std::string bad;
    const int64_t t0 = NowNs();
    if (op.type == SampleOp::Type::kInline) {
      QueryParams params;
      params.source = op.unit->source;
      Result<Response> reply = client->Query(params);
      rt_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      bad = CheckAnswers(reply, op.unit->expected);
    } else {
      const size_t s = static_cast<size_t>(op.session);
      const ViewSession& session = w.sessions[s];
      if (op.type == SampleOp::Type::kWrite) {
        Result<DeltaResponse> reply = SendBatch(client, session, op.batch);
        rt_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
        bad = CheckDelta(reply, churn->batches[s] + 1);
        if (bad.empty()) {
          ApplyBatchText(session.BatchFor(op.batch), &churn->tracked[s]);
          ++churn->batches[s];
          applied[s] = op.batch + 1;
        }
      } else {
        int64_t version = -1;
        bad = ReadSession(client, session, churn->batches[s], &version, nullptr,
                          &session.ExpectedAt(applied[s]));
        rt_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      }
    }
    if (bad.empty()) {
      ++result->succeeded;
    } else {
      result->Fail("traced wire pass: " + bad);
    }
  }
  return rt_us;
}

}  // namespace perfbench
