#ifndef SQOD_PERFBENCH_BENCH_H_
#define SQOD_PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/eval/database.h"
#include "src/eval/tuple.h"
#include "src/net/client.h"

namespace perfbench {

using sqod::Tuple;

// ------------------------------------------------------------------ basics

// Order-sensitive digest of a sorted answer list. Hashes integer values and
// symbol names, never interned ids, so it is stable across processes.
uint64_t AnswerDigest(const std::vector<Tuple>& answers);

// FNV-1a over bytes, chained from `h`.
uint64_t Fnv(const std::string& bytes, uint64_t h = 1469598103934665603ull);

std::string Hex(uint64_t v);

// The expected result of one query: digest and size of the sorted answers.
struct Expected {
  uint64_t digest = 0;
  int64_t count = 0;
};

// ---------------------------------------------------------------- workloads

enum class Kind { kColdOptimize, kOneshotEval, kViewChurn };

// cold-optimize sends a fixed number of distinct units per run, so the
// server's retained memory (sessions are never evicted) compares across
// commits; it takes about 7 s on a 4-CPU host. More go to the traced run.
inline constexpr int64_t kColdUnits = 10000;
inline constexpr int64_t kColdSampleUnits = 64;

// One inline datalog unit: the source text sent on the wire (rules, ICs,
// facts, query) and the answers the unoptimized program gives on its facts.
struct Unit {
  std::string family;
  std::string source;
  Expected expected;
};

// One EDB delta batch, facts in source syntax.
struct Batch {
  std::vector<std::string> inserts;
  std::vector<std::string> deletes;
};

// A named session of view-churn. Its writer sends forward[0], backward[0],
// forward[1], backward[1], ... cyclically; backward[k] undoes forward[k].
// Snapshot version v therefore holds the base facts when v is even and
// base + forward[((v - 1) / 2) % K] when v is odd.
struct ViewSession {
  std::string name;
  std::string source;
  std::vector<Batch> forward;
  std::vector<Batch> backward;
  Expected base;                         // expected answers, even versions
  std::vector<Expected> after_forward;   // expected answers after forward[k]

  const Batch& BatchFor(int64_t index) const;  // the index-th batch sent
  const Expected& ExpectedAt(int64_t version) const;
};

struct Workload {
  Kind kind = Kind::kColdOptimize;
  std::string name;
  // cold-optimize: the distinct units sent in the timed phase, in order.
  // oneshot-eval: the warmed pool.
  std::vector<Unit> units;
  // cold-optimize only: further distinct units for the traced run, never
  // sent in the timed phase (a second send would hit the prepare cache).
  std::vector<Unit> sample_units;
  std::vector<ViewSession> sessions;  // view-churn
  uint64_t seed = 0;
};

// Parses the workload name; false when unknown.
bool ParseKind(const std::string& name, Kind* kind);

// Builds the workload's inputs from the seed (oracles not yet filled in).
// `small` shrinks every size for the self-test; `cold_units` is the number
// of distinct units cold-optimize sends.
Workload MakeWorkload(Kind kind, uint64_t seed, bool small,
                      int64_t cold_units);

// Fills every Expected of `w` by evaluating the original (unoptimized)
// program in-process with Session::ExecuteOriginal. Part of set-up.
void ComputeOracles(Workload* w);

// Applies a batch's deletes, then its inserts, to `db`.
void ApplyBatchText(const Batch& batch, sqod::Database* db);

// Pick streams for oneshot-eval (pool index) and view-churn readers
// (session index): pick i of `stream` in [0, n), fixed by the seed. Each
// connection is one stream; the traced sample is another.
int Pick(uint64_t seed, int stream, int64_t i, int n);
inline constexpr int kSampleStream = 1000;

// Digest of the operation sequence the workload's connections issue: the
// sources, the delta batches, and the first picks of every connection.
uint64_t OpSequenceDigest(const Workload& w, int connections);

// ------------------------------------------------------------ measurements

double Median(std::vector<double> values);  // 0 when empty

// A latency sample set with the reporting rule of the benchmark: the median,
// and the 99th percentile when at least 10 samples lie beyond it, else the
// highest percentile that has 10 beyond it.
struct Tail {
  double p50 = 0;
  double high = 0;
  double high_pct = 0;  // which percentile `high` is
  int64_t samples = 0;
};
Tail Summarize(std::vector<double> values);

// One named metric of a report.
struct Metric {
  double value = 0;
  std::string unit;
  std::string note;  // sample count or "n/a" explanation, for humans
};
using Metrics = std::map<std::string, Metric>;

// ------------------------------------------------------------------ server

// The shipped sqo_server as a child process of the load generator.
class ServerProcess {
 public:
  // Starts `binary` with `flags` (stderr to `log_path`) and waits for its
  // "listening on port N" line. Null on failure, with the reason in *error.
  static std::unique_ptr<ServerProcess> Start(
      const std::string& binary, const std::vector<std::string>& flags,
      const std::string& log_path, std::string* error);

  ~ServerProcess();  // Stop()
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }

  // SIGTERM (a graceful drain), then waits; SIGKILL if it has not exited
  // after 20 s. True when the server exited with status 0. Idempotent.
  bool Stop();

  double CpuMs() const;        // utime + stime so far (/proc/<pid>/stat)
  int64_t RssKb() const;       // VmRSS
  int64_t PeakRssKb() const;   // VmHWM

 private:
  ServerProcess() = default;
  int64_t StatusKb(const char* key) const;

  int pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
  bool exited_ok_ = false;
};

// This process's user + system CPU time (getrusage).
double ProcessCpuMs();

// ------------------------------------------------------------------ phases

inline constexpr int kConnections = 4;
inline constexpr int64_t kWindowNs = 1'000'000'000;

// One operation of the traced sample, replayed both over the wire at
// concurrency 1 and in-process.
struct SampleOp {
  enum class Type { kInline, kRead, kWrite };
  Type type = Type::kInline;
  const Unit* unit = nullptr;  // kInline
  int session = -1;            // kRead / kWrite
  int64_t batch = -1;          // kWrite: index into the pair sequence
};

// View-churn progress, carried from the loaded phase into the quiesce check
// and the traced run: per session, the batches applied so far (which is
// the view's snapshot version) and the EDB the generator tracked.
struct ChurnState {
  std::vector<int64_t> batches;
  std::vector<sqod::Database> tracked;
};

struct LoadResult {
  std::vector<double> query_ms;
  std::vector<double> delta_ms;
  std::vector<double> queue_wait_ms;
  int64_t attempted = 0;
  int64_t succeeded = 0;
  int64_t failed = 0;
  double wall_s = 0;
  double server_cpu_ms = 0;
  double client_cpu_ms = 0;
  // The timed phase cut into windows of kWindowNs: ops completed and CPU
  // spent in each. Throughput and CPU per op are reported as medians over
  // the windows, so a burst of load from outside the benchmark moves them
  // less than a whole-phase average.
  struct Window {
    double seconds = 0;
    double ops = 0;
    double server_cpu_ms = 0;
    double client_cpu_ms = 0;
  };
  std::vector<Window> windows;
  std::vector<std::string> errors;  // the first few failures, for humans

  void Fail(const std::string& what);
  void Merge(LoadResult&& other);
};

// Brings a fresh server to warm state over `clients`: loads and
// materializes view-churn's sessions, or sends every oneshot-eval pool unit
// once. Answers are checked when `w` carries oracles.
bool Warm(const Workload& w, std::vector<sqod::Client>* clients,
          ChurnState* churn, std::string* error);

// The timed closed loop: one thread per client, one request outstanding
// each, for `seconds` (cold-optimize: until every unit was sent once).
// Every reply is checked against the oracles.
LoadResult RunLoad(const Workload& w, std::vector<sqod::Client>* clients,
                   const ServerProcess& server, double seconds,
                   ChurnState* churn);

// After the loaded phase: reads every view-churn session and compares it
// with the oracle for its version and with ExecuteOriginal on the tracked
// EDB. A no-op for the inline workloads.
void Quiesce(const Workload& w, sqod::Client* client, const ChurnState& churn,
             LoadResult* result);

// The traced run's sample, fixed by the seed.
std::vector<SampleOp> MakeSample(const Workload& w);

// Sends the sample one op at a time and returns each op's round trip in
// microseconds. Replies are checked; failures land in `result`.
std::vector<double> WirePass(const Workload& w,
                             const std::vector<SampleOp>& sample,
                             sqod::Client* client, ChurnState* churn,
                             LoadResult* result);

// Replays the sample in-process, calling each layer's public function,
// once with span recording and once without, and derives the per-layer
// metrics (self times, work counts, coverage against `wire_us`). Spans are
// written to `spans_path` at the end.
Metrics TracedRun(const Workload& w, const std::vector<SampleOp>& sample,
                  const std::vector<double>& wire_us,
                  const std::string& spans_path, LoadResult* result);

}  // namespace perfbench

#endif  // SQOD_PERFBENCH_BENCH_H_
