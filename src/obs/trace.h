#ifndef SQOD_OBS_TRACE_H_
#define SQOD_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace sqod {

// Monotonic wall clock in nanoseconds (CLOCK_MONOTONIC; falls back to
// std::chrono::steady_clock on platforms without it).
int64_t NowNs();

// One closed span as recorded by a Tracer. Ids are assigned at open in
// start order, so sorting by `id` recovers chronological/preorder layout;
// spans() itself is ordered by *close* time (children before parents).
struct SpanRecord {
  int id = -1;         // unique, start-ordered
  int parent_id = -1;  // id of the enclosing span, -1 for a root
  std::string name;
  int64_t start_ns = 0;
  int64_t duration_ns = 0;
  std::vector<std::pair<std::string, int64_t>> attrs;
};

class Tracer;

// RAII handle for an open span. Obtained from Tracer::StartSpan; the span
// closes (and its record becomes visible) when the handle is destroyed or
// End() is called. Move-only. A default-constructed or disabled-tracer Span
// is inert: every member is a no-op, so instrumentation sites need no
// enabled() checks of their own.
class Span {
 public:
  Span() = default;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& other) noexcept { *this = std::move(other); }
  Span& operator=(Span&& other) noexcept;
  ~Span() { End(); }

  // Attaches a key -> int64 attribute to the span (no-op when inert).
  void SetAttr(std::string_view key, int64_t value);

  // Closes the span now. Idempotent.
  void End();

  bool active() const { return tracer_ != nullptr; }

 private:
  friend class Tracer;
  Span(Tracer* tracer, int handle) : tracer_(tracer), handle_(handle) {}

  Tracer* tracer_ = nullptr;
  int handle_ = -1;
};

// A lightweight single-threaded span collector. Disabled by default:
// StartSpan on a disabled tracer returns an inert Span and costs one branch.
// Parentage is tracked via the tracer's open-span stack, so lexically nested
// StartSpan calls produce a properly nested span tree.
class Tracer {
 public:
  Tracer() = default;
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Opens a span named `name` under the innermost open span.
  Span StartSpan(std::string_view name);

  // Same, but with an explicit (typically earlier) start timestamp, for
  // spans whose beginning was observed before a collector was reachable —
  // e.g. a queue-wait span recorded by the worker that dequeues a request,
  // covering the time since submission. `start_ns` is on the NowNs() scale.
  Span StartSpanAt(std::string_view name, int64_t start_ns);

  // Closed spans, in order of closing. Link records via id / parent_id.
  const std::vector<SpanRecord>& spans() const { return spans_; }

  // Moves the closed spans out (and resets the id counter), leaving the
  // tracer ready for reuse. Open spans must be closed first.
  std::vector<SpanRecord> TakeSpans();

  // Drops all recorded and open spans.
  void Clear();

 private:
  friend class Span;

  void CloseSpan(int handle);
  void SetAttr(int handle, std::string_view key, int64_t value);

  bool enabled_ = false;
  int next_id_ = 0;
  std::vector<SpanRecord> open_;   // handle -> open span record
  std::vector<bool> closed_;       // handle -> already closed?
  std::vector<int> open_stack_;    // handles of currently open spans
  std::vector<SpanRecord> spans_;  // closed records
};

}  // namespace sqod

#endif  // SQOD_OBS_TRACE_H_
