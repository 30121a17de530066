#include "src/obs/trace.h"

#include <chrono>

#include "src/base/check.h"

#if defined(__linux__) || defined(__APPLE__)
#include <time.h>
#define SQOD_OBS_HAVE_CLOCK_GETTIME 1
#endif

namespace sqod {

int64_t NowNs() {
#ifdef SQOD_OBS_HAVE_CLOCK_GETTIME
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
#else
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
#endif
}

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    End();
    tracer_ = other.tracer_;
    handle_ = other.handle_;
    other.tracer_ = nullptr;
    other.handle_ = -1;
  }
  return *this;
}

void Span::SetAttr(std::string_view key, int64_t value) {
  if (tracer_ != nullptr) tracer_->SetAttr(handle_, key, value);
}

void Span::End() {
  if (tracer_ != nullptr) {
    tracer_->CloseSpan(handle_);
    tracer_ = nullptr;
    handle_ = -1;
  }
}

Span Tracer::StartSpan(std::string_view name) {
  return StartSpanAt(name, NowNs());
}

Span Tracer::StartSpanAt(std::string_view name, int64_t start_ns) {
  if (!enabled_) return Span();
  int handle = static_cast<int>(open_.size());
  SpanRecord record;
  record.id = next_id_++;
  record.parent_id =
      open_stack_.empty() ? -1 : open_[open_stack_.back()].id;
  record.name = std::string(name);
  record.start_ns = start_ns;
  open_.push_back(std::move(record));
  closed_.push_back(false);
  open_stack_.push_back(handle);
  return Span(this, handle);
}

std::vector<SpanRecord> Tracer::TakeSpans() {
  SQOD_CHECK_MSG(open_stack_.empty(), "TakeSpans with open spans");
  std::vector<SpanRecord> out = std::move(spans_);
  Clear();
  return out;
}

void Tracer::CloseSpan(int handle) {
  const int64_t now = NowNs();
  SQOD_CHECK(handle >= 0 && handle < static_cast<int>(open_.size()));
  SQOD_CHECK_MSG(!closed_[handle], "span closed twice");
  // Spans closing out of stack order (a moved Span outliving its lexical
  // scope) are tolerated: any open descendant is closed first, with its
  // elapsed time as of now.
  while (!open_stack_.empty() && open_stack_.back() != handle) {
    CloseSpan(open_stack_.back());
  }
  if (!open_stack_.empty()) open_stack_.pop_back();
  SpanRecord& record = open_[handle];
  record.duration_ns = now - record.start_ns;
  closed_[handle] = true;
  spans_.push_back(std::move(record));
  // Handle slots are only reusable once no span is open.
  if (open_stack_.empty()) {
    open_.clear();
    closed_.clear();
  }
}

void Tracer::SetAttr(int handle, std::string_view key, int64_t value) {
  SQOD_CHECK(handle >= 0 && handle < static_cast<int>(open_.size()));
  open_[handle].attrs.emplace_back(std::string(key), value);
}

void Tracer::Clear() {
  open_.clear();
  closed_.clear();
  open_stack_.clear();
  spans_.clear();
  next_id_ = 0;
}

}  // namespace sqod
