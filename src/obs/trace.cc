#include "obs/trace.h"

#include <cstdlib>
#include <fstream>
#include <mutex>
#include <unordered_map>

#include "obs/clock.h"

namespace tasfar::obs {

namespace {

/// Mutex-guarded event buffer. Span ends are orders of magnitude rarer
/// than counter increments (stages, not inner loops), so a mutex is fine
/// here where it would not be in Counter::Increment. Leaked intentionally
/// so the atexit flush and late spans on joining pool workers stay valid.
struct TraceBuffer {
  std::mutex mu;
  std::vector<TraceEvent> events;
  size_t capacity = 1u << 20;
  uint64_t dropped = 0;
  std::string env_path;  ///< Output path from TASFAR_TRACE ("" = unset).
};

TraceBuffer& Buffer() {
  static TraceBuffer* const kBuffer = new TraceBuffer();
  return *kBuffer;
}

void AppendEvent(const TraceEvent& ev) {
  TraceBuffer& buf = Buffer();
  std::lock_guard<std::mutex> lock(buf.mu);
  if (buf.events.size() >= buf.capacity) {
    ++buf.dropped;
    return;
  }
  buf.events.push_back(ev);
}

void AtExitFlush() { FlushTraceToEnvPath(); }

thread_local int tls_span_depth = 0;
thread_local TraceContext tls_trace_context;

/// Monotonic nonzero id source shared by trace ids and span ids. Relaxed:
/// uniqueness is all that matters, not ordering.
std::atomic<uint64_t> g_next_id{1};

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

namespace internal_obs {

std::atomic<bool> g_tracing_enabled{false};

void InitTraceStateOnce() {
  static const bool kInitialized = [] {
    const char* path = std::getenv("TASFAR_TRACE");
    if (path != nullptr && path[0] != '\0') {
      Buffer().env_path = path;
      g_tracing_enabled.store(true, std::memory_order_relaxed);
      std::atexit(AtExitFlush);
    }
    return true;
  }();
  (void)kInitialized;
}

}  // namespace internal_obs

void SetTracingEnabled(bool enabled) {
  internal_obs::InitTraceStateOnce();
  internal_obs::g_tracing_enabled.store(enabled, std::memory_order_relaxed);
}

TraceContext CurrentTraceContext() { return tls_trace_context; }

uint64_t NewTraceId() {
  return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

ScopedTraceContext::ScopedTraceContext(TraceContext ctx)
    : saved_(tls_trace_context) {
  tls_trace_context = ctx;
}

ScopedTraceContext::~ScopedTraceContext() { tls_trace_context = saved_; }

std::vector<TraceEvent> SnapshotTraceEvents() {
  TraceBuffer& buf = Buffer();
  std::lock_guard<std::mutex> lock(buf.mu);
  return buf.events;
}

void ClearTraceEvents() {
  TraceBuffer& buf = Buffer();
  std::lock_guard<std::mutex> lock(buf.mu);
  buf.events.clear();
  buf.dropped = 0;
}

uint64_t DroppedTraceEvents() {
  TraceBuffer& buf = Buffer();
  std::lock_guard<std::mutex> lock(buf.mu);
  return buf.dropped;
}

void SetTraceCapacityForTest(size_t capacity) {
  TraceBuffer& buf = Buffer();
  std::lock_guard<std::mutex> lock(buf.mu);
  buf.capacity = capacity;
}

bool WriteChromeTrace(const std::string& path) {
  const std::vector<TraceEvent> events = SnapshotTraceEvents();
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  // span id -> buffer index, for locating a child's parent when emitting
  // cross-thread flow arrows. A parent can legitimately be absent (still
  // open at snapshot time, or dropped at capacity) — then no arrow.
  std::unordered_map<uint64_t, size_t> by_span_id;
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].span_id != 0) by_span_id.emplace(events[i].span_id, i);
  }
  out << "{\"traceEvents\": [";
  bool first = true;
  auto sep = [&] {
    if (!first) out << ",";
    first = false;
    out << "\n";
  };
  for (const TraceEvent& ev : events) {
    sep();
    out << "{\"name\": \"" << ev.name << "\", \"ph\": \"X\", \"pid\": 0"
        << ", \"tid\": " << ev.tid << ", \"ts\": " << ev.start_us
        << ", \"dur\": " << ev.dur_us;
    if (ev.trace_id != 0) {
      out << ", \"args\": {\"trace_id\": " << ev.trace_id
          << ", \"span_id\": " << ev.span_id
          << ", \"parent_span_id\": " << ev.parent_span_id << "}";
    }
    out << "}";
    // A parent on another thread means the span crossed an execution
    // boundary (queued chunk, adapt job): draw a Perfetto flow arrow from
    // the parent span's start to this span's start.
    if (ev.parent_span_id != 0) {
      const auto it = by_span_id.find(ev.parent_span_id);
      if (it != by_span_id.end() && events[it->second].tid != ev.tid) {
        const TraceEvent& parent = events[it->second];
        sep();
        out << "{\"name\": \"" << ev.name << "\", \"cat\": \"flow\""
            << ", \"ph\": \"s\", \"pid\": 0, \"tid\": " << parent.tid
            << ", \"ts\": " << parent.start_us
            << ", \"id\": " << ev.span_id << "}";
        sep();
        out << "{\"name\": \"" << ev.name << "\", \"cat\": \"flow\""
            << ", \"ph\": \"f\", \"bp\": \"e\", \"pid\": 0, \"tid\": "
            << ev.tid << ", \"ts\": " << ev.start_us
            << ", \"id\": " << ev.span_id << "}";
      }
    }
  }
  out << "\n]}\n";
  return out.good();
}

bool WriteTraceJsonl(const std::string& path) {
  const std::vector<TraceEvent> events = SnapshotTraceEvents();
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (const TraceEvent& ev : events) {
    out << "{\"name\": \"" << ev.name << "\", \"tid\": " << ev.tid
        << ", \"depth\": " << ev.depth << ", \"start_us\": " << ev.start_us
        << ", \"dur_us\": " << ev.dur_us << ", \"trace_id\": " << ev.trace_id
        << ", \"span_id\": " << ev.span_id
        << ", \"parent_span_id\": " << ev.parent_span_id << "}\n";
  }
  return out.good();
}

bool FlushTraceToEnvPath() {
  internal_obs::InitTraceStateOnce();
  std::string path;
  {
    TraceBuffer& buf = Buffer();
    std::lock_guard<std::mutex> lock(buf.mu);
    path = buf.env_path;
  }
  if (path.empty()) return false;
  return EndsWith(path, ".jsonl") ? WriteTraceJsonl(path)
                                  : WriteChromeTrace(path);
}

TraceSpan::TraceSpan(const char* name, Histogram* latency_ms)
    : name_(name), latency_ms_(latency_ms) {
  record_trace_ = TracingEnabled();
  record_metrics_ = latency_ms_ != nullptr && MetricsEnabled();
  if (!record_trace_ && !record_metrics_) return;
  if (record_trace_) {
    const TraceContext parent = tls_trace_context;
    trace_id_ = parent.trace_id != 0 ? parent.trace_id : NewTraceId();
    parent_span_id_ = parent.span_id;
    span_id_ = NewTraceId();
    saved_ctx_ = parent;
    tls_trace_context = TraceContext{trace_id_, span_id_};
  }
  depth_ = tls_span_depth++;
  start_us_ = MonotonicMicros();
}

TraceSpan::TraceSpan(const char* name, Histogram* latency_ms,
                     uint64_t start_us)
    : TraceSpan(name, latency_ms) {
  if (record_trace_ || record_metrics_) start_us_ = start_us;
}

TraceSpan::~TraceSpan() {
  if (!record_trace_ && !record_metrics_) return;
  const uint64_t dur = MonotonicMicros() - start_us_;
  --tls_span_depth;
  if (record_trace_) {
    tls_trace_context = saved_ctx_;
    AppendEvent({name_, CurrentThreadId(), depth_, start_us_, dur, trace_id_,
                 span_id_, parent_span_id_});
  }
  if (record_metrics_) {
    // Passing the span's own trace id (not the ambient one, which has just
    // been restored to the parent) links this histogram sample to this
    // trace even at a trace root.
    latency_ms_->ObserveWithExemplar(static_cast<double>(dur) / 1000.0,
                                     trace_id_);
  }
}

}  // namespace tasfar::obs
