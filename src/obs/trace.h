#ifndef TASFAR_OBS_TRACE_H_
#define TASFAR_OBS_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace tasfar::obs {

/// Scoped-timer tracing (docs/OBSERVABILITY.md).
///
/// `TASFAR_TRACE_SPAN("partition");` at the top of a scope records a
/// complete event (name, thread id, nesting depth, start, duration) when
/// tracing is enabled, and feeds the duration into the auto-registered
/// `tasfar.span.<name>.ms` histogram when metrics are enabled. With both
/// disabled the span costs two relaxed atomic loads and never reads the
/// clock.
///
/// Enabling: set the TASFAR_TRACE environment variable to an output path
/// — tracing starts at process start and the buffer is flushed to that
/// path at exit (also on demand via FlushTraceToEnvPath). A `.jsonl`
/// extension selects the flat JSONL event stream; anything else gets
/// chrome://tracing / Perfetto JSON. Tests and tools can instead toggle
/// SetTracingEnabled and write explicitly.

namespace internal_obs {
extern std::atomic<bool> g_tracing_enabled;
/// Reads TASFAR_TRACE once and, if set, enables tracing and registers the
/// atexit flush. Called from the TraceSpan constructor path and from
/// TracingEnabled(); idempotent and thread-safe.
void InitTraceStateOnce();
}  // namespace internal_obs

/// Whether spans record trace events.
inline bool TracingEnabled() {
  internal_obs::InitTraceStateOnce();
  return internal_obs::g_tracing_enabled.load(std::memory_order_relaxed);
}

/// Programmatic override (tests, tools). Does not change the TASFAR_TRACE
/// output path.
void SetTracingEnabled(bool enabled);

/// Ambient distributed-tracing identity (docs/OBSERVABILITY.md §Trace
/// context). `trace_id` names one logical operation end to end — a served
/// request keeps the id it arrived with across the network thread, the
/// adapt-job thread, and every ParallelFor worker. `span_id` names the
/// innermost open span. Zero means "no context".
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
};

/// The calling thread's current context ({0, 0} outside any traced span).
/// One thread-local read; safe from any thread.
TraceContext CurrentTraceContext();

/// Allocates a fresh process-unique nonzero id (relaxed atomic counter).
/// Used for trace ids at roots and span ids everywhere.
uint64_t NewTraceId();

/// Installs `ctx` as the calling thread's ambient context for the scope
/// and restores the previous context on destruction. This is how a
/// context crosses threads: capture CurrentTraceContext() into the task,
/// install it inside the task body (thread pool chunks and the serve
/// adapt job do exactly this), and any TASFAR_TRACE_SPAN inside chains
/// onto the originating trace.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext ctx);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext saved_;
};

/// One completed span. `name` points at the literal passed to the span
/// (static storage duration required).
struct TraceEvent {
  const char* name = nullptr;
  int tid = 0;
  int depth = 0;          ///< Nesting depth on its thread (0 = outermost).
  uint64_t start_us = 0;  ///< MonotonicMicros at span entry.
  uint64_t dur_us = 0;
  uint64_t trace_id = 0;  ///< 0 when the span ran with tracing disabled.
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;  ///< 0 = root span of its trace.
};

/// Copy of the event buffer, in completion order.
std::vector<TraceEvent> SnapshotTraceEvents();

/// Drops all buffered events (keeps the enabled state).
void ClearTraceEvents();

/// Events discarded because the buffer hit its capacity.
uint64_t DroppedTraceEvents();

/// Shrinks/grows the buffer capacity (default 1M events). Test helper.
void SetTraceCapacityForTest(size_t capacity);

/// Writes the buffer as chrome://tracing "complete" events — load the
/// file at chrome://tracing or https://ui.perfetto.dev. Returns false on
/// I/O failure.
bool WriteChromeTrace(const std::string& path);

/// Writes the buffer as one JSON object per line (machine-friendly flat
/// stream with the TraceEvent fields).
bool WriteTraceJsonl(const std::string& path);

/// Writes the buffer to the TASFAR_TRACE path (format by extension).
/// Returns false when the variable is unset or the write failed.
bool FlushTraceToEnvPath();

/// RAII scoped timer; use via TASFAR_TRACE_SPAN below. `name` must have
/// static storage duration (pass a string literal). `latency_ms` is an
/// optional histogram that receives the duration in milliseconds.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, Histogram* latency_ms = nullptr);
  /// A span that began at `start_us` (an earlier MonotonicMicros reading,
  /// possibly taken on another thread, e.g. when a request was queued for
  /// this one) and ends with the scope.
  TraceSpan(const char* name, Histogram* latency_ms, uint64_t start_us);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  Histogram* latency_ms_;
  uint64_t start_us_ = 0;
  int depth_ = 0;
  bool record_trace_ = false;
  bool record_metrics_ = false;
  // Tracing identity: set only when record_trace_. The span inherits the
  // ambient trace id (allocating a fresh one at a root), installs itself
  // as the ambient context, and restores saved_ctx_ on destruction.
  uint64_t trace_id_ = 0;
  uint64_t span_id_ = 0;
  uint64_t parent_span_id_ = 0;
  TraceContext saved_ctx_;
};

#define TASFAR_OBS_CONCAT_INNER(a, b) a##b
#define TASFAR_OBS_CONCAT(a, b) TASFAR_OBS_CONCAT_INNER(a, b)

/// Times the enclosing scope as span `name` (a string literal). An
/// optional second argument backdates the span's start to that
/// MonotonicMicros reading. The latency histogram handle is resolved once
/// per call site.
#define TASFAR_TRACE_SPAN(name, ...)                                      \
  static ::tasfar::obs::Histogram* const TASFAR_OBS_CONCAT(               \
      tasfar_span_hist_, __LINE__) =                                      \
      ::tasfar::obs::Registry::Get().GetHistogram(                        \
          std::string("tasfar.span.") + (name) + ".ms",                   \
          ::tasfar::obs::Histogram::LatencyEdgesMs());                    \
  ::tasfar::obs::TraceSpan TASFAR_OBS_CONCAT(tasfar_span_, __LINE__)(     \
      (name), TASFAR_OBS_CONCAT(tasfar_span_hist_, __LINE__)              \
                  __VA_OPT__(, ) __VA_ARGS__)

}  // namespace tasfar::obs

#endif  // TASFAR_OBS_TRACE_H_
