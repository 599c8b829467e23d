#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace tasfar {

namespace {

/// Set while the thread runs a chunk: permanently on every pool worker,
/// and for the duration of its own chunks on a ParallelFor caller.
/// ParallelFor consults it to run nested regions inline instead of
/// re-entering the queue.
thread_local bool tls_runs_chunks = false;

/// Pool health metrics. Handles are resolved lazily (thread-safe static
/// locals) so a pool constructed before main() does not race registry
/// setup; all updates are gated on the enabled flag.
obs::Gauge* QueueDepthGauge() {
  static obs::Gauge* const kGauge =
      obs::Registry::Get().GetGauge("tasfar.thread_pool.queue_depth");
  return kGauge;
}

obs::Counter* RegionsCounter() {
  static obs::Counter* const kCounter =
      obs::Registry::Get().GetCounter("tasfar.thread_pool.regions");
  return kCounter;
}

obs::Counter* InlineRegionsCounter() {
  static obs::Counter* const kCounter =
      obs::Registry::Get().GetCounter("tasfar.thread_pool.inline_regions");
  return kCounter;
}

obs::Counter* ChunksCounter() {
  static obs::Counter* const kCounter =
      obs::Registry::Get().GetCounter("tasfar.thread_pool.chunks");
  return kCounter;
}

obs::Counter* BusyMicrosCounter() {
  static obs::Counter* const kCounter =
      obs::Registry::Get().GetCounter("tasfar.thread_pool.busy_us");
  return kCounter;
}

}  // namespace

/// One ParallelFor call. Chunks are claimed through `next_chunk` by the
/// caller and by workers alike; `pending` counts chunks not yet finished.
/// Shared-owned so a drained region can sit in the queue, and be touched
/// by a worker's claim, after its caller returned (such a claim fails
/// without reading `fn`).
struct ThreadPool::Region {
  size_t begin = 0;
  size_t end = 0;
  size_t chunk = 0;
  size_t num_chunks = 0;
  const std::function<void(size_t)>* fn = nullptr;
  bool metrics = false;
  obs::TraceContext trace_ctx;
  std::atomic<size_t> next_chunk{0};
  std::mutex mu;
  std::condition_variable done_cv;
  size_t pending = 0;
  std::exception_ptr first_error;
};

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads < 2) return;
  workers_.reserve(num_threads - 1);
  for (size_t t = 0; t + 1 < num_threads; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  tls_runs_chunks = true;
  for (;;) {
    std::shared_ptr<Region> region;
    size_t c = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and drained.
      region = queue_.front();
      c = region->next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c + 1 >= region->num_chunks) queue_.pop_front();
      if (obs::MetricsEnabled()) {
        QueueDepthGauge()->Set(static_cast<double>(queue_.size()));
      }
    }
    if (c < region->num_chunks) RunChunk(region.get(), c);
  }
}

void ThreadPool::RunChunk(Region* region, size_t c) {
  const size_t lo = region->begin + c * region->chunk;
  const size_t hi = std::min(lo + region->chunk, region->end);
  const uint64_t t0 = region->metrics ? obs::MonotonicMicros() : 0;
  {
    obs::ScopedTraceContext tctx(region->trace_ctx);
    TASFAR_TRACE_SPAN("thread_pool.chunk");
    try {
      for (size_t i = lo; i < hi; ++i) (*region->fn)(i);
    } catch (...) {
      std::lock_guard<std::mutex> rlock(region->mu);
      if (!region->first_error) {
        region->first_error = std::current_exception();
      }
    }
  }
  if (region->metrics) {
    BusyMicrosCounter()->Increment(obs::MonotonicMicros() - t0);
  }
  std::lock_guard<std::mutex> rlock(region->mu);
  if (--region->pending == 0) region->done_cv.notify_all();
}

void ThreadPool::ParallelFor(size_t begin, size_t end, size_t grain,
                             const std::function<void(size_t)>& fn) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  const size_t range = end - begin;
  // Serial fast paths: no workers, a nested region inside a chunk, or a
  // range that fits in one chunk. All three execute iterations in
  // ascending order, like every chunk below, so the result is the same.
  if (workers_.empty() || tls_runs_chunks || range <= grain) {
    if (obs::MetricsEnabled()) InlineRegionsCounter()->Increment();
    for (size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  auto region = std::make_shared<Region>();
  region->begin = begin;
  region->end = end;
  region->fn = &fn;
  region->metrics = obs::MetricsEnabled();
  // The caller's trace context rides into every chunk so worker-side spans
  // chain onto the caller's trace (one TLS read here, only when tracing is
  // on; {0,0} otherwise is a no-op install).
  if (obs::TracingEnabled()) region->trace_ctx = obs::CurrentTraceContext();
  // ~4 chunks per lane balances uneven iteration costs without a stealing
  // scheduler; `grain` keeps chunks from getting too fine.
  const size_t target_chunks = num_threads() * 4;
  region->chunk = std::max(grain, (range + target_chunks - 1) / target_chunks);
  region->num_chunks = (range + region->chunk - 1) / region->chunk;
  region->pending = region->num_chunks;

  {
    std::lock_guard<std::mutex> lock(mu_);
    TASFAR_CHECK_MSG(!stop_, "ParallelFor on a stopped ThreadPool");
    queue_.push_back(region);
    if (region->metrics) {
      RegionsCounter()->Increment();
      ChunksCounter()->Increment(region->num_chunks);
      QueueDepthGauge()->Set(static_cast<double>(queue_.size()));
    }
  }
  cv_.notify_all();

  // Run our own chunks until none is left to claim; regions queued ahead
  // of ours (other callers') never delay this part.
  tls_runs_chunks = true;
  for (;;) {
    const size_t c = region->next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (c >= region->num_chunks) break;
    RunChunk(region.get(), c);
  }
  tls_runs_chunks = false;

  std::unique_lock<std::mutex> rlock(region->mu);
  region->done_cv.wait(rlock, [&region] { return region->pending == 0; });
  if (region->first_error) std::rethrow_exception(region->first_error);
}

BackgroundThread::BackgroundThread(std::string name,
                                   std::function<void()> body)
    : name_(std::move(name)), thread_(std::move(body)) {}

BackgroundThread::~BackgroundThread() {
  if (thread_.joinable()) thread_.join();
}

namespace {

size_t DefaultNumThreads() {
  if (const char* env = std::getenv("TASFAR_NUM_THREADS")) {
    char* parse_end = nullptr;
    const unsigned long v = std::strtoul(env, &parse_end, 10);
    if (parse_end != env && *parse_end == '\0' && v > 0) {
      return static_cast<size_t>(v);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool>& GlobalPoolSlot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

ThreadPool& GlobalPool() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  std::unique_ptr<ThreadPool>& slot = GlobalPoolSlot();
  if (!slot) slot = std::make_unique<ThreadPool>(DefaultNumThreads());
  return *slot;
}

}  // namespace

size_t GetNumThreads() { return GlobalPool().num_threads(); }

void SetNumThreads(size_t num_threads) {
  const size_t n = num_threads == 0 ? DefaultNumThreads() : num_threads;
  std::lock_guard<std::mutex> lock(g_pool_mu);
  std::unique_ptr<ThreadPool>& slot = GlobalPoolSlot();
  slot.reset();  // Join the old workers before spawning the new pool.
  slot = std::make_unique<ThreadPool>(n);
}

void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t)>& fn) {
  GlobalPool().ParallelFor(begin, end, grain, fn);
}

}  // namespace tasfar
