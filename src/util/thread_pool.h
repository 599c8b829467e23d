#ifndef TASFAR_UTIL_THREAD_POOL_H_
#define TASFAR_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace tasfar {

/// Fixed-size thread pool with a deterministic `ParallelFor` — the only
/// parallel execution primitive in the library (tools/analyze forbids raw
/// `std::thread` anywhere else; see docs/THREADING.md for the threading
/// model and determinism contract).
///
/// Design constraints, in order:
///  1. *Determinism.* ParallelFor only ever partitions an index range into
///     contiguous chunks; it never reorders iterations within a chunk and
///     callers write to disjoint, pre-sized outputs. Any computation whose
///     per-index work is a pure function of the index therefore produces
///     bit-identical results at every thread count (including 1).
///  2. *The caller is a lane.* A pool of `n` threads spawns `n - 1`
///     workers; the thread calling ParallelFor claims and runs chunks of
///     its own region until none is left, and only then waits for the
///     chunks workers took. A caller therefore never waits behind other
///     callers' queued chunks for work it can do itself.
///  3. *No nesting surprises.* A ParallelFor issued from inside a chunk
///     (on a worker, or on a caller running its own chunk) runs inline on
///     that thread (a thread-local flag marks chunk-running threads), so
///     nested regions cannot deadlock the pool.
///  4. *Simplicity over stealing.* Regions wait in a single FIFO guarded by
///     one mutex; workers take chunks from the front region. The networks
///     in this repo are small; chunk counts are tens, not millions, so a
///     work-stealing scheduler would buy nothing.
class ThreadPool {
 public:
  /// A pool of `num_threads` lanes: the calling thread plus
  /// `num_threads - 1` spawned workers (0 and 1 spawn none; every
  /// ParallelFor then runs inline on the calling thread).
  explicit ThreadPool(size_t num_threads);

  /// Joins all workers. Outstanding ParallelFor calls must have returned.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of execution lanes one ParallelFor caller gets: the workers
  /// plus the caller itself.
  size_t num_threads() const { return workers_.size() + 1; }

  /// Calls `fn(i)` for every i in [begin, end), partitioned into
  /// contiguous chunks of at least `grain` iterations (grain 0 is treated
  /// as 1), and blocks until all iterations completed. The calling thread
  /// runs chunks too. Empty ranges return immediately. If any `fn` throws,
  /// the first exception captured is rethrown on the calling thread after
  /// the region drains (remaining chunks still run).
  ///
  /// `fn` runs concurrently with itself: it must only touch state that is
  /// disjoint per index (or otherwise synchronized by the caller).
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t)>& fn);

 private:
  struct Region;

  void WorkerLoop();
  /// Runs chunk `c` of `region` on the calling thread and retires it.
  static void RunChunk(Region* region, size_t c);

  std::vector<std::thread> workers_;
  /// Regions that may still have unclaimed chunks, oldest first. A region
  /// the caller drained itself is popped by the next worker that looks.
  std::deque<std::shared_ptr<Region>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// A single named long-lived thread with RAII join semantics — the one
/// sanctioned way to run something *other than* data-parallel chunks off
/// the calling thread (tools/analyze forbids raw `std::thread` outside this
/// file). The serving layer uses it for its network loop, its Predict
/// compute lanes and its adapt-job runner (docs/THREADING.md §Long-lived
/// threads). Compute inside a body fans out through the global
/// ParallelFor, with the body's own thread as one of the lanes, so
/// concurrency is bounded by the pool's workers plus the number of such
/// callers.
///
/// The body runs exactly once. Destruction joins (it does not signal the
/// body to stop — owners needing cancellation must provide their own flag
/// and set it before destroying the BackgroundThread).
class BackgroundThread {
 public:
  /// Starts `body` immediately on a fresh thread. `name` is for
  /// diagnostics only.
  BackgroundThread(std::string name, std::function<void()> body);

  /// Joins the thread (blocks until `body` returns).
  ~BackgroundThread();

  BackgroundThread(const BackgroundThread&) = delete;
  BackgroundThread& operator=(const BackgroundThread&) = delete;

  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::thread thread_;
};

/// Lanes of the global pool (lazily created on first use): its workers
/// plus the calling thread, so TASFAR_NUM_THREADS=n reports n.
size_t GetNumThreads();

/// Replaces the global pool with one of `num_threads` threads (0 restores
/// the default: the TASFAR_NUM_THREADS environment variable if set, else
/// std::thread::hardware_concurrency()). Must not be called while another
/// thread is inside a global ParallelFor.
void SetNumThreads(size_t num_threads);

/// ParallelFor on the global pool; see ThreadPool::ParallelFor.
void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t)>& fn);

}  // namespace tasfar

#endif  // TASFAR_UTIL_THREAD_POOL_H_
