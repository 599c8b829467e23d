#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace tasfar {
namespace {

TEST(ThreadPoolTest, EmptyRangeIsANoop) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelFor(5, 5, 1, [&](size_t) { ++calls; });
  pool.ParallelFor(7, 3, 1, [&](size_t) { ++calls; });  // begin > end.
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(0, hits.size(), 3, [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, GrainLargerThanRangeRunsInline) {
  ThreadPool pool(4);
  std::vector<int> order;  // Unsynchronized: valid only if run inline.
  pool.ParallelFor(2, 6, 100, [&](size_t i) {
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{2, 3, 4, 5}));
}

TEST(ThreadPoolTest, GrainZeroIsTreatedAsOne) {
  ThreadPool pool(2);
  std::atomic<size_t> sum{0};
  pool.ParallelFor(0, 64, 0, [&](size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 64u * 63u / 2u);
}

TEST(ThreadPoolTest, SingleThreadPoolSpawnsNoWorkers) {
  ThreadPool pool0(0);
  ThreadPool pool1(1);
  EXPECT_EQ(pool0.num_threads(), 1u);
  EXPECT_EQ(pool1.num_threads(), 1u);
  std::vector<int> order;
  pool1.ParallelFor(0, 5, 1, [&](size_t i) {
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(0, 100, 1,
                       [&](size_t i) {
                         if (i == 37) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
}

TEST(ThreadPoolTest, ExceptionOnInlinePathPropagatesToo) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.ParallelFor(0, 4, 1,
                                [&](size_t) {
                                  throw std::runtime_error("inline boom");
                                }),
               std::runtime_error);
}

TEST(ThreadPoolTest, PoolIsReusableAfterException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelFor(0, 8, 1,
                                [&](size_t) {
                                  throw std::runtime_error("first");
                                }),
               std::runtime_error);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, 8, 1, [&](size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 8);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineOnWorkers) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(16 * 16);
  // If the nested region re-entered the queue this could deadlock with all
  // workers blocked waiting; the inline rule makes it finish.
  pool.ParallelFor(0, 16, 1, [&](size_t i) {
    pool.ParallelFor(0, 16, 1, [&](size_t j) { ++hits[i * 16 + j]; });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, DisjointWritesAreDeterministicAcrossThreadCounts) {
  auto run = [](size_t threads) {
    ThreadPool pool(threads);
    std::vector<double> out(512);
    pool.ParallelFor(0, out.size(), 1, [&](size_t i) {
      double v = static_cast<double>(i) * 0.37;
      for (int r = 0; r < 20; ++r) v = v * 1.000001 + 0.5;
      out[i] = v;
    });
    return out;
  };
  const std::vector<double> serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
}

// Parks every worker of `pool` inside one region issued from a background
// thread (which, as that region's caller, parks in it too) until Release.
class WorkerBlocker {
 public:
  explicit WorkerBlocker(ThreadPool* pool) {
    const size_t lanes = pool->num_threads();
    caller_ = std::make_unique<BackgroundThread>("blocker", [this, pool] {
      pool->ParallelFor(0, 1000, 1, [this](size_t) {
        std::unique_lock<std::mutex> lock(mu_);
        ++parked_;
        cv_.notify_all();
        cv_.wait(lock, [this] { return released_; });
      });
    });
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this, lanes] { return parked_ >= lanes; });
  }

  ~WorkerBlocker() { Release(); }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
    caller_.reset();  // Joins once the blocked region drained.
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t parked_ = 0;
  bool released_ = false;
  std::unique_ptr<BackgroundThread> caller_;
};

TEST(ThreadPoolTest, CallerFinishesItsRegionWhileEveryWorkerIsBlocked) {
  // The caller runs its own chunks instead of queueing behind the blocked
  // region's: with workers that only took chunks from a shared FIFO, this
  // ParallelFor would wait until Release and the test would hang.
  ThreadPool pool(3);
  WorkerBlocker blocker(&pool);
  std::vector<int> hits(100, 0);
  pool.ParallelFor(0, hits.size(), 1, [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], 1) << i;
  blocker.Release();
}

thread_local bool tls_on_test_thread = false;

TEST(ThreadPoolTest, NestedRegionInACallerChunkRunsInline) {
  obs::SetMetricsEnabled(true);
  obs::Counter* regions =
      obs::Registry::Get().GetCounter("tasfar.thread_pool.regions");
  obs::Counter* inline_regions =
      obs::Registry::Get().GetCounter("tasfar.thread_pool.inline_regions");
  ThreadPool pool(4);
  // Blocked workers leave every outer chunk to the calling thread.
  WorkerBlocker blocker(&pool);
  const uint64_t regions_before = regions->value();
  const uint64_t inline_before = inline_regions->value();
  tls_on_test_thread = true;
  std::vector<int> off_caller(16, 0);
  pool.ParallelFor(0, 16, 1, [&](size_t i) {
    pool.ParallelFor(0, 16, 1, [&](size_t) {
      if (!tls_on_test_thread) ++off_caller[i];
    });
  });
  tls_on_test_thread = false;
  EXPECT_EQ(regions->value() - regions_before, 1u);  // The outer one only.
  EXPECT_EQ(inline_regions->value() - inline_before, 16u);
  for (int n : off_caller) EXPECT_EQ(n, 0);
  blocker.Release();
  obs::SetMetricsEnabled(false);
}

TEST(ThreadPoolTest, ExceptionInACallerChunkIsRethrownAfterTheRegionDrains) {
  ThreadPool pool(2);
  WorkerBlocker blocker(&pool);
  std::vector<int> hits(8, 0);  // One index per chunk at two lanes.
  EXPECT_THROW(pool.ParallelFor(0, hits.size(), 1,
                                [&](size_t i) {
                                  ++hits[i];
                                  if (i == 0) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // Every chunk still ran after the throwing one.
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 8);
  blocker.Release();
}

TEST(GlobalPoolTest, NumThreadsEqualsTasfarNumThreads) {
  const char* saved = std::getenv("TASFAR_NUM_THREADS");
  const std::string restore = saved == nullptr ? "" : saved;
  for (const size_t n : {size_t{1}, size_t{2}, size_t{8}}) {
    EXPECT_EQ(ThreadPool(n).num_threads(), n);
    ::setenv("TASFAR_NUM_THREADS", std::to_string(n).c_str(), 1);
    SetNumThreads(0);  // Re-reads the environment.
    EXPECT_EQ(GetNumThreads(), n);
  }
  if (saved == nullptr) {
    ::unsetenv("TASFAR_NUM_THREADS");
  } else {
    ::setenv("TASFAR_NUM_THREADS", restore.c_str(), 1);
  }
  SetNumThreads(0);
}

TEST(GlobalPoolTest, SetNumThreadsControlsGetNumThreads) {
  SetNumThreads(3);
  EXPECT_EQ(GetNumThreads(), 3u);
  SetNumThreads(1);
  EXPECT_EQ(GetNumThreads(), 1u);
  SetNumThreads(0);  // Restore the default for other tests.
  EXPECT_GE(GetNumThreads(), 1u);
}

TEST(GlobalPoolTest, GlobalParallelForSums) {
  SetNumThreads(4);
  std::vector<size_t> out(100);
  ParallelFor(0, out.size(), 1, [&](size_t i) { out[i] = i * i; });
  size_t total = std::accumulate(out.begin(), out.end(), size_t{0});
  size_t expect = 0;
  for (size_t i = 0; i < out.size(); ++i) expect += i * i;
  EXPECT_EQ(total, expect);
  SetNumThreads(0);
}

}  // namespace
}  // namespace tasfar
