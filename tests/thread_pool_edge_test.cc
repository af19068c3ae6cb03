// ThreadPool / ParallelFor edge cases promised by the executor contract:
// degenerate thread counts run inline on the caller, nested invocations on
// pool workers never re-enter the pool, index claiming under skewed costs
// runs every index exactly once and lets a stalled index or a busy pool
// hold back nothing else, concurrent callers keep their ranges apart, and
// pool-level metrics account for every submitted task. Runs under TSan in
// CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace gpivot {
namespace {

TEST(ThreadPoolEdgeTest, ZeroAndOneThreadRunInlineInOrder) {
  for (size_t threads : {size_t{0}, size_t{1}}) {
    std::thread::id caller = std::this_thread::get_id();
    std::vector<size_t> visited;
    ParallelFor(ExecContext{threads, 1}, 50, [&](size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), caller)
          << "num_threads=" << threads << " left the calling thread";
      visited.push_back(i);  // safe: inline execution is sequential
    });
    ASSERT_EQ(visited.size(), 50u) << "num_threads=" << threads;
    for (size_t i = 0; i < visited.size(); ++i) EXPECT_EQ(visited[i], i);
  }
}

TEST(ThreadPoolEdgeTest, EmptyRangeCallsNothing) {
  std::atomic<size_t> calls{0};
  ParallelFor(ExecContext{4, 1}, 0,
              [&](size_t) { calls.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(calls.load(), 0u);
}

TEST(ThreadPoolEdgeTest, NestedParallelForOnWorkerRunsInline) {
  // The inner loop's body must run on the same thread as the outer body
  // that spawned it — pool workers never wait on the pool (deadlock), so
  // nested calls fall back to inline.
  std::atomic<size_t> total{0};
  std::atomic<size_t> escaped{0};
  ParallelFor(ExecContext{4, 1}, 8, [&](size_t) {
    std::thread::id outer_thread = std::this_thread::get_id();
    bool on_worker = ThreadPool::OnWorkerThread();
    ParallelFor(ExecContext{4, 1}, 8, [&](size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
      if (on_worker && std::this_thread::get_id() != outer_thread) {
        escaped.fetch_add(1, std::memory_order_relaxed);
      }
    });
  });
  EXPECT_EQ(total.load(), 64u);
  EXPECT_EQ(escaped.load(), 0u)
      << "inner iterations ran off the worker that started them";
}

TEST(ThreadPoolEdgeTest, ConcurrentRegistryWritesFromPoolSumExactly) {
  // Exercises the metrics shards from genuinely concurrent pool workers
  // (TSan verifies no data race; the assertion verifies no lost update).
  obs::MetricsRegistry registry;
  registry.set_enabled(true);
  const size_t n = 20000;
  ParallelFor(ExecContext{7, 1}, n, [&](size_t i) {
    registry.AddCounter("c");
    if (i % 2 == 0) registry.RecordLatency("h", 0.001);
  });
  obs::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("c"), n);
  EXPECT_EQ(snapshot.histograms.at("h").count, n / 2);
}

TEST(ThreadPoolEdgeTest, PoolMetricsCountTasksAndWorkers) {
  // Pool-level accounting lands in the global registry (it is scheduling-
  // dependent, so it must stay out of deterministic ExecContext registries).
  obs::MetricsRegistry& global = obs::MetricsRegistry::Global();
  global.Reset();
  global.set_enabled(true);
  ParallelFor(ExecContext{4, 1}, 1000, [](size_t) {});
  ParallelFor(ExecContext{1, 1}, 10, [](size_t) {});  // inline path
  global.set_enabled(false);
  obs::MetricsSnapshot snapshot = global.Snapshot();
  global.Reset();
  EXPECT_EQ(snapshot.counters.at("thread_pool.parallel_for.calls"), 2u);
  EXPECT_EQ(snapshot.counters.at("thread_pool.parallel_for.inline_calls"), 1u);
  // 4 workers; the caller is one of them, so 3 tasks hit the pool queue.
  EXPECT_EQ(snapshot.counters.at("thread_pool.parallel_for.workers"), 4u);
  EXPECT_EQ(snapshot.counters.at("thread_pool.tasks_submitted"), 3u);
  EXPECT_EQ(snapshot.histograms.at("thread_pool.queue_wait_ms").count, 3u);
}

TEST(ThreadPoolEdgeTest, WorkersClampToRangeSize) {
  // More threads than indices: every index still runs exactly once.
  std::vector<std::atomic<int>> hits(3);
  ParallelFor(ExecContext{16, 1}, hits.size(), [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolEdgeTest, SkewedCostClaimsEachIndexOnceAndMatchesInline) {
  // Far more indices than workers, with the first few orders of magnitude
  // costlier than the rest, so workers that drew cheap indices keep
  // claiming while one grinds through a heavy one. Every index must still
  // run exactly once, and per-index slots must equal the inline run's.
  const size_t n = 200;
  auto work = [](size_t i) {
    uint64_t rounds = i < 4 ? 200000 : 100 + i % 7;
    uint64_t x = i + 1;
    for (uint64_t r = 0; r < rounds; ++r) x = x * 6364136223846793005u + r;
    return x;
  };
  std::vector<uint64_t> inline_slots(n);
  ParallelFor(ExecContext{1, 1}, n,
              [&](size_t i) { inline_slots[i] = work(i); });
  std::vector<std::atomic<int>> hits(n);
  std::vector<uint64_t> slots(n);
  ParallelFor(ExecContext{4, 1}, n, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
    slots[i] = work(i);
  });
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
  EXPECT_EQ(slots, inline_slots);
}

TEST(ThreadPoolEdgeTest, StalledIndexDoesNotHoldBackOtherIndices) {
  // Index 0 stalls until every other index has run (or a 10 s bound
  // passes). With claiming, the other worker takes indices 1..n-1 while
  // index 0 waits; a fixed split would strand index 0's share behind it.
  const size_t n = 64;
  std::mutex mu;
  std::condition_variable cv;
  size_t others_done = 0;
  bool others_finished_first = false;
  ParallelFor(ExecContext{2, 1}, n, [&](size_t i) {
    std::unique_lock<std::mutex> lock(mu);
    if (i == 0) {
      others_finished_first = cv.wait_for(
          lock, std::chrono::seconds(10),
          [&] { return others_done == n - 1; });
      return;
    }
    if (++others_done == n - 1) cv.notify_all();
  });
  EXPECT_TRUE(others_finished_first)
      << "only " << others_done << " of " << n - 1
      << " indices ran while index 0 stalled";
  EXPECT_EQ(others_done, n - 1);
}

TEST(ThreadPoolEdgeTest, CallerDrainsRangeWhilePoolIsBusy) {
  // Occupy every global-pool worker, then run a 4-worker ParallelFor from
  // a plain thread. The caller is itself a worker, so it claims and runs
  // the whole range without waiting for a pool thread; the call returns
  // once the queued pool tasks find nothing left to claim.
  ThreadPool& pool = ThreadPool::Global();
  // Shared with the blockers by value: a blocker may still be leaving its
  // wait after this test body returns.
  struct Gate {
    std::mutex mu;
    std::condition_variable cv;
    size_t running = 0;
    bool release = false;
  };
  auto gate = std::make_shared<Gate>();
  for (size_t t = 0; t < pool.num_threads(); ++t) {
    pool.Submit([gate] {
      std::unique_lock<std::mutex> lock(gate->mu);
      ++gate->running;
      gate->cv.notify_all();
      gate->cv.wait(lock, [&] { return gate->release; });
    });
  }
  {
    std::unique_lock<std::mutex> lock(gate->mu);
    EXPECT_TRUE(gate->cv.wait_for(lock, std::chrono::seconds(10), [&] {
      return gate->running == pool.num_threads();
    })) << "the pool workers did not all pick up a blocker";
  }
  const size_t n = 100;
  std::atomic<size_t> ran{0};
  std::atomic<bool> returned{false};
  std::thread caller([&] {
    ParallelFor(ExecContext{4, 1}, n,
                [&](size_t) { ran.fetch_add(1, std::memory_order_relaxed); });
    returned.store(true);
  });
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (ran.load() < n && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(ran.load(), n) << "the caller did not drain the range alone";
  EXPECT_FALSE(returned.load())
      << "ParallelFor returned before its queued pool tasks ran";
  {
    std::lock_guard<std::mutex> lock(gate->mu);
    gate->release = true;
  }
  gate->cv.notify_all();
  caller.join();
  EXPECT_TRUE(returned.load());
  EXPECT_EQ(ran.load(), n);
}

TEST(ThreadPoolEdgeTest, ConcurrentCallersEachRunTheirRangeOnce) {
  // Several plain threads share the global pool, each with its own range
  // and slots: every caller's indices run exactly once and no index of
  // one call is claimed by another call's workers.
  const size_t callers = 4;
  const size_t n = 500;
  std::vector<std::vector<std::atomic<int>>> hits(callers);
  for (auto& h : hits) h = std::vector<std::atomic<int>>(n);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < callers; ++c) {
    threads.emplace_back([&, c] {
      ParallelFor(ExecContext{3, 1}, n, [&](size_t i) {
        hits[c][i].fetch_add(1, std::memory_order_relaxed);
      });
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t c = 0; c < callers; ++c) {
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[c][i].load(), 1) << "caller " << c << " index " << i;
    }
  }
}

TEST(ThreadPoolEdgeTest, DestructorRunsEveryQueuedTask) {
  // Tasks still queued when a pool is destroyed run before the workers
  // exit; none is dropped.
  std::atomic<size_t> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  EXPECT_EQ(ran.load(), 200u);
}

}  // namespace
}  // namespace gpivot
