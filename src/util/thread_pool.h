#ifndef GPIVOT_UTIL_THREAD_POOL_H_
#define GPIVOT_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gpivot::obs {
class CostCollector;
class MetricsRegistry;
class Tracer;
}  // namespace gpivot::obs

namespace gpivot {

struct PlanNodeIds;

// Sentinel for ExecContext::vector_chunk_size: resolve the batch width from
// the GPIVOT_VECTOR_CHUNK_SIZE environment variable (default 1024) on first
// use — see exec::EffectiveVectorChunkSize.
inline constexpr size_t kVectorChunkAuto = static_cast<size_t>(-1);

// Concurrency knob threaded through the operator APIs (HashJoin, GroupBy,
// GPivotParallel, Evaluate, the maintenance planner, ViewManager). The
// default — one thread — is exactly the pre-existing sequential behavior,
// so every caller that doesn't opt in is unaffected.
//
// Parallel operators are *deterministic*: their output is byte-identical
// for every num_threads value. Which thread runs which index is left to
// scheduling, but every index writes only its own pre-sized slot, and the
// slots are combined in index order (no contended output buffers). The
// §4.3 analogy: slots play the role of GPIVOT partitions, the index-order
// combine plays the group-wise merge.
struct ExecContext {
  size_t num_threads = 1;

  // Inputs with fewer rows than this stay sequential even when
  // num_threads > 1: dispatch overhead would dominate, and delta
  // propagation runs many tiny operator calls. Tests lower it to force the
  // parallel code paths onto small tables.
  size_t min_parallel_rows = 1024;

  // Observability sinks (src/obs/). Null — the default — disables
  // instrumentation at the cost of a pointer check per operator call.
  // Counter values recorded through `metrics` are deterministic across
  // num_threads; only histogram timings vary.
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;

  // Plan-shape cost accounting (src/obs/cost.h). When `cost` is set and
  // `cost_node` is a valid id from `plan_ids` (AssignNodeIds in
  // algebra/plan.h), operators add their rows-in/rows-out/build-probe
  // actuals to that node's NodeStats. The maintenance planner attaches a
  // per-plan collector in Stage and the evaluator/propagator re-resolve
  // cost_node as they descend; everything stays off (-1 / nullptr) for
  // callers that never opt in. Stats are pure functions of the work, so
  // they share the counters' cross-thread-count determinism guarantee.
  obs::CostCollector* cost = nullptr;
  const PlanNodeIds* plan_ids = nullptr;
  int cost_node = -1;

  bool ShouldParallelize(size_t rows) const {
    return num_threads > 1 && rows >= min_parallel_rows && rows >= 2;
  }

  // Vectorized-executor batch width: the number of rows each columnar fast
  // path (Select / Project / HashJoin / GroupBy / GPivot) processes per
  // typed inner loop. 0 forces the row-at-a-time shim everywhere;
  // kVectorChunkAuto (the default) resolves GPIVOT_VECTOR_CHUNK_SIZE.
  // Results are byte-identical for every setting — the knob changes only
  // which inner loop produces them — so it shares the determinism guarantee
  // num_threads has. Appended last to keep aggregate initialization of the
  // earlier fields source-compatible.
  size_t vector_chunk_size = kVectorChunkAuto;
};

// A fixed set of worker threads draining a FIFO task queue. ParallelFor
// submits one task per extra worker; each task claims indices until the
// range is exhausted. Results stay deterministic because callers write
// per-index slots and combine them in index order, never because a given
// thread runs a given index.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  // Enqueues one task. Tasks must not block waiting for other pool tasks
  // (ParallelFor guarantees this by running inline on worker threads).
  void Submit(std::function<void()> task);

  // Process-wide pool, created on first use with
  // max(hardware_concurrency, 4) - 1 workers (the ParallelFor caller
  // is the remaining worker), so requested parallelism is
  // available even on small machines.
  static ThreadPool& Global();

  // True when called from inside a Global()-pool worker. ParallelFor uses
  // this to run nested invocations inline, which both prevents deadlock
  // (workers never wait on the queue) and avoids thread oversubscription
  // when an already-parallel phase calls parallel operators.
  static bool OnWorkerThread();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

// Runs fn(i) for every i in [0, n) on up to min(ctx.num_threads, n)
// workers (the caller plus pool threads). Workers claim indices one at a
// time from a shared counter, so a worker that finishes a cheap index takes
// the next one instead of idling behind a fixed stripe: one expensive index
// (a heavy view, a skewed partition) does not hold back the rest. Runs
// inline (plain loop, in index order) when ctx.num_threads <= 1, n <= 1,
// or when already on a pool worker. Returns after every index completed.
// fn must confine its writes to per-index state; it must not throw (this
// codebase reports errors via Status slots the caller indexes by i).
void ParallelFor(const ExecContext& ctx, size_t n,
                 const std::function<void(size_t)>& fn);

// The chunk count ParallelForChunks will use for n items: 1 when the input
// stays sequential (per ctx.ShouldParallelize), else min(num_threads, n).
// Callers pre-size per-chunk result buffers with this.
size_t NumChunks(const ExecContext& ctx, size_t n);

// Range-parallel variant for row loops: runs fn(chunk, begin, end) for each
// of NumChunks(ctx, n) contiguous chunks covering [0, n). Chunk boundaries
// are a pure function of (n, chunk count), so per-chunk outputs
// concatenated in chunk order reproduce the sequential row order exactly.
void ParallelForChunks(
    const ExecContext& ctx, size_t n,
    const std::function<void(size_t chunk, size_t begin, size_t end)>& fn);

}  // namespace gpivot

#endif  // GPIVOT_UTIL_THREAD_POOL_H_
