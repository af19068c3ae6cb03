#ifndef GPIVOT_SERVE_QUERY_H_
#define GPIVOT_SERVE_QUERY_H_

#include <memory>
#include <optional>
#include <string>

#include "expr/expr.h"
#include "relation/row.h"
#include "relation/table.h"
#include "serve/snapshot.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace gpivot::serve {

// Read-only query surface over a SnapshotStore. Every query acquires one
// snapshot up front and runs entirely against it, so a query observes
// exactly one committed epoch even while the maintenance thread installs
// new versions mid-query.
//
// The ExecContext given at construction is used for every query: its
// metrics registry receives the serve.query.* counters and latency
// histograms, and its vector_chunk_size routes Scan through the columnar
// fast path. Scan reads the snapshot's row chunks directly, each through
// its own column cache: a chunk no epoch touched keeps its warm columns
// across versions, so a scan rebuilds columns only for the chunks the
// last epochs rewrote. Point the context at a per-reader local registry
// when counters must stay deterministic — query counts per reader are
// workload-determined, but which global shard they land in is not.
class QueryService {
 public:
  explicit QueryService(const SnapshotStore* store,
                        const ExecContext& ctx = {})
      : store_(store), ctx_(ctx) {}

  // Key lookup through the snapshot's KeyIndex. `key` is the full projected
  // key row: one value per view key column, in key order (a view whose key
  // spans several columns cannot be probed by a prefix of them). nullopt
  // when the key is absent; InvalidArgument when `key` has the wrong
  // number of values; NotFound when the view itself is unknown.
  Result<std::optional<Row>> PointLookup(const std::string& view,
                                         const Row& key,
                                         ReaderHandle* handle) const;

  // σ over the snapshot's rows (exec::Select chunk by chunk, vectorized
  // when the chunk size allows); rows come out in view position order.
  Result<Table> Scan(const std::string& view, const ExprPtr& predicate,
                     ReaderHandle* handle) const;

  // The k rows with the largest numeric value in `measure`, descending;
  // NULL measures are skipped; ties break toward the earlier row so the
  // result is deterministic.
  Result<Table> TopK(const std::string& view, const std::string& measure,
                     size_t k, ReaderHandle* handle) const;

  // The snapshot a query starting now would run against (for callers that
  // want to tag results with the epoch they saw).
  std::shared_ptr<const Snapshot> AcquireSnapshot(const std::string& view,
                                                  ReaderHandle* handle) const {
    return store_->Acquire(view, handle);
  }

 private:
  Result<std::shared_ptr<const Snapshot>> AcquireChecked(
      const std::string& view, ReaderHandle* handle) const;

  const SnapshotStore* store_;
  ExecContext ctx_;
};

}  // namespace gpivot::serve

#endif  // GPIVOT_SERVE_QUERY_H_
