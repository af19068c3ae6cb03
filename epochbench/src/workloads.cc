#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "expr/expr.h"
#include "ivm/batcher.h"
#include "ivm/view_manager.h"
#include "obs/json_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "reference.h"
#include "serve/query.h"
#include "serve/snapshot.h"
#include "storage/checkpoint.h"
#include "storage/recovery.h"
#include "tpch/dbgen.h"
#include "tpch/views.h"
#include "util/random.h"

namespace epochbench {
namespace {

namespace fs = std::filesystem;
namespace ivm = gpivot::ivm;
namespace obs = gpivot::obs;
namespace serve = gpivot::serve;
namespace storage = gpivot::storage;
namespace tpch = gpivot::tpch;
using gpivot::Catalog;
using gpivot::ExecContext;
using gpivot::Row;
using gpivot::Status;
using gpivot::Table;
using gpivot::Value;
using Clock = std::chrono::steady_clock;

// ---- Workload make-up (README.md "Workloads") ------------------------------

constexpr int kSetups = 3;              // set-ups per run; setup_s is their median
constexpr size_t kKeysPerBatch = 25;    // a micro-batch updates 25 keys: 50 rows
constexpr size_t kBatchesPerFlush = 8;  // a flush folds 8 micro-batches
constexpr size_t kChunkFlushes = 32;    // rounds generated per churn chunk
constexpr size_t kRecoveryCopies = 5;   // DurableViewManager::Open calls per run
constexpr size_t kReaders = 2;

constexpr double kTrickleSf = 0.05;
constexpr double kTrickleTheta = 0.0;
constexpr uint64_t kCheckpointEvery = 25;  // epochs between checkpoints
constexpr size_t kCrashEpochs = 6;         // WAL epochs after the last checkpoint

constexpr double kBulkSf = 0.05;
constexpr double kBulkFraction = 0.02;
constexpr size_t kBulkThreads = 2;

constexpr double kServeSf = 0.02;
constexpr double kServeTheta = 1.5;

// Dashboard read: 16 View-1 point lookups, one View-1 orderkey range of 50
// keys, one View-3 top-10.
constexpr size_t kLookups = 16;
constexpr int64_t kScanWidth = 50;
constexpr size_t kTopK = 10;
constexpr int kTopKYear = kFirstYear + kNumYears - 1;

// Tail percentiles: the highest with at least ten samples beyond it at the
// sample counts a 20-second run produces (README.md).
constexpr double kEpochTailPct[] = {85.0, 70.0, 95.0};  // trickle, bulk, serve
constexpr double kReadTailPct = 99.0;

// ---- Small helpers ---------------------------------------------------------

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double SecondsSince(Clock::time_point a) { return Ms(a, Clock::now()) / 1e3; }

template <typename T>
T Take(gpivot::Result<T> result, const std::string& what) {
  if (!result.ok()) {
    throw CheckFailure(what + " failed: " + result.status().ToString());
  }
  return std::move(result).value();
}

uint64_t Mix(uint64_t seed, uint64_t stream, uint64_t index) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL +
               index * 0x94d049bb133111ebULL + 1;
  z ^= z >> 30;
  z *= 0xbf58476d1ce4e5b9ULL;
  z ^= z >> 27;
  z *= 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Linear interpolation between closest ranks.
double Percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = pct / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50.0); }

size_t DeltaRows(const ivm::SourceDeltas& deltas) {
  size_t rows = 0;
  for (const auto& [name, delta] : deltas) {
    rows += delta.inserts.num_rows() + delta.deletes.num_rows();
  }
  return rows;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

uint64_t FileSize(const std::string& path) {
  std::error_code ec;
  const uint64_t size = fs::file_size(path, ec);
  return ec ? 0 : size;
}

// Counts operations per kind; a failed one ends the run.
class Ops {
 public:
  void Check(const std::string& kind, const Status& st, const std::string& what) {
    OpCount& count = counts_[kind];
    ++count.attempted;
    if (!st.ok()) {
      ++count.failed;
      throw CheckFailure(what + " failed: " + st.ToString());
    }
  }
  void Merge(const Ops& other) {
    for (const auto& [kind, c] : other.counts_) {
      counts_[kind].attempted += c.attempted;
      counts_[kind].failed += c.failed;
    }
  }
  const std::map<std::string, OpCount>& counts() const { return counts_; }

 private:
  std::map<std::string, OpCount> counts_;
};

tpch::Config TpchConfig(double scale_factor, uint64_t seed) {
  tpch::Config config;
  config.scale_factor = scale_factor;
  config.seed = seed;
  return config;
}

std::vector<storage::ViewDefinition> ViewDefs(const Catalog& catalog,
                                              bool all_views) {
  std::vector<storage::ViewDefinition> defs;
  defs.push_back({"view1", Take(tpch::View1(catalog, kMaxLines), "View1 plan"),
                  ivm::RefreshStrategy::kUpdate});
  if (all_views) {
    defs.push_back(
        {"view2",
         Take(tpch::View2(catalog, kMaxLines,
                          static_cast<double>(kView2PriceThreshold)),
              "View2 plan"),
         ivm::RefreshStrategy::kCombinedSelect});
  }
  defs.push_back({"view3",
                  Take(tpch::View3(catalog, kFirstYear, kNumYears), "View3 plan"),
                  ivm::RefreshStrategy::kCombinedGroupBy});
  return defs;
}

const char* const kBaseTables[] = {"customer", "orders", "lineitem"};

const Table& BaseTable(const Catalog& catalog, const char* name) {
  return *Take(catalog.GetTable(name), std::string("catalog table ") + name);
}

RefBase RefFromCatalog(const Catalog& catalog) {
  return RefBaseFromTables(BaseTable(catalog, "customer"),
                           BaseTable(catalog, "orders"),
                           BaseTable(catalog, "lineitem"));
}

// Empty tables with the base schemas and keys: the bootstrap a recovering
// Open needs only for its table names.
Catalog EmptyLike(const Catalog& catalog) {
  Catalog empty;
  for (const char* name : kBaseTables) {
    const Table& source = BaseTable(catalog, name);
    Table table(source.schema());
    Status st = table.SetKey(source.key());
    if (st.ok()) st = empty.AddTable(name, std::move(table));
    if (!st.ok()) throw CheckFailure("bootstrap catalog: " + st.ToString());
  }
  return empty;
}

const Table& ViewTable(const ivm::ViewManager& manager, const std::string& name) {
  return Take(manager.GetView(name), "GetView " + name)->table();
}

BagHash TableHash(const Table& table) {
  std::vector<size_t> identity(table.schema().num_columns());
  for (size_t i = 0; i < identity.size(); ++i) identity[i] = i;
  BagHash hash;
  for (const Row& row : table.rows()) hash.Add(HashRow(row, identity));
  return hash;
}

// Every view against the reference evaluated on `ref`, and the program's
// lineitem against the benchmark's replay.
void CheckFinalState(const ivm::ViewManager& manager, const RefBase& ref,
                     const std::string& what) {
  CompareView(BaseTable(manager.catalog(), "lineitem"), LineitemAsView(ref),
              what + ": final lineitem vs replay of the delta stream");
  for (const std::string& name : manager.ViewNames()) {
    RefView expected = name == "view1"   ? EvalView1(ref)
                       : name == "view2" ? EvalView2(ref)
                                         : EvalView3(ref);
    CompareView(ViewTable(manager, name), expected,
                what + ": " + name + " vs reference");
  }
}

// ---- Per-layer tracing -----------------------------------------------------

class TimedDurabilityHook final : public ivm::EpochDurabilityHook {
 public:
  TimedDurabilityHook(ivm::EpochDurabilityHook* inner, std::string wal_path)
      : inner_(inner), wal_path_(std::move(wal_path)) {}

  Status OnEpochAccepted(uint64_t seq, const std::string& entry,
                         const ivm::SourceDeltas& deltas) override {
    const uint64_t before = FileSize(wal_path_);
    const auto t0 = Clock::now();
    Status st = inner_->OnEpochAccepted(seq, entry, deltas);
    accepted_ms = Ms(t0, Clock::now());
    const uint64_t after = FileSize(wal_path_);
    wal_bytes = after > before ? after - before : 0;
    return st;
  }
  Status OnEpochResolved(uint64_t seq, bool committed) override {
    const auto t0 = Clock::now();
    Status st = inner_->OnEpochResolved(seq, committed);
    resolved_ms = Ms(t0, Clock::now());
    return st;
  }
  void Reset() {
    accepted_ms = 0.0;
    resolved_ms = 0.0;
    wal_bytes = 0;
  }

  double accepted_ms = 0.0;
  double resolved_ms = 0.0;
  uint64_t wal_bytes = 0;

 private:
  ivm::EpochDurabilityHook* inner_;
  std::string wal_path_;
};

class TimedCommitHook final : public ivm::EpochCommitHook {
 public:
  explicit TimedCommitHook(ivm::EpochCommitHook* inner) : inner_(inner) {}
  void OnEpochCommitted(const ivm::EpochRecord& record) override {
    const auto t0 = Clock::now();
    inner_->OnEpochCommitted(record);
    install_ms = Ms(t0, Clock::now());
  }
  double install_ms = 0.0;

 private:
  ivm::EpochCommitHook* inner_;
};

struct Tracing {
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  obs::MetricsSnapshot start;
  obs::MetricsSnapshot global_start;
  bool on = false;

  // Switches the manager's context to the traced sinks.
  void Begin(ivm::ViewManager* manager) {
    registry.set_enabled(true);
    tracer.set_enabled(true);
    obs::MetricsRegistry::Global().set_enabled(true);
    ExecContext ctx = manager->exec_context();
    ctx.metrics = &registry;
    ctx.tracer = &tracer;
    manager->set_exec_context(ctx);
    start = registry.Snapshot();
    global_start = obs::MetricsRegistry::Global().Snapshot();
    tracer.Clear();
    on = true;
  }
};

uint64_t CounterDelta(const obs::MetricsSnapshot& before,
                      const obs::MetricsSnapshot& after, const std::string& name) {
  auto get = [&](const obs::MetricsSnapshot& s) -> uint64_t {
    auto it = s.counters.find(name);
    return it == s.counters.end() ? 0 : it->second;
  };
  return get(after) - get(before);
}

// Durations of the epoch's top-level `stage`, `commit` and `advance` spans.
struct Spans {
  double stage_ms = 0.0;
  double commit_ms = 0.0;
  double advance_ms = 0.0;
};

Spans TakeSpans(obs::Tracer* tracer) {
  Spans spans;
  std::string error;
  std::optional<obs::JsonValue> doc =
      obs::ParseJson(tracer->ToChromeTraceJson(), &error);
  tracer->Clear();
  const obs::JsonValue* events = doc ? doc->Find("traceEvents") : nullptr;
  if (events == nullptr) throw CheckFailure("trace export unreadable: " + error);
  for (const obs::JsonValue& event : events->array) {
    const std::string& name = event.Find("name")->string_value;
    const double ms = event.Find("dur")->number_value / 1e3;
    if (name == "stage") spans.stage_ms += ms;
    if (name == "commit") spans.commit_ms += ms;
    if (name == "advance") spans.advance_ms += ms;
  }
  return spans;
}

// The per-layer breakdown of the traced epochs.
struct EpochTrace {
  std::vector<double> wall, validate, wal, stage, refresh, advance, install,
      checkpoint, unattributed, wal_bytes_per_row;
  uint64_t base_rows_read = 0;
  uint64_t probe_rows = 0;
  uint64_t epochs = 0;

  void Add(double wall_ms, double validate_ms, const ivm::EpochRecord& record,
           obs::Tracer* tracer, const TimedDurabilityHook* durability,
           const TimedCommitHook* commit, size_t delta_rows, bool checkpointed) {
    const Spans spans = TakeSpans(tracer);
    const double wal_ms = durability ? durability->accepted_ms : 0.0;
    const double resolved_ms = durability ? durability->resolved_ms : 0.0;
    const double install_ms = commit ? commit->install_ms : 0.0;
    wall.push_back(wall_ms);
    validate.push_back(validate_ms);
    stage.push_back(spans.stage_ms);
    refresh.push_back(spans.stage_ms + spans.commit_ms);
    advance.push_back(spans.advance_ms);
    install.push_back(install_ms);
    if (durability != nullptr) {
      wal.push_back(wal_ms);
      if (delta_rows > 0) {
        wal_bytes_per_row.push_back(static_cast<double>(durability->wal_bytes) /
                                    static_cast<double>(delta_rows));
      }
      if (checkpointed) checkpoint.push_back(resolved_ms);
    }
    unattributed.push_back(wall_ms - validate_ms - wal_ms - spans.stage_ms -
                           spans.commit_ms - spans.advance_ms - install_ms -
                           resolved_ms);
    for (const ivm::EpochRecord::ViewReport& view : record.views) {
      for (const gpivot::CostReportNode& node : view.cost.nodes) {
        if (node.shared_ref) continue;  // a shared subtree reports once
        base_rows_read += node.stats.base_rows_read;
        probe_rows += node.stats.probe_rows;
      }
    }
    ++epochs;
  }
};

// ---- Dashboard reads -------------------------------------------------------

struct ReadShape {
  // View 1's key is (orderkey, custkey, orderyear, name, nationkey, nation):
  // lookup_keys[k] is order k's key row, in the view's key column order.
  std::vector<Row> lookup_keys;
  std::vector<size_t> v1_map;
  std::vector<size_t> v3_map;
  size_t v3_custkey = 0;
  size_t v3_measure = 0;
  std::string measure;
  int64_t num_orders = 0;
};

ReadShape MakeReadShape(const ivm::ViewManager& manager) {
  ReadShape shape;
  const Table& v1 = ViewTable(manager, "view1");
  const Table& v3 = ViewTable(manager, "view3");
  shape.v1_map = ColumnMap(v1.schema(), EvalView1(RefBase{}).columns, "view1");
  shape.v3_map = ColumnMap(v3.schema(), EvalView3(RefBase{}).columns, "view3");
  shape.measure = std::to_string(kTopKYear) + "**sum";
  shape.v3_custkey = *v3.schema().FindColumn("custkey");
  shape.v3_measure = *v3.schema().FindColumn(shape.measure);
  const RefBase base = RefFromCatalog(manager.catalog());
  shape.num_orders = static_cast<int64_t>(base.orders.size());
  shape.lookup_keys.resize(base.orders.size() + 1);
  for (const auto& [orderkey, order] : base.orders) {
    if (orderkey < 1 || orderkey > shape.num_orders) {
      throw CheckFailure("orderkeys are not 1..number of orders");
    }
    const Customer& cust = base.customers.at(order.custkey);
    Row& key = shape.lookup_keys[orderkey];
    for (const std::string& column : v1.key()) {
      key.push_back(column == "orderkey"    ? Value::Int(orderkey)
                    : column == "custkey"   ? Value::Int(order.custkey)
                    : column == "orderyear" ? Value::Int(order.year)
                    : column == "name"      ? Value::Str(cust.name)
                    : column == "nationkey" ? Value::Int(cust.nationkey)
                    : column == "nation"
                        ? Value::Str(cust.nation)
                        : throw CheckFailure("unexpected view1 key column " + column));
    }
  }
  return shape;
}

const uint64_t kAbsentRow = HashRow(std::vector<Cell>{});

// One dashboard read as observed: its inputs, the snapshot epochs that
// bracket it, and fingerprints of every result.
struct ReadRecord {
  uint64_t v1_lo = 0, v1_hi = 0, v3_lo = 0, v3_hi = 0;
  std::array<int64_t, kLookups> keys{};
  int64_t range_lo = 0;
  std::array<uint64_t, kLookups> lookup_hash{};
  BagHash scan;
  uint32_t topk_n = 0;
  std::array<int64_t, kTopK> topk_keys{};
  std::array<int64_t, kTopK> topk_values{};
  uint64_t topk_hash = 0;
};

struct ReaderOut {
  std::vector<ReadRecord> records;
  std::vector<double> read_ms, lookup_us, scan_ms, topk_ms;
  Ops ops;
  std::string error;
};

void ReaderLoop(serve::SnapshotStore* store, const ReadShape* shape,
                uint64_t seed, const std::atomic<bool>* stop,
                const std::atomic<bool>* traced, ReaderOut* out) {
  serve::ReaderHandle* handle = nullptr;
  try {
    handle = Take(store->RegisterReader(), "RegisterReader");
    serve::QueryService queries(store);
    gpivot::Rng rng(seed);
    while (!stop->load(std::memory_order_relaxed)) {
      ReadRecord rec;
      for (int64_t& key : rec.keys) key = rng.Int(1, shape->num_orders);
      rec.range_lo = rng.Int(1, std::max<int64_t>(1, shape->num_orders - kScanWidth));
      gpivot::ExprPtr range = gpivot::And(
          gpivot::Ge(gpivot::Col("orderkey"), gpivot::Lit(rec.range_lo)),
          gpivot::Lt(gpivot::Col("orderkey"),
                     gpivot::Lit(rec.range_lo + kScanWidth)));
      const bool timed_calls = traced->load(std::memory_order_relaxed);
      std::array<std::optional<Row>, kLookups> found;

      rec.v1_lo = queries.AcquireSnapshot("view1", handle)->epoch_seq();
      rec.v3_lo = queries.AcquireSnapshot("view3", handle)->epoch_seq();
      const auto t0 = Clock::now();
      Status st;
      for (size_t i = 0; i < kLookups && st.ok(); ++i) {
        const auto c0 = Clock::now();
        auto row = queries.PointLookup("view1", shape->lookup_keys[rec.keys[i]],
                                       handle);
        if (timed_calls) out->lookup_us.push_back(Ms(c0, Clock::now()) * 1e3);
        if (row.ok()) found[i] = std::move(*row);
        st = row.status();
      }
      gpivot::Result<Table> scan = Status::Internal("not run");
      gpivot::Result<Table> top = Status::Internal("not run");
      if (st.ok()) {
        const auto c0 = Clock::now();
        scan = queries.Scan("view1", range, handle);
        if (timed_calls) out->scan_ms.push_back(Ms(c0, Clock::now()));
        st = scan.status();
      }
      if (st.ok()) {
        const auto c0 = Clock::now();
        top = queries.TopK("view3", shape->measure, kTopK, handle);
        if (timed_calls) out->topk_ms.push_back(Ms(c0, Clock::now()));
        st = top.status();
      }
      const auto t1 = Clock::now();
      rec.v1_hi = queries.AcquireSnapshot("view1", handle)->epoch_seq();
      rec.v3_hi = queries.AcquireSnapshot("view3", handle)->epoch_seq();
      out->ops.Check("read", st, "dashboard read");
      out->read_ms.push_back(Ms(t0, t1));

      for (size_t i = 0; i < kLookups; ++i) {
        rec.lookup_hash[i] =
            found[i] ? HashRow(*found[i], shape->v1_map) : kAbsentRow;
      }
      for (const Row& row : scan->rows()) {
        rec.scan.Add(HashRow(row, shape->v1_map));
      }
      rec.topk_n = static_cast<uint32_t>(std::min(top->num_rows(), kTopK));
      for (size_t i = 0; i < rec.topk_n; ++i) {
        const Row& row = top->rows()[i];
        rec.topk_keys[i] = row[shape->v3_custkey].AsInt();
        rec.topk_values[i] = std::llround(row[shape->v3_measure].AsNumeric());
        rec.topk_hash = HashCombine(rec.topk_hash, HashRow(row, shape->v3_map));
      }
      out->records.push_back(rec);
    }
  } catch (const std::exception& e) {
    out->error = e.what();
  }
  if (handle != nullptr) store->UnregisterReader(handle);
}

// Closed-loop readers on their own threads, stopped and joined by Stop().
class Readers {
 public:
  Readers(serve::SnapshotStore* store, const ReadShape* shape,
          uint64_t seed, const std::atomic<bool>* traced)
      : outs_(kReaders) {
    start_ = Clock::now();
    for (size_t r = 0; r < kReaders; ++r) {
      threads_.emplace_back(ReaderLoop, store, shape, Mix(seed, 7, r), &stop_,
                            traced, &outs_[r]);
    }
  }
  ~Readers() { Stop(); }
  Readers(const Readers&) = delete;
  Readers& operator=(const Readers&) = delete;

  // Stops and joins the readers; returns their wall time in seconds.
  double Stop() {
    stop_.store(true);
    for (std::thread& t : threads_) t.join();
    threads_.clear();
    if (wall_s_ < 0) wall_s_ = SecondsSince(start_);
    return wall_s_;
  }
  std::vector<ReaderOut>& outs() { return outs_; }

 private:
  std::atomic<bool> stop_{false};
  std::vector<ReaderOut> outs_;
  std::vector<std::thread> threads_;
  Clock::time_point start_;
  double wall_s_ = -1.0;
};

// Checks every part of every read against the reference state of some
// committed epoch inside the part's bracket. `deltas_of(seq)` lists the
// deltas that move the reference from epoch seq-1 to seq.
void VerifyReads(
    const std::vector<const ReadRecord*>& records, RefBase base,
    uint64_t first_seq, uint64_t last_seq,
    const std::function<std::vector<const ivm::SourceDeltas*>(uint64_t)>& deltas_of) {
  constexpr uint32_t kScanBit = 1u << kLookups;
  constexpr uint32_t kTopBit = 1u << (kLookups + 1);
  constexpr uint32_t kView1Parts = kTopBit - 1;  // lookups and the scan
  constexpr uint32_t kAll = (kTopBit << 1) - 1;
  std::vector<const ReadRecord*> order = records;
  std::sort(order.begin(), order.end(), [](const ReadRecord* a, const ReadRecord* b) {
    return std::min(a->v1_lo, a->v3_lo) < std::min(b->v1_lo, b->v3_lo);
  });
  View3Aggs aggs = View3AggsFromBase(base);
  // Each order's View-1 row hash, refreshed for the orders a delta touches.
  std::vector<uint64_t> v1(base.orders.size() + 1, kAbsentRow);
  auto rehash = [&](int64_t orderkey) {
    std::optional<std::vector<Cell>> row = View1Row(base, orderkey);
    v1.at(orderkey) = row ? HashRow(*row) : kAbsentRow;
  };
  for (const auto& [orderkey, lines] : base.lines) rehash(orderkey);
  std::vector<std::pair<const ReadRecord*, uint32_t>> active;
  size_t next = 0;
  const int year = kTopKYear - kFirstYear;
  for (uint64_t seq = first_seq; seq <= last_seq; ++seq) {
    if (seq > first_seq) {
      for (const ivm::SourceDeltas* deltas : deltas_of(seq)) {
        ApplyLineitemDelta(&base, *deltas, "read replay", &aggs);
        for (const auto& [table, delta] : *deltas) {
          for (const Table* side : {&delta.deletes, &delta.inserts}) {
            const size_t ok = *side->schema().FindColumn("orderkey");
            for (const Row& row : side->rows()) rehash(row[ok].AsInt());
          }
        }
      }
    }
    while (next < order.size() &&
           std::min(order[next]->v1_lo, order[next]->v3_lo) <= seq) {
      active.push_back({order[next++], 0u});
    }
    std::optional<std::vector<int64_t>> top_values;  // built on first use
    for (auto& [rec, done] : active) {
      if (rec->v1_lo <= seq && seq <= rec->v1_hi) {
        for (size_t i = 0; i < kLookups; ++i) {
          if (done & (1u << i)) continue;
          if (v1.at(rec->keys[i]) == rec->lookup_hash[i]) {
            done |= 1u << i;
          }
        }
        if (!(done & kScanBit)) {
          BagHash scan;
          for (int64_t k = rec->range_lo;
               k < rec->range_lo + kScanWidth && k < static_cast<int64_t>(v1.size());
               ++k) {
            if (v1[k] != kAbsentRow) scan.Add(v1[k]);
          }
          if (scan == rec->scan) done |= kScanBit;
        }
      }
      if (rec->v3_lo <= seq && seq <= rec->v3_hi && !(done & kTopBit)) {
        if (!top_values) {
          top_values.emplace();
          for (const auto& [custkey, years] : aggs) {
            if (years[year].cnt > 0) top_values->push_back(years[year].sum);
          }
          std::sort(top_values->begin(), top_values->end(), std::greater<>());
          top_values->resize(std::min(top_values->size(), kTopK));
        }
        bool ok = rec->topk_n == top_values->size();
        uint64_t rows = 0;
        for (size_t i = 0; ok && i < rec->topk_n; ++i) {
          auto it = aggs.find(rec->topk_keys[i]);
          ok = it != aggs.end() && it->second[year].cnt > 0 &&
               it->second[year].sum == rec->topk_values[i] &&
               rec->topk_values[i] == (*top_values)[i];
          if (ok) {
            rows = HashCombine(rows, HashRow(View3Row(base, it->first, it->second)));
          }
        }
        if (ok && rows == rec->topk_hash) done |= kTopBit;
      }
    }
    for (const auto& [rec, done] : active) {
      const bool v1_open = seq < rec->v1_hi;
      const bool v3_open = seq < rec->v3_hi;
      if ((!v1_open && (done & kView1Parts) != kView1Parts) ||
          (!v3_open && !(done & kTopBit))) {
        throw CheckFailure(
            "read check: a dashboard read matches no committed epoch in [" +
            std::to_string(std::min(rec->v1_lo, rec->v3_lo)) + ", " +
            std::to_string(std::max(rec->v1_hi, rec->v3_hi)) + "] (parts " +
            std::to_string(done) + " of " + std::to_string(kAll) + ")");
      }
    }
    active.erase(std::remove_if(active.begin(), active.end(),
                                [&](const auto& a) { return a.second == kAll; }),
                 active.end());
  }
  if (next != order.size() || !active.empty()) {
    throw CheckFailure("read check: reads bracket epochs past the last commit");
  }
}

struct ReadStats {
  std::vector<double> read_ms, lookup_us, scan_ms, topk_ms;
  uint64_t reads = 0;
  double wall_s = 0.0;
};

// Collects the readers' samples, rethrows a reader's failure, and hands
// every record to `verify`.
ReadStats FinishReaders(
    Readers* readers, Ops* ops,
    const std::function<void(const std::vector<const ReadRecord*>&)>& verify) {
  ReadStats stats;
  stats.wall_s = readers->Stop();
  std::vector<const ReadRecord*> records;
  for (ReaderOut& out : readers->outs()) {
    ops->Merge(out.ops);
    if (!out.error.empty()) throw CheckFailure("reader: " + out.error);
    for (const ReadRecord& rec : out.records) records.push_back(&rec);
    stats.read_ms.insert(stats.read_ms.end(), out.read_ms.begin(), out.read_ms.end());
    stats.lookup_us.insert(stats.lookup_us.end(), out.lookup_us.begin(),
                           out.lookup_us.end());
    stats.scan_ms.insert(stats.scan_ms.end(), out.scan_ms.begin(), out.scan_ms.end());
    stats.topk_ms.insert(stats.topk_ms.end(), out.topk_ms.begin(), out.topk_ms.end());
  }
  stats.reads = records.size();
  if (stats.reads == 0) throw CheckFailure("readers completed no read");
  verify(records);
  return stats;
}

// ---- Recovery --------------------------------------------------------------

struct RecoveryStats {
  std::vector<double> open_ms;
  double checkpoint_read_ms = 0.0;
  double checkpoint_mb = 0.0;
  uint64_t replay_rows = 0;
};

// What a recovered manager must reproduce: the pre-crash epoch seq and
// fingerprints of every base table and view, plus the Open arguments.
struct CrashImage {
  std::string dir;
  uint64_t epoch_seq = 0;
  std::map<std::string, BagHash> tables;  // base tables, then "view:<name>"
  std::vector<std::string> views;
  Catalog bootstrap;  // empty base tables: Open restores from the checkpoint
  std::vector<storage::ViewDefinition> defs;
  uint64_t wal_entries = 0;  // WAL epochs after the checkpoint
};

CrashImage CaptureCrashImage(const ivm::ViewManager& live, std::string dir,
                             std::vector<storage::ViewDefinition> defs,
                             uint64_t wal_entries) {
  CrashImage image;
  image.dir = std::move(dir);
  image.epoch_seq = live.epoch_seq();
  for (const char* name : kBaseTables) {
    image.tables[name] = TableHash(BaseTable(live.catalog(), name));
  }
  for (const std::string& name : live.ViewNames()) {
    image.tables["view:" + name] = TableHash(ViewTable(live, name));
  }
  image.views = live.ViewNames();
  image.bootstrap = EmptyLike(live.catalog());
  image.defs = std::move(defs);
  image.wal_entries = wal_entries;
  return image;
}

// Opens kRecoveryCopies copies of the crash image's directory and checks
// each recovered catalog and set of views against the pre-crash state.
RecoveryStats RecoverCopies(const CrashImage& image, const std::string& work_dir,
                            Ops* ops) {
  RecoveryStats stats;
  const std::string newest =
      Take(storage::FindCheckpoints(image.dir), "FindCheckpoints").at(0);
  stats.checkpoint_mb =
      static_cast<double>(FileSize(image.dir + "/" + newest)) / (1024.0 * 1024.0);
  for (size_t c = 0; c < kRecoveryCopies; ++c) {
    const std::string copy = work_dir + "/recover" + std::to_string(c);
    fs::remove_all(copy);
    fs::copy(image.dir, copy, fs::copy_options::recursive);
    if (c == 0) {
      const auto t0 = Clock::now();
      Take(storage::ReadCheckpoint(copy + "/" + newest), "ReadCheckpoint");
      stats.checkpoint_read_ms = Ms(t0, Clock::now());
    }
    storage::StorageOptions options;
    options.dir = copy;
    options.checkpoint_every_n_epochs = kCheckpointEvery;
    const auto t0 = Clock::now();
    auto opened = storage::DurableViewManager::Open(Catalog(image.bootstrap),
                                                    image.defs, options);
    stats.open_ms.push_back(Ms(t0, Clock::now()));
    ops->Check("recovery", opened.status(), "DurableViewManager::Open on a crash copy");
    const storage::RecoveryReport& report = (*opened)->recovery_report();
    const std::string what = "recovery check (copy " + std::to_string(c) + ")";
    if (!report.used_checkpoint || report.wal_entries_replayed != image.wal_entries) {
      throw CheckFailure(what + ": replayed " +
                         std::to_string(report.wal_entries_replayed) +
                         " WAL entries, expected " + std::to_string(image.wal_entries));
    }
    stats.replay_rows = report.replay_rows_applied;
    const ivm::ViewManager& manager = *(*opened)->manager();
    if (manager.epoch_seq() != image.epoch_seq) {
      throw CheckFailure(what + ": recovered epoch seq " +
                         std::to_string(manager.epoch_seq()) + ", pre-crash " +
                         std::to_string(image.epoch_seq));
    }
    for (const char* name : kBaseTables) {
      if (!(TableHash(BaseTable(manager.catalog(), name)) == image.tables.at(name))) {
        throw CheckFailure(what + ": base table " + name +
                           " differs from the pre-crash state");
      }
    }
    for (const std::string& name : image.views) {
      if (!(TableHash(ViewTable(manager, name)) == image.tables.at("view:" + name))) {
        throw CheckFailure(what + ": " + name + " differs from the pre-crash state");
      }
    }
  }
  for (size_t c = 0; c < kRecoveryCopies; ++c) {
    fs::remove_all(work_dir + "/recover" + std::to_string(c));
  }
  return stats;
}

// A checkpoint of `manager`'s current state in a fresh directory: the crash
// image of a workload that runs without a WAL. Returns the write time.
double WriteFinalCheckpoint(const ivm::ViewManager& manager, const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  storage::CheckpointContents contents;
  contents.epoch_seq = manager.epoch_seq();
  for (const char* name : kBaseTables) {
    contents.base_tables.emplace(name, BaseTable(manager.catalog(), name));
  }
  for (const std::string& name : manager.ViewNames()) {
    contents.view_tables.emplace(
        name, Take(manager.GetView(name), "GetView")->shared_table());
  }
  const auto t0 = Clock::now();
  Status st = storage::WriteCheckpoint(
      dir + "/" + storage::CheckpointFileName(contents.epoch_seq), contents);
  const double ms = Ms(t0, Clock::now());
  if (!st.ok()) throw CheckFailure("WriteCheckpoint failed: " + st.ToString());
  return ms;
}

// ---- Results ---------------------------------------------------------------

// Wall time of a run's phases, for the report line.
class Phases {
 public:
  void Mark(const char* phase) {
    const auto now = Clock::now();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%s %.1f", text_.empty() ? "" : " ", phase,
                  Ms(last_, now) / 1e3);
    text_ += buf;
    last_ = now;
  }
  const std::string& text() const { return text_; }

 private:
  Clock::time_point last_ = Clock::now();
  std::string text_;
};

struct Measured {
  Phases phases;
  std::vector<double> setup_s, generate_ms, define_ms, open_ms;
  std::vector<double> epoch_ms;    // untraced epochs
  double maintenance_ms = 0.0;     // wall of the timed ingest/flush/apply calls
  uint64_t delta_rows = 0;         // raw delta rows handed to the program
  double tail_pct = 90.0;
  ReadStats reads;
  RecoveryStats recovery;
  std::vector<double> checkpoint_ms;  // checkpoints timed outside epochs
  EpochTrace trace;
  Tracing* tracing = nullptr;
  std::vector<double> ingest_us;
  double net_ratio = 0.0;
};

void Put(RunResult* result, const std::string& name, double value,
         const std::string& unit) {
  result->metrics[name] = Metric{value, unit};
}

RunResult Report(const RunOptions& opt, Measured& m, const Ops& ops) {
  RunResult result;
  result.ops = ops.counts();
  result.notes["epochs"] = std::to_string(m.epoch_ms.size());
  result.notes["epoch_tail"] = "p" + std::to_string(static_cast<int>(m.tail_pct));
  result.notes["reads"] = std::to_string(m.reads.reads);
  result.notes["phase_s"] = m.phases.text();
  if (!opt.trace) {
    Put(&result, "setup_s", Median(m.setup_s), "s");
    Put(&result, "epoch_ms_p50", Median(m.epoch_ms), "ms");
    Put(&result, "epoch_ms_tail", Percentile(m.epoch_ms, m.tail_pct), "ms");
    Put(&result, "delta_rows_per_s",
        static_cast<double>(m.delta_rows) / (m.maintenance_ms / 1e3), "rows/s");
    Put(&result, "recovery_ms", Median(m.recovery.open_ms), "ms");
    Put(&result, "peak_rss_mb", PeakRssMb(), "MiB");
    return result;
  }
  const EpochTrace& t = m.trace;
  const double epochs = std::max<double>(1.0, static_cast<double>(t.epochs));
  const obs::MetricsSnapshot end = m.tracing->registry.Snapshot();
  const obs::MetricsSnapshot global_end = obs::MetricsRegistry::Global().Snapshot();
  auto per_epoch = [&](const char* counter) {
    return static_cast<double>(CounterDelta(m.tracing->start, end, counter)) / epochs;
  };
  std::vector<double> checkpoints = m.checkpoint_ms;
  checkpoints.insert(checkpoints.end(), t.checkpoint.begin(), t.checkpoint.end());
  Put(&result, "tpch.generate_ms", Median(m.generate_ms), "ms");
  Put(&result, "ivm.define_ms", Median(m.define_ms), "ms");
  Put(&result, "storage.open_ms", Median(m.open_ms), "ms");
  Put(&result, "batcher.ingest_us_p50", Median(m.ingest_us), "us");
  Put(&result, "batcher.net_ratio", m.net_ratio, "ratio");
  Put(&result, "ivm.epoch_ms_p50", Median(t.wall), "ms");
  Put(&result, "ivm.validate_ms_p50", Median(t.validate), "ms");
  Put(&result, "ivm.refresh_ms_p50", Median(t.refresh), "ms");
  Put(&result, "ivm.stage_ms_p50", Median(t.stage), "ms");
  Put(&result, "ivm.advance_ms_p50", Median(t.advance), "ms");
  Put(&result, "ivm.unattributed_ms_p50", Median(t.unattributed), "ms");
  Put(&result, "exec.base_rows_read_per_epoch",
      static_cast<double>(t.base_rows_read) / epochs, "rows");
  Put(&result, "exec.join.probe_rows_per_epoch",
      static_cast<double>(t.probe_rows) / epochs, "rows");
  Put(&result, "exec.join.build_rows_per_epoch", per_epoch("exec.join.build_rows"),
      "rows");
  Put(&result, "core.gpivot.rows_in_per_epoch", per_epoch("core.gpivot.rows_in"),
      "rows");
  Put(&result, "exec.join.bytes_allocated_per_epoch",
      per_epoch("exec.join.bytes_allocated"), "bytes");
  Put(&result, "ivm.view.cow_table_clones_per_epoch",
      static_cast<double>(CounterDelta(m.tracing->global_start, global_end,
                                       "ivm.view.cow_table_clones")) /
          epochs,
      "count");
  Put(&result, "storage.wal_append_ms_p50", Median(t.wal), "ms");
  Put(&result, "storage.wal_bytes_per_delta_row", Median(t.wal_bytes_per_row),
      "bytes");
  Put(&result, "storage.checkpoint_ms_p50", Median(checkpoints), "ms");
  Put(&result, "storage.checkpoint_mb", m.recovery.checkpoint_mb, "MiB");
  Put(&result, "storage.checkpoint_read_ms", m.recovery.checkpoint_read_ms, "ms");
  Put(&result, "storage.replay_rows", static_cast<double>(m.recovery.replay_rows),
      "rows");
  Put(&result, "serve.install_ms_p50", Median(t.install), "ms");
  Put(&result, "serve.read_ms_p50", Median(m.reads.read_ms), "ms");
  Put(&result, "serve.read_ms_tail", Percentile(m.reads.read_ms, kReadTailPct), "ms");
  Put(&result, "serve.reads_per_s",
      m.reads.wall_s > 0 ? static_cast<double>(m.reads.reads) / m.reads.wall_s : 0.0,
      "1/s");
  Put(&result, "serve.lookup_us_p50", Median(m.reads.lookup_us), "us");
  Put(&result, "serve.scan_ms_p50", Median(m.reads.scan_ms), "ms");
  Put(&result, "serve.topk_ms_p50", Median(m.reads.topk_ms), "ms");
  const double untraced = Median(m.epoch_ms);
  Put(&result, "trace.overhead_pct",
      untraced > 0 ? (Median(t.wall) - untraced) / untraced * 100.0 : 0.0, "%");
  return result;
}

// ---- Batcher stream (trickle_durable, serve_hot) ---------------------------

// Keyed lineitem churn in chunks of whole flush rounds, each chunk generated
// from the program's current catalog (the generator needs the rows' current
// versions). Every generated micro-batch is kept for the replay checks.
class ChurnStream {
 public:
  ChurnStream(double theta, uint64_t seed) : theta_(theta), seed_(seed) {}

  // The next round's micro-batches; generates a chunk when needed.
  std::vector<const ivm::SourceDeltas*> NextRound(const Catalog& catalog) {
    if (next_ == batches_.size()) {
      auto chunk = Take(tpch::MakeLineitemZipfChurn(
                            catalog, kChunkFlushes * kBatchesPerFlush,
                            kKeysPerBatch, theta_, Mix(seed_, 1, chunks_++)),
                        "MakeLineitemZipfChurn");
      for (ivm::SourceDeltas& batch : chunk) batches_.push_back(std::move(batch));
    }
    std::vector<const ivm::SourceDeltas*> round;
    for (size_t i = 0; i < kBatchesPerFlush; ++i) round.push_back(&batches_[next_++]);
    return round;
  }
  // Micro-batches handed out so far, in order.
  size_t consumed() const { return next_; }
  const ivm::SourceDeltas& batch(size_t i) const { return batches_[i]; }

 private:
  double theta_;
  uint64_t seed_;
  std::vector<ivm::SourceDeltas> batches_;
  size_t next_ = 0;
  uint64_t chunks_ = 0;
};

// The forwarding hooks installed for the traced half (null when untraced).
struct RoundHooks {
  TimedDurabilityHook* durability = nullptr;
  TimedCommitHook* commit = nullptr;
};

// One flush round: ingest the micro-batches, flush, record the samples.
void RunFlushRound(ivm::ViewManager* manager, ivm::DeltaBatcher* batcher,
                   ChurnStream* stream, Tracing* tracing, RoundHooks hooks,
                   bool checkpoint_due, Measured* m, Ops* ops) {
  for (const ivm::SourceDeltas* batch : stream->NextRound(manager->catalog())) {
    const auto t0 = Clock::now();
    Status st = batcher->Ingest(*batch);
    const double ms = Ms(t0, Clock::now());
    ops->Check("ingest", st, "DeltaBatcher::Ingest");
    m->maintenance_ms += ms;
    m->delta_rows += DeltaRows(*batch);
    if (tracing->on) m->ingest_us.push_back(ms * 1e3);
  }
  double validate_ms = 0.0;
  size_t net_rows = 0;
  if (tracing->on) {
    ivm::SourceDeltas net = batcher->PendingNet();
    net_rows = DeltaRows(net);
    const auto t0 = Clock::now();
    Status st = manager->ValidateDeltas(net);
    validate_ms = Ms(t0, Clock::now());
    if (!st.ok()) throw CheckFailure("ValidateDeltas on the pending net: " + st.ToString());
    if (hooks.durability) hooks.durability->Reset();
    if (hooks.commit) hooks.commit->install_ms = 0.0;
  }
  const auto t0 = Clock::now();
  Status st = batcher->Flush();
  const double ms = Ms(t0, Clock::now());
  ops->Check("flush", st, "DeltaBatcher::Flush");
  m->maintenance_ms += ms;
  if (tracing->on) {
    m->trace.Add(ms, validate_ms, *manager->LastEpochReport(), &tracing->tracer,
                 hooks.durability, hooks.commit, net_rows, checkpoint_due);
  } else {
    m->epoch_ms.push_back(ms);
  }
}

// The delta stream of a batcher workload. `on_epoch` runs after each flush.
void RunChurn(const RunOptions& opt, ivm::ViewManager* manager,
              ivm::DeltaBatcher* batcher, ChurnStream* stream, Tracing* tracing,
              const std::function<RoundHooks()>& begin_trace,
              uint64_t checkpoint_every, uint64_t* since_checkpoint,
              const std::function<void()>& on_epoch, Measured* m, Ops* ops) {
  RoundHooks hooks;
  const auto start = Clock::now();
  while (SecondsSince(start) < opt.seconds) {
    if (opt.trace && !tracing->on && SecondsSince(start) >= opt.seconds / 2) {
      hooks = begin_trace();
      tracing->Begin(manager);
    }
    const uint64_t seq = manager->epoch_seq();
    const bool due = checkpoint_every > 0 && *since_checkpoint + 1 >= checkpoint_every;
    RunFlushRound(manager, batcher, stream, tracing, hooks, due, m, ops);
    if (manager->epoch_seq() != seq && checkpoint_every > 0) {
      *since_checkpoint = due ? 0 : *since_checkpoint + 1;
    }
    on_epoch();
  }
}

// ---- trickle_durable -------------------------------------------------------

RunResult RunTrickle(const RunOptions& opt) {
  Measured m;
  m.tail_pct = kEpochTailPct[0];
  Ops ops;
  std::unique_ptr<storage::DurableViewManager> dvm;
  std::vector<storage::ViewDefinition> defs;
  std::string dir;
  for (int i = 0; i < kSetups; ++i) {
    dvm.reset();
    if (!dir.empty()) fs::remove_all(dir);
    dir = opt.work_dir + "/durable" + std::to_string(i);
    fs::create_directories(dir);
    const auto t0 = Clock::now();
    tpch::Data data = tpch::Generate(TpchConfig(kTrickleSf, opt.seed));
    const auto t1 = Clock::now();
    Catalog catalog = Take(tpch::MakeCatalog(std::move(data)), "MakeCatalog");
    defs = ViewDefs(catalog, /*all_views=*/true);
    storage::StorageOptions options;
    options.dir = dir;
    options.checkpoint_every_n_epochs = kCheckpointEvery;
    dvm = Take(storage::DurableViewManager::Open(std::move(catalog), defs, options),
               "DurableViewManager::Open (first boot)");
    const auto t2 = Clock::now();
    m.setup_s.push_back(Ms(t0, t2) / 1e3);
    m.generate_ms.push_back(Ms(t0, t1));
    m.open_ms.push_back(Ms(t1, t2));
    m.define_ms.push_back(0.0);
  }
  ivm::ViewManager* manager = dvm->manager();
  m.phases.Mark("setup");
  const RefBase initial = RefFromCatalog(manager->catalog());

  ivm::DeltaBatcher batcher(manager);
  ChurnStream stream(kTrickleTheta, opt.seed);
  Tracing tracing;
  m.tracing = &tracing;
  TimedDurabilityHook timed(dvm.get(), storage::WalPath(dir));
  uint64_t since_checkpoint = 0;
  RunChurn(
      opt, manager, &batcher, &stream, &tracing,
      [&] {
        manager->set_durability_hook(&timed);
        return RoundHooks{&timed, nullptr};
      },
      kCheckpointEvery, &since_checkpoint, [] {}, &m, &ops);

  // Crash image: a fresh checkpoint plus kCrashEpochs WAL epochs after it.
  {
    const auto t0 = Clock::now();
    Status st = dvm->Checkpoint();
    m.checkpoint_ms.push_back(Ms(t0, Clock::now()));
    if (!st.ok()) throw CheckFailure("DurableViewManager::Checkpoint failed: " + st.ToString());
    Measured crash;  // these epochs are not samples
    Tracing untraced;
    for (size_t e = 0; e < kCrashEpochs; ++e) {
      RunFlushRound(manager, &batcher, &stream, &untraced, RoundHooks{}, false,
                    &crash, &ops);
    }
  }
  manager->set_durability_hook(dvm.get());
  m.net_ratio = static_cast<double>(batcher.stats().net_rows_flushed) /
                static_cast<double>(batcher.stats().rows_ingested);

  RefBase ref = initial;
  for (size_t i = 0; i < stream.consumed(); ++i) {
    ApplyLineitemDelta(&ref, stream.batch(i), "replay of micro-batch " + std::to_string(i));
  }
  m.phases.Mark("stream");
  CheckFinalState(*manager, ref, "trickle_durable");
  m.phases.Mark("checks");

  // The crash: the directory as the live manager left it. The live manager
  // is released before the recovered copies are opened.
  const std::string crash_dir = opt.work_dir + "/crash";
  fs::remove_all(crash_dir);
  fs::copy(dir, crash_dir, fs::copy_options::recursive);
  const CrashImage image = CaptureCrashImage(*manager, crash_dir, defs, kCrashEpochs);
  dvm.reset();
  m.recovery = RecoverCopies(image, opt.work_dir, &ops);
  m.phases.Mark("recovery");
  return Report(opt, m, ops);
}

// ---- bulk_paper ------------------------------------------------------------

// The bulk epochs are generated from the benchmark's reference base, which
// holds the same rows as the program's lineitem (checked at the end), with
// tpch::Generate's value ranges. Building them from the reference's ordered
// maps takes a few milliseconds, where tpch::MakeLineitemInsertsMixed
// rescans the whole table twice per call.
ivm::Delta EmptyLineitemDelta(const Catalog& catalog) {
  return ivm::Delta::Empty(BaseTable(catalog, "lineitem").schema());
}

Row LineRow(int64_t orderkey, int64_t linenumber, const Line& line) {
  return {Value::Int(orderkey), Value::Int(linenumber), Value::Int(line.quantity),
          Value::Int(line.price)};
}

// A 2% lineitem delete: a uniform 1% row sample (Figs. 33/37/40) plus every
// line of uniformly chosen orders up to another 1%, so the orders the
// mixed inserts fill are given back and the base keeps its shape.
ivm::SourceDeltas BulkDeletes(const Catalog& catalog, const RefBase& ref,
                              uint64_t seed) {
  gpivot::Rng rng(seed);
  ivm::Delta delta = EmptyLineitemDelta(catalog);
  const size_t half = static_cast<size_t>(
      static_cast<double>(ref.num_lines) * kBulkFraction / 2);
  std::set<std::pair<int64_t, int64_t>> taken;
  std::vector<int64_t> orders;
  for (const auto& [orderkey, lines] : ref.lines) {
    orders.push_back(orderkey);
    for (const auto& [linenumber, line] : lines) {
      if (rng.Chance(kBulkFraction / 2)) {
        taken.insert({orderkey, linenumber});
        delta.deletes.AddRow(LineRow(orderkey, linenumber, line));
      }
    }
  }
  rng.Shuffle(&orders);
  size_t whole = 0;
  for (size_t i = 0; i < orders.size() && whole < half; ++i) {
    for (const auto& [linenumber, line] : ref.lines.at(orders[i])) {
      ++whole;
      if (taken.insert({orders[i], linenumber}).second) {
        delta.deletes.AddRow(LineRow(orders[i], linenumber, line));
      }
    }
  }
  ivm::SourceDeltas deltas;
  deltas.emplace("lineitem", std::move(delta));
  return deltas;
}

// A 2% mixed insert (Figs. 38/41), as tpch::MakeLineitemInsertsMixed: half
// new line numbers for orders that have lines (View 1 rows update), half
// the first lines of orders that have none (View 1 rows appear).
ivm::SourceDeltas BulkInserts(const Catalog& catalog, const RefBase& ref,
                              uint64_t seed) {
  gpivot::Rng rng(seed);
  ivm::Delta delta = EmptyLineitemDelta(catalog);
  const size_t half = static_cast<size_t>(
      static_cast<double>(ref.num_lines) * kBulkFraction / 2);
  auto new_line = [&] { return Line{rng.Int(1, 50), rng.Int(1000, 105000)}; };
  std::vector<int64_t> with_room, lineless;
  for (const auto& [orderkey, order] : ref.orders) {
    auto it = ref.lines.find(orderkey);
    if (it == ref.lines.end()) {
      lineless.push_back(orderkey);
    } else if (it->second.rbegin()->first < kMaxLines) {
      with_room.push_back(orderkey);
    }
  }
  rng.Shuffle(&with_room);
  size_t added = 0;
  for (size_t i = 0; i < with_room.size() && added < half; ++i) {
    const int64_t next = ref.lines.at(with_room[i]).rbegin()->first + 1;
    const int64_t upto = std::min<int64_t>(kMaxLines, next + rng.Int(0, 1));
    for (int64_t l = next; l <= upto && added < half; ++l, ++added) {
      delta.inserts.AddRow(LineRow(with_room[i], l, new_line()));
    }
  }
  rng.Shuffle(&lineless);
  added = 0;
  for (size_t i = 0; i < lineless.size() && added < half; ++i) {
    const int64_t lines = rng.Int(1, 5);
    for (int64_t l = 1; l <= lines && added < half; ++l, ++added) {
      delta.inserts.AddRow(LineRow(lineless[i], l, new_line()));
    }
  }
  ivm::SourceDeltas deltas;
  deltas.emplace("lineitem", std::move(delta));
  return deltas;
}

RunResult RunBulk(const RunOptions& opt) {
  Measured m;
  m.tail_pct = kEpochTailPct[1];
  Ops ops;
  std::unique_ptr<ivm::ViewManager> manager;
  std::vector<storage::ViewDefinition> defs;
  ExecContext ctx;
  ctx.num_threads = kBulkThreads;
  for (int i = 0; i < kSetups; ++i) {
    manager.reset();
    const auto t0 = Clock::now();
    tpch::Data data = tpch::Generate(TpchConfig(kBulkSf, opt.seed));
    const auto t1 = Clock::now();
    manager = std::make_unique<ivm::ViewManager>(
        Take(tpch::MakeCatalog(std::move(data)), "MakeCatalog"));
    manager->set_exec_context(ctx);
    defs = ViewDefs(manager->catalog(), /*all_views=*/true);
    for (const storage::ViewDefinition& def : defs) {
      Status st = manager->DefineView(def.name, def.query, def.strategy);
      if (!st.ok()) throw CheckFailure("DefineView " + def.name + ": " + st.ToString());
    }
    const auto t2 = Clock::now();
    m.setup_s.push_back(Ms(t0, t2) / 1e3);
    m.generate_ms.push_back(Ms(t0, t1));
    m.define_ms.push_back(Ms(t1, t2));
  }
  m.phases.Mark("setup");
  RefBase ref = RefFromCatalog(manager->catalog());
  Tracing tracing;
  m.tracing = &tracing;
  const auto start = Clock::now();
  for (uint64_t round = 0; SecondsSince(start) < opt.seconds; ++round) {
    if (opt.trace && !tracing.on && SecondsSince(start) >= opt.seconds / 2) {
      tracing.Begin(manager.get());
    }
    double round_ms = 0.0;
    for (int kind = 0; kind < 2; ++kind) {
      ivm::SourceDeltas deltas =
          kind == 0 ? BulkDeletes(manager->catalog(), ref, Mix(opt.seed, 2, round))
                    : BulkInserts(manager->catalog(), ref, Mix(opt.seed, 3, round));
      ApplyLineitemDelta(&ref, deltas, "replay of bulk epoch");
      double validate_ms = 0.0;
      if (tracing.on) {
        const auto t0 = Clock::now();
        Status st = manager->ValidateDeltas(deltas);
        validate_ms = Ms(t0, Clock::now());
        if (!st.ok()) throw CheckFailure("ValidateDeltas: " + st.ToString());
      }
      const auto t0 = Clock::now();
      Status st = manager->ApplyUpdate(deltas);
      const double ms = Ms(t0, Clock::now());
      ops.Check("apply", st, "ViewManager::ApplyUpdate");
      m.maintenance_ms += ms;
      m.delta_rows += DeltaRows(deltas);
      round_ms += ms;
      if (tracing.on) {
        m.trace.Add(ms, validate_ms, *manager->LastEpochReport(), &tracing.tracer,
                    nullptr, nullptr, DeltaRows(deltas), false);
      }
    }
    // Delete and insert epochs form two clusters; a median over the mix
    // would fall in the gap between them, so a sample is a round's mean.
    if (!tracing.on) m.epoch_ms.push_back(round_ms / 2);
  }
  m.phases.Mark("stream");
  CheckFinalState(*manager, ref, "bulk_paper");
  m.phases.Mark("checks");

  const std::string crash_dir = opt.work_dir + "/crash";
  m.checkpoint_ms.push_back(WriteFinalCheckpoint(*manager, crash_dir));
  const CrashImage image = CaptureCrashImage(*manager, crash_dir, defs, 0);
  manager.reset();
  m.recovery = RecoverCopies(image, opt.work_dir, &ops);
  m.phases.Mark("recovery");
  return Report(opt, m, ops);
}

// ---- serve_hot -------------------------------------------------------------

RunResult RunServe(const RunOptions& opt) {
  Measured m;
  m.tail_pct = kEpochTailPct[2];
  Ops ops;
  std::unique_ptr<ivm::ViewManager> manager;
  std::unique_ptr<serve::SnapshotStore> store;
  std::vector<storage::ViewDefinition> defs;
  for (int i = 0; i < kSetups; ++i) {
    store.reset();
    manager.reset();
    const auto t0 = Clock::now();
    tpch::Data data = tpch::Generate(TpchConfig(kServeSf, opt.seed));
    const auto t1 = Clock::now();
    manager = std::make_unique<ivm::ViewManager>(
        Take(tpch::MakeCatalog(std::move(data)), "MakeCatalog"));
    defs = ViewDefs(manager->catalog(), /*all_views=*/false);
    for (const storage::ViewDefinition& def : defs) {
      Status st = manager->DefineView(def.name, def.query, def.strategy);
      if (!st.ok()) throw CheckFailure("DefineView " + def.name + ": " + st.ToString());
    }
    const auto t2 = Clock::now();
    store = std::make_unique<serve::SnapshotStore>(manager.get());
    if (Status st = store->Attach(); !st.ok()) {
      throw CheckFailure("SnapshotStore::Attach failed: " + st.ToString());
    }
    const auto t3 = Clock::now();
    m.setup_s.push_back(Ms(t0, t3) / 1e3);
    m.generate_ms.push_back(Ms(t0, t1));
    m.define_ms.push_back(Ms(t1, t2));
  }
  m.phases.Mark("setup");
  const RefBase initial = RefFromCatalog(manager->catalog());
  const uint64_t first_seq = manager->epoch_seq();
  const ReadShape shape = MakeReadShape(*manager);

  ivm::DeltaBatcher batcher(manager.get());
  ChurnStream stream(kServeTheta, opt.seed);
  Tracing tracing;
  m.tracing = &tracing;
  TimedCommitHook timed(store.get());
  std::atomic<bool> traced{false};
  // batches_at[s - first_seq]: micro-batches folded into epochs <= s.
  std::vector<size_t> batches_at = {0};
  uint64_t unused = 0;
  {
    Readers readers(store.get(), &shape, opt.seed, &traced);
    RunChurn(
        opt, manager.get(), &batcher, &stream, &tracing,
        [&] {
          manager->set_commit_hook(&timed);
          traced.store(true);
          return RoundHooks{nullptr, &timed};
        },
        0, &unused,
        [&] {
          while (first_seq + batches_at.size() <= manager->epoch_seq()) {
            batches_at.push_back(stream.consumed());
          }
        },
        &m, &ops);
    manager->set_commit_hook(store.get());
    const uint64_t last_seq = manager->epoch_seq();
    m.phases.Mark("stream");
    m.reads = FinishReaders(&readers, &ops, [&](const auto& records) {
      VerifyReads(records, initial, first_seq, last_seq, [&](uint64_t seq) {
        std::vector<const ivm::SourceDeltas*> deltas;
        for (size_t i = batches_at[seq - first_seq - 1];
             i < batches_at[seq - first_seq]; ++i) {
          deltas.push_back(&stream.batch(i));
        }
        return deltas;
      });
    });
  }
  m.phases.Mark("read-checks");
  m.net_ratio = static_cast<double>(batcher.stats().net_rows_flushed) /
                static_cast<double>(batcher.stats().rows_ingested);

  RefBase ref = initial;
  for (size_t i = 0; i < stream.consumed(); ++i) {
    ApplyLineitemDelta(&ref, stream.batch(i), "replay of micro-batch " + std::to_string(i));
  }
  CheckFinalState(*manager, ref, "serve_hot");
  m.phases.Mark("checks");

  const std::string crash_dir = opt.work_dir + "/crash";
  m.checkpoint_ms.push_back(WriteFinalCheckpoint(*manager, crash_dir));
  const CrashImage image = CaptureCrashImage(*manager, crash_dir, defs, 0);
  store.reset();
  manager.reset();
  m.recovery = RecoverCopies(image, opt.work_dir, &ops);
  m.phases.Mark("recovery");
  return Report(opt, m, ops);
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "trickle_durable" || name == "bulk_paper" || name == "serve_hot";
}

RunResult RunWorkload(const RunOptions& options) {
  fs::create_directories(options.work_dir);
  RunResult result = options.workload == "trickle_durable" ? RunTrickle(options)
                     : options.workload == "bulk_paper"    ? RunBulk(options)
                                                           : RunServe(options);
  fs::remove_all(options.work_dir);
  return result;
}

}  // namespace epochbench
