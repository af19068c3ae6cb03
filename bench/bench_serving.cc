// Mixed read/write serving figure (no paper counterpart): N reader threads
// issue a fixed lookup/scan/top-k workload through QueryService while the
// main thread drives live churn epochs through the DeltaBatcher. Every read
// is validated against per-epoch expectations precomputed on a scratch
// manager — a result must match exactly one committed epoch's state, never
// a mix — and the read path must stay lock-free (serve.read.locks absent).
// The record publishes QPS and p50/p95/p99 op latencies alongside the usual
// wall time so the serving trajectory is tracked across PRs.
//
// Knobs (all strict-parse, exit 2 on garbage, like every bench knob):
//   GPIVOT_SERVE_READERS            reader threads (default 4, min 2)
//   GPIVOT_SERVE_EPOCHS             churn epochs (default 6, min 4)
//   GPIVOT_SERVE_OPS                ops per reader per epoch (default 64)
//   GPIVOT_SERVE_MIX                "lookup:scan:topk" weights (default 8:1:1)
//   GPIVOT_SERVE_MAX_PINNED_EPOCHS  reader slots / version bound (default 8)
//
// Epoch pacing: the writer commits epoch e only after every reader has
// acquired (and acknowledged) epoch e-1; each reader then finishes its op
// block while the next flush runs. Ops in block b can therefore observe
// seq b or b+1 — both committed — and nothing else, which is exactly the
// snapshot-isolation claim the validation asserts.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "expr/expr.h"
#include "ivm/batcher.h"
#include "ivm/view_manager.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "relation/row.h"
#include "serve/query.h"
#include "serve/snapshot.h"
#include "tpch/views.h"
#include "util/check.h"

namespace gpivot::bench {
namespace {

constexpr const char* kFigure = "Serving/MixedReadWrite";
// Same churn shape (and total volume knob) as the micro-batch figure: batch
// b inserts chunk b of a new-key workload and retracts chunk b-1.
constexpr double kTotalFraction = 0.04;
constexpr size_t kScanWindows = 4;
constexpr size_t kTopK = 10;
constexpr size_t kStableKeys = 32;
constexpr const char* kMeasure = "1**extendedprice";

size_t ServeReaders() {
  static const size_t kReaders = [] {
    uint64_t n = BenchEnvUint64("GPIVOT_SERVE_READERS", 4);
    return n < 2 ? size_t{2} : static_cast<size_t>(n);
  }();
  return kReaders;
}

size_t ServeEpochs() {
  static const size_t kEpochs = [] {
    uint64_t n = BenchEnvUint64("GPIVOT_SERVE_EPOCHS", 6);
    return n < 4 ? size_t{4} : static_cast<size_t>(n);
  }();
  return kEpochs;
}

size_t ServeOps() {
  static const size_t kOps = [] {
    uint64_t n = BenchEnvUint64("GPIVOT_SERVE_OPS", 64);
    return n == 0 ? size_t{1} : static_cast<size_t>(n);
  }();
  return kOps;
}

struct WorkloadMix {
  uint64_t lookup = 8;
  uint64_t scan = 1;
  uint64_t topk = 1;
  uint64_t total() const { return lookup + scan + topk; }
};

bool ParseMixPart(const char** p, uint64_t* out) {
  if (**p < '0' || **p > '9') return false;
  uint64_t value = 0;
  while (**p >= '0' && **p <= '9') {
    if (value > (UINT64_MAX - 9) / 10) return false;
    value = value * 10 + static_cast<uint64_t>(**p - '0');
    ++*p;
  }
  *out = value;
  return true;
}

// "l:s:t" weights; anything else — including a zero total, which would
// leave the op picker with no kinds — is a typo that must not silently
// publish numbers for a different workload.
WorkloadMix MixFromEnv() {
  static const WorkloadMix kMix = [] {
    WorkloadMix mix;
    const char* value = std::getenv("GPIVOT_SERVE_MIX");
    if (value == nullptr || value[0] == '\0') return mix;
    const char* p = value;
    bool ok = ParseMixPart(&p, &mix.lookup) && *p == ':' && (++p, true) &&
              ParseMixPart(&p, &mix.scan) && *p == ':' && (++p, true) &&
              ParseMixPart(&p, &mix.topk) && *p == '\0' && mix.total() > 0;
    if (!ok) {
      std::fprintf(stderr,
                   "GPIVOT_SERVE_MIX must be 'lookup:scan:topk' with a "
                   "positive total, got \"%s\"\n",
                   value);
      std::exit(2);
    }
    return mix;
  }();
  return kMix;
}

serve::ServeOptions ServeOptionsOrDie() {
  auto options = serve::ServeOptions::FromEnv();
  if (!options.ok()) {
    std::fprintf(stderr, "%s\n", options.status().ToString().c_str());
    std::exit(2);
  }
  return *options;
}

// Order-insensitive bag fingerprint: a result matches a committed state iff
// count, wrapping sum and xor of the row hashes all agree; a torn mix of
// two epochs produces a different triple than either.
struct Fingerprint {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t xored = 0;
  bool operator==(const Fingerprint& other) const {
    return count == other.count && sum == other.sum && xored == other.xored;
  }
};

void AddRows(const Table& table, Fingerprint* fp) {
  for (const Row& row : table.rows()) {
    uint64_t h = static_cast<uint64_t>(HashRow(row));
    ++fp->count;
    fp->sum += h;
    fp->xored ^= h;
  }
}

Fingerprint FingerprintTable(const Table& table) {
  Fingerprint fp;
  AddRows(table, &fp);
  return fp;
}

// A snapshot's rows, read chunk by chunk (no flat copy).
Fingerprint FingerprintSnapshot(const serve::Snapshot& snapshot) {
  Fingerprint fp;
  const ChunkedTable& table = snapshot.version().table();
  for (size_t c = 0; c < table.num_chunks(); ++c) AddRows(table.chunk(c), &fp);
  return fp;
}

std::vector<ivm::SourceDeltas> MakeChurnBatches(const Catalog& catalog,
                                                const tpch::Config& config,
                                                size_t num_batches) {
  auto workload = tpch::MakeLineitemInsertsNewKeys(catalog, config,
                                                   kTotalFraction, 0xBEEF);
  GPIVOT_CHECK(workload.ok()) << workload.status().ToString();
  const Table& inserts = workload->at("lineitem").inserts;
  const std::vector<Row>& rows = inserts.rows();
  size_t n = rows.size();
  std::vector<ivm::SourceDeltas> batches;
  batches.reserve(num_batches);
  for (size_t b = 0; b < num_batches; ++b) {
    ivm::Delta delta = ivm::Delta::Empty(inserts.schema());
    for (size_t i = b * n / num_batches; i < (b + 1) * n / num_batches; ++i) {
      delta.inserts.AddRow(rows[i]);
    }
    if (b > 0) {
      for (size_t i = (b - 1) * n / num_batches; i < b * n / num_batches;
           ++i) {
        delta.deletes.AddRow(rows[i]);
      }
    }
    ivm::SourceDeltas deltas;
    deltas.emplace("lineitem", std::move(delta));
    batches.push_back(std::move(deltas));
  }
  return batches;
}

ivm::ViewManager MakeView1Manager(const BenchContext& context,
                                  const ExecContext& exec) {
  tpch::Data copy = context.data;
  auto catalog = tpch::MakeCatalog(std::move(copy));
  GPIVOT_CHECK(catalog.ok()) << catalog.status().ToString();
  auto query = tpch::View1(*catalog, context.config.max_line_numbers);
  GPIVOT_CHECK(query.ok()) << query.status().ToString();
  ivm::ViewManager manager(std::move(*catalog));
  manager.set_exec_context(exec);
  Status defined =
      manager.DefineView("v", *query, ivm::RefreshStrategy::kUpdate);
  GPIVOT_CHECK(defined.ok()) << defined.ToString();
  return manager;
}

// What every query must resolve to at one committed epoch.
struct EpochExpectation {
  Fingerprint full;                 // whole view table
  std::vector<Fingerprint> scans;   // per orderkey window
  Fingerprint topk;
};

struct Workload {
  std::vector<ivm::SourceDeltas> batches;
  std::vector<ExprPtr> windows;     // orderkey range predicates
  std::vector<Row> stable_keys;     // initial-view keys untouched by churn
  std::vector<uint64_t> stable_hashes;
  std::map<uint64_t, EpochExpectation> expected;  // committed seq -> state
  size_t delta_rows = 0;
};

EpochExpectation ExpectAt(const serve::QueryService& service,
                          const std::vector<ExprPtr>& windows,
                          serve::ReaderHandle* handle) {
  EpochExpectation expectation;
  std::shared_ptr<const serve::Snapshot> snapshot =
      service.AcquireSnapshot("v", handle);
  GPIVOT_CHECK(snapshot != nullptr);
  expectation.full = FingerprintSnapshot(*snapshot);
  for (const ExprPtr& window : windows) {
    auto scan = service.Scan("v", window, handle);
    GPIVOT_CHECK(scan.ok()) << scan.status().ToString();
    expectation.scans.push_back(FingerprintTable(*scan));
  }
  auto topk = service.TopK("v", kMeasure, kTopK, handle);
  GPIVOT_CHECK(topk.ok()) << topk.status().ToString();
  expectation.topk = FingerprintTable(*topk);
  return expectation;
}

// Runs the whole churn schedule once on a scratch manager (single-threaded,
// unmeasured, before any reader thread exists) and records the exact query
// results after every committed epoch.
Workload BuildWorkload(const BenchContext& context, size_t epochs) {
  ExecContext plain;
  ivm::ViewManager manager = MakeView1Manager(context, plain);
  Workload workload;
  workload.batches =
      MakeChurnBatches(manager.catalog(), context.config, epochs);
  for (const ivm::SourceDeltas& batch : workload.batches) {
    for (const auto& [name, delta] : batch) {
      workload.delta_rows +=
          delta.inserts.num_rows() + delta.deletes.num_rows();
    }
  }

  const auto* view = manager.GetView("v").value();
  const Table& table = view->table();
  GPIVOT_CHECK(table.num_rows() > 0) << "View 1 is empty at this SF";
  size_t okey = table.schema().ColumnIndexOrDie("orderkey");
  int64_t lo = table.rows().front()[okey].AsInt();
  int64_t hi = lo;
  for (const Row& row : table.rows()) {
    int64_t v = row[okey].AsInt();
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  int64_t span = hi - lo + 1;
  for (size_t w = 0; w < kScanWindows; ++w) {
    int64_t from = lo + span * static_cast<int64_t>(w) /
                            static_cast<int64_t>(kScanWindows);
    int64_t to = lo + span * static_cast<int64_t>(w + 1) /
                          static_cast<int64_t>(kScanWindows);
    workload.windows.push_back(
        And(Ge(Col("orderkey"), Lit(from)), Lt(Col("orderkey"), Lit(to))));
  }
  // Keys sampled from the initial view: the new-key workload only inserts
  // (then retracts) rows for keys outside the initial table, so these rows
  // are byte-identical at every committed epoch.
  for (size_t k = 0; k < kStableKeys && k < table.num_rows(); ++k) {
    const Row& row = table.rows()[k * table.num_rows() / kStableKeys];
    workload.stable_keys.push_back(ProjectRow(row, view->key_indices()));
    workload.stable_hashes.push_back(static_cast<uint64_t>(HashRow(row)));
  }

  serve::SnapshotStore store(&manager, serve::ServeOptions{});
  Status attached = store.Attach();
  GPIVOT_CHECK(attached.ok()) << attached.ToString();
  auto handle = store.RegisterReader();
  GPIVOT_CHECK(handle.ok()) << handle.status().ToString();
  serve::QueryService service(&store, plain);

  workload.expected[0] = ExpectAt(service, workload.windows, *handle);
  ivm::DeltaBatcher batcher(&manager);
  for (size_t b = 0; b < epochs; ++b) {
    Status st = batcher.Ingest(workload.batches[b]);
    GPIVOT_CHECK(st.ok()) << st.ToString();
    st = batcher.Flush();
    GPIVOT_CHECK(st.ok()) << st.ToString();
    GPIVOT_CHECK(manager.epoch_seq() == b + 1)
        << "churn flush must consume exactly one epoch seq";
    workload.expected[b + 1] = ExpectAt(service, workload.windows, *handle);
  }
  store.UnregisterReader(*handle);
  return workload;
}

struct ReaderStats {
  std::vector<double> latencies_ms;
  uint64_t ops = 0;
  uint64_t epochs_seen = 0;
  uint64_t failures = 0;
  std::string first_failure;
};

void ReaderLoop(const serve::SnapshotStore* store, const Workload* workload,
                serve::ReaderHandle* handle, size_t reader_id, size_t epochs,
                size_t ops_per_epoch, WorkloadMix mix,
                std::atomic<uint64_t>* ack, ReaderStats* stats) {
  // Per-reader registry: the reader-side serve.query.* counters are
  // workload-determined, but which global shard they land in is not, so
  // they stay out of the published (gated) snapshot.
  obs::MetricsRegistry metrics;
  metrics.set_enabled(true);
  ExecContext ctx;
  ctx.metrics = &metrics;
  serve::QueryService service(store, ctx);
  stats->latencies_ms.reserve((epochs + 1) * ops_per_epoch);
  auto fail = [&](std::string why) {
    if (stats->failures++ == 0) stats->first_failure = std::move(why);
  };
  const uint64_t weight = mix.total();

  for (size_t b = 0; b <= epochs; ++b) {
    // The writer holds flush b+1 until every reader acknowledges b, so the
    // head is exactly b once last_committed_seq reaches it.
    while (store->last_committed_seq() < b) std::this_thread::yield();
    std::shared_ptr<const serve::Snapshot> snapshot =
        store->Acquire("v", handle);
    if (snapshot == nullptr || snapshot->epoch_seq() != b) {
      fail("block " + std::to_string(b) + ": acquired wrong epoch");
    } else if (!(FingerprintSnapshot(*snapshot) ==
                 workload->expected.at(b).full)) {
      fail("block " + std::to_string(b) +
           ": snapshot diverges from committed state");
    } else {
      ++stats->epochs_seen;
    }
    ack->store(b + 1, std::memory_order_release);

    // Fixed op block, deliberately overlapping the writer's next flush.
    // Each op re-acquires through QueryService, so it may see b or b+1 —
    // it must match exactly one of those committed states.
    const EpochExpectation& at_b = workload->expected.at(b);
    const EpochExpectation* at_next =
        b < epochs ? &workload->expected.at(b + 1) : nullptr;
    for (size_t i = 0; i < ops_per_epoch; ++i) {
      uint64_t pick = (i + reader_id) % weight;
      auto begin = std::chrono::steady_clock::now();
      if (pick < mix.lookup) {
        size_t ki = (b * 31 + i * 7 + reader_id) %
                    workload->stable_keys.size();
        auto row = service.PointLookup("v", workload->stable_keys[ki],
                                       handle);
        if (!row.ok() || !row->has_value()) {
          fail("lookup missed a stable key");
        } else if (static_cast<uint64_t>(HashRow(**row)) !=
                   workload->stable_hashes[ki]) {
          fail("lookup row diverged from the initial state");
        }
      } else if (pick < mix.lookup + mix.scan) {
        size_t wi = (b + i + reader_id) % workload->windows.size();
        auto scan = service.Scan("v", workload->windows[wi], handle);
        if (!scan.ok()) {
          fail("scan failed: " + scan.status().ToString());
        } else {
          Fingerprint fp = FingerprintTable(*scan);
          if (!(fp == at_b.scans[wi]) &&
              !(at_next != nullptr && fp == at_next->scans[wi])) {
            fail("scan result matches no committed epoch");
          }
        }
      } else {
        auto topk = service.TopK("v", kMeasure, kTopK, handle);
        if (!topk.ok()) {
          fail("topk failed: " + topk.status().ToString());
        } else {
          Fingerprint fp = FingerprintTable(*topk);
          if (!(fp == at_b.topk) &&
              !(at_next != nullptr && fp == at_next->topk)) {
            fail("topk result matches no committed epoch");
          }
        }
      }
      auto end = std::chrono::steady_clock::now();
      stats->latencies_ms.push_back(
          std::chrono::duration<double, std::milli>(end - begin).count());
      ++stats->ops;
    }
  }
}

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  return sorted[static_cast<size_t>(q *
                                    static_cast<double>(sorted.size() - 1))];
}

void RunServing(benchmark::State& state) {
  const BenchContext& context = SharedContext();
  const ExecContext exec = BenchExecContext();
  const size_t num_readers = ServeReaders();
  const size_t epochs = ServeEpochs();
  const size_t ops_per_epoch = ServeOps();
  const WorkloadMix mix = MixFromEnv();
  const serve::ServeOptions options = ServeOptionsOrDie();
  const Workload workload = BuildWorkload(context, epochs);

  double wall_ms = 0;
  double qps = 0;
  double p50 = 0, p95 = 0, p99 = 0;
  uint64_t total_ops = 0;
  size_t view_rows = 0;
  std::string metrics_json;
  std::string cost_json;
  std::string cost_text;
  std::string prom_text;
  for (auto _ : state) {
    ivm::ViewManager manager = MakeView1Manager(context, exec);
    // The store publishes into the gated registry (serve.snapshot.installs
    // is deterministic; serve.acquire./serve.retire. are diff-ignored) and
    // appends its install/retire records to the same epoch event log the
    // manager writes, interleaved deterministically with the commits.
    serve::SnapshotStore store(&manager, options, obs::MetricsFromEnv(),
                               obs::EventLogFromEnv());
    Status attached = store.Attach();
    GPIVOT_CHECK(attached.ok()) << attached.ToString();
    std::vector<serve::ReaderHandle*> handles;
    for (size_t r = 0; r < num_readers; ++r) {
      auto handle = store.RegisterReader();
      GPIVOT_CHECK(handle.ok())
          << handle.status().ToString()
          << " (raise GPIVOT_SERVE_MAX_PINNED_EPOCHS to at least the "
             "reader count)";
      handles.push_back(*handle);
    }
    // Published counters cover only the mixed phase: the attach-time
    // install would otherwise make the gated install count off by one.
    if (exec.metrics != nullptr) exec.metrics->Reset();

    std::vector<ReaderStats> stats(num_readers);
    std::vector<std::atomic<uint64_t>> acks(num_readers);
    auto wall_begin = std::chrono::steady_clock::now();
    std::vector<std::thread> readers;
    for (size_t r = 0; r < num_readers; ++r) {
      readers.emplace_back(ReaderLoop, &store, &workload, handles[r], r,
                           epochs, ops_per_epoch, mix, &acks[r], &stats[r]);
    }
    ivm::DeltaBatcher batcher(&manager);
    for (size_t s = 1; s <= epochs; ++s) {
      for (size_t r = 0; r < num_readers; ++r) {
        while (acks[r].load(std::memory_order_acquire) < s) {
          std::this_thread::yield();
        }
      }
      Status st = batcher.Ingest(workload.batches[s - 1]);
      GPIVOT_CHECK(st.ok()) << st.ToString();
      st = batcher.Flush();
      GPIVOT_CHECK(st.ok()) << st.ToString();
    }
    for (std::thread& t : readers) t.join();
    auto wall_end = std::chrono::steady_clock::now();

    std::vector<double> latencies;
    total_ops = 0;
    for (size_t r = 0; r < num_readers; ++r) {
      GPIVOT_CHECK(stats[r].failures == 0)
          << "reader " << r << ": " << stats[r].first_failure;
      GPIVOT_CHECK(stats[r].epochs_seen == epochs + 1)
          << "reader " << r << " missed a committed epoch";
      latencies.insert(latencies.end(), stats[r].latencies_ms.begin(),
                       stats[r].latencies_ms.end());
      total_ops += stats[r].ops;
    }
    std::sort(latencies.begin(), latencies.end());
    wall_ms = std::chrono::duration<double, std::milli>(wall_end - wall_begin)
                  .count();
    qps = static_cast<double>(total_ops) / (wall_ms / 1000.0);
    p50 = Percentile(latencies, 0.50);
    p95 = Percentile(latencies, 0.95);
    p99 = Percentile(latencies, 0.99);

    if (exec.metrics != nullptr && exec.metrics->enabled()) {
      obs::MetricsSnapshot snapshot = exec.metrics->Snapshot();
      // The lock-free claim, asserted: registered readers never touched
      // the slow path, and every churn epoch installed exactly once.
      GPIVOT_CHECK(snapshot.counters.find("serve.read.locks") ==
                   snapshot.counters.end())
          << "a registered reader took the locked acquire path";
      auto installs = snapshot.counters.find("serve.snapshot.installs");
      GPIVOT_CHECK(installs != snapshot.counters.end() &&
                   installs->second == epochs)
          << "expected one snapshot install per churn epoch";
      metrics_json = snapshot.ToJson(5);
      prom_text = snapshot.ToPrometheusText();
      auto cost = manager.ExplainAnalyze("v");
      if (cost.ok()) {
        cost_json = cost->ToJsonLine();
        cost_text = cost->ToText();
      }
    }
    view_rows = manager.GetView("v").value()->num_rows();
    for (serve::ReaderHandle* handle : handles) {
      store.UnregisterReader(handle);
    }
    store.FlushRetired();
    state.SetIterationTime(wall_ms / 1000.0);
  }

  state.counters["qps"] = qps;
  state.counters["p99_ms"] = p99;
  state.counters["view_rows"] = static_cast<double>(view_rows);
  state.counters["delta_rows"] = static_cast<double>(workload.delta_rows);
  std::ostringstream extra;
  extra << "\"readers\": " << num_readers << ", \"serve_epochs\": " << epochs
        << ", \"ops\": " << total_ops << ", \"qps\": " << qps
        << ", \"p50_ms\": " << p50 << ", \"p95_ms\": " << p95
        << ", \"p99_ms\": " << p99;
  AddFigureRecord(
      kFigure,
      FigureRecord{"mixed_read_write", kTotalFraction,
                   SummarizeReps({wall_ms}), view_rows, workload.delta_rows,
                   std::move(metrics_json), std::move(cost_json),
                   std::move(cost_text), std::move(prom_text), extra.str()});
}

void RegisterServing() {
  ValidateBenchEnvOnce();
  // Fail fast on malformed serve knobs at registration, not mid-run.
  MixFromEnv();
  ServeOptionsOrDie();
  std::string name = std::string(kFigure) +
                     "/readers:" + std::to_string(ServeReaders()) +
                     "/epochs:" + std::to_string(ServeEpochs());
  benchmark::RegisterBenchmark(name.c_str(), RunServing)
      ->Unit(benchmark::kMillisecond)
      ->UseManualTime()
      ->Iterations(1);
}

}  // namespace
}  // namespace gpivot::bench

int main(int argc, char** argv) {
  gpivot::bench::RegisterServing();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
