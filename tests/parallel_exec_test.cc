// Determinism tests for the parallel maintenance executor. The contract
// under test: every parallel code path — GPivotParallel partitions,
// HashJoin's chunked probe, GroupBy's key-partitioned accumulation, and
// ViewManager's concurrent staging — produces output byte-identical
// (position-sensitive row equality, not just bag equality) to the
// sequential run, for every thread count. Plus: a mid-epoch fault under a
// parallel context must roll the manager back byte-identically, exactly as
// the sequential fault sweep guarantees.
#include <gtest/gtest.h>

#include <atomic>

#include "core/gpivot.h"
#include "core/parallel.h"
#include "exec/group_by.h"
#include "exec/join.h"
#include "ivm/view_manager.h"
#include "test_util.h"
#include "tpch/dbgen.h"
#include "tpch/views.h"
#include "util/fault_injection.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace gpivot {
namespace {

using ivm::RefreshStrategy;
using ivm::SourceDeltas;
using ivm::ViewManager;
using testing::BagEqual;
using testing::D;
using testing::I;
using testing::MakeTable;
using testing::N;
using testing::RandomVerticalSpec;
using testing::RandomVerticalTable;
using testing::S;

// min_parallel_rows = 1 forces the parallel paths onto the small tables
// tests use; production defaults would keep them sequential.
ExecContext Par(size_t threads) { return ExecContext{threads, 1}; }

const size_t kThreadCounts[] = {2, 4, 7};

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(Par(4), hits.size(),
              [&](size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); });
  for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, NestedInvocationRunsInline) {
  // A parallel loop whose body starts another parallel loop must not
  // deadlock (inner loops run inline on pool workers).
  std::atomic<size_t> total{0};
  ParallelFor(Par(4), 8, [&](size_t) {
    ParallelFor(Par(4), 8,
                [&](size_t) { total.fetch_add(1, std::memory_order_relaxed); });
  });
  EXPECT_EQ(total.load(), 64u);
}

TEST(ParallelForChunksTest, ChunksPartitionTheRange) {
  const size_t n = 103;
  ExecContext ctx = Par(4);
  std::vector<int> covered(n, 0);
  std::atomic<size_t> chunks_seen{0};
  ParallelForChunks(ctx, n, [&](size_t chunk, size_t begin, size_t end) {
    (void)chunk;
    for (size_t i = begin; i < end; ++i) covered[i]++;
    chunks_seen.fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(covered[i], 1) << "index " << i;
  EXPECT_EQ(NumChunks(ctx, n), 4u);
}

// Join inputs engineered to exercise the interesting cases: duplicate build
// keys (one probe row fans out), NULL keys on both sides (never match), and
// unmatched rows on both sides (outer/semi/anti paths).
Table JoinLeft(size_t rows) {
  Table t(Schema({{"k", DataType::kInt64},
                  {"tag", DataType::kString},
                  {"lv", DataType::kInt64}}));
  for (size_t i = 0; i < rows; ++i) {
    Value key = i % 11 == 0 ? N() : I(static_cast<int64_t>(i % 17));
    t.AddRow({key, S(i % 2 == 0 ? "even" : "odd"),
              I(static_cast<int64_t>(i))});
  }
  return t;
}

Table JoinRight(size_t rows) {
  Table t(Schema({{"k", DataType::kInt64}, {"rv", DataType::kInt64}}));
  for (size_t i = 0; i < rows; ++i) {
    Value key = i % 13 == 0 ? N() : I(static_cast<int64_t>(i % 23));
    t.AddRow({key, I(static_cast<int64_t>(1000 + i))});
  }
  return t;
}

class HashJoinDeterminismTest
    : public ::testing::TestWithParam<exec::JoinType> {};

TEST_P(HashJoinDeterminismTest, ByteIdenticalAcrossThreadCounts) {
  exec::JoinSpec spec;
  spec.left_keys = {"k"};
  spec.right_keys = {"k"};
  spec.type = GetParam();
  // Both probe directions: left smaller (inner's build-left branch) and
  // left larger (the general build-right branch).
  for (auto [left_rows, right_rows] : {std::pair<size_t, size_t>{80, 200},
                                       std::pair<size_t, size_t>{200, 80}}) {
    Table left = JoinLeft(left_rows);
    Table right = JoinRight(right_rows);
    ASSERT_OK_AND_ASSIGN(Table sequential, exec::HashJoin(left, right, spec));
    for (size_t threads : kThreadCounts) {
      ASSERT_OK_AND_ASSIGN(Table parallel,
                           exec::HashJoin(left, right, spec, Par(threads)));
      EXPECT_EQ(sequential.schema(), parallel.schema());
      EXPECT_EQ(sequential.rows(), parallel.rows())
          << exec::JoinTypeToString(GetParam()) << " with " << threads
          << " threads, " << left_rows << "x" << right_rows
          << ": rows differ from sequential";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, HashJoinDeterminismTest,
    ::testing::Values(exec::JoinType::kInner, exec::JoinType::kLeftOuter,
                      exec::JoinType::kFullOuter, exec::JoinType::kLeftSemi,
                      exec::JoinType::kLeftAnti),
    [](const ::testing::TestParamInfo<exec::JoinType>& info) {
      switch (info.param) {
        case exec::JoinType::kInner: return "Inner";
        case exec::JoinType::kLeftOuter: return "LeftOuter";
        case exec::JoinType::kFullOuter: return "FullOuter";
        case exec::JoinType::kLeftSemi: return "LeftSemi";
        case exec::JoinType::kLeftAnti: return "LeftAnti";
      }
      return "?";
    });

TEST(GroupByDeterminismTest, FloatSumsBitIdenticalAcrossThreadCounts) {
  // Doubles whose sum depends on addition order: if the parallel path
  // chunked rows instead of partitioning groups by key, these sums would
  // differ in the low bits across thread counts.
  Table input(Schema({{"g", DataType::kInt64},
                      {"x", DataType::kDouble},
                      {"n", DataType::kInt64}}));
  for (size_t i = 0; i < 500; ++i) {
    input.AddRow({I(static_cast<int64_t>(i % 29)),
                  D(0.1 * static_cast<double>(i) + 1e-9 * (i % 7)),
                  i % 19 == 0 ? N() : I(static_cast<int64_t>(i))});
  }
  std::vector<AggSpec> aggs = {{AggFunc::kSum, "x", "sx"},
                               {AggFunc::kCount, "n", "cn"},
                               {AggFunc::kMin, "x", "mx"},
                               {AggFunc::kCountStar, "", "all"}};
  ASSERT_OK_AND_ASSIGN(Table sequential, exec::GroupBy(input, {"g"}, aggs));
  for (size_t threads : kThreadCounts) {
    ASSERT_OK_AND_ASSIGN(Table parallel,
                         exec::GroupBy(input, {"g"}, aggs, Par(threads)));
    EXPECT_EQ(sequential.schema(), parallel.schema());
    EXPECT_EQ(sequential.rows(), parallel.rows())
        << threads << " threads: group rows differ from sequential "
        << "(first-appearance order or float sums broke)";
  }
}

TEST(GroupByDeterminismTest, NullGroupKeysAndThreadsExceedingGroups) {
  Table input(Schema({{"g", DataType::kInt64}, {"x", DataType::kInt64}}));
  for (size_t i = 0; i < 40; ++i) {
    input.AddRow({i % 5 == 0 ? N() : I(static_cast<int64_t>(i % 3)),
                  I(static_cast<int64_t>(i))});
  }
  std::vector<AggSpec> aggs = {{AggFunc::kSum, "x", "sx"}};
  ASSERT_OK_AND_ASSIGN(Table sequential, exec::GroupBy(input, {"g"}, aggs));
  // 7 threads, only 4 distinct groups: some partitions own nothing.
  ASSERT_OK_AND_ASSIGN(Table parallel,
                       exec::GroupBy(input, {"g"}, aggs, Par(7)));
  EXPECT_EQ(sequential.rows(), parallel.rows());
}

TEST(GPivotParallelDeterminismTest, ByteIdenticalAcrossThreadCounts) {
  // Round-robin partitioning scatters every key across all partitions (the
  // hard case: each partition carries a partial row per key, and the merge
  // must interleave them deterministically).
  Rng rng(77);
  for (int trial = 0; trial < 3; ++trial) {
    RandomVerticalSpec vspec;
    vspec.num_rows = 90;
    vspec.num_dims = 1;
    vspec.num_measures = 2;
    Table input = RandomVerticalTable(vspec, &rng);
    PivotSpec spec;
    spec.pivot_by = {"a1"};
    spec.pivot_on = {"b1", "b2"};
    spec.combos = {{S("v0")}, {S("v1")}, {S("v2")}};
    ASSERT_OK_AND_ASSIGN(Table sequential, GPivotParallel(input, spec, 5));
    ASSERT_OK_AND_ASSIGN(Table plain, GPivot(input, spec));
    EXPECT_TRUE(BagEqual(plain, sequential));
    for (size_t threads : kThreadCounts) {
      ASSERT_OK_AND_ASSIGN(Table parallel,
                           GPivotParallel(input, spec, 5, Par(threads)));
      EXPECT_EQ(sequential.rows(), parallel.rows())
          << "trial " << trial << ", " << threads << " threads";
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end: the three experiment views, refreshed under every thread
// count, must leave every view and base table byte-identical to the
// sequential manager's state.

tpch::Config SmallConfig() {
  tpch::Config config;
  config.scale_factor = 0.001;
  config.seed = 11;
  return config;
}

ViewManager MakeThreeViewManager(const tpch::Config& config,
                                 const ExecContext& ctx) {
  Catalog catalog = tpch::MakeCatalog(tpch::Generate(config)).value();
  PlanPtr v1 = tpch::View1(catalog, config.max_line_numbers).value();
  PlanPtr v2 = tpch::View2(catalog, config.max_line_numbers, 30000.0).value();
  PlanPtr v3 =
      tpch::View3(catalog, config.first_year, config.num_years).value();
  ViewManager manager(std::move(catalog));
  manager.set_exec_context(ctx);
  EXPECT_TRUE(manager.DefineView("v1", v1, RefreshStrategy::kUpdate).ok());
  EXPECT_TRUE(
      manager.DefineView("v2", v2, RefreshStrategy::kCombinedSelect).ok());
  EXPECT_TRUE(
      manager.DefineView("v3", v3, RefreshStrategy::kCombinedGroupBy).ok());
  return manager;
}

// Position-sensitive comparison of every base table and view across two
// managers: parallelism must not even reorder rows.
void ExpectManagersIdentical(const ViewManager& expected,
                             const ViewManager& actual, size_t threads) {
  for (const std::string& name : expected.catalog().TableNames()) {
    EXPECT_EQ(expected.catalog().GetTable(name).value()->rows(),
              actual.catalog().GetTable(name).value()->rows())
        << "base table '" << name << "' differs at " << threads << " threads";
  }
  for (const char* name : {"v1", "v2", "v3"}) {
    EXPECT_EQ(expected.GetView(name).value()->table().rows(),
              actual.GetView(name).value()->table().rows())
        << "view '" << name << "' differs at " << threads << " threads";
  }
}

enum class EpochWorkload { kDelete, kInsertMixed };

SourceDeltas MakeEpochDeltas(const ViewManager& manager,
                             const tpch::Config& config, EpochWorkload kind) {
  switch (kind) {
    case EpochWorkload::kDelete:
      return tpch::MakeLineitemDeletes(manager.catalog(), 0.05, 42).value();
    case EpochWorkload::kInsertMixed:
      return tpch::MakeLineitemInsertsMixed(manager.catalog(), config, 0.05,
                                            42)
          .value();
  }
  return {};
}

class EpochDeterminismTest : public ::testing::TestWithParam<EpochWorkload> {};

TEST_P(EpochDeterminismTest, ThreeViewsByteIdenticalAcrossThreadCounts) {
  tpch::Config config = SmallConfig();
  ViewManager reference = MakeThreeViewManager(config, ExecContext{});
  SourceDeltas deltas = MakeEpochDeltas(reference, config, GetParam());
  ASSERT_OK(reference.ApplyUpdate(deltas));
  ASSERT_OK(reference.Audit());
  for (size_t threads : kThreadCounts) {
    // Fresh manager from the same generator seed: identical initial state,
    // so the deltas (computed against the reference) apply verbatim.
    ViewManager manager = MakeThreeViewManager(config, Par(threads));
    ASSERT_OK(manager.ApplyUpdate(deltas));
    ExpectManagersIdentical(reference, manager, threads);
    ASSERT_OK(manager.Audit());
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, EpochDeterminismTest,
                         ::testing::Values(EpochWorkload::kDelete,
                                           EpochWorkload::kInsertMixed),
                         [](const ::testing::TestParamInfo<EpochWorkload>& i) {
                           return i.param == EpochWorkload::kDelete
                                      ? "Delete"
                                      : "InsertMixed";
                         });

// With three views and four threads every stage worker draws at most one
// view. Here each TPC-H view is defined twice, so at two and four threads
// workers claim several views each, in an order left to scheduling; the
// committed views must still be byte-identical to the sequential run.
TEST(EpochDeterminismTest, MoreViewsThanThreadsByteIdentical) {
  tpch::Config config = SmallConfig();
  auto make = [&](const ExecContext& ctx) {
    Catalog catalog = tpch::MakeCatalog(tpch::Generate(config)).value();
    PlanPtr v1 = tpch::View1(catalog, config.max_line_numbers).value();
    PlanPtr v2 =
        tpch::View2(catalog, config.max_line_numbers, 30000.0).value();
    PlanPtr v3 =
        tpch::View3(catalog, config.first_year, config.num_years).value();
    ViewManager manager(std::move(catalog));
    manager.set_exec_context(ctx);
    for (const char* suffix : {"", "_copy"}) {
      std::string s(suffix);
      EXPECT_TRUE(
          manager.DefineView("v1" + s, v1, RefreshStrategy::kUpdate).ok());
      EXPECT_TRUE(
          manager.DefineView("v2" + s, v2, RefreshStrategy::kCombinedSelect)
              .ok());
      EXPECT_TRUE(
          manager.DefineView("v3" + s, v3, RefreshStrategy::kCombinedGroupBy)
              .ok());
    }
    return manager;
  };
  const char* kViews[] = {"v1", "v2", "v3", "v1_copy", "v2_copy", "v3_copy"};
  ViewManager reference = make(ExecContext{});
  SourceDeltas deltas =
      MakeEpochDeltas(reference, config, EpochWorkload::kInsertMixed);
  ASSERT_OK(reference.ApplyUpdate(deltas));
  ASSERT_OK(reference.Audit());
  for (size_t threads : {size_t{2}, size_t{4}}) {
    ViewManager manager = make(Par(threads));
    ASSERT_OK(manager.ApplyUpdate(deltas));
    ASSERT_OK(manager.Audit());
    for (const char* name : kViews) {
      EXPECT_EQ(reference.GetView(name).value()->table().rows(),
                manager.GetView(name).value()->table().rows())
          << "view '" << name << "' differs at " << threads << " threads";
    }
  }
}

// Fault sweep under a 4-thread executor: whichever staging task or commit
// step the armed fault lands in (the n-th poke may fall in a different
// stage task run-to-run once staging is concurrent), the epoch must roll
// back byte-identically — same contract the sequential sweep in
// apply_errors_test.cc enforces.
TEST(ParallelEpochFaultTest, MidEpochFaultAtFourThreadsRollsBackExactly) {
  tpch::Config config = SmallConfig();
  ViewManager manager = MakeThreeViewManager(config, Par(4));
  SourceDeltas deltas = MakeEpochDeltas(manager, config, EpochWorkload::kDelete);

  std::vector<std::pair<std::string, std::vector<Row>>> before;
  for (const std::string& name : manager.catalog().TableNames()) {
    before.emplace_back(name,
                        manager.catalog().GetTable(name).value()->rows());
  }
  for (const char* name : {"v1", "v2", "v3"}) {
    before.emplace_back(name, manager.GetView(name).value()->table().rows());
  }
  auto expect_rolled_back = [&](size_t n) {
    for (const auto& [name, rows] : before) {
      auto table = manager.catalog().GetTable(name);
      const std::vector<Row>& now = table.ok()
                                        ? (*table)->rows()
                                        : manager.GetView(name)
                                              .value()
                                              ->table()
                                              .rows();
      EXPECT_EQ(rows, now) << "'" << name
                           << "' not byte-identical after rollback at point #"
                           << n;
    }
  };

  FaultInjector& injector = FaultInjector::Global();
  size_t points_hit = 0;
  for (size_t n = 1;; ++n) {
    injector.Arm(n);
    Status st = manager.ApplyUpdate(deltas);
    bool fired = injector.fired();
    injector.Disarm();
    if (st.ok()) {
      EXPECT_FALSE(fired);
      break;
    }
    ASSERT_TRUE(fired) << "non-injected failure at n=" << n << ": "
                       << st.ToString();
    EXPECT_NE(st.message().find("injected fault"), std::string::npos)
        << st.ToString();
    points_hit = n;
    expect_rolled_back(n);
    ASSERT_OK(manager.Audit());
  }
  EXPECT_GE(points_hit, 6u) << "fault sweep covered suspiciously few points";
  ASSERT_OK(manager.Audit());
}

}  // namespace
}  // namespace gpivot
