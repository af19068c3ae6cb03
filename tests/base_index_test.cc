// Delta-proportional base access: the in-place base advance with its
// delta-sized undo, and the cached per-table hash indexes the delta
// propagator probes instead of scanning unchanged base tables. Every fast
// path is checked against the scan-based reference it replaces, row for
// row and in order.

#include <atomic>
#include <thread>
#include <unordered_set>

#include <gtest/gtest.h>

#include "exec/basic_ops.h"
#include "exec/join.h"
#include "ivm/delta.h"
#include "ivm/view_manager.h"
#include "test_util.h"
#include "tpch/dbgen.h"
#include "tpch/views.h"

namespace gpivot {
namespace {

using ::gpivot::ivm::Delta;
using ::gpivot::ivm::TableUndo;
using ::gpivot::ivm::ViewManager;
using ::gpivot::testing::I;
using ::gpivot::testing::N;
using ::gpivot::testing::S;

Schema BagSchema() {
  return Schema({{"k", DataType::kInt64},
                 {"tag", DataType::kString},
                 {"v", DataType::kInt64}});
}

// A cell from a small alphabet (so rows repeat), NULL now and then.
Row RandomBagRow(Rng* rng) {
  Value k = rng->Chance(0.1) ? N() : I(rng->Int(0, 5));
  Value tag = S(rng->Chance(0.5) ? "x" : "y");
  return {k, tag, I(rng->Int(0, 2))};
}

Table RandomBag(Rng* rng, size_t rows) {
  Table table(BagSchema());
  for (size_t i = 0; i < rows; ++i) table.AddRow(RandomBagRow(rng));
  return table;
}

// Deletes that all match: the values of distinct stored rows, shuffled so
// the delta's order differs from the table's.
Delta RandomDelta(Rng* rng, const Table& table, size_t deletes,
                  size_t inserts) {
  Delta delta = Delta::Empty(table.schema());
  std::vector<size_t> picks(table.num_rows());
  for (size_t i = 0; i < picks.size(); ++i) picks[i] = i;
  rng->Shuffle(&picks);
  for (size_t i = 0; i < deletes && i < picks.size(); ++i) {
    delta.deletes.AddRow(table.RowAt(picks[i]));
  }
  for (size_t i = 0; i < inserts; ++i) {
    delta.inserts.AddRow(RandomBagRow(rng));
  }
  return delta;
}

// ---- In-place apply and its undo -----------------------------------------

TEST(InPlaceApplyTest, MatchesBagDifferenceThenAppend) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    Table table = RandomBag(&rng, rng.Int(0, 60));
    ASSERT_OK(table.SetKey({"k"}));  // declared keys survive the apply
    Delta delta = RandomDelta(&rng, table, rng.Int(0, 20), rng.Int(0, 10));

    Table expected =
        exec::BagDifference(table, delta.deletes).value();
    for (const Row& row : delta.inserts.rows()) expected.AddRow(row);

    TableUndo undo;
    ASSERT_OK(ivm::ApplyDeltaToTableWithUndo(&table, delta, &undo));
    EXPECT_EQ(table.rows(), expected.rows()) << "seed " << seed;
    EXPECT_EQ(table.key(), std::vector<std::string>{"k"});
    EXPECT_EQ(undo.removed_rows.size(), delta.deletes.num_rows());
    EXPECT_EQ(undo.removed_positions.size(), delta.deletes.num_rows());
  }
}

TEST(InPlaceApplyTest, RollbackRestoresExactRowSequence) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    Table table = RandomBag(&rng, rng.Int(0, 60));
    const std::vector<Row> before = table.rows();
    Delta delta = RandomDelta(&rng, table, rng.Int(0, 20), rng.Int(0, 10));
    TableUndo undo;
    ASSERT_OK(ivm::ApplyDeltaToTableWithUndo(&table, delta, &undo));
    ivm::RollbackTable(&table, &undo);
    EXPECT_EQ(table.rows(), before) << "seed " << seed;
    EXPECT_FALSE(undo.truncate_to.has_value());
    EXPECT_TRUE(undo.removed_rows.empty());
    // A consumed undo is a no-op.
    ivm::RollbackTable(&table, &undo);
    EXPECT_EQ(table.rows(), before);
  }
}

TEST(InPlaceApplyTest, FailedDeleteLeavesTableAndUndoUntouched) {
  Table table = testing::MakeTable(
      {{"k", DataType::kInt64}, {"tag", DataType::kString}},
      {{I(1), S("a")}, {I(2), S("b")}, {I(1), S("a")}});
  const std::vector<Row> before = table.rows();

  // One more copy of (1, a) than the table holds, and a row it never held.
  for (const std::vector<Row>& deletes :
       {std::vector<Row>{{I(1), S("a")}, {I(1), S("a")}, {I(1), S("a")}},
        std::vector<Row>{{I(2), S("b")}, {I(3), S("c")}}}) {
    Delta delta = Delta::Empty(table.schema());
    for (const Row& row : deletes) delta.deletes.AddRow(row);
    delta.inserts.AddRow({I(9), S("z")});
    TableUndo undo;
    Status st = ivm::ApplyDeltaToTableWithUndo(&table, delta, &undo);
    EXPECT_TRUE(st.IsConstraintViolation()) << st.ToString();
    EXPECT_EQ(table.rows(), before);
    EXPECT_FALSE(undo.truncate_to.has_value());
    EXPECT_TRUE(undo.removed_positions.empty());
    EXPECT_TRUE(undo.removed_rows.empty());
    ivm::RollbackTable(&table, &undo);
    EXPECT_EQ(table.rows(), before);
  }
}

// ---- The cached hash index -----------------------------------------------

TEST(HashIndexTest, FindReturnsAscendingMatchesIncludingNull) {
  Table table = testing::MakeTable(
      {{"k", DataType::kInt64}, {"v", DataType::kString}},
      {{I(1), S("a")}, {N(), S("b")}, {I(1), S("c")}, {I(2), S("d")},
       {N(), S("e")}, {I(1), S("f")}});
  std::shared_ptr<const HashIndex> index = table.Index({0});
  std::vector<uint32_t> hits;
  index->Find(table.rows(), {I(1)}, {0}, &hits);
  EXPECT_EQ(hits, (std::vector<uint32_t>{0, 2, 5}));
  hits.clear();
  index->Find(table.rows(), {N()}, {0}, &hits);
  EXPECT_EQ(hits, (std::vector<uint32_t>{1, 4}));
  hits.clear();
  index->Find(table.rows(), {I(7)}, {0}, &hits);
  EXPECT_TRUE(hits.empty());
}

TEST(HashIndexTest, SharedByCopiesAndDroppedByEveryMutation) {
  Rng rng(3);
  Table table = RandomBag(&rng, 50);
  const uint64_t builds = HashIndexBuilds();
  std::shared_ptr<const HashIndex> index = table.Index({0, 1});
  EXPECT_EQ(HashIndexBuilds(), builds + 1);
  EXPECT_EQ(table.Index({0, 1}), index) << "second use must hit the cache";
  EXPECT_NE(table.Index({1}), index) << "one index per column list";
  EXPECT_EQ(HashIndexBuilds(), builds + 2);

  Table copy = table;
  EXPECT_EQ(copy.Index({0, 1}), index) << "copies share the index";
  Table assigned;
  assigned = table;
  EXPECT_EQ(assigned.Index({0, 1}), index);
  Table moved = std::move(assigned);
  EXPECT_EQ(moved.Index({0, 1}), index);
  EXPECT_EQ(HashIndexBuilds(), builds + 2);

  copy.AddRow(RandomBagRow(&rng));
  EXPECT_NE(copy.Index({0, 1}), index) << "AddRow must drop the index";
  EXPECT_EQ(table.Index({0, 1}), index) << "the original keeps its own";

  Table via_mutable = table;
  via_mutable.mutable_rows();
  EXPECT_NE(via_mutable.Index({0, 1}), index)
      << "mutable_rows must drop the index";

  Table applied = table;
  Delta delta = RandomDelta(&rng, applied, 5, 3);
  TableUndo undo;
  ASSERT_OK(ivm::ApplyDeltaToTableWithUndo(&applied, delta, &undo));
  std::shared_ptr<const HashIndex> after = applied.Index({0, 1});
  EXPECT_NE(after, index) << "the in-place apply must drop the index";
  ivm::RollbackTable(&applied, &undo);
  EXPECT_NE(applied.Index({0, 1}), after) << "rollback must drop it too";
}

TEST(HashIndexTest, ConcurrentFirstUseBuildsOnce) {
  Rng rng(5);
  Table table = RandomBag(&rng, 20000);
  const uint64_t builds = HashIndexBuilds();
  constexpr int kThreads = 4;
  std::vector<std::shared_ptr<const HashIndex>> seen(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      seen[t] = table.Index({0});
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(HashIndexBuilds(), builds + 1);
  for (const auto& index : seen) EXPECT_EQ(index, seen[0]);
}

// ---- Index paths == scan paths -------------------------------------------

struct ExecVariant {
  size_t chunk;
  size_t threads;
};

std::vector<ExecVariant> ExecVariants() {
  std::vector<ExecVariant> variants;
  for (size_t chunk : {size_t{0}, size_t{1}, size_t{7}, kVectorChunkAuto}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      variants.push_back({chunk, threads});
    }
  }
  return variants;
}

ExecContext ContextFor(const ExecVariant& v) {
  ExecContext ctx;
  ctx.num_threads = v.threads;
  ctx.min_parallel_rows = 1;
  ctx.vector_chunk_size = v.chunk;
  return ctx;
}

Table JoinSide(Rng* rng, const std::string& key, const std::string& payload,
               size_t rows, int64_t max_key) {
  Table table(Schema({{key, DataType::kInt64}, {payload, DataType::kInt64}}));
  for (size_t i = 0; i < rows; ++i) {
    Value k = rng->Chance(0.05) ? N() : I(rng->Int(0, max_key));
    table.AddRow({k, I(rng->Int(0, 9))});
  }
  return table;
}

TEST(IndexJoinTest, MatchesHashJoinRowForRow) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    // Both size orders: the index side larger (the delta case) and smaller.
    const size_t left_rows = rng.Int(0, 40);
    const size_t right_rows = seed % 2 == 0 ? rng.Int(41, 120)
                                            : rng.Int(0, left_rows);
    Table left = JoinSide(&rng, "lk", "lp", left_rows, 15);
    Table right = JoinSide(&rng, "rk", "rp", right_rows, 15);
    exec::JoinSpec spec;
    spec.left_keys = {"lk"};
    spec.right_keys = {"rk"};
    if (seed % 3 == 0) spec.residual = Gt(Col("rp"), Col("lp"));
    for (const ExecVariant& v : ExecVariants()) {
      ExecContext ctx = ContextFor(v);
      Table expected = exec::HashJoin(left, right, spec, ctx).value();
      for (bool right_indexed : {true, false}) {
        size_t read = 0;
        Table actual =
            exec::IndexJoin(left, right, spec, right_indexed, ctx, &read)
                .value();
        EXPECT_EQ(actual.schema(), expected.schema());
        EXPECT_EQ(actual.rows(), expected.rows())
            << "seed " << seed << " chunk " << v.chunk << " threads "
            << v.threads << (right_indexed ? " right" : " left")
            << " indexed";
        // Distinct base rows matched: at most the indexed side, and some
        // whenever a row came out.
        EXPECT_LE(read, (right_indexed ? right : left).num_rows());
        if (!actual.empty()) EXPECT_GT(read, 0u);
      }
    }
  }
}

TEST(IndexSemiJoinTest, MatchesScanSemiJoinInOrder) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    Table table = RandomBag(&rng, rng.Int(0, 80));
    std::unordered_set<Row, RowHash, RowEq> keys;
    for (int i = 0; i < 6; ++i) {
      Row row = RandomBagRow(&rng);
      keys.insert({row[0], row[1]});
    }
    for (const ExecVariant& v : ExecVariants()) {
      ExecContext ctx = ContextFor(v);
      Table expected =
          exec::SemiJoinKeySet(table, {"k", "tag"}, keys, ctx).value();
      Table actual =
          exec::IndexSemiJoinKeySet(table, {"k", "tag"}, keys, ctx).value();
      EXPECT_EQ(actual.rows(), expected.rows()) << "seed " << seed;
    }
  }
}

// End to end: a stream of keyed update epochs through the three paper
// views reuses the orders/customer indexes across epochs, and every chunk
// width and thread count leaves identical base tables and views that match
// recomputation.
TEST(BaseIndexEpochTest, TrickleEpochsIdenticalAcrossExecVariants) {
  tpch::Config config;
  config.scale_factor = 0.002;
  config.seed = 9;
  auto make_manager = [&](const ExecContext& ctx) {
    Catalog catalog = tpch::MakeCatalog(tpch::Generate(config)).value();
    PlanPtr v1 = tpch::View1(catalog, config.max_line_numbers).value();
    PlanPtr v2 =
        tpch::View2(catalog, config.max_line_numbers, 30000.0).value();
    PlanPtr v3 =
        tpch::View3(catalog, config.first_year, config.num_years).value();
    auto manager = std::make_unique<ViewManager>(std::move(catalog));
    manager->set_event_log(nullptr);
    manager->set_exec_context(ctx);
    EXPECT_TRUE(
        manager->DefineView("v1", v1, ivm::RefreshStrategy::kUpdate).ok());
    EXPECT_TRUE(manager
                    ->DefineView("v2", v2,
                                 ivm::RefreshStrategy::kCombinedSelect)
                    .ok());
    EXPECT_TRUE(manager
                    ->DefineView("v3", v3,
                                 ivm::RefreshStrategy::kCombinedGroupBy)
                    .ok());
    return manager;
  };
  std::unique_ptr<ViewManager> reference = make_manager(ExecContext{});
  std::vector<ivm::SourceDeltas> epochs =
      tpch::MakeLineitemZipfChurn(reference->catalog(), 4, 20, 0.0, 17)
          .value();
  for (const ivm::SourceDeltas& deltas : epochs) {
    ASSERT_OK(reference->ApplyUpdate(deltas));
  }
  ASSERT_OK(reference->Audit());
  for (const ExecVariant& v : ExecVariants()) {
    std::unique_ptr<ViewManager> manager = make_manager(ContextFor(v));
    const uint64_t builds = HashIndexBuilds();
    for (const ivm::SourceDeltas& deltas : epochs) {
      ASSERT_OK(manager->ApplyUpdate(deltas));
    }
    // orders and customer never change: their join and restriction
    // indexes are built in the first epoch and reused by the later ones.
    EXPECT_LE(HashIndexBuilds() - builds, 6u);
    for (const std::string& name : reference->catalog().TableNames()) {
      EXPECT_EQ(reference->catalog().GetTable(name).value()->rows(),
                manager->catalog().GetTable(name).value()->rows())
          << name << " chunk " << v.chunk << " threads " << v.threads;
    }
    for (const char* name : {"v1", "v2", "v3"}) {
      EXPECT_EQ(reference->GetView(name).value()->table().rows(),
                manager->GetView(name).value()->table().rows())
          << name << " chunk " << v.chunk << " threads " << v.threads;
    }
    ASSERT_OK(manager->Audit());
  }
}

}  // namespace
}  // namespace gpivot
