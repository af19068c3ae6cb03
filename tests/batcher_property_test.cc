// Property tests for delta compaction: for randomly generated bag-delta
// batch sequences, the compacted net applied once must be equivalent to the
// batches applied sequentially — base tables bag-identical (byte-identical
// once sorted; cancellation is allowed to change physical row order, and
// nothing else), views bag-identical, and the auditor happy — including the
// undo/rollback path when a fault is injected mid-flush at every injection
// point the flush epoch traverses.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/gpivot.h"
#include "ivm/batcher.h"
#include "ivm/delta.h"
#include "ivm/view_manager.h"
#include "test_util.h"
#include "tpch/dbgen.h"
#include "tpch/views.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"

namespace gpivot {
namespace {

using ivm::ApplyDeltaToTable;
using ivm::CompactDeltas;
using ivm::Delta;
using ivm::DeltaBatcher;
using ivm::RefreshStrategy;
using ivm::SourceDeltas;
using ivm::ViewManager;
using testing::BagEqual;
using testing::I;
using testing::MakeTable;
using testing::S;

Catalog PivotCatalog() {
  Catalog catalog;
  Table items = MakeTable({{"ID", DataType::kInt64},
                           {"Attribute", DataType::kString},
                           {"Value", DataType::kString}},
                          {{I(1), S("Manu"), S("Sony")},
                           {I(1), S("Type"), S("TV")},
                           {I(2), S("Manu"), S("Panasonic")},
                           {I(2), S("Type"), S("DVD")},
                           {I(3), S("Manu"), S("JVC")}});
  EXPECT_TRUE(items.SetKey({"ID", "Attribute"}).ok());
  Table payment = MakeTable(
      {{"ID", DataType::kInt64}, {"Price", DataType::kInt64}},
      {{I(1), I(200)}, {I(2), I(300)}, {I(3), I(150)}});
  EXPECT_TRUE(payment.SetKey({"ID"}).ok());
  EXPECT_TRUE(catalog.AddTable("Items", std::move(items)).ok());
  EXPECT_TRUE(catalog.AddTable("Payment", std::move(payment)).ok());
  return catalog;
}

ViewManager MakePivotManager() {
  Catalog catalog = PivotCatalog();
  PlanPtr items = MakeScan(catalog, "Items").value();
  PlanPtr payment = MakeScan(catalog, "Payment").value();
  PivotSpec spec;
  spec.pivot_by = {"Attribute"};
  spec.pivot_on = {"Value"};
  spec.combos = {{S("Manu")}, {S("Type")}};
  PlanPtr view = MakeJoin(MakeGPivot(items, spec), payment, {"ID"});
  ViewManager manager(std::move(catalog));
  EXPECT_TRUE(manager.DefineView("v", view, RefreshStrategy::kUpdate).ok());
  return manager;
}

// Generates `num_batches` random bag-delta batches against Items, each
// individually valid when applied in sequence (deletes target live rows;
// inserts use fresh keys or re-fill a key an earlier op vacated — the key
// invariant holds at every step). Tracks a model of the live rows so later
// batches can churn rows earlier batches created: exactly the
// cross-batch-cancellation shapes compaction must get right.
std::vector<SourceDeltas> RandomBatches(const ViewManager& manager,
                                        std::mt19937& rng,
                                        size_t num_batches) {
  std::vector<Row> live = manager.catalog().GetTable("Items").value()->rows();
  int64_t fresh_id = 100;
  std::vector<SourceDeltas> batches;
  const Schema& schema =
      manager.catalog().GetTable("Items").value()->schema();
  for (size_t b = 0; b < num_batches; ++b) {
    Delta delta = Delta::Empty(schema);
    // Rows this batch inserts stay invisible to this batch's own delete
    // ops: ApplyDeltaToTable applies ∇ before Δ, so an in-batch delete of
    // an in-batch insert would target a row not yet in the base.
    std::vector<Row> pending_inserts;
    size_t ops = 1 + rng() % 5;
    for (size_t op = 0; op < ops; ++op) {
      switch (rng() % 3) {
        case 0: {  // delete a row live at batch start
          if (live.empty()) break;
          size_t pick = rng() % live.size();
          delta.deletes.AddRow(live[pick]);
          live.erase(live.begin() + pick);
          break;
        }
        case 1: {  // insert a fresh-key row
          const char* attr = (rng() % 2 == 0) ? "Manu" : "Type";
          Row row{I(fresh_id++), S(attr),
                  Value::Str("val" + std::to_string(rng() % 4))};
          delta.inserts.AddRow(row);
          pending_inserts.push_back(std::move(row));
          break;
        }
        case 2: {  // update: retract a batch-start row, re-fill its key
          if (live.empty()) break;
          size_t pick = rng() % live.size();
          Row old = live[pick];
          Row updated = old;
          updated[2] = Value::Str("upd" + std::to_string(rng() % 4));
          if (updated == old) break;  // no-op update would double-insert
          delta.deletes.AddRow(old);
          delta.inserts.AddRow(updated);
          live.erase(live.begin() + pick);
          pending_inserts.push_back(std::move(updated));
          break;
        }
      }
    }
    live.insert(live.end(), pending_inserts.begin(), pending_inserts.end());
    SourceDeltas deltas;
    deltas.emplace("Items", std::move(delta));
    batches.push_back(std::move(deltas));
  }
  return batches;
}

void ExpectManagersEquivalent(const ViewManager& sequential,
                              const ViewManager& batched) {
  // Base tables: bag-identical. Sorted() makes that a byte comparison —
  // physical row order is the one freedom compaction takes (a cancelled
  // delete+reinsert no longer rebuilds the table around it).
  for (const std::string& name : sequential.catalog().TableNames()) {
    EXPECT_EQ(
        sequential.catalog().GetTable(name).value()->Sorted().rows(),
        batched.catalog().GetTable(name).value()->Sorted().rows())
        << "base table '" << name << "' diverged";
  }
  EXPECT_TRUE(BagEqual(sequential.GetView("v").value()->table(),
                       batched.GetView("v").value()->table()));
}

TEST(BatcherPropertyTest, CompactedFlushEquivalentToSequentialApply) {
  for (uint32_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::mt19937 rng(seed);
    ViewManager sequential = MakePivotManager();
    std::vector<SourceDeltas> batches =
        RandomBatches(sequential, rng, 2 + seed % 5);

    for (const SourceDeltas& batch : batches) {
      ASSERT_OK(sequential.ApplyUpdate(batch));
    }
    ASSERT_OK(sequential.Audit());

    ViewManager batched = MakePivotManager();
    DeltaBatcher batcher(&batched);
    for (const SourceDeltas& batch : batches) {
      ASSERT_OK(batcher.Ingest(batch));
    }
    ASSERT_OK(batcher.Flush());
    ASSERT_OK(batched.Audit());

    ExpectManagersEquivalent(sequential, batched);

    // The pure-compaction half of the property: the net delta alone,
    // applied to a copy of the original base table, reproduces the
    // sequential end state (bag-wise).
    ASSERT_OK_AND_ASSIGN(SourceDeltas net,
                         CompactDeltas(MakePivotManager().catalog(), batches));
    Table replay = *MakePivotManager().catalog().GetTable("Items").value();
    if (net.count("Items") != 0) {
      ASSERT_OK(ApplyDeltaToTable(&replay, net.at("Items")));
    }
    EXPECT_EQ(
        replay.Sorted().rows(),
        sequential.catalog().GetTable("Items").value()->Sorted().rows());
  }
}

// The rollback half: inject a fault at every point a flush epoch traverses.
// Every injected failure must leave the batched manager byte-identical to
// its pre-flush state with the queue still pending; the eventual clean
// retry must land on the sequential end state.
TEST(BatcherPropertyTest, FaultSweepMidFlushRollsBackAndRetries) {
  for (uint32_t seed = 100; seed < 106; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::mt19937 rng(seed);
    ViewManager sequential = MakePivotManager();
    std::vector<SourceDeltas> batches = RandomBatches(sequential, rng, 4);
    for (const SourceDeltas& batch : batches) {
      ASSERT_OK(sequential.ApplyUpdate(batch));
    }

    ViewManager batched = MakePivotManager();
    DeltaBatcher batcher(&batched);
    for (const SourceDeltas& batch : batches) {
      ASSERT_OK(batcher.Ingest(batch));
    }
    size_t pending_batches = batcher.pending_batches();
    size_t pending_rows = batcher.pending_net_rows();
    std::vector<Row> items_before =
        batched.catalog().GetTable("Items").value()->rows();
    std::vector<Row> view_before =
        batched.GetView("v").value()->table().rows();

    FaultInjector& injector = FaultInjector::Global();
    size_t points_hit = 0;
    for (size_t n = 1;; ++n) {
      injector.Arm(n);
      Status st = batcher.Flush();
      bool fired = injector.fired();
      injector.Disarm();
      if (st.ok()) {
        EXPECT_FALSE(fired);
        break;
      }
      ASSERT_TRUE(fired) << "non-injected failure at n=" << n << ": "
                         << st.ToString();
      points_hit = n;
      // Rolled back byte-identically; nothing consumed from the queue.
      EXPECT_EQ(batched.catalog().GetTable("Items").value()->rows(),
                items_before);
      EXPECT_EQ(batched.GetView("v").value()->table().rows(), view_before);
      EXPECT_EQ(batcher.pending_batches(), pending_batches);
      EXPECT_EQ(batcher.pending_net_rows(), pending_rows);
      ASSERT_OK(batched.Audit());
    }
    if (pending_rows > 0) {
      EXPECT_GE(points_hit, 1u) << "flush traversed no fault points";
    }
    EXPECT_EQ(batcher.pending_batches(), 0u);
    ASSERT_OK(batched.Audit());
    ExpectManagersEquivalent(sequential, batched);
  }
}

// Three TPC-H views under three maintenance strategies, as the batcher
// tests over the pivot view cannot cover: hot-key churn applied one batch
// per epoch and the same batches folded into one flush must land on
// bag-equal views and base tables. At theta 1.5 the hottest rows are
// touched in most batches, so most of the ingest cancels inside the queue.
ViewManager MakeTpchThreeViewManager(const tpch::Config& config) {
  Catalog catalog = tpch::MakeCatalog(tpch::Generate(config)).value();
  PlanPtr v1 = tpch::View1(catalog, config.max_line_numbers).value();
  PlanPtr v2 = tpch::View2(catalog, config.max_line_numbers, 30000.0).value();
  PlanPtr v3 =
      tpch::View3(catalog, config.first_year, config.num_years).value();
  ViewManager manager(std::move(catalog));
  EXPECT_TRUE(manager.DefineView("v1", v1, RefreshStrategy::kUpdate).ok());
  EXPECT_TRUE(
      manager.DefineView("v2", v2, RefreshStrategy::kCombinedSelect).ok());
  EXPECT_TRUE(
      manager.DefineView("v3", v3, RefreshStrategy::kCombinedGroupBy).ok());
  return manager;
}

TEST(BatcherPropertyTest, SkewedChurnFlushEquivalentToSequentialApply) {
  tpch::Config config;
  config.scale_factor = 0.001;
  config.seed = 11;
  ViewManager sequential = MakeTpchThreeViewManager(config);
  ASSERT_OK_AND_ASSIGN(
      std::vector<SourceDeltas> batches,
      tpch::MakeLineitemZipfChurn(sequential.catalog(), /*num_batches=*/8,
                                  /*rows_per_batch=*/30, /*theta=*/1.5,
                                  /*seed=*/7));
  for (const SourceDeltas& batch : batches) {
    ASSERT_OK(sequential.ApplyUpdate(batch));
  }
  ASSERT_OK(sequential.Audit());

  ViewManager batched = MakeTpchThreeViewManager(config);
  DeltaBatcher batcher(&batched);
  for (const SourceDeltas& batch : batches) {
    ASSERT_OK(batcher.Ingest(batch));
  }
  EXPECT_GT(batcher.stats().rows_cancelled, 0u)
      << "theta 1.5 churn should revisit hot rows across batches";
  ASSERT_OK(batcher.Flush());
  ASSERT_OK(batched.Audit());
  EXPECT_EQ(batched.LastEpochReport()->seq, 1u);

  for (const std::string& name : sequential.catalog().TableNames()) {
    EXPECT_EQ(
        sequential.catalog().GetTable(name).value()->Sorted().rows(),
        batched.catalog().GetTable(name).value()->Sorted().rows())
        << "base table '" << name << "' diverged";
  }
  for (const char* name : {"v1", "v2", "v3"}) {
    EXPECT_TRUE(BagEqual(sequential.GetView(name).value()->table(),
                         batched.GetView(name).value()->table()))
        << "view '" << name << "' diverged";
  }
}

// Hot-key churn over the three TPC-H views, folded by the batcher and
// flushed as one epoch: the committed views must be byte-identical
// (position-sensitive) whether the flush stages on one thread or four.
TEST(BatcherPropertyTest, ZipfChurnFlushIdenticalAcrossThreadCounts) {
  tpch::Config config;
  config.scale_factor = 0.001;
  config.seed = 11;
  auto run = [&](size_t threads) {
    Catalog catalog = tpch::MakeCatalog(tpch::Generate(config)).value();
    PlanPtr v1 = tpch::View1(catalog, config.max_line_numbers).value();
    PlanPtr v2 =
        tpch::View2(catalog, config.max_line_numbers, 30000.0).value();
    PlanPtr v3 =
        tpch::View3(catalog, config.first_year, config.num_years).value();
    ViewManager manager(std::move(catalog));
    manager.set_exec_context(ExecContext{threads, 1});
    EXPECT_TRUE(manager.DefineView("v1", v1, RefreshStrategy::kUpdate).ok());
    EXPECT_TRUE(
        manager.DefineView("v2", v2, RefreshStrategy::kCombinedSelect).ok());
    EXPECT_TRUE(
        manager.DefineView("v3", v3, RefreshStrategy::kCombinedGroupBy).ok());
    auto batches = tpch::MakeLineitemZipfChurn(manager.catalog(),
                                               /*num_batches=*/6,
                                               /*rows_per_batch=*/40,
                                               /*theta=*/1.1, /*seed=*/42);
    EXPECT_TRUE(batches.ok()) << batches.status().ToString();
    DeltaBatcher batcher(&manager);
    for (const SourceDeltas& batch : *batches) {
      EXPECT_TRUE(batcher.Ingest(batch).ok());
    }
    EXPECT_TRUE(batcher.Flush().ok());
    EXPECT_TRUE(manager.Audit().ok());
    std::vector<std::vector<Row>> views;
    for (const char* name : {"v1", "v2", "v3"}) {
      views.push_back(manager.GetView(name).value()->table().rows());
    }
    return views;
  };
  std::vector<std::vector<Row>> serial = run(1);
  ASSERT_FALSE(serial[0].empty());
  EXPECT_EQ(serial, run(4)) << "a view depends on the thread count";
}

}  // namespace
}  // namespace gpivot
