// Chunked copy-on-write view versions (ivm/apply.h, relation/chunked_table.h,
// relation/key_index.h): pinned versions never change, the key index stays
// exact through commits, rollbacks, chunk clones and bucket-array doublings,
// an epoch copies only the chunks it touches, and the serving queries that
// read chunks directly return exactly what a flat table evaluation returns.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "algebra/plan.h"
#include "exec/basic_ops.h"
#include "expr/expr.h"
#include "ivm/apply.h"
#include "ivm/view_manager.h"
#include "obs/metrics.h"
#include "relation/chunked_table.h"
#include "serve/query.h"
#include "serve/snapshot.h"
#include "test_util.h"
#include "util/random.h"

namespace gpivot {
namespace {

using ivm::MaterializedView;
using ivm::UndoLog;
using testing::I;
using testing::S;

constexpr size_t kChunk = ChunkedTable::kChunkRows;

Schema ViewSchema() {
  return Schema({{"k", DataType::kInt64},
                 {"v", DataType::kInt64},
                 {"s", DataType::kString}});
}

Row MakeRow(int64_t key, int64_t value) {
  return {I(key), I(value), S(("s" + std::to_string(value % 13)).c_str())};
}

MaterializedView MakeView(size_t rows) {
  Table table(ViewSchema());
  for (size_t i = 0; i < rows; ++i) {
    table.AddRow(MakeRow(static_cast<int64_t>(i), static_cast<int64_t>(i)));
  }
  EXPECT_TRUE(table.SetKey({"k"}).ok());
  return MaterializedView::Create(std::move(table)).value();
}

// The view's rows in position order, read through the version.
std::vector<Row> RowsOf(const ivm::ViewVersion& version) {
  std::vector<Row> rows;
  for (size_t i = 0; i < version.num_rows(); ++i) {
    rows.push_back(version.RowAt(i));
  }
  return rows;
}

// Mirrors MaterializedView's mutations on a flat vector (swap-with-last
// delete) plus a std::map from key to row, and records the undo log the
// way ExecuteMergePlan does.
class Model {
 public:
  explicit Model(const MaterializedView& view) {
    rows_ = view.version()->ToTable().rows();
    for (const Row& row : rows_) by_key_[row[0].AsInt()] = row;
  }

  void Insert(MaterializedView* view, UndoLog* undo, Row row) {
    ASSERT_TRUE(view->Insert(row).ok());
    undo->RecordInsert();
    by_key_[row[0].AsInt()] = row;
    rows_.push_back(std::move(row));
  }
  void Update(MaterializedView* view, UndoLog* undo, size_t position,
              int64_t value) {
    Row row = MakeRow(rows_[position][0].AsInt(), value);
    undo->RecordUpdate(position, view->RowAt(position));
    view->Update(position, row);
    by_key_[row[0].AsInt()] = row;
    rows_[position] = std::move(row);
  }
  void Delete(MaterializedView* view, UndoLog* undo, size_t position) {
    undo->RecordDelete(position, view->RowAt(position));
    view->Delete(position);
    by_key_.erase(rows_[position][0].AsInt());
    rows_[position] = rows_.back();
    rows_.pop_back();
  }

  const std::vector<Row>& rows() const { return rows_; }
  const std::map<int64_t, Row>& by_key() const { return by_key_; }

 private:
  std::vector<Row> rows_;
  std::map<int64_t, Row> by_key_;
};

// Every row of `version` is found at its own position through the
// version's own index: a pinned version's buckets must not have moved.
void ExpectVersionIndexExact(const ivm::ViewVersion& version) {
  EXPECT_EQ(version.index().size(), version.num_rows());
  for (size_t i = 0; i < version.num_rows(); ++i) {
    std::optional<size_t> position =
        version.Lookup(version.RowAt(i), version.key_indices());
    ASSERT_TRUE(position.has_value()) << "row " << i;
    ASSERT_EQ(*position, i) << "row " << i;
  }
}

void ExpectLookupsMatch(const MaterializedView& view,
                        const std::map<int64_t, Row>& reference,
                        int64_t max_key) {
  for (int64_t key = -2; key <= max_key + 2; ++key) {
    std::optional<size_t> position = view.LookupKey({I(key)});
    auto it = reference.find(key);
    if (it == reference.end()) {
      EXPECT_FALSE(position.has_value()) << "key " << key;
    } else {
      ASSERT_TRUE(position.has_value()) << "key " << key;
      EXPECT_EQ(view.RowAt(*position), it->second) << "key " << key;
    }
  }
}

TEST(ViewVersionTest, RandomEpochsKeepPinnedVersionsAndIndexExact) {
  Rng rng(20261020);
  MaterializedView view = MakeView(3 * kChunk + 5);
  Model model(view);
  int64_t next_key = static_cast<int64_t>(view.num_rows());
  struct Pinned {
    std::shared_ptr<const ivm::ViewVersion> version;
    Table at_pin;
  };
  std::vector<Pinned> pinned;
  const size_t initial_buckets = view.version()->index().num_buckets();
  size_t rollbacks = 0;

  for (int epoch = 0; epoch < 120; ++epoch) {
    SCOPED_TRACE("epoch " + std::to_string(epoch));
    if (rng.Index(3) == 0) {
      pinned.push_back({view.version(), view.version()->ToTable()});
    }
    const Model before = model;
    UndoLog undo;
    // Insert-heavy early on so the view grows past a bucket doubling, then
    // balanced churn.
    const size_t ops = 1 + rng.Index(40);
    const int insert_weight = epoch < 60 ? 6 : 3;
    for (size_t op = 0; op < ops; ++op) {
      const int kind = static_cast<int>(rng.Index(10));
      if (model.rows().empty() || kind < insert_weight) {
        model.Insert(&view, &undo,
                     MakeRow(next_key, static_cast<int64_t>(rng.Index(1000))));
        ++next_key;
      } else if (kind < 8) {
        model.Update(&view, &undo, rng.Index(model.rows().size()),
                     static_cast<int64_t>(rng.Index(1000)));
      } else {
        model.Delete(&view, &undo, rng.Index(model.rows().size()));
      }
    }
    if (rng.Index(4) == 0) {
      undo.Rollback(&view);
      model = before;
      ++rollbacks;
    }
    ASSERT_TRUE(view.ValidateIntegrity().ok())
        << view.ValidateIntegrity().ToString();
    EXPECT_EQ(RowsOf(*view.version()), model.rows());
    ExpectLookupsMatch(view, model.by_key(), next_key);
    for (const Pinned& pin : pinned) {
      ASSERT_EQ(RowsOf(*pin.version), pin.at_pin.rows());
      ExpectVersionIndexExact(*pin.version);
    }
  }
  EXPECT_GT(rollbacks, 0u);
  EXPECT_GT(view.version()->index().num_buckets(), initial_buckets)
      << "the run never crossed a bucket-array doubling";
}

TEST(ViewVersionTest, RollbackAcrossChunkCloneAndDoublingRestoresExactly) {
  MaterializedView view = MakeView(2 * kChunk + 3);
  std::shared_ptr<const ivm::ViewVersion> pinned = view.version();
  const std::vector<Row> pinned_rows = RowsOf(*pinned);
  const size_t buckets = pinned->index().num_buckets();
  Model model(view);

  UndoLog undo;
  model.Update(&view, &undo, 1, 7777);  // clones chunk 0
  model.Delete(&view, &undo, kChunk + 2);  // clones chunks 1 and 2
  // Enough inserts to double the bucket array at least once.
  int64_t key = 100000;
  while (view.version()->index().num_buckets() == buckets) {
    model.Insert(&view, &undo, MakeRow(key, key));
    ++key;
  }
  ASSERT_TRUE(view.ValidateIntegrity().ok());
  EXPECT_EQ(RowsOf(*view.version()), model.rows());
  EXPECT_EQ(RowsOf(*pinned), pinned_rows);
  EXPECT_EQ(pinned->index().num_buckets(), buckets);
  ExpectVersionIndexExact(*pinned);

  undo.Rollback(&view);
  ASSERT_TRUE(view.ValidateIntegrity().ok())
      << view.ValidateIntegrity().ToString();
  EXPECT_EQ(RowsOf(*view.version()), pinned_rows);
  EXPECT_EQ(RowsOf(*pinned), pinned_rows);
  ExpectVersionIndexExact(*pinned);
  // The bucket array never shrinks: the rollback keeps the doubled array.
  EXPECT_GT(view.version()->index().num_buckets(), buckets);
  std::map<int64_t, Row> reference;
  for (const Row& row : pinned_rows) reference[row[0].AsInt()] = row;
  ExpectLookupsMatch(view, reference, key);
}

// Turns the global registry on for one test and restores it after.
class GlobalMetricsScope {
 public:
  GlobalMetricsScope()
      : was_enabled_(obs::MetricsRegistry::Global().enabled()) {
    obs::MetricsRegistry::Global().set_enabled(true);
  }
  ~GlobalMetricsScope() {
    obs::MetricsRegistry::Global().set_enabled(was_enabled_);
  }
  uint64_t Counter(const std::string& name) const {
    auto counters = obs::MetricsRegistry::Global().Snapshot().counters;
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }

 private:
  bool was_enabled_;
};

TEST(ViewVersionTest, EpochCopiesOnlyTouchedChunksAndBuckets) {
  GlobalMetricsScope metrics;
  Rng rng(7);
  MaterializedView view = MakeView(10 * kChunk + 17);
  Model model(view);
  int64_t next_key = static_cast<int64_t>(view.num_rows());
  uint64_t total_copied = 0;
  uint64_t total_buckets_copied = 0;
  for (int epoch = 0; epoch < 30; ++epoch) {
    SCOPED_TRACE("epoch " + std::to_string(epoch));
    std::shared_ptr<const ivm::ViewVersion> pinned = view.version();
    const uint64_t rows_before = metrics.Counter("ivm.view.cow_rows_copied");
    const uint64_t buckets_before =
        metrics.Counter("ivm.view.cow_index_buckets_copied");
    std::set<size_t> touched_chunks;
    std::set<size_t> touched_buckets;
    const KeyIndex& index = pinned->index();
    UndoLog undo;
    for (size_t op = 0; op < 1 + rng.Index(6); ++op) {
      const size_t n = model.rows().size();
      const size_t kind = rng.Index(3);
      if (kind == 0) {
        Row row = MakeRow(next_key++, 1);
        touched_chunks.insert(n / kChunk);
        touched_buckets.insert(index.BucketOf(row));
        model.Insert(&view, &undo, std::move(row));
      } else if (kind == 1) {
        const size_t p = rng.Index(n);
        touched_chunks.insert(p / kChunk);
        model.Update(&view, &undo, p, 2);
      } else {
        const size_t p = rng.Index(n);
        touched_chunks.insert(p / kChunk);
        touched_chunks.insert((n - 1) / kChunk);
        touched_buckets.insert(index.BucketOf(model.rows()[p]));
        touched_buckets.insert(index.BucketOf(model.rows()[n - 1]));
        model.Delete(&view, &undo, p);
      }
    }
    const uint64_t rows_copied =
        metrics.Counter("ivm.view.cow_rows_copied") - rows_before;
    const uint64_t buckets_copied =
        metrics.Counter("ivm.view.cow_index_buckets_copied") - buckets_before;
    total_copied += rows_copied;
    EXPECT_LE(rows_copied, touched_chunks.size() * kChunk);
    total_buckets_copied += buckets_copied;
    EXPECT_LE(buckets_copied, touched_buckets.size());
    ExpectVersionIndexExact(*pinned);
    ASSERT_TRUE(view.ValidateIntegrity().ok());
  }
  EXPECT_GT(total_copied, 0u);
  EXPECT_GT(total_buckets_copied, 0u);
  // With no version pinned the same mutations copy nothing.
  const uint64_t rows_before = metrics.Counter("ivm.view.cow_rows_copied");
  UndoLog undo;
  model.Update(&view, &undo, 0, 3);
  model.Delete(&view, &undo, 1);
  model.Insert(&view, &undo, MakeRow(next_key, 4));
  EXPECT_EQ(metrics.Counter("ivm.view.cow_rows_copied"), rows_before);
}

// ---- Serving reads over chunks ---------------------------------------------

// A keyed base table served as-is (σ TRUE over a scan), large enough for
// several chunks, with ties and NULLs in the measure.
class ChunkedServingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Table t(Schema({{"k", DataType::kInt64},
                    {"x", DataType::kDouble},
                    {"g", DataType::kString}}));
    for (int64_t k = 0; k < static_cast<int64_t>(4 * kChunk + 9); ++k) {
      t.AddRow(RowFor(k));
    }
    ASSERT_TRUE(t.SetKey({"k"}).ok());
    for (const Row& row : t.rows()) base_[row[0].AsInt()] = row;
    next_key_ = static_cast<int64_t>(t.num_rows());
    Catalog catalog;
    ASSERT_TRUE(catalog.AddTable("T", std::move(t)).ok());
    PlanPtr scan = MakeScan(catalog, "T").value();
    manager_ = std::make_unique<ivm::ViewManager>(std::move(catalog));
    PlanPtr view = MakeSelect(scan, Ge(Col("k"), Lit(int64_t{0})));
    ASSERT_TRUE(manager_
                    ->DefineView("v", view, ivm::RefreshStrategy::kInsertDelete)
                    .ok());
    store_ = std::make_unique<serve::SnapshotStore>(manager_.get());
    ASSERT_TRUE(store_->Attach().ok());
  }

  static Row RowFor(int64_t k) {
    Value x = k % 11 == 0 ? Value::Null()
                          : Value::Real(static_cast<double>((k * 7) % 23));
    return {I(k), x, S(k % 2 == 0 ? "even" : "odd")};
  }

  // One epoch deleting a few rows and inserting fresh keys, so rows move
  // between chunks through swap-with-last deletes.
  void Churn(Rng* rng) {
    ivm::Delta delta = ivm::Delta::Empty(manager_->catalog()
                                             .GetTable("T")
                                             .value()
                                             ->schema());
    for (int i = 0; i < 5 && !base_.empty(); ++i) {
      auto it = base_.begin();
      std::advance(it, rng->Index(base_.size()));
      delta.deletes.AddRow(it->second);
      base_.erase(it);
    }
    for (int i = 0; i < 4; ++i) {
      Row row = RowFor(next_key_++);
      base_[row[0].AsInt()] = row;
      delta.inserts.AddRow(std::move(row));
    }
    ASSERT_TRUE(manager_->ApplyUpdate({{"T", std::move(delta)}}).ok());
  }

  std::map<int64_t, Row> base_;
  int64_t next_key_ = 0;
  std::unique_ptr<ivm::ViewManager> manager_;
  std::unique_ptr<serve::SnapshotStore> store_;
};

// TopK over a flat table by the documented rule: largest first, NULLs
// skipped, ties to the earlier row.
std::vector<Row> FlatTopK(const Table& table, size_t column, size_t k) {
  std::vector<size_t> order;
  for (size_t i = 0; i < table.num_rows(); ++i) {
    if (!table.RowAt(i)[column].is_null()) order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return table.RowAt(a)[column].AsNumeric() >
           table.RowAt(b)[column].AsNumeric();
  });
  std::vector<Row> out;
  for (size_t i = 0; i < std::min(k, order.size()); ++i) {
    out.push_back(table.RowAt(order[i]));
  }
  return out;
}

TEST_F(ChunkedServingTest, QueriesMatchFlatEvaluationAcrossWidthsAndThreads) {
  Rng rng(99);
  const std::vector<ExprPtr> predicates = {
      And(Ge(Col("k"), Lit(int64_t{40})), Lt(Col("k"), Lit(int64_t{170}))),
      Gt(Col("x"), Lit(10.0)),                // NULL cells filter out
      Eq(Col("g"), Lit("odd")),  // string kernel
      Lt(Col("x"), Col("k")),                 // column-to-column: row path
  };
  for (int epoch = 0; epoch < 6; ++epoch) {
    SCOPED_TRACE("epoch " + std::to_string(epoch));
    Churn(&rng);
    ASSERT_TRUE(manager_->GetView("v").value()->ValidateIntegrity().ok());
    for (size_t width : {size_t{0}, size_t{1}, size_t{7}, kVectorChunkAuto}) {
      for (size_t threads : {size_t{1}, size_t{4}}) {
        SCOPED_TRACE("width " + std::to_string(width) + " threads " +
                     std::to_string(threads));
        ExecContext ctx;
        ctx.vector_chunk_size = width;
        ctx.num_threads = threads;
        serve::QueryService service(store_.get(), ctx);
        std::shared_ptr<const serve::Snapshot> snapshot =
            service.AcquireSnapshot("v", nullptr);
        ASSERT_NE(snapshot, nullptr);
        const Table flat = snapshot->ToTable();
        ASSERT_GT(snapshot->version().table().num_chunks(), 1u);

        for (const ExprPtr& predicate : predicates) {
          Result<Table> scan = service.Scan("v", predicate, nullptr);
          Result<Table> expected = exec::Select(flat, predicate, ctx);
          ASSERT_TRUE(scan.ok() && expected.ok());
          EXPECT_EQ(scan->rows(), expected->rows());
          EXPECT_EQ(scan->schema(), expected->schema());
        }
        for (size_t k : {size_t{1}, size_t{10}, flat.num_rows() + 3}) {
          Result<Table> top = service.TopK("v", "x", k, nullptr);
          ASSERT_TRUE(top.ok());
          EXPECT_EQ(top->rows(), FlatTopK(flat, 1, k)) << "k " << k;
        }
        for (int64_t key = -1; key <= next_key_; key += 3) {
          Result<std::optional<Row>> found =
              service.PointLookup("v", {I(key)}, nullptr);
          ASSERT_TRUE(found.ok());
          auto it = base_.find(key);
          if (it == base_.end()) {
            EXPECT_FALSE(found->has_value()) << "key " << key;
          } else {
            ASSERT_TRUE(found->has_value()) << "key " << key;
            EXPECT_EQ(**found, it->second);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace gpivot
