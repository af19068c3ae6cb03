#include "relation/table.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "util/check.h"
#include "util/string_util.h"

namespace gpivot {

namespace {

std::atomic<uint64_t> g_hash_index_builds{0};

}  // namespace

HashIndex::HashIndex(const std::vector<Row>& rows, std::vector<size_t> columns)
    : columns_(std::move(columns)) {
  GPIVOT_CHECK(rows.size() < UINT32_MAX) << "HashIndex: too many rows";
  // Power-of-two bucket count >= rows (load factor <= 1), at least 2.
  size_t buckets = 2;
  shift_ = 63;
  while (buckets < rows.size()) {
    buckets <<= 1;
    --shift_;
  }
  std::vector<uint32_t> bucket_of(rows.size());
  offsets_.assign(buckets + 1, 0);
  for (size_t i = 0; i < rows.size(); ++i) {
    bucket_of[i] = static_cast<uint32_t>(Bucket(HashRowAt(rows[i], columns_)));
    ++offsets_[bucket_of[i] + 1];
  }
  for (size_t b = 0; b < buckets; ++b) offsets_[b + 1] += offsets_[b];
  // Counting sort by bucket; ascending i keeps each bucket in row order.
  positions_.resize(rows.size());
  std::vector<uint32_t> next(offsets_.begin(), offsets_.end() - 1);
  for (size_t i = 0; i < rows.size(); ++i) {
    positions_[next[bucket_of[i]]++] = static_cast<uint32_t>(i);
  }
  g_hash_index_builds.fetch_add(1, std::memory_order_relaxed);
}

size_t HashIndex::Bucket(size_t hash) const {
  // Fibonacci hashing: the top bits of the product mix every hash bit.
  return static_cast<size_t>((static_cast<uint64_t>(hash) *
                              0x9e3779b97f4a7c15ULL) >> shift_);
}

void HashIndex::Find(const std::vector<Row>& rows, const Row& probe,
                     const std::vector<size_t>& probe_indices,
                     std::vector<uint32_t>* out) const {
  const size_t b = Bucket(HashRowAt(probe, probe_indices));
  for (uint32_t i = offsets_[b]; i < offsets_[b + 1]; ++i) {
    const uint32_t pos = positions_[i];
    if (RowsEqualAt(rows[pos], columns_, probe, probe_indices)) {
      out->push_back(pos);
    }
  }
}

uint64_t HashIndexBuilds() {
  return g_hash_index_builds.load(std::memory_order_relaxed);
}

Table::Table(Schema schema, std::vector<Row> rows)
    : schema_(std::move(schema)), rows_(std::move(rows)) {
  for (const Row& row : rows_) {
    GPIVOT_CHECK(row.size() == schema_.num_columns())
        << "row arity " << row.size() << " != schema arity "
        << schema_.num_columns();
  }
}

Table::Table(const Table& other)
    : schema_(other.schema_), rows_(other.rows_), key_(other.key_) {
  // Copies share the immutable column views and indexes: the caches stay
  // warm across the copy-then-stage pattern in the maintenance path.
  ShareCachesOf(other);
}

Table& Table::operator=(const Table& other) {
  if (this == &other) return *this;
  schema_ = other.schema_;
  rows_ = other.rows_;
  key_ = other.key_;
  ShareCachesOf(other);
  return *this;
}

Table::Table(Table&& other) noexcept
    : schema_(std::move(other.schema_)),
      rows_(std::move(other.rows_)),
      key_(std::move(other.key_)) {
  TakeCachesOf(&other);
}

Table& Table::operator=(Table&& other) noexcept {
  if (this == &other) return *this;
  schema_ = std::move(other.schema_);
  rows_ = std::move(other.rows_);
  key_ = std::move(other.key_);
  TakeCachesOf(&other);
  return *this;
}

void Table::ShareCachesOf(const Table& other) {
  {
    std::lock_guard<std::mutex> lock(other.columns_mu_);
    columns_ = other.columns_;
  }
  {
    std::lock_guard<std::mutex> lock(other.indexes_mu_);
    indexes_ = other.indexes_;
  }
  has_cache_.store(!columns_.empty() || !indexes_.empty(),
                   std::memory_order_relaxed);
}

void Table::TakeCachesOf(Table* other) {
  columns_ = std::move(other->columns_);
  indexes_ = std::move(other->indexes_);
  other->columns_.clear();
  other->indexes_.clear();
  has_cache_.store(!columns_.empty() || !indexes_.empty(),
                   std::memory_order_relaxed);
  other->has_cache_.store(false, std::memory_order_relaxed);
}

std::shared_ptr<const ColumnVector> Table::ColumnData(size_t col) const {
  GPIVOT_CHECK(col < schema_.num_columns())
      << "ColumnData index " << col << " out of range";
  {
    std::lock_guard<std::mutex> lock(columns_mu_);
    if (columns_.size() == schema_.num_columns() &&
        columns_[col] != nullptr) {
      return columns_[col];
    }
  }
  // Build outside the lock (concurrent readers of other columns keep
  // going), install with a double-check (first build wins; duplicates from
  // a race are equivalent and simply dropped).
  std::shared_ptr<const ColumnVector> built = ColumnVector::Build(rows_, col);
  std::lock_guard<std::mutex> lock(columns_mu_);
  if (columns_.size() != schema_.num_columns()) {
    columns_.assign(schema_.num_columns(), nullptr);
  }
  if (columns_[col] == nullptr) columns_[col] = std::move(built);
  has_cache_.store(true, std::memory_order_relaxed);
  return columns_[col];
}

std::shared_ptr<const ColumnVector> Table::CachedColumnData(size_t col) const {
  std::lock_guard<std::mutex> lock(columns_mu_);
  if (col >= columns_.size()) return nullptr;
  return columns_[col];
}

std::shared_ptr<const HashIndex> Table::Index(
    const std::vector<size_t>& columns) const {
  for (size_t col : columns) {
    GPIVOT_CHECK(col < schema_.num_columns())
        << "Index column " << col << " out of range";
  }
  // Held across the build: racing first users wait for the one build
  // instead of each hashing the whole table.
  std::lock_guard<std::mutex> lock(indexes_mu_);
  for (const std::shared_ptr<const HashIndex>& index : indexes_) {
    if (index->columns() == columns) return index;
  }
  indexes_.push_back(std::make_shared<const HashIndex>(rows_, columns));
  has_cache_.store(true, std::memory_order_relaxed);
  return indexes_.back();
}

void Table::InvalidateCaches() {
  {
    std::lock_guard<std::mutex> lock(columns_mu_);
    columns_.clear();
  }
  {
    std::lock_guard<std::mutex> lock(indexes_mu_);
    indexes_.clear();
  }
  has_cache_.store(false, std::memory_order_relaxed);
}

void Table::AddRow(Row row) {
  GPIVOT_CHECK(row.size() == schema_.num_columns())
      << "row arity " << row.size() << " != schema arity "
      << schema_.num_columns() << " " << schema_.ToString();
  if (has_cache_.load(std::memory_order_relaxed)) InvalidateCaches();
  rows_.push_back(std::move(row));
}

Status Table::SetKey(std::vector<std::string> key_columns) {
  for (const std::string& name : key_columns) {
    if (!schema_.HasColumn(name)) {
      return Status::NotFound(
          StrCat("SetKey: unknown column '", name, "'"));
    }
  }
  key_ = std::move(key_columns);
  return Status::OK();
}

Result<std::vector<size_t>> Table::KeyIndices() const {
  if (!has_key()) {
    return Status::InvalidArgument("table has no declared key");
  }
  return schema_.ColumnIndices(key_);
}

Status Table::ValidateKey() const {
  GPIVOT_ASSIGN_OR_RETURN(std::vector<size_t> indices, KeyIndices());
  std::unordered_set<Row, RowHash, RowEq> seen;
  seen.reserve(rows_.size());
  for (const Row& row : rows_) {
    Row key = ProjectRow(row, indices);
    if (!seen.insert(std::move(key)).second) {
      return Status::ConstraintViolation(
          StrCat("duplicate key ", RowToString(ProjectRow(row, indices))));
    }
  }
  return Status::OK();
}

bool Table::BagEquals(const Table& other) const {
  if (schema_ != other.schema_) return false;
  if (rows_.size() != other.rows_.size()) return false;
  std::unordered_map<Row, int64_t, RowHash, RowEq> counts;
  counts.reserve(rows_.size());
  for (const Row& row : rows_) ++counts[row];
  for (const Row& row : other.rows_) {
    auto it = counts.find(row);
    if (it == counts.end() || it->second == 0) return false;
    --it->second;
  }
  return true;
}

Table Table::Sorted() const {
  Table result = *this;
  std::sort(result.mutable_rows().begin(), result.mutable_rows().end(),
            [](const Row& a, const Row& b) {
              return std::lexicographical_compare(a.begin(), a.end(),
                                                  b.begin(), b.end());
            });
  return result;
}

std::string Table::ToString(size_t max_rows) const {
  std::string out = schema_.ToString();
  out += "\n";
  size_t shown = std::min(max_rows, rows_.size());
  for (size_t i = 0; i < shown; ++i) {
    out += RowToString(rows_[i]);
    out += "\n";
  }
  if (shown < rows_.size()) {
    out += StrCat("... (", rows_.size() - shown, " more rows)\n");
  }
  return out;
}

}  // namespace gpivot
