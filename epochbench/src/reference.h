// Independent reference evaluator for the paper's Views 1-3.
//
// Base tables live in plain ordered maps and the views are computed with
// loops over them; nothing here calls the library's operators, Evaluate,
// RecomputeFromScratch or Audit. Library Tables are read only as row
// containers: the generated base on the way in, and the program's outputs
// (views, base tables, query results) on the way to a comparison.
#ifndef EPOCHBENCH_REFERENCE_H_
#define EPOCHBENCH_REFERENCE_H_

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "ivm/delta.h"
#include "relation/table.h"

namespace epochbench {

// A failed correctness check or operation. `what()` names the check.
class CheckFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// One view cell, independent of the library's Value: NULL, an exact
// integer, or a string. Every numeric cell of Views 1-3 is integral
// (prices and quantities are whole numbers).
struct Cell {
  enum Kind { kNull, kInt, kStr } kind = kNull;
  int64_t i = 0;
  std::string s;

  static Cell Int(int64_t v) { return Cell{kInt, v, {}}; }
  static Cell Str(std::string v) { return Cell{kStr, 0, std::move(v)}; }
};

struct Line {
  int64_t quantity = 0;
  int64_t price = 0;
};
struct Order {
  int64_t custkey = 0;
  int64_t year = 0;
};
struct Customer {
  std::string name;
  int64_t nationkey = 0;
  std::string nation;
};

// The view parameters the benchmark uses (tpch::Config defaults).
inline constexpr int kMaxLines = 7;
inline constexpr int kFirstYear = 1992;
inline constexpr int kNumYears = 6;
inline constexpr int64_t kView2PriceThreshold = 30000;

struct RefBase {
  std::map<int64_t, Customer> customers;
  std::map<int64_t, Order> orders;
  // orderkey -> linenumber -> line
  std::map<int64_t, std::map<int64_t, Line>> lines;
  size_t num_lines = 0;
};

// Copies the "customer", "orders" and "lineitem" tables of a generated
// catalog, reading columns by name.
RefBase RefBaseFromTables(const gpivot::Table& customer,
                          const gpivot::Table& orders,
                          const gpivot::Table& lineitem);

// View 3's groups: per customer, SUM(extendedprice) and COUNT(*) for each
// order year. A customer is present only while it has lines.
struct Agg {
  int64_t sum = 0;
  int64_t cnt = 0;
};
using View3Aggs = std::map<int64_t, std::array<Agg, kNumYears>>;

View3Aggs View3AggsFromBase(const RefBase& base);

// Applies a lineitem delta: every deleted row must exist with exactly the
// stated values, every inserted key must be absent before its insert.
// Deletes go first. Any other table in `deltas` is an error: the workloads
// only touch lineitem. When `aggs` is given, View 3's groups follow the
// delta. Throws CheckFailure naming `what` on a violation.
void ApplyLineitemDelta(RefBase* base, const gpivot::ivm::SourceDeltas& deltas,
                        const std::string& what, View3Aggs* aggs = nullptr);

// A materialized reference view: column names in a fixed order and rows
// keyed by the view key.
struct RefView {
  std::vector<std::string> columns;
  std::map<std::vector<int64_t>, std::vector<Cell>> rows;
};

RefView EvalView1(const RefBase& base);
RefView EvalView2(const RefBase& base);
RefView EvalView3(const RefBase& base);

// View 3's row for one customer's groups, in EvalView3's column order.
std::vector<Cell> View3Row(const RefBase& base, int64_t custkey,
                           const std::array<Agg, kNumYears>& years);

// View 1's row for one order (nullopt when the order has no lines); the
// cells follow EvalView1's column order.
std::optional<std::vector<Cell>> View1Row(const RefBase& base,
                                          int64_t orderkey);

// Maps a library table's columns onto a reference column list: result[i]
// is the library column holding reference column i. Throws when the two
// column sets differ.
std::vector<size_t> ColumnMap(const gpivot::Schema& schema,
                              const std::vector<std::string>& columns,
                              const std::string& what);

// Bag comparison of a library table against a reference view. Throws a
// CheckFailure naming `what` and the first differing row on mismatch.
void CompareView(const gpivot::Table& actual, const RefView& expected,
                 const std::string& what);

// The lineitem rows of `base` as a reference view, so the program's final
// lineitem can be compared against the benchmark's own replay.
RefView LineitemAsView(const RefBase& base);

// 64-bit hash of one row, hashing a reference row and a library row read
// through a ColumnMap alike (integral doubles as integers). HashRow of an
// empty row marks "no row".
uint64_t HashRow(const std::vector<Cell>& row);
uint64_t HashRow(const gpivot::Row& row, const std::vector<size_t>& map);

// Folds a row hash into an order-dependent hash of a row sequence.
uint64_t HashCombine(uint64_t seq_hash, uint64_t row_hash);

// Order-independent fingerprint of a bag of rows: count and two sums.
struct BagHash {
  uint64_t count = 0;
  uint64_t sum_a = 0;
  uint64_t sum_b = 0;
  void Add(uint64_t row_hash);
  bool operator==(const BagHash& o) const {
    return count == o.count && sum_a == o.sum_a && sum_b == o.sum_b;
  }
};

// Hand-written catalog with hand-written expected rows for all three
// views; also flips one cell and expects CompareView to fail. Throws
// CheckFailure when either half does not hold.
void SelfTest();

}  // namespace epochbench

#endif  // EPOCHBENCH_REFERENCE_H_
