#include "reference.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

namespace epochbench {

using gpivot::Row;
using gpivot::Schema;
using gpivot::Table;
using gpivot::Value;

namespace {

size_t Col(const Table& table, const char* name) {
  std::optional<size_t> index = table.schema().FindColumn(name);
  if (!index) throw CheckFailure(std::string("input table lacks column ") + name);
  return *index;
}

std::string PivotName(int64_t combo, const char* measure) {
  return std::to_string(combo) + "**" + measure;
}

std::string RowText(const std::vector<std::string>& columns,
                    const std::string& encoded) {
  std::string text = std::to_string(columns.size());
  text += " cols: ";
  text += encoded;
  return text;
}

void EncodeInt(int64_t v, std::string* out) {
  out->push_back('i');
  out->append(std::to_string(v));
  out->push_back('|');
}

void EncodeCell(const Cell& cell, std::string* out) {
  switch (cell.kind) {
    case Cell::kNull:
      out->append("n|");
      return;
    case Cell::kInt:
      EncodeInt(cell.i, out);
      return;
    case Cell::kStr:
      out->push_back('s');
      out->append(cell.s);
      out->push_back('|');
      return;
  }
}

void EncodeValue(const Value& value, std::string* out) {
  if (value.is_null()) {
    out->append("n|");
  } else if (value.is_int()) {
    EncodeInt(value.AsInt(), out);
  } else if (value.is_double()) {
    double d = value.AsDouble();
    if (std::nearbyint(d) == d && std::fabs(d) < 9.0e15) {
      EncodeInt(static_cast<int64_t>(d), out);
    } else {
      out->push_back('d');
      out->append(std::to_string(d));
      out->push_back('|');
    }
  } else {
    out->push_back('s');
    out->append(value.AsString());
    out->push_back('|');
  }
}

// Canonical byte encoding of one reference row / one library row read
// through a ColumnMap. Integral doubles encode like integers.
std::string EncodeRow(const std::vector<Cell>& row) {
  std::string out;
  for (const Cell& cell : row) EncodeCell(cell, &out);
  return out;
}

std::string EncodeRow(const Row& row, const std::vector<size_t>& map) {
  std::string out;
  for (size_t index : map) EncodeValue(row[index], &out);
  return out;
}

// Sorted encodings of both sides, then the first difference.
void CompareEncoded(std::vector<std::string> actual,
                    std::vector<std::string> expected,
                    const std::vector<std::string>& columns,
                    const std::string& what) {
  std::sort(actual.begin(), actual.end());
  std::sort(expected.begin(), expected.end());
  if (actual == expected) return;
  size_t i = 0;
  while (i < actual.size() && i < expected.size() && actual[i] == expected[i]) {
    ++i;
  }
  std::string msg = what + ": " + std::to_string(actual.size()) +
                    " rows, expected " + std::to_string(expected.size());
  if (i < actual.size()) msg += "; first unexpected " + RowText(columns, actual[i]);
  if (i < expected.size()) {
    msg += "; first missing " + RowText(columns, expected[i]);
  }
  throw CheckFailure(msg);
}

}  // namespace

RefBase RefBaseFromTables(const Table& customer, const Table& orders,
                          const Table& lineitem) {
  RefBase base;
  const size_t ck = Col(customer, "custkey"), cn = Col(customer, "name"),
               cnk = Col(customer, "nationkey"), cna = Col(customer, "nation");
  for (const Row& r : customer.rows()) {
    base.customers[r[ck].AsInt()] =
        Customer{r[cn].AsString(), r[cnk].AsInt(), r[cna].AsString()};
  }
  const size_t ok = Col(orders, "orderkey"), oc = Col(orders, "custkey"),
               oy = Col(orders, "orderyear");
  for (const Row& r : orders.rows()) {
    base.orders[r[ok].AsInt()] = Order{r[oc].AsInt(), r[oy].AsInt()};
  }
  const size_t lk = Col(lineitem, "orderkey"), ln = Col(lineitem, "linenumber"),
               lq = Col(lineitem, "quantity"), lp = Col(lineitem, "extendedprice");
  for (const Row& r : lineitem.rows()) {
    auto [it, inserted] = base.lines[r[lk].AsInt()].emplace(
        r[ln].AsInt(), Line{r[lq].AsInt(), r[lp].AsInt()});
    if (!inserted) throw CheckFailure("generated lineitem repeats a key");
    ++base.num_lines;
  }
  return base;
}

namespace {

Agg* GroupOf(const RefBase& base, View3Aggs* aggs, int64_t orderkey) {
  const Order& order = base.orders.at(orderkey);
  if (order.year < kFirstYear || order.year >= kFirstYear + kNumYears) {
    throw CheckFailure("order year outside the pivot's combo list");
  }
  return &(*aggs)[order.custkey][order.year - kFirstYear];
}

}  // namespace

View3Aggs View3AggsFromBase(const RefBase& base) {
  View3Aggs aggs;
  for (const auto& [orderkey, lines] : base.lines) {
    Agg* agg = GroupOf(base, &aggs, orderkey);
    for (const auto& [linenumber, line] : lines) {
      agg->sum += line.price;
      ++agg->cnt;
    }
  }
  return aggs;
}

void ApplyLineitemDelta(RefBase* base, const gpivot::ivm::SourceDeltas& deltas,
                        const std::string& what, View3Aggs* aggs) {
  for (const auto& [table, delta] : deltas) {
    if (table != "lineitem") {
      throw CheckFailure(what + ": delta touches table " + table);
    }
    const Table& del = delta.deletes;
    const Table& ins = delta.inserts;
    if (!del.empty()) {
      const size_t lk = Col(del, "orderkey"), ln = Col(del, "linenumber"),
                   lq = Col(del, "quantity"), lp = Col(del, "extendedprice");
      for (const Row& r : del.rows()) {
        auto order = base->lines.find(r[lk].AsInt());
        bool found = false;
        if (order != base->lines.end()) {
          auto line = order->second.find(r[ln].AsInt());
          found = line != order->second.end() &&
                  line->second.quantity == r[lq].AsInt() &&
                  line->second.price == r[lp].AsInt();
          if (found) {
            if (aggs != nullptr) {
              const int64_t custkey = base->orders.at(order->first).custkey;
              Agg* agg = GroupOf(*base, aggs, order->first);
              agg->sum -= line->second.price;
              --agg->cnt;
              const std::array<Agg, kNumYears>& years = aggs->at(custkey);
              if (std::all_of(years.begin(), years.end(),
                              [](const Agg& a) { return a.cnt == 0; })) {
                aggs->erase(custkey);
              }
            }
            order->second.erase(line);
          }
          if (order->second.empty()) base->lines.erase(order);
        }
        if (!found) {
          throw CheckFailure(what + ": delete of absent lineitem row " +
                             gpivot::RowToString(r));
        }
        --base->num_lines;
      }
    }
    if (!ins.empty()) {
      const size_t lk = Col(ins, "orderkey"), ln = Col(ins, "linenumber"),
                   lq = Col(ins, "quantity"), lp = Col(ins, "extendedprice");
      for (const Row& r : ins.rows()) {
        const int64_t orderkey = r[lk].AsInt();
        if (base->orders.count(orderkey) == 0) {
          throw CheckFailure(what + ": insert for unknown order " +
                             gpivot::RowToString(r));
        }
        auto [it, inserted] = base->lines[orderkey].emplace(
            r[ln].AsInt(), Line{r[lq].AsInt(), r[lp].AsInt()});
        if (!inserted) {
          throw CheckFailure(what + ": insert of present lineitem key " +
                             gpivot::RowToString(r));
        }
        if (aggs != nullptr) {
          Agg* agg = GroupOf(*base, aggs, orderkey);
          agg->sum += r[lp].AsInt();
          ++agg->cnt;
        }
        ++base->num_lines;
      }
    }
  }
}

namespace {

std::vector<std::string> View1Columns() {
  std::vector<std::string> cols = {"orderkey", "custkey", "orderyear",
                                   "name",     "nationkey", "nation"};
  for (int l = 1; l <= kMaxLines; ++l) {
    cols.push_back(PivotName(l, "quantity"));
    cols.push_back(PivotName(l, "extendedprice"));
  }
  return cols;
}

std::vector<Cell> BuildView1Row(const RefBase& base, int64_t orderkey,
                                const std::map<int64_t, Line>& lines) {
  const Order& order = base.orders.at(orderkey);
  const Customer& cust = base.customers.at(order.custkey);
  std::vector<Cell> row = {Cell::Int(orderkey), Cell::Int(order.custkey),
                           Cell::Int(order.year), Cell::Str(cust.name),
                           Cell::Int(cust.nationkey), Cell::Str(cust.nation)};
  row.resize(6 + 2 * kMaxLines);
  for (const auto& [linenumber, line] : lines) {
    if (linenumber < 1 || linenumber > kMaxLines) {
      throw CheckFailure("line number outside the pivot's combo list");
    }
    row[6 + 2 * (linenumber - 1)] = Cell::Int(line.quantity);
    row[6 + 2 * (linenumber - 1) + 1] = Cell::Int(line.price);
  }
  return row;
}

}  // namespace

std::optional<std::vector<Cell>> View1Row(const RefBase& base,
                                          int64_t orderkey) {
  auto it = base.lines.find(orderkey);
  if (it == base.lines.end()) return std::nullopt;
  return BuildView1Row(base, orderkey, it->second);
}

RefView EvalView1(const RefBase& base) {
  RefView view;
  view.columns = View1Columns();
  for (const auto& [orderkey, lines] : base.lines) {
    view.rows.emplace(std::vector<int64_t>{orderkey},
                      BuildView1Row(base, orderkey, lines));
  }
  return view;
}

RefView EvalView2(const RefBase& base) {
  RefView view;
  view.columns = View1Columns();
  for (const auto& [orderkey, lines] : base.lines) {
    auto first = lines.find(1);
    if (first == lines.end() || first->second.price <= kView2PriceThreshold) {
      continue;
    }
    view.rows.emplace(std::vector<int64_t>{orderkey},
                      BuildView1Row(base, orderkey, lines));
  }
  return view;
}

std::vector<Cell> View3Row(const RefBase& base, int64_t custkey,
                           const std::array<Agg, kNumYears>& years) {
  std::vector<Cell> row = {Cell::Int(custkey),
                           Cell::Str(base.customers.at(custkey).nation)};
  row.resize(2 + 2 * kNumYears);
  for (int y = 0; y < kNumYears; ++y) {
    if (years[y].cnt == 0) continue;
    row[2 + 2 * y] = Cell::Int(years[y].sum);
    row[2 + 2 * y + 1] = Cell::Int(years[y].cnt);
  }
  return row;
}

RefView EvalView3(const RefBase& base) {
  RefView view;
  view.columns = {"custkey", "nation"};
  for (int y = kFirstYear; y < kFirstYear + kNumYears; ++y) {
    view.columns.push_back(PivotName(y, "sum"));
    view.columns.push_back(PivotName(y, "cnt"));
  }
  for (const auto& [custkey, years] : View3AggsFromBase(base)) {
    view.rows.emplace(std::vector<int64_t>{custkey},
                      View3Row(base, custkey, years));
  }
  return view;
}

RefView LineitemAsView(const RefBase& base) {
  RefView view;
  view.columns = {"orderkey", "linenumber", "quantity", "extendedprice"};
  for (const auto& [orderkey, lines] : base.lines) {
    for (const auto& [linenumber, line] : lines) {
      view.rows.emplace(
          std::vector<int64_t>{orderkey, linenumber},
          std::vector<Cell>{Cell::Int(orderkey), Cell::Int(linenumber),
                            Cell::Int(line.quantity), Cell::Int(line.price)});
    }
  }
  return view;
}

std::vector<size_t> ColumnMap(const Schema& schema,
                              const std::vector<std::string>& columns,
                              const std::string& what) {
  const std::vector<std::string> names = schema.ColumnNames();
  std::set<std::string> have(names.begin(), names.end());
  std::set<std::string> want(columns.begin(), columns.end());
  if (have != want || have.size() != schema.num_columns()) {
    throw CheckFailure(what + ": columns " + schema.ToString() +
                       " differ from the reference's");
  }
  std::vector<size_t> map;
  map.reserve(columns.size());
  for (const std::string& name : columns) {
    map.push_back(*schema.FindColumn(name));
  }
  return map;
}

void CompareView(const Table& actual, const RefView& expected,
                 const std::string& what) {
  const std::vector<size_t> map = ColumnMap(actual.schema(), expected.columns, what);
  std::vector<std::string> got;
  got.reserve(actual.num_rows());
  for (const Row& row : actual.rows()) got.push_back(EncodeRow(row, map));
  std::vector<std::string> want;
  want.reserve(expected.rows.size());
  for (const auto& [key, row] : expected.rows) want.push_back(EncodeRow(row));
  CompareEncoded(std::move(got), std::move(want), expected.columns, what);
}

namespace {

// FNV-1a over a cell stream: a kind byte, then the 8 value bytes of an
// integer or the length and bytes of a string.
class RowHasher {
 public:
  void Null() { Byte('n'); }
  void Int(int64_t v) {
    Byte('i');
    const uint64_t bits = static_cast<uint64_t>(v);
    for (int i = 0; i < 8; ++i) Byte(static_cast<uint8_t>(bits >> (8 * i)));
  }
  void Str(const std::string& s) {
    Byte('s');
    Int(static_cast<int64_t>(s.size()));
    for (unsigned char ch : s) Byte(ch);
  }
  void Value(const gpivot::Value& value) {
    if (value.is_null()) {
      Null();
    } else if (value.is_int()) {
      Int(value.AsInt());
    } else if (value.is_double()) {
      const double d = value.AsDouble();
      if (std::nearbyint(d) == d && std::fabs(d) < 9.0e15) {
        Int(static_cast<int64_t>(d));
      } else {
        Byte('d');
        uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof(bits));
        Int(static_cast<int64_t>(bits));
      }
    } else {
      Str(value.AsString());
    }
  }
  uint64_t Finish() const { return Mix(h_); }

  static uint64_t Mix(uint64_t h) {
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebULL;
    return h ^ (h >> 31);
  }

 private:
  void Byte(uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace

uint64_t HashRow(const std::vector<Cell>& row) {
  RowHasher hasher;
  for (const Cell& cell : row) {
    switch (cell.kind) {
      case Cell::kNull:
        hasher.Null();
        break;
      case Cell::kInt:
        hasher.Int(cell.i);
        break;
      case Cell::kStr:
        hasher.Str(cell.s);
        break;
    }
  }
  return hasher.Finish();
}

uint64_t HashRow(const Row& row, const std::vector<size_t>& map) {
  RowHasher hasher;
  for (size_t index : map) hasher.Value(row[index]);
  return hasher.Finish();
}

uint64_t HashCombine(uint64_t seq_hash, uint64_t row_hash) {
  return RowHasher::Mix(seq_hash * 0x9e3779b97f4a7c15ULL + row_hash);
}

void BagHash::Add(uint64_t row_hash) {
  ++count;
  sum_a += row_hash;
  sum_b += RowHasher::Mix(row_hash ^ 0x243f6a8885a308d3ULL);
}

namespace {

Table MakeTable(std::vector<std::pair<std::string, gpivot::DataType>> cols,
                std::vector<Row> rows) {
  std::vector<gpivot::Column> columns;
  for (auto& [name, type] : cols) columns.push_back({name, type});
  return Table(Schema(std::move(columns)), std::move(rows));
}

Value I(int64_t v) { return Value::Int(v); }
Value S(const char* v) { return Value::Str(v); }
Value N() { return Value::Null(); }

// Expected view table with the reference's column names; `cells` hold the
// non-key columns in reference order.
Table ExpectedTable(const std::vector<std::string>& columns,
                    std::vector<Row> rows) {
  std::vector<std::pair<std::string, gpivot::DataType>> cols;
  for (const std::string& c : columns) cols.push_back({c, gpivot::DataType::kInt64});
  return MakeTable(std::move(cols), std::move(rows));
}

}  // namespace

void SelfTest() {
  using gpivot::DataType;
  // Two customers, four orders: order 10 has lines 1 and 3, order 11 has
  // line 1 with a cheap price (fails View 2's filter), order 12 has line 2
  // only (no line 1, so it also fails View 2), order 13 has no lines.
  Table customer = MakeTable(
      {{"custkey", DataType::kInt64}, {"name", DataType::kString},
       {"nationkey", DataType::kInt64}, {"nation", DataType::kString}},
      {{I(1), S("Customer#1"), I(3), S("CANADA")},
       {I(2), S("Customer#2"), I(6), S("FRANCE")}});
  Table orders = MakeTable({{"orderkey", DataType::kInt64},
                            {"custkey", DataType::kInt64},
                            {"orderyear", DataType::kInt64}},
                           {{I(10), I(1), I(1993)},
                            {I(11), I(1), I(1995)},
                            {I(12), I(2), I(1993)},
                            {I(13), I(2), I(1997)}});
  Table lineitem = MakeTable(
      {{"orderkey", DataType::kInt64}, {"linenumber", DataType::kInt64},
       {"quantity", DataType::kInt64}, {"extendedprice", DataType::kInt64}},
      {{I(10), I(1), I(5), I(40000)},
       {I(10), I(3), I(7), I(2000)},
       {I(11), I(1), I(2), I(1500)},
       {I(12), I(2), I(9), I(90000)}});
  RefBase base = RefBaseFromTables(customer, orders, lineitem);

  auto v1_row = [](int64_t ok, int64_t ck, int64_t year, const char* name,
                   int64_t nk, const char* nation,
                   std::vector<Value> pivot) {
    Row row = {I(ok), I(ck), I(year), S(name), I(nk), S(nation)};
    row.insert(row.end(), pivot.begin(), pivot.end());
    return row;
  };
  //                    1**q   1**p      2**q  2**p      3**q  3**p     4..7
  const Row r10 = v1_row(10, 1, 1993, "Customer#1", 3, "CANADA",
                         {I(5), I(40000), N(), N(), I(7), I(2000), N(), N(),
                          N(), N(), N(), N(), N(), N()});
  const Row r11 = v1_row(11, 1, 1995, "Customer#1", 3, "CANADA",
                         {I(2), I(1500), N(), N(), N(), N(), N(), N(),
                          N(), N(), N(), N(), N(), N()});
  const Row r12 = v1_row(12, 2, 1993, "Customer#2", 6, "FRANCE",
                         {N(), N(), I(9), I(90000), N(), N(), N(), N(),
                          N(), N(), N(), N(), N(), N()});
  const std::vector<std::string> v1_cols = View1Columns();
  Table view1 = ExpectedTable(v1_cols, {r11, r12, r10});
  Table view2 = ExpectedTable(v1_cols, {r10});
  //                         1992     1993               1994     1995
  Table view3 = ExpectedTable(
      EvalView3(RefBase{}).columns,
      {{I(1), S("CANADA"), N(), N(), I(42000), I(2), N(), N(), I(1500), I(1),
        N(), N(), N(), N()},
       {I(2), S("FRANCE"), N(), N(), I(90000), I(1), N(), N(), N(), N(), N(),
        N(), N(), N()}});

  CompareView(view1, EvalView1(base), "selftest view1");
  CompareView(view2, EvalView2(base), "selftest view2");
  CompareView(view3, EvalView3(base), "selftest view3");
  if (View1Row(base, 13).has_value() || !View1Row(base, 12).has_value()) {
    throw CheckFailure("selftest view1 point rows");
  }

  // Negative half: one flipped cell must be caught.
  view3.mutable_rows()[0][4] = I(42001);
  bool caught = false;
  try {
    CompareView(view3, EvalView3(base), "selftest flipped cell");
  } catch (const CheckFailure&) {
    caught = true;
  }
  if (!caught) throw CheckFailure("selftest: a flipped view cell was not caught");

  // The reference's own delta replay: delete order 12's only line, which
  // removes its View-1 row and customer 2's View-3 row.
  gpivot::ivm::SourceDeltas deltas;
  deltas.emplace("lineitem", gpivot::ivm::Delta{Table(lineitem.schema()),
                                                Table(lineitem.schema())});
  deltas.at("lineitem").deletes.AddRow({I(12), I(2), I(9), I(90000)});
  ApplyLineitemDelta(&base, deltas, "selftest delta");
  if (EvalView1(base).rows.size() != 2 || EvalView3(base).rows.size() != 1) {
    throw CheckFailure("selftest: replayed delete not reflected");
  }
}

}  // namespace epochbench
