#ifndef GPIVOT_RELATION_VALUE_H_
#define GPIVOT_RELATION_VALUE_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>

namespace gpivot {

// Column data types. kNull is the type of the untyped NULL literal; columns
// themselves are declared with one of the concrete types and may hold NULLs.
enum class DataType {
  kNull,
  kInt64,
  kDouble,
  kString,
};

const char* DataTypeToString(DataType type);

// A single SQL value: NULL (the paper's '⊥'), a 64-bit integer, a double, or
// a string. Values are ordered NULL-first only inside Sort; comparison
// predicates over NULL evaluate to NULL/false (null-intolerant semantics),
// which is handled at the expression layer, not here.
//
// Layout: 16 bytes, a kind tag plus an 8-byte payload (the integer, the
// double, or an owned heap std::string). Rows are vectors of Values, so the
// size of a Value sets the footprint of every table, view, delta and
// operator output; numbers, the common cell, cost 16 bytes instead of the
// 40 of an inline std::string alternative. Copies deep-copy strings, as
// before, so no Value shares state with another.
class Value {
 public:
  // NULL / ⊥.
  Value() : kind_(Kind::kNull) { payload_.int_ = 0; }
  explicit Value(int64_t v) : kind_(Kind::kInt) { payload_.int_ = v; }
  explicit Value(double v) : kind_(Kind::kDouble) { payload_.double_ = v; }
  explicit Value(std::string v) : kind_(Kind::kString) {
    payload_.string_ = new std::string(std::move(v));
  }
  explicit Value(const char* v) : kind_(Kind::kString) {
    payload_.string_ = new std::string(v);
  }

  Value(const Value& other) : kind_(other.kind_), payload_(other.payload_) {
    if (kind_ == Kind::kString) {
      payload_.string_ = new std::string(*other.payload_.string_);
    }
  }
  Value(Value&& other) noexcept
      : kind_(other.kind_), payload_(other.payload_) {
    other.kind_ = Kind::kNull;
  }
  Value& operator=(const Value& other) {
    if (this != &other) *this = Value(other);
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    std::swap(kind_, other.kind_);
    std::swap(payload_, other.payload_);
    return *this;
  }
  ~Value() {
    if (kind_ == Kind::kString) delete payload_.string_;
  }

  static Value Null() { return Value(); }
  static Value Int(int64_t v) { return Value(v); }
  static Value Real(double v) { return Value(v); }
  static Value Str(std::string v) { return Value(std::move(v)); }

  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_int() const { return kind_ == Kind::kInt; }
  bool is_double() const { return kind_ == Kind::kDouble; }
  bool is_string() const { return kind_ == Kind::kString; }

  DataType type() const;

  // Accessors abort when the value holds a different alternative.
  int64_t AsInt() const;
  double AsDouble() const;
  const std::string& AsString() const;

  // Numeric view: int64 and double both convert; aborts on string/NULL.
  double AsNumeric() const;

  // Total equality: NULL == NULL is true here (used for grouping/keys and
  // bag-difference row matching, where SQL uses "IS NOT DISTINCT FROM").
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  // Total order for deterministic sorting: NULL < ints/doubles < strings;
  // ints and doubles compare numerically.
  bool operator<(const Value& other) const;

  size_t Hash() const;

  // "⊥" for NULL; otherwise the literal text.
  std::string ToString() const;

 private:
  enum class Kind : uint8_t { kNull, kInt, kDouble, kString };

  // Trivially copyable, so copying or swapping the whole union carries
  // whichever member is active.
  union Payload {
    int64_t int_;
    double double_;
    std::string* string_;  // owned while kind_ == kString
  };

  Kind kind_;
  Payload payload_;
};

static_assert(sizeof(Value) == 16, "Value must stay a 16-byte cell");

std::ostream& operator<<(std::ostream& os, const Value& value);

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace gpivot

#endif  // GPIVOT_RELATION_VALUE_H_
