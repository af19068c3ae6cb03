#include "relation/value.h"

#include <cmath>
#include <functional>
#include <ostream>
#include <sstream>

#include "util/check.h"
#include "util/hash_util.h"

namespace gpivot {

const char* DataTypeToString(DataType type) {
  switch (type) {
    case DataType::kNull:
      return "NULL";
    case DataType::kInt64:
      return "INT64";
    case DataType::kDouble:
      return "DOUBLE";
    case DataType::kString:
      return "STRING";
  }
  return "UNKNOWN";
}

DataType Value::type() const {
  switch (kind_) {
    case Kind::kNull:
      return DataType::kNull;
    case Kind::kInt:
      return DataType::kInt64;
    case Kind::kDouble:
      return DataType::kDouble;
    case Kind::kString:
      return DataType::kString;
  }
  return DataType::kNull;
}

int64_t Value::AsInt() const {
  GPIVOT_CHECK(is_int()) << "Value::AsInt on " << ToString();
  return payload_.int_;
}

double Value::AsDouble() const {
  GPIVOT_CHECK(is_double()) << "Value::AsDouble on " << ToString();
  return payload_.double_;
}

const std::string& Value::AsString() const {
  GPIVOT_CHECK(is_string()) << "Value::AsString on " << ToString();
  return *payload_.string_;
}

double Value::AsNumeric() const {
  if (is_int()) return static_cast<double>(payload_.int_);
  GPIVOT_CHECK(is_double()) << "Value::AsNumeric on " << ToString();
  return payload_.double_;
}

bool Value::operator==(const Value& other) const {
  // Cross-type numeric equality (an INT64 3 equals a DOUBLE 3.0): group-by
  // and key matching treat numerics uniformly.
  if (is_null() || other.is_null()) return is_null() && other.is_null();
  if (is_string() != other.is_string()) return false;
  if (is_string()) return AsString() == other.AsString();
  if (is_int() && other.is_int()) return AsInt() == other.AsInt();
  return AsNumeric() == other.AsNumeric();
}

bool Value::operator<(const Value& other) const {
  auto rank = [](const Value& v) {
    if (v.is_null()) return 0;
    if (v.is_int() || v.is_double()) return 1;
    return 2;
  };
  int ra = rank(*this), rb = rank(other);
  if (ra != rb) return ra < rb;
  if (ra == 0) return false;  // NULL == NULL
  if (ra == 1) {
    if (is_int() && other.is_int()) return AsInt() < other.AsInt();
    return AsNumeric() < other.AsNumeric();
  }
  return AsString() < other.AsString();
}

size_t Value::Hash() const {
  if (is_null()) return 0x9d3f;
  if (is_string()) return std::hash<std::string>{}(AsString());
  if (is_int()) {
    // Hash integral doubles and int64s identically so that == and Hash agree.
    return std::hash<double>{}(static_cast<double>(AsInt()));
  }
  return std::hash<double>{}(AsDouble());
}

std::string Value::ToString() const {
  if (is_null()) return "⊥";
  if (is_int()) return std::to_string(AsInt());
  if (is_double()) {
    std::ostringstream out;
    out << AsDouble();
    return out.str();
  }
  return AsString();
}

std::ostream& operator<<(std::ostream& os, const Value& value) {
  return os << value.ToString();
}

}  // namespace gpivot
