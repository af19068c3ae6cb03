#ifndef GPIVOT_RELATION_ROW_H_
#define GPIVOT_RELATION_ROW_H_

#include <string>
#include <vector>

#include "relation/value.h"

namespace gpivot {

// A tuple of values, positionally aligned with some Schema.
using Row = std::vector<Value>;

// Values of `row` at `indices`, in order (π with duplicates allowed).
Row ProjectRow(const Row& row, const std::vector<size_t>& indices);

// Hash of the whole row (for bag semantics / duplicate detection).
size_t HashRow(const Row& row);

// Hash of the sub-row at `indices` (for key and join hashing).
size_t HashRowAt(const Row& row, const std::vector<size_t>& indices);

// True when the sub-rows at `left_indices` / `right_indices` are equal
// under Value::operator== (NULL equals NULL).
bool RowsEqualAt(const Row& left, const std::vector<size_t>& left_indices,
                 const Row& right, const std::vector<size_t>& right_indices);

// "(v1, v2, ...)".
std::string RowToString(const Row& row);

// The sub-row of `row` at `indices`, without copying it out: a lookup key
// for Row-keyed hash containers (RowHash/RowEq are transparent), equal and
// hash-equal to ProjectRow(row, indices).
struct RowSlice {
  const Row& row;
  const std::vector<size_t>& indices;
};

struct RowHash {
  using is_transparent = void;
  size_t operator()(const Row& row) const { return HashRow(row); }
  size_t operator()(const RowSlice& s) const {
    return HashRowAt(s.row, s.indices);
  }
};

struct RowEq {
  using is_transparent = void;
  bool operator()(const Row& a, const Row& b) const { return a == b; }
  bool operator()(const Row& a, const RowSlice& b) const {
    if (a.size() != b.indices.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i] != b.row[b.indices[i]]) return false;
    }
    return true;
  }
  bool operator()(const RowSlice& a, const Row& b) const {
    return (*this)(b, a);
  }
};

}  // namespace gpivot

#endif  // GPIVOT_RELATION_ROW_H_
