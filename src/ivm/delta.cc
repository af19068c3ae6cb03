#include "ivm/delta.h"

#include <cstdint>
#include <unordered_map>

#include "util/string_util.h"

namespace gpivot::ivm {

std::string Delta::ToString() const {
  return StrCat("Δ(", inserts.num_rows(), " inserts, ", deletes.num_rows(),
                " deletes)");
}

Status ApplyDeltaToTable(Table* table, const Delta& delta) {
  TableUndo undo;
  return ApplyDeltaToTableWithUndo(table, delta, &undo);
}

namespace {

// Pre-apply positions of the rows `deletes` removes, ascending: for each
// delete row the first stored occurrence not already taken (the rows
// exec::BagDifference drops). The scan is bound by fetching each stored
// row, so it prefetches ahead and screens on the first cell's hash through
// a small bit filter before any whole-row hash.
Result<std::vector<size_t>> LocateDeletes(const Table& table,
                                          const Table& deletes) {
  constexpr size_t kFilterWords = 1024;  // 64k bits
  constexpr size_t kPrefetchDistance = 16;
  auto first_cell_hash = [](const Row& row) {
    return row.empty() ? size_t{0} : row[0].Hash();
  };
  std::unordered_map<Row, int64_t, RowHash, RowEq> pending;
  std::vector<uint64_t> filter(kFilterWords, 0);
  for (const Row& row : deletes.rows()) {
    ++pending[row];
    const size_t h = first_cell_hash(row);
    filter[(h >> 6) % kFilterWords] |= uint64_t{1} << (h & 63);
  }
  std::vector<size_t> positions;
  positions.reserve(deletes.num_rows());
  const std::vector<Row>& rows = table.rows();
  for (size_t i = 0; i < rows.size() && positions.size() < deletes.num_rows();
       ++i) {
    if (i + kPrefetchDistance < rows.size()) {
      __builtin_prefetch(rows[i + kPrefetchDistance].data());
    }
    const size_t h = first_cell_hash(rows[i]);
    if (((filter[(h >> 6) % kFilterWords] >> (h & 63)) & 1) == 0) continue;
    auto it = pending.find(rows[i]);
    if (it == pending.end() || it->second == 0) continue;
    --it->second;
    positions.push_back(i);
  }
  if (positions.size() != deletes.num_rows()) {
    return Status::ConstraintViolation(
        "some delete-delta rows did not match any stored row");
  }
  return positions;
}

}  // namespace

Status ApplyDeltaToTableWithUndo(Table* table, const Delta& delta,
                                 TableUndo* undo) {
  // Validate both sides before mutating anything: a schema mismatch in the
  // inserts must not leave the deletes half-applied.
  if (!delta.deletes.empty() && delta.deletes.schema() != table->schema()) {
    return Status::InvalidArgument("delete delta schema mismatch");
  }
  if (!delta.inserts.empty() && delta.inserts.schema() != table->schema()) {
    return Status::InvalidArgument("insert delta schema mismatch");
  }
  if (delta.empty()) return Status::OK();
  std::vector<size_t> positions;
  if (!delta.deletes.empty()) {
    GPIVOT_ASSIGN_OR_RETURN(positions, LocateDeletes(*table, delta.deletes));
  }
  std::vector<Row>& rows = table->mutable_rows();
  // Move the deleted rows into the undo and close the gaps with moves; the
  // survivors keep their relative order.
  undo->removed_rows.reserve(positions.size());
  size_t write = positions.empty() ? rows.size() : positions.front();
  size_t next = 0;
  for (size_t read = write; read < rows.size(); ++read) {
    if (next < positions.size() && positions[next] == read) {
      undo->removed_rows.push_back(std::move(rows[read]));
      ++next;
    } else {
      rows[write++] = std::move(rows[read]);
    }
  }
  rows.resize(write);
  undo->removed_positions = std::move(positions);
  undo->truncate_to = rows.size();
  rows.insert(rows.end(), delta.inserts.rows().begin(),
              delta.inserts.rows().end());
  return Status::OK();
}

void RollbackTable(Table* table, TableUndo* undo) {
  if (!undo->truncate_to.has_value()) return;
  std::vector<Row>& rows = table->mutable_rows();
  rows.resize(*undo->truncate_to);
  // Re-open the gaps from the back: each survivor moves right by the number
  // of removed rows that precede its old position.
  const size_t removed = undo->removed_rows.size();
  rows.resize(rows.size() + removed);
  size_t read = rows.size() - removed;
  for (size_t k = removed; k > 0; --k) {
    const size_t pos = undo->removed_positions[k - 1];
    // Survivors after `pos` shift right by k.
    while (read > pos - (k - 1)) {
      --read;
      rows[read + k] = std::move(rows[read]);
    }
    rows[pos] = std::move(undo->removed_rows[k - 1]);
  }
  undo->truncate_to.reset();
  undo->removed_positions.clear();
  undo->removed_rows.clear();
}

}  // namespace gpivot::ivm
