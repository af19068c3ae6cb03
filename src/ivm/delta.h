#ifndef GPIVOT_IVM_DELTA_H_
#define GPIVOT_IVM_DELTA_H_

#include <optional>
#include <string>
#include <vector>
#include <unordered_map>

#include "relation/table.h"
#include "util/result.h"

namespace gpivot::ivm {

// A batch of changes to one relation under bag semantics: `inserts` (Δ) are
// added and `deletes` (∇) removed. Updates are modeled as delete + insert,
// as in the paper (§9 lists native update maintenance as future work).
struct Delta {
  Table inserts;
  Table deletes;

  static Delta Empty(const Schema& schema) {
    return Delta{Table(schema), Table(schema)};
  }

  bool empty() const { return inserts.empty() && deletes.empty(); }

  std::string ToString() const;
};

// Changes per base table, keyed by catalog table name.
using SourceDeltas = std::unordered_map<std::string, Delta>;

// Applies `delta` to `table` in place: bag-deletes `delta.deletes` (each
// delete row removes the first matching stored row, as exec::BagDifference
// does; each must match), compacting the survivors in order, then appends
// `delta.inserts`. All-or-nothing per table: any failure leaves `table`
// untouched.
Status ApplyDeltaToTable(Table* table, const Delta& delta);

// What an epoch needs to restore a base table byte-identically after
// ApplyDeltaToTableWithUndo; it holds only the delta's footprint, never a
// copy of the table. `truncate_to` is the row count between the deletes and
// the inserts (unset = the apply never mutated); the removed rows sit at
// their ascending pre-apply positions.
struct TableUndo {
  std::optional<size_t> truncate_to;
  std::vector<size_t> removed_positions;
  std::vector<Row> removed_rows;
};

// Same as ApplyDeltaToTable, but fills `undo` so the caller can restore the
// exact pre-state with RollbackTable when a later step of the epoch fails.
Status ApplyDeltaToTableWithUndo(Table* table, const Delta& delta,
                                 TableUndo* undo);

// Reverts a table mutated by ApplyDeltaToTableWithUndo; consumes `undo`.
// No-op when the apply never mutated.
void RollbackTable(Table* table, TableUndo* undo);

}  // namespace gpivot::ivm

#endif  // GPIVOT_IVM_DELTA_H_
