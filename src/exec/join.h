#ifndef GPIVOT_EXEC_JOIN_H_
#define GPIVOT_EXEC_JOIN_H_

#include <string>
#include <vector>

#include "expr/expr.h"
#include "relation/table.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace gpivot::exec {

enum class JoinType {
  kInner,
  kLeftOuter,
  kFullOuter,
  kLeftSemi,
  kLeftAnti,
};

const char* JoinTypeToString(JoinType type);

struct JoinSpec {
  // Equi-join columns, positionally paired.
  std::vector<std::string> left_keys;
  std::vector<std::string> right_keys;
  JoinType type = JoinType::kInner;
  // Optional residual predicate, evaluated over the concatenated
  // (left ++ right-without-its-key-columns) schema.
  ExprPtr residual;
};

// Hash equi-join. Output schema: all left columns followed by the right
// columns minus the right join keys (natural-join style; the key values are
// available via the left columns). For kFullOuter, right-only rows populate
// the left key columns from the right key values (coalesce), everything
// else ⊥. For kLeftSemi/kLeftAnti the output schema is the left schema.
//
// Non-key right columns whose names collide with left columns are an error:
// rename before joining.
//
// With ctx.num_threads > 1 the probe phase runs on contiguous probe-row
// chunks whose per-chunk outputs are concatenated in chunk order, so the
// result is byte-identical to the sequential join (the build phase and the
// full-outer right-remainder scan stay sequential).
Result<Table> HashJoin(const Table& left, const Table& right,
                       const JoinSpec& spec, const ExecContext& ctx = {});

// Inner equi-join with the same output as HashJoin(left, right, spec) — the
// same rows in the same order — that reads one side, a base table, through
// its cached Table::Index on the join keys instead of hashing or scanning
// it: only the other side's rows are probed, so the cost follows that side
// (typically a delta) once the index exists. `right_indexed` picks the
// indexed side. Cost reports count no build rows, the other side's rows as
// probe rows and the distinct base rows matched as input; `base_rows_read`,
// when not null, receives that count. Sequential: the output is independent of
// ctx.num_threads and the chunk width.
Result<Table> IndexJoin(const Table& left, const Table& right,
                        const JoinSpec& spec, bool right_indexed,
                        const ExecContext& ctx = {},
                        size_t* base_rows_read = nullptr);

// Convenience: natural inner equi-join on identically named `keys`.
Result<Table> EquiJoin(const Table& left, const Table& right,
                       const std::vector<std::string>& keys,
                       const ExecContext& ctx = {});

// Nested-loop join with an arbitrary predicate over the concatenated
// (left ++ right) schema; right columns keep their names, so callers must
// resolve collisions via renaming first. Supports kInner and kLeftOuter.
Result<Table> NestedLoopJoin(const Table& left, const Table& right,
                             const ExprPtr& condition, JoinType type);

}  // namespace gpivot::exec

#endif  // GPIVOT_EXEC_JOIN_H_
