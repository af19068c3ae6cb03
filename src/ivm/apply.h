#ifndef GPIVOT_IVM_APPLY_H_
#define GPIVOT_IVM_APPLY_H_

#include <memory>
#include <optional>
#include <vector>

#include "core/pivot_spec.h"
#include "expr/aggregate.h"
#include "expr/expr.h"
#include "ivm/delta.h"
#include "relation/chunked_table.h"
#include "relation/key_index.h"
#include "relation/table.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace gpivot::ivm {

// One version of a materialized view: its rows in copy-on-write chunks
// (ChunkedTable) and the key index over them (KeyIndex, copy-on-write
// buckets of positions into those rows). Copying a version copies one
// pointer per chunk and per bucket and no row. A version handed out by
// MaterializedView::version() is never mutated again.
class ViewVersion {
 public:
  const ChunkedTable& table() const { return table_; }
  const KeyIndex& index() const { return index_; }
  size_t num_rows() const { return table_.num_rows(); }
  const std::vector<size_t>& key_indices() const {
    return index_.key_indices();
  }
  const Row& RowAt(size_t position) const { return table_.RowAt(position); }

  // Position of the row whose key matches `row` at `probe_indices`.
  std::optional<size_t> Lookup(const Row& row,
                               const std::vector<size_t>& probe_indices) const {
    return index_.Lookup(table_, row, probe_indices);
  }
  // Position of the row whose key equals `key` (already projected).
  std::optional<size_t> LookupKey(const Row& key) const {
    return index_.LookupKey(table_, key);
  }

  // The rows as one flat table with the view's key. O(|view|): for audits,
  // tests and tools, never for the epoch or read path.
  Table ToTable() const { return table_.ToTable(); }

 private:
  friend class MaterializedView;
  ViewVersion(ChunkedTable table, KeyIndex index)
      : table_(std::move(table)), index_(std::move(index)) {}

  ChunkedTable table_;
  KeyIndex index_;
};

// A materialized view: a keyed table plus a hash index on its key, so the
// apply phase can MERGE deltas (insert / in-place update / delete in one
// pass) — the in-memory analogue of the SQL MERGE the paper uses (§7.1).
//
// The view is a persistent structure. version() hands out the current
// ViewVersion as an immutable shared handle in O(1) (the serving layer's
// snapshots, the checkpoint writer). The first mutator call after that
// forks the version — one pointer copy per row chunk and per index bucket
// — and each mutation then clones only the chunk and the buckets it writes
// to, and only while another version still shares them (use_count > 1).
// An epoch therefore copies the rows and buckets it touches, not the view.
// With no handle outstanding every mutation is in place. Mutators must only
// run on the maintenance thread; handle holders on other threads read
// chunks and buckets that no mutator writes to again. The global registry
// counts what the clones copy: ivm.view.cow_rows_copied and
// ivm.view.cow_index_buckets_copied.
class MaterializedView {
 public:
  // `initial` must carry a declared key; keys must be unique.
  static Result<MaterializedView> Create(Table initial);
  static Result<MaterializedView> Create(ChunkedTable initial);

  // The current version as an immutable shared handle. O(1); consecutive
  // calls with no mutation in between return the same version.
  std::shared_ptr<const ViewVersion> version() const { return version_; }
  // The current version's rows as an immutable shared handle (aliasing
  // version()); what the checkpoint writer encodes.
  std::shared_ptr<const ChunkedTable> shared_table() const {
    return std::shared_ptr<const ChunkedTable>(version_, &version_->table_);
  }

  // The current rows as one flat table, built on the first call after a
  // mutation (O(|view|), version()->ToTable()) and kept until the next
  // one, which also ends the reference's validity. For tests, examples and
  // end-of-run checks: nothing on the epoch or read path calls it, and it
  // is not safe against concurrent calls.
  const Table& table() const;

  size_t num_rows() const { return version_->num_rows(); }
  const std::vector<size_t>& key_indices() const {
    return version_->key_indices();
  }
  std::optional<size_t> Lookup(const Row& row,
                               const std::vector<size_t>& probe_indices) const {
    return version_->Lookup(row, probe_indices);
  }
  std::optional<size_t> LookupKey(const Row& key) const {
    return version_->LookupKey(key);
  }
  const Row& RowAt(size_t position) const { return version_->RowAt(position); }

  // Inserts a full row; returns ConstraintViolation when its key is already
  // present (delta contents come from callers, so this must not abort).
  Status Insert(Row row);
  // Replaces the row at `position` (key must not change).
  void Update(size_t position, Row row);
  // Deletes the row at `position` (swap-with-last).
  void Delete(size_t position);

  // Epoch-rollback primitives (see UndoLog). Each exactly inverts the
  // corresponding mutator, restoring row order byte-identically; they assume
  // the view is in the state the mutator left it in.
  void UndoInsert();                          // removes the appended last row
  void UndoDelete(size_t position, Row row);  // re-seats a swap-deleted row

  // Verifies the version's structure: every chunk but the last is full and
  // the chunks hold num_rows() rows; the key index holds one entry per row,
  // each mapping the row's key to its position. Internal error on drift.
  Status ValidateIntegrity() const;

 private:
  explicit MaterializedView(std::shared_ptr<ViewVersion> version)
      : version_(std::move(version)) {}

  // The copy-on-write gate every mutator funnels through: fork the current
  // version iff a handle still references it, and drop the flat table()
  // copy. The use_count probe is safe even while handle holders copy/drop
  // their own shared_ptrs concurrently — an overshoot only forks
  // unnecessarily, and an observed count of 1 proves this view holds the
  // sole reference (no other strong ref exists to be copied from).
  ViewVersion& Mutable();
  // Adds what one mutator cloned to the global copy-on-write counters.
  static void CountCopies(const CowCopies& copies);

  std::shared_ptr<ViewVersion> version_;
  mutable std::shared_ptr<const Table> flat_;  // table(), when built
};

// Describes where the pivoted cells live in a view's schema: cell (c, b)
// of `spec` sits at column `first_cell_index + c * num_measures + b`, and
// the key columns are everything else. Computed once per view.
struct PivotLayout {
  PivotSpec spec;
  std::vector<size_t> key_positions;    // key column positions in the view
  size_t first_cell_index = 0;          // cells are contiguous from here

  size_t CellIndex(size_t combo, size_t measure) const {
    return first_cell_index + combo * spec.num_measures() + measure;
  }
  // True when any cell of `combo` in `row` is non-⊥ (the paper's group
  // presence test).
  bool GroupPresent(const Row& row, size_t combo) const;
  // True when every cell of every combo in `row` is ⊥.
  bool AllGroupsNull(const Row& row) const;
  // Sets every cell of `combo` in `row` to ⊥.
  void ClearGroup(Row* row, size_t combo) const;

  // Derives the layout from a view schema produced by GPivot(spec).
  static Result<PivotLayout> FromSchema(const Schema& view_schema,
                                        PivotSpec spec);
};

// ---- Staged MERGE ----------------------------------------------------------
//
// Each refresh rule is split into a *staging* half that computes the net
// per-key effect against a read-only view, and an *execution* half that
// mutates. Staging validates the whole delta up front (absent delete keys,
// duplicate inserts, inconsistent aggregates) so an epoch either fails
// before any mutation or commits a plan that cannot fail; execution keeps an
// UndoLog so a fault mid-commit (or a failure in a later view of the same
// epoch) rolls the view back byte-identically.

// One key's net effect within an epoch.
struct MergeRecord {
  Row key;                    // the view key, projected
  std::optional<Row> before;  // row in the view when staged; absent = insert
  std::optional<Row> after;   // row the epoch installs; absent = delete
};

// The staged MERGE for one view. `records` are in first-touch order; every
// record's `before` must match the view's contents at execution time.
struct MergePlan {
  std::vector<MergeRecord> records;

  bool empty() const { return records.empty(); }
};

// Records the exact mutations ExecuteMergePlan performs so a failed epoch
// can restore the view byte-identically, row order included. Operations are
// undone in reverse order.
class UndoLog {
 public:
  void RecordInsert() { ops_.push_back({Op::kInsert, 0, {}}); }
  void RecordUpdate(size_t position, Row old_row) {
    ops_.push_back({Op::kUpdate, position, std::move(old_row)});
  }
  void RecordDelete(size_t position, Row old_row) {
    ops_.push_back({Op::kDelete, position, std::move(old_row)});
  }
  // For wholesale rebuilds (full recompute): stashes the pre-epoch view.
  void RecordRebuild(MaterializedView old_view) {
    rebuilt_from_ = std::move(old_view);
  }

  bool empty() const { return ops_.empty() && !rebuilt_from_.has_value(); }

  // Reverts every recorded operation, leaving `view` in the exact state it
  // had before the first one. The log is consumed.
  void Rollback(MaterializedView* view);

 private:
  struct Op {
    enum Kind { kInsert, kUpdate, kDelete } kind;
    size_t position;
    Row old_row;
  };
  std::vector<Op> ops_;
  std::optional<MaterializedView> rebuilt_from_;
};

// Applies a staged plan, appending each performed mutation to `undo`. Fails
// only on an injected fault or when the view no longer matches the plan's
// `before` snapshots (Internal); the caller rolls back via `undo`.
// ctx.metrics (when enabled) receives ivm.merge.{inserts,updates,deletes}.
Status ExecuteMergePlan(MaterializedView* view, const MergePlan& plan,
                        UndoLog* undo, const ExecContext& ctx = {});

// Staging halves of the §6/§7 apply rules. Each reads `view` without
// mutating it and returns the epoch's MergePlan, or a descriptive error when
// the delta is inconsistent with the view.

// Generic insert/delete propagation rules: bag-deletes the delta's delete
// rows (by key) and inserts its insert rows. The deletion + re-insertion
// churn this causes on pivoted views is the cost the update rules avoid
// (§2.3).
Result<MergePlan> StageInsertDelete(const MaterializedView& view,
                                    const Delta& view_delta);

// Fig. 23: update propagation rules for a GPIVOT at the top of the plan.
// `pivoted_delta.inserts` = GPIVOT(ΔV), `pivoted_delta.deletes` = GPIVOT(∇V)
// where V is the pivot input. Deletes are staged first.
Result<MergePlan> StagePivotUpdate(const MaterializedView& view,
                                   const PivotLayout& layout,
                                   const Delta& pivoted_delta);

// Fig. 27: combined update rules for GPIVOT over GROUPBY. The measures are
// aggregates; `measure_funcs[b]` gives each one's function and
// `count_measure` indexes the per-group COUNT(*) measure that decides group
// emptiness. `pivoted_delta` holds GPIVOT(F(ΔV)) / GPIVOT(F(∇V)).
struct AggregateLayout {
  std::vector<AggFunc> measure_funcs;
  size_t count_measure = 0;
};
Result<MergePlan> StagePivotGroupByUpdate(const MaterializedView& view,
                                          const PivotLayout& layout,
                                          const AggregateLayout& aggs,
                                          const Delta& pivoted_delta);

// Fig. 29: combined update rules for SELECT over GPIVOT. `condition` is the
// σ's predicate compiled against the view schema. `recompute_candidates`
// holds the recomputed pivot rows for keys that the insert delta might have
// newly qualified (GPIVOT(π_K(σ_c'(ΔV)) ⋉ (V ⊎ ΔV)) in the paper); rows
// whose key is absent from the view and that satisfy the condition are
// inserted.
Result<MergePlan> StageSelectPivotUpdate(const MaterializedView& view,
                                         const PivotLayout& layout,
                                         const CompiledExpr& condition,
                                         const Delta& pivoted_delta,
                                         const Table& recompute_candidates);

// Stage-and-commit conveniences: the pre-epoch single-view apply entry
// points, kept for tests and direct callers. On failure nothing is mutated.
Status ApplyInsertDelete(MaterializedView* view, const Delta& view_delta);
Status ApplyPivotUpdate(MaterializedView* view, const PivotLayout& layout,
                        const Delta& pivoted_delta);
Status ApplyPivotGroupByUpdate(MaterializedView* view,
                               const PivotLayout& layout,
                               const AggregateLayout& aggs,
                               const Delta& pivoted_delta);
Status ApplySelectPivotUpdate(MaterializedView* view,
                              const PivotLayout& layout,
                              const CompiledExpr& condition,
                              const Delta& pivoted_delta,
                              const Table& recompute_candidates);

}  // namespace gpivot::ivm

#endif  // GPIVOT_IVM_APPLY_H_
