#ifndef GPIVOT_RELATION_KEY_INDEX_H_
#define GPIVOT_RELATION_KEY_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "relation/chunked_table.h"
#include "relation/row.h"
#include "util/result.h"

namespace gpivot {

// Unique hash index from a key sub-row to a row position in a ChunkedTable.
// This is the in-memory analogue of the unique index commercial engines
// keep on a materialized view's key; the MERGE apply phase relies on it.
//
// Layout: a power-of-two array of buckets behind shared_ptr, each bucket a
// list of (hash tag, position) pairs. No key is stored: a probe compares
// against the row at the entry's position in the table the index describes,
// which the caller passes in. Copying a KeyIndex copies one pointer per
// bucket; the mutators clone a bucket only when another copy still shares
// it (use_count() > 1), so, like ChunkedTable, a copy never observes
// mutations made through another copy.
//
// Bucket count: the smallest power of two that keeps the average bucket at
// or under kBuildLoad entries when built, doubled when an insert pushes the
// average past 2 * kBuildLoad. It never shrinks, so steady churn (inserts
// balanced by deletes) never rehashes; a doubling splits every bucket by
// its stored tags, without touching a row.
//
// The index stores positions, so every table mutation that moves, adds or
// removes a row must be mirrored through Insert/Erase/Reposition.
class KeyIndex {
 public:
  // Average entries per bucket right after a build or a doubling.
  static constexpr size_t kBuildLoad = 4;

  // Builds an index over `table` using `key_indices` (positions into the
  // table's schema). A duplicate key is a ConstraintViolation: table
  // contents come from callers, so the build must not abort on bad data.
  static Result<KeyIndex> Build(const ChunkedTable& table,
                                std::vector<size_t> key_indices);

  const std::vector<size_t>& key_indices() const { return key_indices_; }

  // Position of the row of `table` whose key equals the key of `probe`
  // projected at `probe_indices`, if any.
  std::optional<size_t> Lookup(const ChunkedTable& table, const Row& probe,
                               const std::vector<size_t>& probe_indices) const;

  // Position of the row whose key equals `key` (already projected).
  std::optional<size_t> LookupKey(const ChunkedTable& table,
                                  const Row& key) const {
    return Lookup(table, key, key_columns_);
  }

  // Copy-on-write mutators; `copies->buckets` counts the buckets they
  // clone. Insert registers `row` at `position` (its key must be absent);
  // Erase drops the entry of `row`, which sits at `position`; Reposition
  // moves the entry of `row` from `from` to `to`.
  void Insert(const Row& row, size_t position, CowCopies* copies);
  void Erase(const Row& row, size_t position, CowCopies* copies);
  void Reposition(const Row& row, size_t from, size_t to, CowCopies* copies);

  size_t size() const { return size_; }
  size_t num_buckets() const { return buckets_.size(); }
  // The bucket `row`'s key hashes to.
  size_t BucketOf(const Row& row) const { return Bucket(Tag(row)); }

 private:
  struct Entry {
    uint32_t tag;       // top 32 bits of the mixed key hash
    uint32_t position;  // row position in the indexed table
  };
  using Entries = std::vector<Entry>;

  explicit KeyIndex(std::vector<size_t> key_indices);

  uint32_t Tag(const Row& row) const;  // the entry tag of `row`'s key
  size_t Bucket(uint32_t tag) const {
    return static_cast<size_t>(uint64_t{tag} >> (32 - bucket_bits_));
  }
  Entries& MutableBucket(size_t b, CowCopies* copies);
  Entry* Find(Entries* bucket, uint32_t tag, size_t position);
  void Double();

  std::vector<size_t> key_indices_;
  std::vector<size_t> key_columns_;  // 0..k-1: the columns of a projected key
  int bucket_bits_ = 0;              // log2 of the bucket count
  // Created and mutated only here, and only while unshared.
  std::vector<std::shared_ptr<Entries>> buckets_;
  size_t size_ = 0;
};

}  // namespace gpivot

#endif  // GPIVOT_RELATION_KEY_INDEX_H_
