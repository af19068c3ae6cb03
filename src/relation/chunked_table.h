#ifndef GPIVOT_RELATION_CHUNKED_TABLE_H_
#define GPIVOT_RELATION_CHUNKED_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "relation/row.h"
#include "relation/schema.h"
#include "relation/table.h"

namespace gpivot {

// What the copy-on-write mutators of ChunkedTable and KeyIndex copied: the
// rows of cloned row chunks and the number of cloned index buckets.
struct CowCopies {
  uint64_t rows = 0;
  uint64_t buckets = 0;
};

// A table stored as fixed-size row chunks behind shared_ptr. Copying a
// ChunkedTable copies one pointer per chunk and shares every row; the
// mutators clone a chunk only when another copy still shares it
// (use_count() > 1) and mutate a chunk this table owns alone in place. A
// copy therefore never observes mutations made through another copy.
//
// Each chunk is a plain Table with the table's schema (the key is kept
// once, here), so operators and the lazy column cache work per chunk, and
// a chunk no mutation touches keeps its warm columns across copies. Row i
// lives in chunk i / kChunkRows at offset i % kChunkRows: every chunk but
// the last is full, so positions and row order are exactly those of the
// equivalent flat table.
//
// Not thread-safe against concurrent mutation (like any container); copies
// on other threads are safe to read while this one mutates.
class ChunkedTable {
 public:
  // Rows per chunk: a clone copies at most this many rows, and every chunk
  // adds a Table header to memory and a pointer copy to every fork. Chosen
  // by measurement on the serving workload (DESIGN.md "Serving layer"):
  // 128 and 256 gave slower epochs, 16 and 32 no faster ones but slower
  // scans (per-chunk operator overhead) and more memory.
  static constexpr size_t kChunkRows = 64;

  ChunkedTable() = default;
  // Splits `flat` into chunks (rows are moved), keeping its schema and key.
  explicit ChunkedTable(Table flat);

  const Schema& schema() const { return schema_; }
  const std::vector<std::string>& key() const { return key_; }
  size_t num_rows() const { return num_rows_; }

  size_t num_chunks() const { return chunks_.size(); }
  const Table& chunk(size_t c) const { return *chunks_[c]; }

  const Row& RowAt(size_t i) const {
    return chunks_[i / kChunkRows]->RowAt(i % kChunkRows);
  }

  // The rows as one flat table, in position order. O(rows): for checks,
  // tests and tools, never for the maintenance or read path.
  Table ToTable() const;

  // Copy-on-write mutators; `copies` accumulates the rows of every chunk
  // they clone. Replace returns the row it overwrote; PopBack removes and
  // returns the last row.
  Row Replace(size_t i, Row row, CowCopies* copies);
  void Append(Row row, CowCopies* copies);
  Row PopBack(CowCopies* copies);

 private:
  Table& MutableChunk(size_t c, CowCopies* copies);

  Schema schema_;
  std::vector<std::string> key_;
  // Chunks are created and mutated only through this class, and only while
  // unshared, so the non-const pointee never changes under another copy.
  std::vector<std::shared_ptr<Table>> chunks_;
  size_t num_rows_ = 0;
};

}  // namespace gpivot

#endif  // GPIVOT_RELATION_CHUNKED_TABLE_H_
