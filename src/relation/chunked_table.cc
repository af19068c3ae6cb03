#include "relation/chunked_table.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "util/check.h"

namespace gpivot {

ChunkedTable::ChunkedTable(Table flat)
    : schema_(flat.schema()), key_(flat.key()), num_rows_(flat.num_rows()) {
  std::vector<Row>& rows = flat.mutable_rows();
  chunks_.reserve((rows.size() + kChunkRows - 1) / kChunkRows);
  for (size_t begin = 0; begin < rows.size(); begin += kChunkRows) {
    const size_t end = std::min(rows.size(), begin + kChunkRows);
    std::vector<Row> slice(std::make_move_iterator(rows.begin() + begin),
                           std::make_move_iterator(rows.begin() + end));
    chunks_.push_back(std::make_shared<Table>(schema_, std::move(slice)));
  }
}

Table ChunkedTable::ToTable() const {
  std::vector<Row> rows;
  rows.reserve(num_rows_);
  for (const std::shared_ptr<Table>& chunk : chunks_) {
    rows.insert(rows.end(), chunk->rows().begin(), chunk->rows().end());
  }
  Table flat(schema_, std::move(rows));
  if (!key_.empty()) {
    Status st = flat.SetKey(key_);
    GPIVOT_CHECK(st.ok()) << st.ToString();
  }
  return flat;
}

Table& ChunkedTable::MutableChunk(size_t c, CowCopies* copies) {
  std::shared_ptr<Table>& chunk = chunks_[c];
  if (chunk.use_count() > 1) {
    // Another copy still reads this chunk: mutate a private clone. The
    // clone shares the warm column cache until its first mutation drops
    // it; the other copy's cache stays intact either way.
    copies->rows += chunk->num_rows();
    chunk = std::make_shared<Table>(*chunk);
  }
  return *chunk;
}

Row ChunkedTable::Replace(size_t i, Row row, CowCopies* copies) {
  GPIVOT_CHECK(i < num_rows_) << "ChunkedTable::Replace out of range";
  Row& slot = MutableChunk(i / kChunkRows, copies)
                  .mutable_rows()[i % kChunkRows];
  std::swap(slot, row);
  return row;
}

void ChunkedTable::Append(Row row, CowCopies* copies) {
  if (num_rows_ % kChunkRows == 0) {
    // The last chunk is full (or there is none): start a new one, which
    // copies nothing.
    chunks_.push_back(std::make_shared<Table>(schema_));
    chunks_.back()->mutable_rows().reserve(kChunkRows);
  }
  MutableChunk(chunks_.size() - 1, copies).AddRow(std::move(row));
  ++num_rows_;
}

Row ChunkedTable::PopBack(CowCopies* copies) {
  GPIVOT_CHECK(num_rows_ > 0) << "ChunkedTable::PopBack on empty table";
  --num_rows_;
  if (num_rows_ % kChunkRows == 0) {
    // The last chunk holds only this row: drop the chunk instead of
    // cloning it to empty it.
    std::shared_ptr<Table> last = std::move(chunks_.back());
    chunks_.pop_back();
    if (last.use_count() == 1) return std::move(last->mutable_rows()[0]);
    return last->RowAt(0);
  }
  std::vector<Row>& rows = MutableChunk(chunks_.size() - 1, copies)
                               .mutable_rows();
  Row row = std::move(rows.back());
  rows.pop_back();
  return row;
}

}  // namespace gpivot
