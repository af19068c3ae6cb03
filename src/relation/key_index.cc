#include "relation/key_index.h"

#include <utility>

#include "util/check.h"
#include "util/string_util.h"

namespace gpivot {

namespace {

// Fibonacci hashing: the top bits of the product mix every hash bit, so the
// top bits of the tag pick the bucket at any bucket count.
uint32_t MixTag(size_t hash) {
  return static_cast<uint32_t>(
      (static_cast<uint64_t>(hash) * 0x9e3779b97f4a7c15ULL) >> 32);
}

}  // namespace

KeyIndex::KeyIndex(std::vector<size_t> key_indices)
    : key_indices_(std::move(key_indices)) {
  key_columns_.resize(key_indices_.size());
  for (size_t i = 0; i < key_columns_.size(); ++i) key_columns_[i] = i;
}

Result<KeyIndex> KeyIndex::Build(const ChunkedTable& table,
                                 std::vector<size_t> key_indices) {
  GPIVOT_CHECK(table.num_rows() < UINT32_MAX) << "KeyIndex: too many rows";
  KeyIndex index(std::move(key_indices));
  while ((size_t{1} << index.bucket_bits_) * kBuildLoad < table.num_rows()) {
    ++index.bucket_bits_;
  }
  const size_t num_buckets = size_t{1} << index.bucket_bits_;
  std::vector<uint32_t> tags(table.num_rows());
  std::vector<uint32_t> counts(num_buckets, 0);
  for (size_t i = 0; i < tags.size(); ++i) {
    tags[i] = index.Tag(table.RowAt(i));
    ++counts[index.Bucket(tags[i])];
  }
  index.buckets_.reserve(num_buckets);
  for (size_t b = 0; b < num_buckets; ++b) {
    index.buckets_.push_back(std::make_shared<Entries>());
    index.buckets_.back()->reserve(counts[b]);
  }
  for (size_t i = 0; i < tags.size(); ++i) {
    const Row& row = table.RowAt(i);
    Entries& bucket = *index.buckets_[index.Bucket(tags[i])];
    for (const Entry& entry : bucket) {
      if (entry.tag == tags[i] &&
          RowsEqualAt(table.RowAt(entry.position), index.key_indices_, row,
                      index.key_indices_)) {
        return Status::ConstraintViolation(
            StrCat("KeyIndex: duplicate key ",
                   RowToString(ProjectRow(row, index.key_indices_))));
      }
    }
    bucket.push_back({tags[i], static_cast<uint32_t>(i)});
  }
  index.size_ = tags.size();
  return index;
}

std::optional<size_t> KeyIndex::Lookup(
    const ChunkedTable& table, const Row& probe,
    const std::vector<size_t>& probe_indices) const {
  const uint32_t tag = MixTag(HashRowAt(probe, probe_indices));
  for (const Entry& entry : *buckets_[Bucket(tag)]) {
    if (entry.tag == tag &&
        RowsEqualAt(table.RowAt(entry.position), key_indices_, probe,
                    probe_indices)) {
      return entry.position;
    }
  }
  return std::nullopt;
}

uint32_t KeyIndex::Tag(const Row& row) const {
  return MixTag(HashRowAt(row, key_indices_));
}

KeyIndex::Entries& KeyIndex::MutableBucket(size_t b, CowCopies* copies) {
  std::shared_ptr<Entries>& bucket = buckets_[b];
  if (bucket.use_count() > 1) {
    ++copies->buckets;
    bucket = std::make_shared<Entries>(*bucket);
  }
  return *bucket;
}

KeyIndex::Entry* KeyIndex::Find(Entries* bucket, uint32_t tag,
                                size_t position) {
  for (Entry& entry : *bucket) {
    if (entry.tag == tag && entry.position == position) return &entry;
  }
  return nullptr;
}

void KeyIndex::Insert(const Row& row, size_t position, CowCopies* copies) {
  GPIVOT_CHECK(position < UINT32_MAX) << "KeyIndex: too many rows";
  if (size_ + 1 > 2 * kBuildLoad * buckets_.size()) Double();
  const uint32_t tag = Tag(row);
  MutableBucket(Bucket(tag), copies)
      .push_back({tag, static_cast<uint32_t>(position)});
  ++size_;
}

void KeyIndex::Erase(const Row& row, size_t position, CowCopies* copies) {
  const uint32_t tag = Tag(row);
  Entries& bucket = MutableBucket(Bucket(tag), copies);
  Entry* entry = Find(&bucket, tag, position);
  GPIVOT_CHECK(entry != nullptr)
      << "KeyIndex::Erase: no entry for "
      << RowToString(ProjectRow(row, key_indices_)) << " at " << position;
  *entry = bucket.back();
  bucket.pop_back();
  --size_;
}

void KeyIndex::Reposition(const Row& row, size_t from, size_t to,
                          CowCopies* copies) {
  const uint32_t tag = Tag(row);
  Entry* entry = Find(&MutableBucket(Bucket(tag), copies), tag, from);
  GPIVOT_CHECK(entry != nullptr)
      << "KeyIndex::Reposition: no entry for "
      << RowToString(ProjectRow(row, key_indices_)) << " at " << from;
  entry->position = static_cast<uint32_t>(to);
}

void KeyIndex::Double() {
  // Bucket b splits into 2b and 2b + 1 by the next tag bit. Fresh buckets
  // throughout: copies sharing the old array keep it untouched.
  ++bucket_bits_;
  std::vector<std::shared_ptr<Entries>> doubled(buckets_.size() * 2);
  for (std::shared_ptr<Entries>& bucket : doubled) {
    bucket = std::make_shared<Entries>();
  }
  for (const std::shared_ptr<Entries>& bucket : buckets_) {
    for (const Entry& entry : *bucket) {
      doubled[Bucket(entry.tag)]->push_back(entry);
    }
  }
  buckets_ = std::move(doubled);
}

}  // namespace gpivot
