#include "exec/join.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>
#include <unordered_set>

#include "exec/partition.h"
#include "exec/vector_ops.h"
#include "obs/cost.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/small_vector.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace gpivot::exec {

const char* JoinTypeToString(JoinType type) {
  switch (type) {
    case JoinType::kInner:
      return "INNER";
    case JoinType::kLeftOuter:
      return "LEFT OUTER";
    case JoinType::kFullOuter:
      return "FULL OUTER";
    case JoinType::kLeftSemi:
      return "LEFT SEMI";
    case JoinType::kLeftAnti:
      return "LEFT ANTI";
  }
  return "?";
}

namespace {

// Row-key wrapper with NULL poisoning: SQL equi-joins never match NULL keys,
// so NULL-containing keys are excluded from the hash table / probes.
bool KeyHasNull(const Row& key) {
  for (const Value& v : key) {
    if (v.is_null()) return true;
  }
  return false;
}

// Moves per-chunk probe outputs into `result` in chunk order; since chunks
// cover the probe rows contiguously, this reproduces sequential row order.
Table ConcatChunks(Schema schema, std::vector<std::vector<Row>> chunk_rows) {
  size_t total = 0;
  for (const std::vector<Row>& rows : chunk_rows) total += rows.size();
  Table result(std::move(schema));
  result.mutable_rows().reserve(total);
  for (std::vector<Row>& rows : chunk_rows) {
    for (Row& row : rows) result.AddRow(std::move(row));
  }
  return result;
}

// Key positions, output schema and compiled residual shared by every
// equi-join implementation.
struct JoinLayout {
  std::vector<size_t> left_key_idx;
  std::vector<size_t> right_key_idx;
  // Right payload = right columns minus its join keys.
  std::vector<size_t> right_payload_idx;
  Schema output_schema;
  CompiledExpr residual;

  // One exact-capacity allocation per output row. (Copy-then-reserve
  // allocated at the left arity and regrew for the payload columns on
  // every combined row of the probe hot loop.)
  Row Combine(const Row& l, const Row& r) const {
    Row out;
    out.reserve(l.size() + right_payload_idx.size());
    out.insert(out.end(), l.begin(), l.end());
    for (size_t i : right_payload_idx) out.push_back(r[i]);
    return out;
  }
};

Result<JoinLayout> MakeJoinLayout(const Table& left, const Table& right,
                                  const JoinSpec& spec) {
  if (spec.left_keys.size() != spec.right_keys.size()) {
    return Status::InvalidArgument("HashJoin: key lists differ in length");
  }
  JoinLayout layout;
  GPIVOT_ASSIGN_OR_RETURN(layout.left_key_idx,
                          left.schema().ColumnIndices(spec.left_keys));
  GPIVOT_ASSIGN_OR_RETURN(layout.right_key_idx,
                          right.schema().ColumnIndices(spec.right_keys));

  std::unordered_set<size_t> right_key_set(layout.right_key_idx.begin(),
                                           layout.right_key_idx.end());
  for (size_t i = 0; i < right.schema().num_columns(); ++i) {
    if (right_key_set.count(i) == 0) layout.right_payload_idx.push_back(i);
  }

  // Semi/anti joins output the left schema; only their residual sees the
  // combined row (and only then may its column names collide).
  bool semi_or_anti =
      spec.type == JoinType::kLeftSemi || spec.type == JoinType::kLeftAnti;
  layout.output_schema = left.schema();
  if (!semi_or_anti || spec.residual != nullptr) {
    Schema right_payload_schema =
        right.schema().Select(layout.right_payload_idx);
    GPIVOT_ASSIGN_OR_RETURN(Schema combined,
                            left.schema().Concat(right_payload_schema));
    if (spec.residual != nullptr) {
      GPIVOT_ASSIGN_OR_RETURN(layout.residual,
                              CompileExpr(spec.residual, combined));
    }
    if (!semi_or_anti) layout.output_schema = std::move(combined);
  }
  return layout;
}

// The actual join; the public HashJoin wraps it with instrumentation.
Result<Table> HashJoinImpl(const Table& left, const Table& right,
                           const JoinSpec& spec, const ExecContext& ctx) {
  GPIVOT_ASSIGN_OR_RETURN(JoinLayout layout,
                          MakeJoinLayout(left, right, spec));
  const std::vector<size_t>& left_key_idx = layout.left_key_idx;
  const std::vector<size_t>& right_key_idx = layout.right_key_idx;
  const std::vector<size_t>& right_payload_idx = layout.right_payload_idx;
  const Schema& output_schema = layout.output_schema;
  const CompiledExpr& residual = layout.residual;
  const bool semi_or_anti =
      spec.type == JoinType::kLeftSemi || spec.type == JoinType::kLeftAnti;

  if (spec.type == JoinType::kInner &&
      (left.empty() || right.empty())) {
    return Table(output_schema);
  }

  // Vectorized inner-join fast path: typed key columns on both sides, one
  // hash -> candidate-row bucket table instead of Row-keyed map nodes, and
  // column-major batch hashing of the probe side. Candidates carry ascending
  // build-row indices and are verified with typed key equality, so the match
  // set and emission order are exactly the row path's (which iterates the
  // ascending per-key index list). Falls back below on mixed-type key
  // columns or when the chunk knob disables batching.
  if (spec.type == JoinType::kInner) {
    const size_t chunk_size = EffectiveVectorChunkSize(ctx);
    const bool build_left = left.num_rows() < right.num_rows();
    const Table& build_table = build_left ? left : right;
    const Table& probe_table = build_left ? right : left;
    const std::vector<size_t>& build_key_idx =
        build_left ? left_key_idx : right_key_idx;
    const std::vector<size_t>& probe_key_idx =
        build_left ? right_key_idx : left_key_idx;
    std::optional<KeyColumns> build_keys;
    std::optional<KeyColumns> probe_keys;
    if (chunk_size > 0 && build_table.num_rows() <= UINT32_MAX) {
      build_keys = KeyColumns::Make(build_table, build_key_idx);
      probe_keys = KeyColumns::Make(probe_table, probe_key_idx);
    }
    if (build_keys.has_value() && probe_keys.has_value()) {
      std::unordered_map<size_t, SmallVector<uint32_t, 2>> buckets;
      buckets.reserve(build_table.num_rows());
      for (size_t i = 0; i < build_table.num_rows(); ++i) {
        if (build_keys->HasNull(i)) continue;
        buckets[build_keys->Hash(i)].push_back(static_cast<uint32_t>(i));
      }
      const size_t num_probe = probe_table.num_rows();
      // Hash and null-test the whole probe side up front (in row chunks):
      // the hashes drive both the bucket lookups and the skew-aware chunk
      // boundaries below.
      std::vector<size_t> probe_hashes(num_probe);
      std::vector<uint8_t> probe_nulls(num_probe);
      ParallelForChunks(ctx, num_probe,
                        [&](size_t /*chunk*/, size_t begin, size_t end) {
                          for (size_t cb = begin; cb < end; cb += chunk_size) {
                            const size_t ce = std::min(end, cb + chunk_size);
                            probe_keys->BatchHash(cb, ce,
                                                  probe_hashes.data() + cb);
                            probe_keys->BatchHasNull(cb, ce,
                                                     probe_nulls.data() + cb);
                          }
                        });
      // Skew-aware probe split: chunk boundaries equalize estimated probe
      // cost (1 + candidate build matches per row) instead of raw row
      // counts, so a hot key whose bucket holds most of the build side no
      // longer serializes one chunk. Chunks stay contiguous and ascending,
      // so ConcatChunks still reproduces sequential row order exactly —
      // output bytes are invariant to where the boundaries land.
      const size_t chunks = NumChunks(ctx, num_probe);
      std::vector<size_t> bounds;
      if (chunks > 1) {
        std::vector<uint64_t> cumulative(num_probe + 1, 0);
        for (size_t r = 0; r < num_probe; ++r) {
          uint64_t cost = 1;
          if (!probe_nulls[r]) {
            auto it = buckets.find(probe_hashes[r]);
            if (it != buckets.end()) cost += it->second.size();
          }
          cumulative[r + 1] = cumulative[r] + cost;
        }
        bounds = WeightedChunkBoundaries(cumulative, chunks);
      } else {
        bounds = {0, num_probe};
      }
      std::vector<std::vector<Row>> chunk_rows(chunks);
      ParallelFor(ExecContext{chunks, 0}, chunks, [&](size_t chunk) {
        std::vector<Row>& out_rows = chunk_rows[chunk];
        for (size_t r = bounds[chunk]; r < bounds[chunk + 1]; ++r) {
          if (probe_nulls[r]) continue;
          auto it = buckets.find(probe_hashes[r]);
          if (it == buckets.end()) continue;
          for (uint32_t bi : it->second) {
            if (!probe_keys->RowsEqual(r, *build_keys, bi)) continue;
            const Row& lrow = build_left ? build_table.RowAt(bi)
                                         : probe_table.RowAt(r);
            const Row& rrow = build_left ? probe_table.RowAt(r)
                                         : build_table.RowAt(bi);
            Row out = layout.Combine(lrow, rrow);
            if (residual && !ValueIsTrue(residual(out))) continue;
            out_rows.push_back(std::move(out));
          }
        }
      });
      return ConcatChunks(output_schema, std::move(chunk_rows));
    }
  }

  // Inner joins build the hash table on the smaller side; delta-sized
  // inputs (the common IVM case) then avoid hashing the large table.
  if (spec.type == JoinType::kInner && left.num_rows() < right.num_rows()) {
    std::unordered_map<Row, std::vector<size_t>, RowHash, RowEq> build;
    build.reserve(left.num_rows());
    for (size_t i = 0; i < left.num_rows(); ++i) {
      Row key = ProjectRow(left.rows()[i], left_key_idx);
      if (KeyHasNull(key)) continue;
      build[std::move(key)].push_back(i);
    }
    std::vector<std::vector<Row>> chunk_rows(NumChunks(ctx, right.num_rows()));
    ParallelForChunks(
        ctx, right.num_rows(), [&](size_t chunk, size_t begin, size_t end) {
          std::vector<Row>& out_rows = chunk_rows[chunk];
          // Reuse one scratch key row across probes to avoid per-row allocs.
          Row key(right_key_idx.size());
          for (size_t r = begin; r < end; ++r) {
            const Row& rrow = right.rows()[r];
            for (size_t i = 0; i < right_key_idx.size(); ++i) {
              key[i] = rrow[right_key_idx[i]];
            }
            if (KeyHasNull(key)) continue;
            auto it = build.find(key);
            if (it == build.end()) continue;
            for (size_t li : it->second) {
              Row out = layout.Combine(left.rows()[li], rrow);
              if (residual && !ValueIsTrue(residual(out))) continue;
              out_rows.push_back(std::move(out));
            }
          }
        });
    return ConcatChunks(output_schema, std::move(chunk_rows));
  }

  // Build side: right.
  std::unordered_map<Row, std::vector<size_t>, RowHash, RowEq> build;
  build.reserve(right.num_rows());
  for (size_t i = 0; i < right.num_rows(); ++i) {
    Row key = ProjectRow(right.rows()[i], right_key_idx);
    if (KeyHasNull(key)) continue;
    build[std::move(key)].push_back(i);
  }

  // Matched-flag per right row; written concurrently by probe chunks
  // (monotonic set-to-1, so relaxed ordering suffices — ParallelFor's join
  // orders the flags before the right-remainder scan below).
  std::vector<std::atomic<uint8_t>> right_matched(right.num_rows());

  std::vector<std::vector<Row>> chunk_rows(NumChunks(ctx, left.num_rows()));
  ParallelForChunks(
      ctx, left.num_rows(), [&](size_t chunk, size_t begin, size_t end) {
        std::vector<Row>& out_rows = chunk_rows[chunk];
        // Reuse one scratch key row across probes to avoid per-row allocs.
        Row key(left_key_idx.size());
        for (size_t r = begin; r < end; ++r) {
          const Row& lrow = left.rows()[r];
          for (size_t i = 0; i < left_key_idx.size(); ++i) {
            key[i] = lrow[left_key_idx[i]];
          }
          bool matched = false;
          if (!KeyHasNull(key)) {
            auto it = build.find(key);
            if (it != build.end()) {
              for (size_t ri : it->second) {
                Row out = layout.Combine(lrow, right.rows()[ri]);
                if (residual && !ValueIsTrue(residual(out))) continue;
                matched = true;
                right_matched[ri].store(1, std::memory_order_relaxed);
                switch (spec.type) {
                  case JoinType::kInner:
                  case JoinType::kLeftOuter:
                  case JoinType::kFullOuter:
                    out_rows.push_back(std::move(out));
                    break;
                  case JoinType::kLeftSemi:
                  case JoinType::kLeftAnti:
                    break;  // handled below
                }
                if (semi_or_anti) break;  // one match decides
              }
            }
          }
          switch (spec.type) {
            case JoinType::kLeftSemi:
              if (matched) out_rows.push_back(lrow);
              break;
            case JoinType::kLeftAnti:
              if (!matched) out_rows.push_back(lrow);
              break;
            case JoinType::kLeftOuter:
            case JoinType::kFullOuter:
              if (!matched) {
                Row out = lrow;
                out.resize(output_schema.num_columns(), Value::Null());
                out_rows.push_back(std::move(out));
              }
              break;
            case JoinType::kInner:
              break;
          }
        }
      });
  Table result = ConcatChunks(output_schema, std::move(chunk_rows));

  if (spec.type == JoinType::kFullOuter) {
    // Right-only rows: left key columns coalesce to the right key values.
    for (size_t ri = 0; ri < right.num_rows(); ++ri) {
      if (right_matched[ri].load(std::memory_order_relaxed) != 0) continue;
      Row out(output_schema.num_columns(), Value::Null());
      const Row& rrow = right.rows()[ri];
      for (size_t k = 0; k < left_key_idx.size(); ++k) {
        out[left_key_idx[k]] = rrow[right_key_idx[k]];
      }
      for (size_t p = 0; p < right_payload_idx.size(); ++p) {
        out[left.schema().num_columns() + p] = rrow[right_payload_idx[p]];
      }
      result.AddRow(std::move(out));
    }
  }

  return result;
}

// Index join body: every match is a (probe row, base position) pair found
// through `base`'s cached index; `*base_rows_read` counts the distinct base
// rows matched.
Result<Table> IndexJoinImpl(const Table& left, const Table& right,
                            const JoinSpec& spec, bool right_indexed,
                            size_t* base_rows_read) {
  if (spec.type != JoinType::kInner) {
    return Status::InvalidArgument("IndexJoin supports only INNER joins");
  }
  GPIVOT_ASSIGN_OR_RETURN(JoinLayout layout,
                          MakeJoinLayout(left, right, spec));
  *base_rows_read = 0;
  if (left.empty() || right.empty()) return Table(layout.output_schema);
  const Table& base = right_indexed ? right : left;
  const Table& probe = right_indexed ? left : right;
  const std::vector<size_t>& base_key_idx =
      right_indexed ? layout.right_key_idx : layout.left_key_idx;
  const std::vector<size_t>& probe_key_idx =
      right_indexed ? layout.left_key_idx : layout.right_key_idx;
  std::shared_ptr<const HashIndex> index = base.Index(base_key_idx);

  std::vector<std::pair<size_t, uint32_t>> matches;  // (probe row, base row)
  std::vector<uint32_t> hits;
  for (size_t p = 0; p < probe.num_rows(); ++p) {
    const Row& row = probe.RowAt(p);
    bool has_null = false;
    for (size_t i : probe_key_idx) has_null = has_null || row[i].is_null();
    if (has_null) continue;  // SQL equi-joins never match NULL keys
    hits.clear();
    index->Find(base.rows(), row, probe_key_idx, &hits);
    for (uint32_t b : hits) matches.emplace_back(p, b);
  }
  // A base row matched by several probe rows is read once.
  std::vector<uint32_t> read(matches.size());
  for (size_t i = 0; i < matches.size(); ++i) read[i] = matches[i].second;
  std::sort(read.begin(), read.end());
  *base_rows_read = std::unique(read.begin(), read.end()) - read.begin();
  // HashJoin emits in the order of whichever side it probes (the larger
  // one), each probe row's matches in ascending build-row order. Matches
  // were gathered probe row by probe row; when HashJoin would probe the
  // base instead, reorder by base position.
  const bool hash_join_builds_left = left.num_rows() < right.num_rows();
  if (hash_join_builds_left == right_indexed) {
    std::sort(matches.begin(), matches.end(),
              [](const auto& a, const auto& b) {
                return a.second != b.second ? a.second < b.second
                                            : a.first < b.first;
              });
  }
  Table result(layout.output_schema);
  result.mutable_rows().reserve(matches.size());
  for (const auto& [p, b] : matches) {
    const Row& lrow = right_indexed ? probe.RowAt(p) : base.RowAt(b);
    const Row& rrow = right_indexed ? base.RowAt(b) : probe.RowAt(p);
    Row out = layout.Combine(lrow, rrow);
    if (layout.residual && !ValueIsTrue(layout.residual(out))) continue;
    result.AddRow(std::move(out));
  }
  return result;
}

// Shared join accounting: per-node cost stats, exec.join.* counters and
// the span's attributes.
void RecordJoin(const ExecContext& ctx, obs::ScopedSpan* span, JoinType type,
                size_t rows_in, size_t build_rows, size_t probe_rows,
                const Table& result) {
  if (ctx.cost != nullptr && ctx.cost_node >= 0) {
    obs::NodeStats stats;
    stats.invocations = 1;
    stats.rows_in = rows_in;
    stats.rows_out = result.num_rows();
    stats.build_rows = build_rows;
    stats.probe_rows = probe_rows;
    ctx.cost->Record(ctx.cost_node, stats);
  }
  if (ctx.metrics != nullptr && ctx.metrics->enabled()) {
    ctx.metrics->AddCounter("exec.join.calls");
    ctx.metrics->AddCounter("exec.join.build_rows", build_rows);
    ctx.metrics->AddCounter("exec.join.probe_rows", probe_rows);
    ctx.metrics->AddCounter("exec.join.rows_out", result.num_rows());
    // Logical output footprint (rows x columns x cell size). A data-derived
    // quantity rather than an allocator probe, so it is byte-identical
    // across thread counts, chunk sizes, and row/vectorized paths; scratch
    // buffers are deliberately excluded.
    ctx.metrics->AddCounter(
        "exec.join.bytes_allocated",
        result.num_rows() * result.schema().num_columns() * sizeof(Value));
  }
  if (span->active()) {
    span->AddAttr("type", JoinTypeToString(type));
    span->AddAttr("build_rows", static_cast<uint64_t>(build_rows));
    span->AddAttr("probe_rows", static_cast<uint64_t>(probe_rows));
    span->AddAttr("rows_out", static_cast<uint64_t>(result.num_rows()));
  }
}

}  // namespace

Result<Table> HashJoin(const Table& left, const Table& right,
                       const JoinSpec& spec, const ExecContext& ctx) {
  obs::ScopedSpan span = obs::TraceEnabled(ctx.tracer)
                             ? obs::ScopedSpan(ctx.tracer, "HashJoin")
                             : obs::ScopedSpan();
  obs::ScopedLatency latency(ctx.metrics, "exec.join.ms");
  GPIVOT_ASSIGN_OR_RETURN(Table result, HashJoinImpl(left, right, spec, ctx));
  // Build/probe sizes mirror HashJoinImpl's side choice: inner joins build
  // on the smaller side, every other type builds on the right.
  bool inner_build_left = spec.type == JoinType::kInner &&
                          left.num_rows() < right.num_rows();
  size_t build_rows = inner_build_left ? left.num_rows() : right.num_rows();
  size_t probe_rows = inner_build_left ? right.num_rows() : left.num_rows();
  RecordJoin(ctx, &span, spec.type, left.num_rows() + right.num_rows(),
             build_rows, probe_rows, result);
  return result;
}

Result<Table> IndexJoin(const Table& left, const Table& right,
                        const JoinSpec& spec, bool right_indexed,
                        const ExecContext& ctx, size_t* base_rows_read) {
  obs::ScopedSpan span = obs::TraceEnabled(ctx.tracer)
                             ? obs::ScopedSpan(ctx.tracer, "IndexJoin")
                             : obs::ScopedSpan();
  obs::ScopedLatency latency(ctx.metrics, "exec.join.ms");
  size_t read = 0;
  GPIVOT_ASSIGN_OR_RETURN(
      Table result, IndexJoinImpl(left, right, spec, right_indexed, &read));
  if (base_rows_read != nullptr) *base_rows_read = read;
  // Nothing is built per call; the probe side is the non-indexed input and
  // the rows fetched through the index count as input.
  const size_t probe_rows =
      right_indexed ? left.num_rows() : right.num_rows();
  RecordJoin(ctx, &span, spec.type, probe_rows + read, 0, probe_rows, result);
  return result;
}

Result<Table> EquiJoin(const Table& left, const Table& right,
                       const std::vector<std::string>& keys,
                       const ExecContext& ctx) {
  JoinSpec spec;
  spec.left_keys = keys;
  spec.right_keys = keys;
  spec.type = JoinType::kInner;
  return HashJoin(left, right, spec, ctx);
}

Result<Table> NestedLoopJoin(const Table& left, const Table& right,
                             const ExprPtr& condition, JoinType type) {
  if (type != JoinType::kInner && type != JoinType::kLeftOuter) {
    return Status::InvalidArgument(
        "NestedLoopJoin supports only INNER and LEFT OUTER");
  }
  GPIVOT_ASSIGN_OR_RETURN(Schema output_schema,
                          left.schema().Concat(right.schema()));
  GPIVOT_ASSIGN_OR_RETURN(CompiledExpr predicate,
                          CompileExpr(condition, output_schema));
  Table result(output_schema);
  for (const Row& lrow : left.rows()) {
    bool matched = false;
    for (const Row& rrow : right.rows()) {
      Row out = lrow;
      out.insert(out.end(), rrow.begin(), rrow.end());
      if (!ValueIsTrue(predicate(out))) continue;
      matched = true;
      result.AddRow(std::move(out));
    }
    if (!matched && type == JoinType::kLeftOuter) {
      Row out = lrow;
      out.resize(output_schema.num_columns(), Value::Null());
      result.AddRow(std::move(out));
    }
  }
  return result;
}

}  // namespace gpivot::exec
