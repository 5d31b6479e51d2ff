#include "relational/operators.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "common/check.hpp"
#include "relational/row_key.hpp"
#include "relational/vector_eval.hpp"

namespace gems::relational {

using storage::Column;
using storage::ColumnDef;
using storage::DataType;
using storage::Schema;
using storage::TypeKind;
using storage::Value;

namespace {

inline constexpr std::uint32_t kChainEnd =
    std::numeric_limits<std::uint32_t>::max();

/// Refills `v` with `n` copies of `fill`, releasing the old array before
/// the new one is taken: from a statement's ScratchArena, a hash table
/// that is the arena's latest allocation then grows in place over its own
/// pages instead of leaving each smaller table behind.
template <typename T>
void reallocate(std::pmr::vector<T>& v, std::size_t n, const T& fill) {
  std::pmr::vector<T>(v.get_allocator()).swap(v);
  v.assign(n, fill);
}

/// Flat open-addressing map from a 64-bit key hash to the head of a
/// chain (linear probing, power-of-two capacity, no deletion). The
/// group-by/join/distinct paths do one find-or-insert per input row;
/// unordered_map's node allocations and pointer chases dominate at that
/// rate. Chains carry hash collisions AND equal keys —
/// callers verify exact key equality per chain entry, so two distinct
/// keys sharing a hash never merge.
class HashHeads {
 public:
  HashHeads(std::size_t expected, std::pmr::memory_resource* memory)
      : slots_(memory) {
    reset(expected);
  }

  /// True when `entries` chain entries would push the load factor past
  /// 1/2 — callers that discover entries as they go (group-by, distinct
  /// — entry count is the number of DISTINCT keys, far below the row
  /// count) start small and rebuild on demand, keeping the slot array
  /// sized to live entries instead of input rows.
  bool needs_capacity(std::size_t entries) const {
    return entries * 2 > slots_.size();
  }

  /// Rebuilds with room for `entries`, reinserting entry i under
  /// entry_hash[i] and relinking `next` (the callers' chain array) in
  /// place. Chain order within a slot may change; chains only ever
  /// carry distinct keys plus hash collisions, so order is never
  /// observable in results.
  void rebuild(std::size_t entries,
               std::span<const std::uint64_t> entry_hash,
               std::span<std::uint32_t> next) {
    reset(entries * 2);  // headroom: next rebuild at 2x current entries
    for (std::size_t g = 0; g < entry_hash.size(); ++g) {
      std::uint32_t& head = slot(entry_hash[g]);
      next[g] = head;
      head = static_cast<std::uint32_t>(g);
    }
  }

  /// The chain-head slot for `hash` (kChainEnd when new). Writable: the
  /// caller pushes the new chain entry and stores it back.
  std::uint32_t& slot(std::uint64_t hash) {
    std::size_t i = hash & mask_;
    while (slots_[i].head != kChainEnd && slots_[i].hash != hash) {
      i = (i + 1) & mask_;
    }
    slots_[i].hash = hash;
    return slots_[i].head;
  }

  /// Read-only probe: the chain head for `hash`, kChainEnd if absent.
  std::uint32_t find(std::uint64_t hash) const {
    std::size_t i = hash & mask_;
    while (slots_[i].head != kChainEnd && slots_[i].hash != hash) {
      i = (i + 1) & mask_;
    }
    return slots_[i].head;
  }

  /// Hints the slot line for `hash` into cache. The batch loops run one
  /// prefetch sweep over the just-hashed batch before probing, so the
  /// (random) slot loads overlap instead of serializing a miss per row.
  void prefetch(std::uint64_t hash) const {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&slots_[hash & mask_]);
#endif
  }

 private:
  // Hash and head interleaved: one cache line per probe, not two.
  struct Slot {
    std::uint64_t hash;
    std::uint32_t head;
  };

  void reset(std::size_t expected) {
    std::size_t cap = 16;
    while (cap < expected * 2) cap <<= 1;
    mask_ = cap - 1;
    reallocate(slots_, cap, Slot{0, kChainEnd});
  }

  std::size_t mask_ = 0;
  std::pmr::vector<Slot> slots_;
};

/// Open-addressing map from a SINGLE normalized key cell to an entry id
/// (the one-key-column fast path of group-by/distinct). The cell is
/// narrow enough to live in the slot itself, so a probe resolves exact
/// key equality in the slot line — one random load per input row, no
/// chain indirection at all. Empty slots carry entry == kChainEnd.
class KeyCellMap {
 public:
  KeyCellMap(std::size_t expected, std::pmr::memory_resource* memory)
      : slots_(memory) {
    reset(expected);
  }

  struct Slot {
    std::uint64_t bits;
    std::uint32_t entry;
    std::uint8_t null;
  };

  /// The slot whose cell equals (bits, null), or the empty slot where
  /// that cell belongs. On a miss the caller registers the new entry id
  /// by assigning the whole slot.
  Slot& slot(std::uint64_t hash, std::uint64_t bits, std::uint8_t null) {
    std::size_t i = hash & mask_;
    while (slots_[i].entry != kChainEnd &&
           (slots_[i].bits != bits || slots_[i].null != null)) {
      i = (i + 1) & mask_;
    }
    return slots_[i];
  }

  bool needs_capacity(std::size_t entries) const {
    return entries * 2 > slots_.size();
  }

  /// Rebuilds with room for `entries`, reinserting entry i as the cell
  /// (bits[i], nulls[i]) with hash hashes[i].
  void rebuild(std::size_t entries, std::span<const std::uint64_t> bits,
               std::span<const std::uint8_t> nulls,
               std::span<const std::uint64_t> hashes) {
    reset(entries * 2);
    for (std::size_t e = 0; e < hashes.size(); ++e) {
      slot(hashes[e], bits[e], nulls[e]) =
          Slot{bits[e], static_cast<std::uint32_t>(e), nulls[e]};
    }
  }

  void prefetch(std::uint64_t hash) const {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&slots_[hash & mask_]);
#endif
  }

 private:
  void reset(std::size_t expected) {
    std::size_t cap = 16;
    while (cap < expected * 2) cap <<= 1;
    mask_ = cap - 1;
    reallocate(slots_, cap, Slot{0, kChainEnd, 0});
  }

  std::size_t mask_ = 0;
  std::pmr::vector<Slot> slots_;
};

/// Compiles an operator expression. Operator inputs are bound against a
/// single-source TableScope, and compilation fails only on a column of
/// another source, so it cannot fail here.
VectorExprPtr compile_operand(const BoundExpr& expr, const StringPool& pool) {
  VectorExprPtr kernel = VectorExpr::compile(expr, 0, pool);
  GEMS_CHECK_MSG(kernel != nullptr,
                 "operator expression references a second source");
  return kernel;
}

}  // namespace

std::pmr::vector<RowIndex> filter_rows(const Table& table,
                                       const BoundExpr& predicate,
                                       RowIndex first_row,
                                       std::pmr::memory_resource* memory) {
  const VectorExprPtr kernel = compile_operand(predicate, table.pool());
  EvalScratch scratch = kernel->make_scratch();
  const std::size_t end = table.num_rows();
  std::pmr::vector<RowIndex> out(memory);
  // Every row could pass: one array, never regrown.
  out.reserve(end - std::min<std::size_t>(first_row, end));
  for (std::size_t b = first_row; b < end; b += kBatchRows) {
    const RowBatch batch{&table, static_cast<RowIndex>(b), nullptr,
                         std::min(kBatchRows, end - b)};
    const std::size_t at = out.size();
    out.resize(at + batch.size);
    out.resize(at + filter_batch(*kernel, batch, scratch, out.data() + at));
  }
  return out;
}

TablePtr materialize(const Table& src, std::span<const RowIndex> rows,
                     std::span<const ColumnIndex> cols, std::string name,
                     const std::vector<std::string>* rename) {
  GEMS_CHECK(rename == nullptr || rename->size() == cols.size());
  std::vector<ColumnDef> defs;
  defs.reserve(cols.size());
  for (std::size_t i = 0; i < cols.size(); ++i) {
    const ColumnDef& d = src.schema().column(cols[i]);
    defs.push_back({rename ? (*rename)[i] : d.name, d.type});
  }
  auto out = std::make_shared<Table>(std::move(name), Schema(std::move(defs)),
                                     src.pool());
  // Column-at-a-time: one source column stays hot per pass instead of
  // cycling the whole row's columns through cache for every output row.
  for (std::size_t c = 0; c < cols.size(); ++c) {
    Column& dst = out->column_mut(static_cast<ColumnIndex>(c));
    const Column& s = src.column(cols[c]);
    for (const RowIndex r : rows) dst.append_from(s, r);
  }
  out->bump_rows(rows.size());
  return out;
}

TablePtr project(const Table& src, std::span<const RowIndex> rows,
                 std::span<const OutputColumn> outputs, std::string name) {
  std::vector<ColumnDef> defs;
  defs.reserve(outputs.size());
  for (const auto& o : outputs) defs.push_back({o.name, o.expr->type});
  auto out = std::make_shared<Table>(std::move(name), Schema(std::move(defs)),
                                     src.pool());

  std::vector<VectorExprPtr> kernels;
  std::vector<EvalScratch> scratches;
  kernels.reserve(outputs.size());
  scratches.reserve(outputs.size());
  for (const auto& o : outputs) {
    kernels.push_back(compile_operand(*o.expr, src.pool()));
    scratches.push_back(kernels.back()->make_scratch());
  }
  for (std::size_t off = 0; off < rows.size(); off += kBatchRows) {
    const std::size_t n = std::min(kBatchRows, rows.size() - off);
    const RowBatch batch{&src, 0, rows.data() + off, n};
    for (std::size_t c = 0; c < kernels.size(); ++c) {
      const ValueVector v = kernels[c]->eval(batch, scratches[c]);
      append_vector(out->column_mut(static_cast<ColumnIndex>(c)), v, n);
    }
    out->bump_rows(n);
  }
  return out;
}

Result<std::vector<std::pair<RowIndex, RowIndex>>> hash_join_pairs(
    const Table& left, std::span<const ColumnIndex> left_keys,
    const Table& right, std::span<const ColumnIndex> right_keys) {
  if (left_keys.size() != right_keys.size() || left_keys.empty()) {
    return invalid_argument("join key arity mismatch");
  }
  for (std::size_t i = 0; i < left_keys.size(); ++i) {
    const DataType& lt = left.schema().column(left_keys[i]).type;
    const DataType& rt = right.schema().column(right_keys[i]).type;
    // Int64/Double cross-type equi-joins would need promoted encoding;
    // the type checker upstream only admits identical-kind join keys.
    if (lt.kind != rt.kind) {
      return type_error("join keys '" +
                        left.schema().column(left_keys[i]).name + "' (" +
                        lt.to_string() + ") and '" +
                        right.schema().column(right_keys[i]).name + "' (" +
                        rt.to_string() + ") have different types");
    }
  }

  // Build on the smaller side.
  const bool build_left = left.num_rows() <= right.num_rows();
  const Table& build = build_left ? left : right;
  const Table& probe = build_left ? right : left;
  const std::span<const ColumnIndex> build_keys =
      build_left ? left_keys : right_keys;
  const std::span<const ColumnIndex> probe_keys =
      build_left ? right_keys : left_keys;

  std::vector<std::pair<RowIndex, RowIndex>> out;

  // Hash → chain table over raw 64-bit key hashes, filled and probed in
  // batches with column-at-a-time bulk hashing (no per-row key-string
  // allocations). Chains carry hash collisions AND equal keys; probes
  // verify exact key equality per candidate. Pair order is normalized by
  // the final sort, so chain order never shows in results.
  std::vector<std::uint64_t> hashes(kBatchRows);
  std::vector<std::uint8_t> nulls(kBatchRows);

  const std::size_t bn = build.num_rows();
  HashHeads heads(bn, std::pmr::get_default_resource());
  std::vector<std::uint32_t> next(bn, kChainEnd);
  for (std::size_t base = 0; base < bn; base += kBatchRows) {
    const std::size_t n = std::min(kBatchRows, bn - base);
    hash_row_key_batch(build, static_cast<RowIndex>(base), nullptr, n,
                       build_keys, hashes.data(), nulls.data());
    for (std::size_t i = 0; i < n; ++i) heads.prefetch(hashes[i]);
    for (std::size_t i = 0; i < n; ++i) {
      if (nulls[i] != 0) continue;  // SQL: NULL keys never match
      const RowIndex row = static_cast<RowIndex>(base + i);
      std::uint32_t& head = heads.slot(hashes[i]);
      next[row] = head;  // LIFO chain; kChainEnd when first
      head = row;
    }
  }

  const std::size_t pn = probe.num_rows();
  for (std::size_t base = 0; base < pn; base += kBatchRows) {
    const std::size_t n = std::min(kBatchRows, pn - base);
    hash_row_key_batch(probe, static_cast<RowIndex>(base), nullptr, n,
                       probe_keys, hashes.data(), nulls.data());
    for (std::size_t i = 0; i < n; ++i) heads.prefetch(hashes[i]);
    for (std::size_t i = 0; i < n; ++i) {
      if (nulls[i] != 0) continue;
      const RowIndex row = static_cast<RowIndex>(base + i);
      for (std::uint32_t b = heads.find(hashes[i]); b != kChainEnd;
           b = next[b]) {
        if (!row_keys_equal(build, b, build_keys, probe, row, probe_keys)) {
          continue;
        }
        out.emplace_back(build_left ? b : row, build_left ? row : b);
      }
    }
  }

  // Deterministic output order regardless of build-side choice and of
  // hash/chain order.
  std::sort(out.begin(), out.end());
  return out;
}

Result<TablePtr> hash_join(const Table& left,
                           std::span<const ColumnIndex> left_keys,
                           const Table& right,
                           std::span<const ColumnIndex> right_keys,
                           std::span<const JoinOutput> outputs,
                           std::string name) {
  GEMS_ASSIGN_OR_RETURN(auto pairs,
                        hash_join_pairs(left, left_keys, right, right_keys));
  std::vector<ColumnDef> defs;
  defs.reserve(outputs.size());
  for (const auto& o : outputs) {
    const Table& t = o.side == JoinOutput::kLeft ? left : right;
    defs.push_back({o.name, t.schema().column(o.column).type});
  }
  auto out = std::make_shared<Table>(std::move(name), Schema(std::move(defs)),
                                     left.pool());
  std::vector<RowIndex> left_rows, right_rows;
  left_rows.reserve(pairs.size());
  right_rows.reserve(pairs.size());
  for (const auto& [l, r] : pairs) {
    left_rows.push_back(l);
    right_rows.push_back(r);
  }
  for (std::size_t c = 0; c < outputs.size(); ++c) {
    const auto& o = outputs[c];
    const Table& t = o.side == JoinOutput::kLeft ? left : right;
    const auto& rows = o.side == JoinOutput::kLeft ? left_rows : right_rows;
    out->column_mut(static_cast<ColumnIndex>(c))
        .append_gather(t.column(o.column), rows.data(), pairs.size());
  }
  out->bump_rows(pairs.size());
  return out;
}

namespace {

// Per-group accumulator state, split by aggregate kind so each
// aggregate's array holds only what it reads. Accumulation does one
// random `state[group_of_row[r]]` access per row; with many groups the
// array's footprint decides whether that access hits cache (a boxed
// any-aggregate state with two 48-byte Values is 128 bytes per group —
// 5x the footprint of SumState, all of it dragged through cache even
// for a count(*)).
struct SumState {
  std::int64_t count = 0;
  std::int64_t isum = 0;
  double dsum = 0;
};
// Sum/avg over double columns never reads isum; 16 bytes packs four
// groups per cache line instead of landing 24-byte states across line
// boundaries.
struct DoubleSumState {
  std::int64_t count = 0;
  double dsum = 0;
};
struct MinMaxState {
  bool has_value = false;
  Value min;
  Value max;
};

/// First-seen dedup over `keys`, shared by group-by and distinct:
/// `firsts` collects the first row of each distinct key (in row order)
/// and, when non-null, entry_of_row[r] receives row r's entry id. Entry
/// ids are therefore group ids in first-seen row order.
///
/// Keys are compared as normalized cells (key_cells_batch): the batch's
/// own cells come from sequential column sweeps, each entry keeps one
/// compact copy, and hashes derive from the cells — so after the single
/// per-batch column sweep, probing never touches the source columns
/// again (a row_keys_equal re-read of the first-seen row costs a cache
/// miss per input row at high key cardinality). Tables are sized to the
/// number of DISTINCT keys (grown on demand), not input rows, keeping
/// the slot array cache-resident for the common aggregation shapes.
///
/// Every array comes from `memory`. The per-entry arrays are reserved for
/// one entry per row up front, so they never regrow and the hash table,
/// allocated last, is the memory's latest allocation each time it grows.
void dedup_rows_hashed(const Table& src, std::span<const ColumnIndex> keys,
                       std::uint32_t* entry_of_row,
                       std::pmr::vector<RowIndex>& firsts,
                       std::pmr::memory_resource* memory) {
  const std::size_t n = src.num_rows();
  const std::size_t nc = keys.size();
  std::pmr::vector<std::uint64_t> hashes(kBatchRows, memory);
  std::pmr::vector<std::uint64_t> cell_bits(kBatchRows * nc, memory);
  std::pmr::vector<std::uint8_t> cell_null(kBatchRows * nc, memory);
  std::pmr::vector<std::uint64_t> entry_hash(memory);  // for rebuilds
  std::pmr::vector<std::uint64_t> entry_bits(memory);  // entries x nc
  std::pmr::vector<std::uint8_t> entry_null(memory);
  std::pmr::vector<std::uint32_t> next_entry(memory);
  firsts.reserve(n);
  entry_hash.reserve(n);
  entry_bits.reserve(n * nc);
  entry_null.reserve(n * nc);
  if (nc != 1) next_entry.reserve(n);

  if (nc == 1) {
    // Single key column: the cell fits in the map slot itself, so a
    // probe is one random load with no chain indirection.
    KeyCellMap map(/*expected=*/128, memory);
    for (std::size_t base = 0; base < n; base += kBatchRows) {
      const std::size_t bn = std::min(kBatchRows, n - base);
      key_cells_batch(src, static_cast<RowIndex>(base), bn, keys[0],
                      cell_bits.data(), cell_null.data());
      hash_key_cells(cell_bits.data(), cell_null.data(), bn, 1, kBatchRows,
                     hashes.data());
      // Conservative pre-batch growth check (every row could be new),
      // so slot references stay stable across the probe loop.
      if (map.needs_capacity(firsts.size() + bn)) {
        map.rebuild(firsts.size() + bn, entry_bits, entry_null, entry_hash);
      }
      for (std::size_t i = 0; i < bn; ++i) map.prefetch(hashes[i]);
      for (std::size_t i = 0; i < bn; ++i) {
        KeyCellMap::Slot& s =
            map.slot(hashes[i], cell_bits[i], cell_null[i]);
        std::uint32_t e = s.entry;
        if (e == kChainEnd) {
          e = static_cast<std::uint32_t>(firsts.size());
          firsts.push_back(static_cast<RowIndex>(base + i));
          entry_hash.push_back(hashes[i]);
          entry_bits.push_back(cell_bits[i]);
          entry_null.push_back(cell_null[i]);
          s = KeyCellMap::Slot{cell_bits[i], e, cell_null[i]};
        }
        if (entry_of_row != nullptr) entry_of_row[base + i] = e;
      }
    }
    return;
  }

  // General arity: hash -> chain of entries, exact cell compare per
  // candidate (chains carry hash collisions, so distinct keys never
  // merge).
  HashHeads heads(/*expected=*/128, memory);
  for (std::size_t base = 0; base < n; base += kBatchRows) {
    const std::size_t bn = std::min(kBatchRows, n - base);
    for (std::size_t c = 0; c < nc; ++c) {
      key_cells_batch(src, static_cast<RowIndex>(base), bn, keys[c],
                      cell_bits.data() + c * kBatchRows,
                      cell_null.data() + c * kBatchRows);
    }
    hash_key_cells(cell_bits.data(), cell_null.data(), bn, nc, kBatchRows,
                   hashes.data());
    if (heads.needs_capacity(firsts.size() + bn)) {
      heads.rebuild(firsts.size() + bn, entry_hash, next_entry);
    }
    for (std::size_t i = 0; i < bn; ++i) heads.prefetch(hashes[i]);
    for (std::size_t i = 0; i < bn; ++i) {
      std::uint32_t& head = heads.slot(hashes[i]);
      std::uint32_t e = head;
      for (; e != kChainEnd; e = next_entry[e]) {
        bool eq = true;
        for (std::size_t c = 0; c < nc; ++c) {
          if (entry_bits[e * nc + c] != cell_bits[c * kBatchRows + i] ||
              entry_null[e * nc + c] != cell_null[c * kBatchRows + i]) {
            eq = false;
            break;
          }
        }
        if (eq) break;
      }
      if (e == kChainEnd) {
        e = static_cast<std::uint32_t>(firsts.size());
        firsts.push_back(static_cast<RowIndex>(base + i));
        next_entry.push_back(head);
        entry_hash.push_back(hashes[i]);
        for (std::size_t c = 0; c < nc; ++c) {
          entry_bits.push_back(cell_bits[c * kBatchRows + i]);
          entry_null.push_back(cell_null[c * kBatchRows + i]);
        }
        head = e;
      }
      if (entry_of_row != nullptr) entry_of_row[base + i] = e;
    }
  }
}

}  // namespace

Result<TablePtr> group_by(const Table& src, std::span<const ColumnIndex> keys,
                          std::span<const AggSpec> aggs, std::string name,
                          std::pmr::memory_resource* memory) {
  std::vector<ColumnDef> defs;
  defs.reserve(keys.size() + aggs.size());
  for (const auto k : keys) defs.push_back(src.schema().column(k));
  for (const auto& a : aggs) {
    MaybeType input;
    if (a.kind != AggKind::kCountStar) {
      input = src.schema().column(a.input).type;
    }
    GEMS_ASSIGN_OR_RETURN(MaybeType type, agg_output_type(a.kind, input));
    defs.push_back({a.output_name, *type});
  }
  GEMS_ASSIGN_OR_RETURN(Schema schema, Schema::create(std::move(defs)));
  auto out = std::make_shared<Table>(std::move(name), std::move(schema),
                                     src.pool());

  // Group discovery: one group id per row, first-seen order.
  std::pmr::vector<std::uint32_t> group_of_row(src.num_rows(), memory);
  std::pmr::vector<RowIndex> representatives(memory);
  dedup_rows_hashed(src, keys, group_of_row.data(), representatives, memory);

  // SQL scalar aggregation: no keys -> exactly one row even on empty input.
  const bool scalar_empty = keys.empty() && representatives.empty();
  if (scalar_empty) representatives.push_back(0);

  // Accumulation sweeps rows in global order per aggregate into flat,
  // kind-compact state arrays (count(*)/count use 8 bytes per group,
  // sum/avg 24, only min/max the boxed Values). Each aggregate adds in
  // row order, so floating point sums are independent of grouping.
  const std::size_t num_groups = representatives.size();
  // The outer vectors hand `memory` on to each state array.
  std::pmr::vector<std::pmr::vector<std::int64_t>> count_states(aggs.size(),
                                                                memory);
  std::pmr::vector<std::pmr::vector<SumState>> sum_states(aggs.size(),
                                                          memory);
  std::pmr::vector<std::pmr::vector<DoubleSumState>> dsum_states(aggs.size(),
                                                                 memory);
  std::pmr::vector<std::pmr::vector<MinMaxState>> minmax_states(aggs.size(),
                                                                memory);
  const std::uint32_t* groups = group_of_row.data();
  for (std::size_t a = 0; a < aggs.size(); ++a) {
    const AggSpec& spec = aggs[a];
    if (spec.kind == AggKind::kCountStar) {
      count_states[a].resize(num_groups);
      std::int64_t* st = count_states[a].data();
      for (std::size_t r = 0; r < src.num_rows(); ++r) {
        ++st[groups[r]];
      }
      continue;
    }
    const Column& col = src.column(spec.input);
    switch (spec.kind) {
      case AggKind::kCount: {
        count_states[a].resize(num_groups);
        std::int64_t* st = count_states[a].data();
        for (std::size_t r = 0; r < src.num_rows(); ++r) {
          if (col.is_null(static_cast<RowIndex>(r))) continue;
          ++st[groups[r]];
        }
        break;
      }
      case AggKind::kSum:
      case AggKind::kAvg: {
        if (col.type().kind == TypeKind::kDouble) {
          dsum_states[a].resize(num_groups);
          DoubleSumState* st = dsum_states[a].data();
          col.double_chunks().for_each_piece(
              0, src.num_rows(),
              [&](std::span<const double> vals, std::size_t first) {
                for (std::size_t i = 0; i < vals.size(); ++i) {
                  const std::size_t r = first + i;
                  if (col.is_null(static_cast<RowIndex>(r))) continue;
                  DoubleSumState& s = st[groups[r]];
                  ++s.count;
                  s.dsum += vals[i];
                }
              });
        } else {
          sum_states[a].resize(num_groups);
          SumState* st = sum_states[a].data();
          for (std::size_t r = 0; r < src.num_rows(); ++r) {
            const RowIndex row = static_cast<RowIndex>(r);
            if (col.is_null(row)) continue;
            SumState& s = st[groups[r]];
            ++s.count;
            s.isum = wrap_add(s.isum, col.int64_at(row));
            s.dsum += static_cast<double>(col.int64_at(row));
          }
        }
        break;
      }
      case AggKind::kMin:
      case AggKind::kMax: {
        minmax_states[a].resize(num_groups);
        MinMaxState* st = minmax_states[a].data();
        for (std::size_t r = 0; r < src.num_rows(); ++r) {
          const RowIndex row = static_cast<RowIndex>(r);
          if (col.is_null(row)) continue;
          MinMaxState& s = st[groups[r]];
          const Value v = src.value_at(row, spec.input);
          if (!s.has_value) {
            s.min = v;
            s.max = v;
            s.has_value = true;
          } else {
            if (v.compare(s.min) < 0) s.min = v;
            if (v.compare(s.max) > 0) s.max = v;
          }
        }
        break;
      }
      default:
        GEMS_UNREACHABLE("handled above");
    }
  }

  // Column-at-a-time emission. Byte-identical to boxed per-row appends:
  // append_from copies payload+validity for key cells (NULL keys write the
  // scalar append_null payload), typed appends write what append_value
  // would for each aggregate kind.
  for (std::size_t c = 0; c < keys.size(); ++c) {
    out->column_mut(static_cast<ColumnIndex>(c))
        .append_gather(src.column(keys[c]), representatives.data(),
                       num_groups);
  }
  for (std::size_t a = 0; a < aggs.size(); ++a) {
    const AggSpec& spec = aggs[a];
    Column& oc =
        out->column_mut(static_cast<ColumnIndex>(keys.size() + a));
    switch (spec.kind) {
      case AggKind::kCountStar:
      case AggKind::kCount: {
        const std::int64_t* st = count_states[a].data();
        for (std::size_t g = 0; g < num_groups; ++g) {
          oc.append_int64(st[g]);
        }
        break;
      }
      case AggKind::kSum: {
        if (src.column(spec.input).type().kind == TypeKind::kDouble) {
          const DoubleSumState* st = dsum_states[a].data();
          for (std::size_t g = 0; g < num_groups; ++g) {
            if (st[g].count == 0) {
              oc.append_null();
            } else {
              oc.append_double(st[g].dsum);
            }
          }
        } else {
          const SumState* st = sum_states[a].data();
          for (std::size_t g = 0; g < num_groups; ++g) {
            if (st[g].count == 0) {
              oc.append_null();
            } else {
              oc.append_int64(st[g].isum);
            }
          }
        }
        break;
      }
      case AggKind::kAvg: {
        if (src.column(spec.input).type().kind == TypeKind::kDouble) {
          const DoubleSumState* st = dsum_states[a].data();
          for (std::size_t g = 0; g < num_groups; ++g) {
            if (st[g].count == 0) {
              oc.append_null();
            } else {
              oc.append_double(st[g].dsum /
                               static_cast<double>(st[g].count));
            }
          }
        } else {
          const SumState* st = sum_states[a].data();
          for (std::size_t g = 0; g < num_groups; ++g) {
            if (st[g].count == 0) {
              oc.append_null();
            } else {
              oc.append_double(st[g].dsum /
                               static_cast<double>(st[g].count));
            }
          }
        }
        break;
      }
      case AggKind::kMin: {
        const MinMaxState* st = minmax_states[a].data();
        for (std::size_t g = 0; g < num_groups; ++g) {
          if (st[g].has_value) {
            oc.append_value(st[g].min, src.pool());
          } else {
            oc.append_null();
          }
        }
        break;
      }
      case AggKind::kMax: {
        const MinMaxState* st = minmax_states[a].data();
        for (std::size_t g = 0; g < num_groups; ++g) {
          if (st[g].has_value) {
            oc.append_value(st[g].max, src.pool());
          } else {
            oc.append_null();
          }
        }
        break;
      }
    }
  }
  out->bump_rows(num_groups);
  return out;
}

namespace {

/// One sort key's cells, gathered by position into flat arrays, so a
/// comparison reads two array slots instead of two chunked-column
/// lookups or two string-pool lookups.
struct SortLane {
  SortLane(TypeKind kind, bool descending, std::size_t m,
           std::pmr::memory_resource* memory)
      : kind(kind), descending(descending), null(m, memory),
        ints(memory), doubles(memory), strings(memory) {}

  TypeKind kind;
  bool descending;
  std::pmr::vector<std::uint8_t> null;
  std::pmr::vector<std::int64_t> ints;  // Bool, Int64, Date
  std::pmr::vector<double> doubles;
  std::pmr::vector<std::string_view> strings;

  /// Three-way comparison of positions a and b: NULL first, NaN after
  /// every number, strings bytewise. A total order.
  int compare(std::uint32_t a, std::uint32_t b) const {
    if (null[a] != 0 || null[b] != 0) return null[b] - null[a];
    auto cmp3 = [](auto x, auto y) { return x < y ? -1 : (x > y ? 1 : 0); };
    switch (kind) {
      case TypeKind::kDouble: {
        const double x = doubles[a];
        const double y = doubles[b];
        if (std::isnan(x) || std::isnan(y)) {
          return cmp3(std::isnan(x) ? 1 : 0, std::isnan(y) ? 1 : 0);
        }
        return cmp3(x, y);
      }
      case TypeKind::kVarchar:
        return cmp3(strings[a].compare(strings[b]), 0);
      default:
        return cmp3(ints[a], ints[b]);
    }
  }
};

}  // namespace

void sort_rows(const Table& src, std::span<RowIndex> rows,
               std::span<const SortKey> keys,
               std::pmr::memory_resource* memory) {
  const std::size_t m = rows.size();
  std::vector<SortLane> lanes;
  lanes.reserve(keys.size());
  for (const SortKey& key : keys) {
    const Column& column = src.column(key.column);
    SortLane& lane =
        lanes.emplace_back(column.type().kind, key.descending, m, memory);
    for (std::size_t i = 0; i < m; ++i) {
      lane.null[i] = column.is_null(rows[i]) ? 1 : 0;
    }
    switch (lane.kind) {
      case TypeKind::kDouble:
        lane.doubles.resize(m);
        for (std::size_t i = 0; i < m; ++i) {
          lane.doubles[i] = column.double_at(rows[i]);
        }
        break;
      case TypeKind::kVarchar: {
        // A batch of strings per string-pool lock.
        lane.strings.resize(m);
        StringId ids[kBatchRows];
        for (std::size_t base = 0; base < m; base += kBatchRows) {
          const std::size_t n = std::min(kBatchRows, m - base);
          for (std::size_t i = 0; i < n; ++i) {
            ids[i] = column.string_at(rows[base + i]);
          }
          src.pool().view_batch({ids, n}, lane.strings.data() + base);
        }
        break;
      }
      case TypeKind::kBool:
        lane.ints.resize(m);
        for (std::size_t i = 0; i < m; ++i) {
          lane.ints[i] = column.bool_at(rows[i]) ? 1 : 0;
        }
        break;
      case TypeKind::kInt64:
      case TypeKind::kDate:
        lane.ints.resize(m);
        for (std::size_t i = 0; i < m; ++i) {
          lane.ints[i] = column.int64_at(rows[i]);
        }
        break;
    }
  }
  // Sorts positions. Ties go to the earlier position, which makes the
  // order total: an in-place introsort then gives the stable order
  // without the merge buffer std::stable_sort takes from the heap.
  std::pmr::vector<std::uint32_t> order(m, memory);
  for (std::size_t i = 0; i < m; ++i) order[i] = static_cast<std::uint32_t>(i);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    for (const SortLane& lane : lanes) {
      const int c = lane.compare(a, b);
      if (c != 0) return lane.descending ? c > 0 : c < 0;
    }
    return a < b;
  });
  std::pmr::vector<RowIndex> sorted(m, memory);
  for (std::size_t i = 0; i < m; ++i) sorted[i] = rows[order[i]];
  std::copy(sorted.begin(), sorted.end(), rows.begin());
}

std::pmr::vector<RowIndex> sorted_indices(const Table& src,
                                          std::span<const SortKey> keys,
                                          std::pmr::memory_resource* memory) {
  std::pmr::vector<RowIndex> order(src.num_rows(), memory);
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<RowIndex>(i);
  }
  sort_rows(src, order, keys, memory);
  return order;
}

namespace {

std::vector<ColumnIndex> all_columns(const Table& t) {
  std::vector<ColumnIndex> cols(t.num_columns());
  for (std::size_t i = 0; i < cols.size(); ++i) {
    cols[i] = static_cast<ColumnIndex>(i);
  }
  return cols;
}

}  // namespace

TablePtr order_by(const Table& src, std::span<const SortKey> keys,
                  std::string name, std::pmr::memory_resource* memory) {
  const auto order = sorted_indices(src, keys, memory);
  return materialize(src, order, all_columns(src), std::move(name));
}

TablePtr distinct(const Table& src, std::string name,
                  std::pmr::memory_resource* memory) {
  const auto cols = all_columns(src);
  // First-seen dedup via the shared hashed path (batched key cells, exact
  // equality per candidate — collisions never merge rows).
  std::pmr::vector<RowIndex> keep(memory);
  dedup_rows_hashed(src, cols, /*entry_of_row=*/nullptr, keep, memory);
  return materialize(src, keep, cols, std::move(name));
}

TablePtr head(const Table& src, std::size_t n, std::string name,
              std::pmr::memory_resource* memory) {
  std::pmr::vector<RowIndex> rows(std::min(n, src.num_rows()), memory);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    rows[r] = static_cast<RowIndex>(r);
  }
  return materialize(src, rows, all_columns(src), std::move(name));
}

}  // namespace gems::relational
