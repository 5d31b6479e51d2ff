// Row-at-a-time reference implementations of the relational operators:
// the oracle the property sweep in relational_test.cpp compares the
// kernel engine against, byte for byte. Each is the plainest correct
// code for its operator — one eval_cell call per row and output, a
// nested-loop join, first-seen grouping and dedup by encode_row_key, and
// aggregates accumulated in row order — so it shares no batching,
// hashing or chunk logic with src/relational/operators.cpp.
#pragma once

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <memory_resource>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "relational/eval.hpp"
#include "relational/expr_rules.hpp"
#include "relational/operators.hpp"
#include "relational/row_key.hpp"

namespace gems::relational {

// ---- Encoded row keys -------------------------------------------------------
// The reference for row_key.hpp's identity: a key as bytes, a NULL marker
// or a value marker and the normalized value per cell, so two keys are
// equal iff their encodings are. hash_row_key, row_keys_equal and the
// vertex key index are checked against it.

/// Encodes the given columns of one row.
inline std::string encode_row_key(const Table& table, RowIndex row,
                                  std::span<const ColumnIndex> cols) {
  std::string out;
  out.reserve(cols.size() * 9);
  for (const ColumnIndex col : cols) {
    const storage::Column& column = table.column(col);
    if (column.is_null(row)) {
      out.push_back('\0');  // null marker
      continue;
    }
    out.push_back('\1');
    auto append_raw = [&out](const void* p, std::size_t n) {
      out.append(static_cast<const char*>(p), n);
    };
    switch (column.type().kind) {
      case storage::TypeKind::kBool:
        out.push_back(column.bool_at(row) ? '\1' : '\0');
        break;
      case storage::TypeKind::kInt64:
      case storage::TypeKind::kDate: {
        const std::int64_t v = column.int64_at(row);
        append_raw(&v, sizeof(v));
        break;
      }
      case storage::TypeKind::kDouble: {
        double v = column.double_at(row);
        if (v == 0.0) v = 0.0;  // collapse -0.0 and +0.0
        append_raw(&v, sizeof(v));
        break;
      }
      case storage::TypeKind::kVarchar: {
        const StringId v = column.string_at(row);
        append_raw(&v, sizeof(v));
        break;
      }
    }
  }
  return out;
}

// ---- Whole-table forms of the kernel operators ----------------------------
// The executor runs the row-list operators (group_by over rows,
// sort_rows, distinct_rows) and materializes once. These table-in,
// table-out forms over them are what the tests compare with the oracle.

struct AggSpec {
  AggKind kind = AggKind::kCountStar;
  ColumnIndex input = 0;  // ignored for kCountStar
  std::string output_name;
};

inline std::vector<ColumnIndex> columns_of(const Table& src) {
  std::vector<ColumnIndex> cols(src.num_columns());
  for (std::size_t c = 0; c < cols.size(); ++c) {
    cols[c] = static_cast<ColumnIndex>(c);
  }
  return cols;
}

/// group_by over every row of `src`, each aggregate over the column
/// `AggSpec::input`.
inline Result<TablePtr> group_by(
    const Table& src, std::span<const ColumnIndex> keys,
    std::span<const AggSpec> aggs, std::string name,
    std::pmr::memory_resource* memory = std::pmr::get_default_resource()) {
  std::vector<Aggregate> columns(aggs.size());
  for (std::size_t a = 0; a < aggs.size(); ++a) {
    columns[a].kind = aggs[a].kind;
    columns[a].output_name = aggs[a].output_name;
    if (aggs[a].kind == AggKind::kCountStar) continue;
    auto ref = std::make_unique<BoundExpr>();
    ref->kind = BoundExpr::Kind::kColumnRef;
    ref->type = src.schema().column(aggs[a].input).type;
    ref->slot = {0, aggs[a].input, ref->type};
    columns[a].input = std::move(ref);
  }
  return group_by(src, all_rows(src.num_rows(), memory), keys, columns,
                  std::move(name), memory);
}

/// `src` in sorted order.
inline TablePtr order_by(
    const Table& src, std::span<const SortKey> keys, std::string name,
    std::pmr::memory_resource* memory = std::pmr::get_default_resource()) {
  std::pmr::vector<RowIndex> order = all_rows(src.num_rows(), memory);
  sort_rows(src, order, keys, memory);
  return materialize(src, order, columns_of(src), std::move(name));
}

/// Distinct rows (over all columns), first occurrence kept, input order.
inline TablePtr distinct(
    const Table& src, std::string name,
    std::pmr::memory_resource* memory = std::pmr::get_default_resource()) {
  const std::vector<ColumnIndex> cols = columns_of(src);
  return materialize(src, distinct_rows(src, cols, memory), cols,
                     std::move(name));
}

/// The first `n` rows.
inline TablePtr head(
    const Table& src, std::size_t n, std::string name,
    std::pmr::memory_resource* memory = std::pmr::get_default_resource()) {
  return materialize(src, all_rows(std::min(n, src.num_rows()), memory),
                     columns_of(src), std::move(name));
}

// ---- Hash join --------------------------------------------------------------
// No engine path joins two tables on keys: edge construction probes the
// vertex key index. This hash join over row_key.hpp's hash_row_key and
// exact key equality keeps those two checked against the oracle's
// encode_row_key join.

struct JoinOutput {
  enum Side { kLeft, kRight } side;
  ColumnIndex column;
  std::string name;
};

/// Equi-join row pairs, sorted: every (l, r) with left[l][left_keys] ==
/// right[r][right_keys]. Rows with NULL in any key never match (SQL
/// semantics). Key columns must have pairwise equal type kinds (checked).
inline Result<std::vector<std::pair<RowIndex, RowIndex>>> hash_join_pairs(
    const Table& left, std::span<const ColumnIndex> left_keys,
    const Table& right, std::span<const ColumnIndex> right_keys) {
  if (left_keys.size() != right_keys.size() || left_keys.empty()) {
    return invalid_argument("join key arity mismatch");
  }
  for (std::size_t i = 0; i < left_keys.size(); ++i) {
    const storage::DataType& lt = left.schema().column(left_keys[i]).type;
    const storage::DataType& rt = right.schema().column(right_keys[i]).type;
    if (lt.kind != rt.kind) {
      return type_error("join keys '" +
                        left.schema().column(left_keys[i]).name + "' (" +
                        lt.to_string() + ") and '" +
                        right.schema().column(right_keys[i]).name + "' (" +
                        rt.to_string() + ") have different types");
    }
  }
  // Hashes of every row's key; NULL keys are left out.
  auto hashed = [](const Table& t, std::span<const ColumnIndex> keys) {
    std::vector<std::pair<std::uint64_t, RowIndex>> out;
    for (RowIndex r = 0; r < t.num_rows(); ++r) {
      const bool has_null = std::any_of(
          keys.begin(), keys.end(),
          [&](ColumnIndex c) { return t.column(c).is_null(r); });
      if (!has_null) out.emplace_back(hash_row_key(t, r, keys), r);
    }
    return out;
  };
  std::unordered_multimap<std::uint64_t, RowIndex> build;
  for (const auto& [hash, row] : hashed(right, right_keys)) {
    build.emplace(hash, row);
  }
  std::vector<std::pair<RowIndex, RowIndex>> out;
  for (const auto& [hash, l] : hashed(left, left_keys)) {
    const auto [first, last] = build.equal_range(hash);
    for (auto it = first; it != last; ++it) {
      if (row_keys_equal(left, l, left_keys, right, it->second, right_keys)) {
        out.emplace_back(l, it->second);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Materializing equi-join: `outputs` of each hash_join_pairs() pair.
inline Result<TablePtr> hash_join(const Table& left,
                                  std::span<const ColumnIndex> left_keys,
                                  const Table& right,
                                  std::span<const ColumnIndex> right_keys,
                                  std::span<const JoinOutput> outputs,
                                  std::string name) {
  GEMS_ASSIGN_OR_RETURN(auto pairs,
                        hash_join_pairs(left, left_keys, right, right_keys));
  std::vector<storage::ColumnDef> defs;
  for (const auto& o : outputs) {
    const Table& t = o.side == JoinOutput::kLeft ? left : right;
    defs.push_back({o.name, t.schema().column(o.column).type});
  }
  auto out = std::make_shared<Table>(std::move(name),
                                     storage::Schema(std::move(defs)),
                                     left.pool());
  std::vector<RowIndex> left_rows, right_rows;
  for (const auto& [l, r] : pairs) {
    left_rows.push_back(l);
    right_rows.push_back(r);
  }
  for (std::size_t c = 0; c < outputs.size(); ++c) {
    const auto& o = outputs[c];
    const bool from_left = o.side == JoinOutput::kLeft;
    out->column_mut(static_cast<ColumnIndex>(c))
        .append_gather((from_left ? left : right).column(o.column),
                       (from_left ? left_rows : right_rows).data(),
                       pairs.size());
  }
  out->bump_rows(pairs.size());
  return out;
}

}  // namespace gems::relational

namespace gems::relational::oracle {

/// Appends one evaluated cell to a column of its kind (an Int64 cell
/// promotes into a Double column).
inline void append_cell(storage::Column& column, const Cell& cell) {
  if (cell.null) {
    column.append_null();
    return;
  }
  switch (column.type().kind) {
    case storage::TypeKind::kBool:
      column.append_bool(cell.b);
      return;
    case storage::TypeKind::kInt64:
    case storage::TypeKind::kDate:
      column.append_int64(cell.i);
      return;
    case storage::TypeKind::kDouble:
      column.append_double(cell.kind == storage::TypeKind::kDouble
                               ? cell.d
                               : static_cast<double>(cell.i));
      return;
    case storage::TypeKind::kVarchar:
      column.append_string(cell.s);
      return;
  }
  GEMS_UNREACHABLE("bad column kind");
}

inline std::pmr::vector<RowIndex> filter_rows(const Table& table,
                                              const BoundExpr& predicate,
                                              RowIndex first_row = 0) {
  std::pmr::vector<RowIndex> out;
  RowCursor cursor{&table, 0};
  for (std::size_t r = first_row; r < table.num_rows(); ++r) {
    cursor.row = static_cast<RowIndex>(r);
    if (eval_predicate(predicate, {&cursor, 1}, table.pool())) {
      out.push_back(cursor.row);
    }
  }
  return out;
}

inline TablePtr project(const Table& src, std::span<const RowIndex> rows,
                        std::span<const OutputColumn> outputs,
                        std::string name) {
  std::vector<storage::ColumnDef> defs;
  for (const auto& o : outputs) defs.push_back({o.name, o.expr->type});
  auto out = std::make_shared<Table>(std::move(name),
                                     storage::Schema(std::move(defs)),
                                     src.pool());
  RowCursor cursor{&src, 0};
  for (const RowIndex r : rows) {
    cursor.row = r;
    for (std::size_t c = 0; c < outputs.size(); ++c) {
      append_cell(out->column_mut(static_cast<ColumnIndex>(c)),
                  eval_cell(*outputs[c].expr, {&cursor, 1}, src.pool()));
    }
    out->bump_row_count();
  }
  return out;
}

/// Nested-loop equi-join; iterating left then right emits the pairs in
/// sorted order. Rows with a NULL key never match.
inline std::vector<std::pair<RowIndex, RowIndex>> join_pairs(
    const Table& left, std::span<const ColumnIndex> left_keys,
    const Table& right, std::span<const ColumnIndex> right_keys) {
  // Encoded key per row; nullopt when any key column is NULL.
  auto keys_of = [](const Table& t, std::span<const ColumnIndex> keys) {
    std::vector<std::optional<std::string>> out(t.num_rows());
    for (std::size_t r = 0; r < t.num_rows(); ++r) {
      const RowIndex row = static_cast<RowIndex>(r);
      bool has_null = false;
      for (const ColumnIndex k : keys) has_null |= t.column(k).is_null(row);
      if (!has_null) out[r] = encode_row_key(t, row, keys);
    }
    return out;
  };
  const auto lkeys = keys_of(left, left_keys);
  const auto rkeys = keys_of(right, right_keys);
  std::vector<std::pair<RowIndex, RowIndex>> out;
  for (std::size_t l = 0; l < lkeys.size(); ++l) {
    for (std::size_t r = 0; r < rkeys.size(); ++r) {
      if (lkeys[l] && rkeys[r] && *lkeys[l] == *rkeys[r]) {
        out.emplace_back(static_cast<RowIndex>(l), static_cast<RowIndex>(r));
      }
    }
  }
  return out;
}

inline TablePtr join(const Table& left, std::span<const ColumnIndex> left_keys,
                     const Table& right,
                     std::span<const ColumnIndex> right_keys,
                     std::span<const JoinOutput> outputs, std::string name) {
  std::vector<storage::ColumnDef> defs;
  for (const auto& o : outputs) {
    const Table& t = o.side == JoinOutput::kLeft ? left : right;
    defs.push_back({o.name, t.schema().column(o.column).type});
  }
  auto out = std::make_shared<Table>(std::move(name),
                                     storage::Schema(std::move(defs)),
                                     left.pool());
  for (const auto& [l, r] : join_pairs(left, left_keys, right, right_keys)) {
    for (std::size_t c = 0; c < outputs.size(); ++c) {
      const auto& o = outputs[c];
      const bool from_left = o.side == JoinOutput::kLeft;
      out->column_mut(static_cast<ColumnIndex>(c))
          .append_from((from_left ? left : right).column(o.column),
                       from_left ? l : r);
    }
    out->bump_row_count();
  }
  return out;
}

/// Groups in first-seen row order, keyed by encode_row_key (NULL is a key
/// value). Every aggregate accumulates its group's rows in row order.
inline TablePtr group_by(const Table& src, std::span<const ColumnIndex> keys,
                         std::span<const AggSpec> aggs, std::string name) {
  std::map<std::string, std::size_t> group_of_key;
  std::vector<std::vector<RowIndex>> groups;
  for (std::size_t r = 0; r < src.num_rows(); ++r) {
    const RowIndex row = static_cast<RowIndex>(r);
    const auto [it, inserted] =
        group_of_key.emplace(encode_row_key(src, row, keys), groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(row);
  }
  // SQL scalar aggregation: one row even over empty input.
  if (keys.empty() && groups.empty()) groups.emplace_back();

  std::vector<storage::ColumnDef> defs;
  for (const ColumnIndex k : keys) defs.push_back(src.schema().column(k));
  for (const AggSpec& a : aggs) {
    storage::DataType type = storage::DataType::int64();
    if (a.kind == AggKind::kAvg) {
      type = storage::DataType::float64();
    } else if (a.kind != AggKind::kCountStar && a.kind != AggKind::kCount) {
      type = src.schema().column(a.input).type;
    }
    defs.push_back({a.output_name, type});
  }
  auto out = std::make_shared<Table>(std::move(name),
                                     storage::Schema(std::move(defs)),
                                     src.pool());

  for (const auto& members : groups) {
    for (std::size_t k = 0; k < keys.size(); ++k) {
      out->column_mut(static_cast<ColumnIndex>(k))
          .append_from(src.column(keys[k]), members.front());
    }
    for (std::size_t a = 0; a < aggs.size(); ++a) {
      const AggSpec& spec = aggs[a];
      storage::Column& oc =
          out->column_mut(static_cast<ColumnIndex>(keys.size() + a));
      if (spec.kind == AggKind::kCountStar) {
        oc.append_int64(static_cast<std::int64_t>(members.size()));
        continue;
      }
      const storage::Column& col = src.column(spec.input);
      const bool is_double = col.type().kind == storage::TypeKind::kDouble;
      std::int64_t count = 0;
      std::int64_t isum = 0;
      double dsum = 0;
      storage::Value lo, hi;
      for (const RowIndex r : members) {
        if (col.is_null(r)) continue;
        ++count;
        if (spec.kind == AggKind::kSum || spec.kind == AggKind::kAvg) {
          if (is_double) {
            dsum += col.double_at(r);
          } else {
            isum = wrap_add(isum, col.int64_at(r));
            dsum += static_cast<double>(col.int64_at(r));
          }
        } else if (spec.kind == AggKind::kMin || spec.kind == AggKind::kMax) {
          const storage::Value v = src.value_at(r, spec.input);
          if (count == 1 || v.compare(lo) < 0) lo = v;
          if (count == 1 || v.compare(hi) > 0) hi = v;
        }
      }
      switch (spec.kind) {
        case AggKind::kCountStar:
          break;
        case AggKind::kCount:
          oc.append_int64(count);
          break;
        case AggKind::kSum:
          if (count == 0) {
            oc.append_null();
          } else if (is_double) {
            oc.append_double(dsum);
          } else {
            oc.append_int64(isum);
          }
          break;
        case AggKind::kAvg:
          if (count == 0) {
            oc.append_null();
          } else {
            oc.append_double(dsum / static_cast<double>(count));
          }
          break;
        case AggKind::kMin:
        case AggKind::kMax:
          if (count == 0) {
            oc.append_null();
          } else {
            oc.append_value(spec.kind == AggKind::kMin ? lo : hi, src.pool());
          }
          break;
      }
    }
    out->bump_row_count();
  }
  return out;
}

/// First occurrence of each distinct row (all columns), in input order.
inline TablePtr distinct(const Table& src, std::string name) {
  std::vector<ColumnIndex> cols(src.num_columns());
  for (std::size_t c = 0; c < cols.size(); ++c) {
    cols[c] = static_cast<ColumnIndex>(c);
  }
  std::set<std::string> seen;
  std::vector<RowIndex> keep;
  for (std::size_t r = 0; r < src.num_rows(); ++r) {
    const RowIndex row = static_cast<RowIndex>(r);
    if (seen.insert(encode_row_key(src, row, cols)).second) {
      keep.push_back(row);
    }
  }
  return materialize(src, keep, cols, std::move(name));
}

/// Three-way comparison of two boxed cells: NULL first, NaN after every
/// number.
inline int compare_cells(const storage::Value& a, const storage::Value& b) {
  if (a.is_null() || b.is_null()) {
    return (a.is_null() ? 0 : 1) - (b.is_null() ? 0 : 1);
  }
  auto cmp3 = [](auto x, auto y) { return x < y ? -1 : (x > y ? 1 : 0); };
  switch (a.kind()) {
    case storage::TypeKind::kBool:
      return cmp3(a.as_bool() ? 1 : 0, b.as_bool() ? 1 : 0);
    case storage::TypeKind::kInt64:
    case storage::TypeKind::kDate:
      return cmp3(a.as_int64(), b.as_int64());
    case storage::TypeKind::kDouble:
      if (std::isnan(a.as_double()) || std::isnan(b.as_double())) {
        return cmp3(std::isnan(a.as_double()) ? 1 : 0,
                    std::isnan(b.as_double()) ? 1 : 0);
      }
      return cmp3(a.as_double(), b.as_double());
    case storage::TypeKind::kVarchar:
      return cmp3(a.as_string().compare(b.as_string()), 0);
  }
  GEMS_UNREACHABLE("bad value kind");
}

inline std::vector<ColumnIndex> all_columns(const Table& src) {
  std::vector<ColumnIndex> cols(src.num_columns());
  for (std::size_t c = 0; c < cols.size(); ++c) {
    cols[c] = static_cast<ColumnIndex>(c);
  }
  return cols;
}

/// Rows in key order, ties in input order: std::stable_sort over boxed
/// cells.
inline TablePtr order_by(const Table& src, std::span<const SortKey> keys,
                         std::string name) {
  std::vector<RowIndex> order(src.num_rows());
  for (std::size_t r = 0; r < order.size(); ++r) {
    order[r] = static_cast<RowIndex>(r);
  }
  std::stable_sort(order.begin(), order.end(), [&](RowIndex a, RowIndex b) {
    for (const SortKey& k : keys) {
      const int c = compare_cells(src.value_at(a, k.column),
                                  src.value_at(b, k.column));
      if (c != 0) return k.descending ? c > 0 : c < 0;
    }
    return false;
  });
  return materialize(src, order, all_columns(src), std::move(name));
}

/// The first `n` rows.
inline TablePtr head(const Table& src, std::size_t n, std::string name) {
  std::vector<RowIndex> rows;
  for (std::size_t r = 0; r < std::min(n, src.num_rows()); ++r) {
    rows.push_back(static_cast<RowIndex>(r));
  }
  return materialize(src, rows, all_columns(src), std::move(name));
}

}  // namespace gems::relational::oracle
