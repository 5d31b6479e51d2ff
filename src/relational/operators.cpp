#include "relational/operators.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

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

std::pmr::vector<RowIndex> all_rows(std::size_t n,
                                    std::pmr::memory_resource* memory) {
  std::pmr::vector<RowIndex> rows(n, memory);
  std::iota(rows.begin(), rows.end(), RowIndex{0});
  return rows;
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

// Keys are compared as normalized cells (key_cells_batch): a batch's
// cells come from one sequential sweep per key column, each group keeps a
// compact copy of its first row's cells, and the hashes derive from the
// cells. After that sweep a probe never reads the source columns again,
// where re-reading a group's first row would cost a cache miss per input
// row at high key cardinality. The index's 8-byte slots grow with the
// groups, not the rows.
IdTable group_rows(const Table& table, const RowIndex* rows, std::size_t n,
                   std::span<const ColumnIndex> keys,
                   std::uint32_t* group_of_row,
                   std::pmr::vector<RowIndex>& firsts,
                   std::pmr::memory_resource* memory) {
  const std::size_t nc = keys.size();
  std::pmr::vector<std::uint64_t> hashes(kBatchRows, memory);
  std::pmr::vector<std::uint64_t> cell_bits(kBatchRows * nc, memory);
  std::pmr::vector<std::uint8_t> cell_null(kBatchRows * nc, memory);
  // Group g's cells are group_bits/group_null[g * nc, (g + 1) * nc).
  // Reserved for one group per row, so they never regrow.
  std::pmr::vector<std::uint64_t> group_bits(memory);
  std::pmr::vector<std::uint8_t> group_null(memory);
  firsts.reserve(n);
  group_bits.reserve(n * nc);
  group_null.reserve(n * nc);
  IdTable index(memory);
  for (std::size_t base = 0; base < n; base += kBatchRows) {
    const std::size_t bn = std::min(kBatchRows, n - base);
    const RowIndex* batch_rows = rows != nullptr ? rows + base : nullptr;
    for (std::size_t c = 0; c < nc; ++c) {
      key_cells_batch(table, static_cast<RowIndex>(base), batch_rows, bn,
                      keys[c], cell_bits.data() + c * kBatchRows,
                      cell_null.data() + c * kBatchRows);
    }
    hash_key_cells(cell_bits.data(), cell_null.data(), bn, nc, kBatchRows,
                   hashes.data());
    // Room for every row of the batch to be new: the table does not grow
    // between the prefetches and the probes, and a few groups sit in a
    // sparse table whose probes end at their home slot.
    index.reserve(firsts.size() + bn);
    for (std::size_t i = 0; i < bn; ++i) index.prefetch(hashes[i]);
    for (std::size_t i = 0; i < bn; ++i) {
      const auto equal = [&](std::uint32_t g) {
        for (std::size_t c = 0; c < nc; ++c) {
          if (group_bits[g * nc + c] != cell_bits[c * kBatchRows + i] ||
              group_null[g * nc + c] != cell_null[c * kBatchRows + i]) {
            return false;
          }
        }
        return true;
      };
      std::uint32_t g = index.find(hashes[i], equal);
      if (g == IdTable::kNone) {
        g = static_cast<std::uint32_t>(firsts.size());
        index.insert(hashes[i], g);
        firsts.push_back(batch_rows != nullptr
                             ? batch_rows[i]
                             : static_cast<RowIndex>(base + i));
        for (std::size_t c = 0; c < nc; ++c) {
          group_bits.push_back(cell_bits[c * kBatchRows + i]);
          group_null.push_back(cell_null[c * kBatchRows + i]);
        }
      }
      if (group_of_row != nullptr) group_of_row[base + i] = g;
    }
  }
  return index;
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

/// Lane i of an aggregate input as a double: Int64 lanes promote, as
/// they do into a Double column.
inline double double_lane(const ValueVector& v, std::size_t i) {
  return v.kind == TypeKind::kDouble ? v.f64[i]
                                     : static_cast<double>(v.i64[i]);
}

/// Lane i of an aggregate input boxed as the input's static type `kind`.
Value lane_value(const ValueVector& v, std::size_t i, TypeKind kind,
                 const StringPool& pool) {
  switch (kind) {
    case TypeKind::kBool:
      return Value::boolean(((v.bits[i / 64] >> (i % 64)) & 1u) != 0);
    case TypeKind::kInt64:
      return Value::int64(v.i64[i]);
    case TypeKind::kDate:
      return Value::date(v.i64[i]);
    case TypeKind::kDouble:
      return Value::float64(double_lane(v, i));
    case TypeKind::kVarchar:
      return Value::varchar(std::string(pool.view(v.str[i])));
  }
  GEMS_UNREACHABLE("bad value kind");
}

}  // namespace

Result<TablePtr> group_by(const Table& src, std::span<const RowIndex> rows,
                          std::span<const ColumnIndex> keys,
                          std::span<const Aggregate> aggs, std::string name,
                          std::pmr::memory_resource* memory) {
  std::vector<ColumnDef> defs;
  defs.reserve(keys.size() + aggs.size());
  for (std::size_t k = 0; k < keys.size(); ++k) {
    defs.push_back(
        {"k" + std::to_string(k), src.schema().column(keys[k]).type});
  }
  for (const auto& a : aggs) {
    MaybeType input;
    if (a.input != nullptr) input = a.input->type;
    GEMS_ASSIGN_OR_RETURN(MaybeType type, agg_output_type(a.kind, input));
    defs.push_back({a.output_name, *type});
  }
  GEMS_ASSIGN_OR_RETURN(Schema schema, Schema::create(std::move(defs)));
  auto out = std::make_shared<Table>(std::move(name), std::move(schema),
                                     src.pool());

  // Group discovery: one group id per listed row, first-seen order.
  std::pmr::vector<std::uint32_t> group_of_row(rows.size(), memory);
  std::pmr::vector<RowIndex> representatives(memory);
  group_rows(src, rows.data(), rows.size(), keys, group_of_row.data(),
             representatives, memory);

  // SQL scalar aggregation: no keys -> exactly one row even on empty input.
  const bool scalar_empty = keys.empty() && representatives.empty();
  if (scalar_empty) representatives.push_back(0);

  // Accumulation sweeps the rows in list order, a batch at a time: each
  // aggregate's input kernel evaluates the batch and its lanes add into
  // flat, kind-compact state arrays (count(*)/count use 8 bytes per
  // group, sum/avg 16 or 24, only min/max the boxed Values). Each
  // aggregate adds in row order, so floating point sums are independent
  // of grouping.
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
  std::vector<VectorExprPtr> kernels(aggs.size());
  std::vector<EvalScratch> scratches(aggs.size());
  for (std::size_t a = 0; a < aggs.size(); ++a) {
    const Aggregate& spec = aggs[a];
    switch (spec.kind) {
      case AggKind::kCountStar:
      case AggKind::kCount:
        count_states[a].resize(num_groups);
        break;
      case AggKind::kSum:
      case AggKind::kAvg:
        if (spec.input->type.kind == TypeKind::kDouble) {
          dsum_states[a].resize(num_groups);
        } else {
          sum_states[a].resize(num_groups);
        }
        break;
      case AggKind::kMin:
      case AggKind::kMax:
        minmax_states[a].resize(num_groups);
        break;
    }
    if (spec.kind != AggKind::kCountStar) {
      kernels[a] = compile_operand(*spec.input, src.pool());
      scratches[a] = kernels[a]->make_scratch();
    }
  }
  for (std::size_t off = 0; off < rows.size(); off += kBatchRows) {
    const std::size_t n = std::min(kBatchRows, rows.size() - off);
    const RowBatch batch{&src, 0, rows.data() + off, n};
    const std::uint32_t* groups = group_of_row.data() + off;
    for (std::size_t a = 0; a < aggs.size(); ++a) {
      const Aggregate& spec = aggs[a];
      if (spec.kind == AggKind::kCountStar) {
        std::int64_t* st = count_states[a].data();
        for (std::size_t i = 0; i < n; ++i) ++st[groups[i]];
        continue;
      }
      const ValueVector v = kernels[a]->eval(batch, scratches[a]);
      switch (spec.kind) {
        case AggKind::kCount: {
          std::int64_t* st = count_states[a].data();
          for_each_lane(v.valid, n, [&](std::size_t i) { ++st[groups[i]]; });
          break;
        }
        case AggKind::kSum:
        case AggKind::kAvg:
          if (spec.input->type.kind == TypeKind::kDouble) {
            DoubleSumState* st = dsum_states[a].data();
            for_each_lane(v.valid, n, [&](std::size_t i) {
              DoubleSumState& s = st[groups[i]];
              ++s.count;
              s.dsum += double_lane(v, i);
            });
          } else {
            SumState* st = sum_states[a].data();
            for_each_lane(v.valid, n, [&](std::size_t i) {
              SumState& s = st[groups[i]];
              ++s.count;
              s.isum = wrap_add(s.isum, v.i64[i]);
              s.dsum += static_cast<double>(v.i64[i]);
            });
          }
          break;
        case AggKind::kMin:
        case AggKind::kMax: {
          MinMaxState* st = minmax_states[a].data();
          for_each_lane(v.valid, n, [&](std::size_t i) {
            MinMaxState& s = st[groups[i]];
            const Value value =
                lane_value(v, i, spec.input->type.kind, src.pool());
            if (!s.has_value) {
              s.min = value;
              s.max = value;
              s.has_value = true;
            } else {
              if (value.compare(s.min) < 0) s.min = value;
              if (value.compare(s.max) > 0) s.max = value;
            }
          });
          break;
        }
        case AggKind::kCountStar:
          GEMS_UNREACHABLE("handled above");
      }
    }
  }

  // Column-at-a-time emission. Byte-identical to boxed per-row appends:
  // append_gather copies payload+validity for key cells (NULL keys write
  // the scalar append_null payload), typed appends write what
  // append_value would for each aggregate kind.
  for (std::size_t c = 0; c < keys.size(); ++c) {
    out->column_mut(static_cast<ColumnIndex>(c))
        .append_gather(src.column(keys[c]), representatives.data(),
                       num_groups);
  }
  for (std::size_t a = 0; a < aggs.size(); ++a) {
    const Aggregate& spec = aggs[a];
    Column& oc =
        out->column_mut(static_cast<ColumnIndex>(keys.size() + a));
    const bool double_input =
        spec.input != nullptr && spec.input->type.kind == TypeKind::kDouble;
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
        if (double_input) {
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
        if (double_input) {
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

void sort_rows(const Table& src, std::pmr::vector<RowIndex>& rows,
               std::span<const SortKey> keys,
               std::pmr::memory_resource* memory, std::size_t limit) {
  const std::size_t m = rows.size();
  const std::size_t kept = std::min(limit, m);
  if (keys.empty()) {
    rows.resize(kept);
    return;
  }
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
  // without the merge buffer std::stable_sort takes from the heap, and a
  // partial sort gives that order's first `kept`.
  std::pmr::vector<std::uint32_t> order(m, memory);
  for (std::size_t i = 0; i < m; ++i) order[i] = static_cast<std::uint32_t>(i);
  const auto less = [&](std::uint32_t a, std::uint32_t b) {
    for (const SortLane& lane : lanes) {
      const int c = lane.compare(a, b);
      if (c != 0) return lane.descending ? c > 0 : c < 0;
    }
    return a < b;
  };
  if (kept < m) {
    std::partial_sort(order.begin(), order.begin() + kept, order.end(),
                      less);
  } else {
    std::sort(order.begin(), order.end(), less);
  }
  std::pmr::vector<RowIndex> sorted(kept, memory);
  for (std::size_t i = 0; i < kept; ++i) sorted[i] = rows[order[i]];
  rows.resize(kept);
  std::copy(sorted.begin(), sorted.end(), rows.begin());
}

std::pmr::vector<RowIndex> distinct_rows(const Table& src,
                                         std::span<const ColumnIndex> cols,
                                         std::pmr::memory_resource* memory) {
  std::pmr::vector<RowIndex> keep(memory);
  group_rows(src, /*rows=*/nullptr, src.num_rows(), cols,
             /*group_of_row=*/nullptr, keep, memory);
  return keep;
}

}  // namespace gems::relational
