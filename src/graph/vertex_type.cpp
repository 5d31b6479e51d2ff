#include "graph/vertex_type.hpp"

#include <numeric>

#include "common/large_array.hpp"
#include "relational/operators.hpp"
#include "relational/row_key.hpp"

namespace gems::graph {

using storage::ColumnIndex;
using storage::RowIndex;

namespace {

/// Rows of `table` from `first_row` on that pass `filter` (every row when
/// there is none), ascending, in memory from `memory`. Filtered scans run
/// the relational kernels.
std::pmr::vector<RowIndex> passing_rows(const storage::Table& table,
                                        const relational::BoundExpr* filter,
                                        RowIndex first_row,
                                        std::pmr::memory_resource* memory) {
  if (filter != nullptr) {
    return relational::filter_rows(table, *filter, first_row, memory);
  }
  std::pmr::vector<RowIndex> rows(table.num_rows() - first_row, memory);
  std::iota(rows.begin(), rows.end(), first_row);
  return rows;
}

}  // namespace

Result<VertexType> VertexType::build(VertexTypeId id, std::string name,
                                     storage::TablePtr source,
                                     std::vector<ColumnIndex> key_cols,
                                     const relational::BoundExpr* filter,
                                     std::pmr::memory_resource* scratch) {
  if (key_cols.empty()) {
    return invalid_argument("vertex type '" + name +
                            "' must declare at least one key column");
  }
  VertexType vt;
  vt.id_ = id;
  vt.name_ = std::move(name);
  vt.source_ = std::move(source);
  vt.key_cols_ = std::move(key_cols);

  const storage::Table& table = *vt.source_;
  vt.matching_rows_ = DynamicBitset(table.num_rows());
  // Reserved in scratch for every passing row, the index never grows;
  // the type keeps a copy at the capacity its vertex count calls for.
  const std::pmr::vector<RowIndex> rows =
      passing_rows(table, filter, 0, scratch);
  IdTable index(scratch);
  index.reserve(rows.size());
  for (const RowIndex r : rows) {
    vt.matching_rows_.set(r);
    if (!vt.add_row(index, r)) {
      vt.one_to_one_ = false;  // a second row collapsed into this vertex
    }
  }
  vt.key_base_ = std::make_shared<const IdTable>(index.compacted());
  return vt;
}

Result<VertexType> VertexType::extend(const VertexType& base,
                                      storage::TablePtr new_source,
                                      const relational::BoundExpr* filter,
                                      RowIndex first_new_row, bool* flipped) {
  GEMS_CHECK(new_source != nullptr && flipped != nullptr);
  GEMS_CHECK(first_new_row <= new_source->num_rows());
  GEMS_CHECK(base.matching_rows_.size() == first_new_row);
  *flipped = false;

  VertexType vt = base;
  vt.source_ = new_source;
  vt.matching_rows_.resize(new_source->num_rows(), false);

  for (const RowIndex r : passing_rows(*new_source, filter, first_new_row,
                                       large_array_resource())) {
    vt.matching_rows_.set(r);
    if (!vt.add_row(vt.key_tail_, r) && vt.one_to_one_) {
      *flipped = true;  // visibility/collapse semantics change: rebuild
      break;
    }
  }
  if (vt.key_tail_.size() * kTailFoldDivisor > vt.key_base_->size()) {
    vt.key_base_ = std::make_shared<const IdTable>(
        IdTable::merged(*vt.key_base_, vt.key_tail_));
    vt.key_tail_ = IdTable();
  }
  return vt;
}

bool VertexType::add_row(IdTable& tail, RowIndex row) {
  if (find_in(tail, *source_, row, key_cols_) != kInvalidVertex) {
    return false;
  }
  const auto v = static_cast<VertexIndex>(num_vertices_);
  tail.insert(relational::hash_row_key(*source_, row, key_cols_), v);
  if (identity_rows_ && row != v) {
    for_each_identity_piece<RowIndex>(
        num_vertices_, [&](std::span<const RowIndex> piece) {
          representative_row_.append(piece.data(), piece.size());
        });
    identity_rows_ = false;
  }
  if (!identity_rows_) representative_row_.push_back(row);
  ++num_vertices_;
  return true;
}

template <typename Equal>
VertexIndex VertexType::probe(const IdTable& tail, std::uint64_t hash,
                              Equal&& equal) const {
  std::uint32_t v = IdTable::kNone;
  if (key_base_ != nullptr) v = key_base_->find(hash, equal);
  if (v == IdTable::kNone) v = tail.find(hash, equal);
  return v == IdTable::kNone ? kInvalidVertex : v;
}

bool VertexType::attribute_visible(ColumnIndex col) const noexcept {
  if (one_to_one_) return true;
  for (const auto k : key_cols_) {
    if (k == col) return true;
  }
  return false;
}

Result<ColumnIndex> VertexType::resolve_attribute(
    std::string_view attr) const {
  auto col = source_->schema().find(attr);
  if (!col) {
    return not_found("vertex type '" + name_ + "' has no attribute '" +
                     std::string(attr) + "' (source table '" +
                     source_->name() + "')");
  }
  if (!attribute_visible(*col)) {
    return type_error("attribute '" + std::string(attr) +
                      "' of many-to-one vertex type '" + name_ +
                      "' is not part of the vertex key and is therefore "
                      "ambiguous");
  }
  return *col;
}

VertexIndex VertexType::find_by_key(
    const storage::Table& table, RowIndex row,
    std::span<const ColumnIndex> key_cols) const {
  return find_in(key_tail_, table, row, key_cols);
}

VertexIndex VertexType::find_in(const IdTable& tail,
                                const storage::Table& table, RowIndex row,
                                std::span<const ColumnIndex> key_cols) const {
  GEMS_DCHECK(key_cols.size() == key_cols_.size());
  return probe(tail, relational::hash_row_key(table, row, key_cols),
               [&](std::uint32_t c) {
                 return relational::row_keys_equal(*source_, row_of(c),
                                                   key_cols_, table, row,
                                                   key_cols);
               });
}

VertexIndex VertexType::find_by_cells(
    std::span<const relational::KeyCell> cells) const {
  GEMS_DCHECK(cells.size() == key_cols_.size());
  return probe(key_tail_, relational::hash_cell_key(cells),
               [&](std::uint32_t c) {
                 return relational::cell_key_equals(cells, *source_,
                                                    row_of(c), key_cols_);
               });
}

std::size_t VertexType::byte_size() const noexcept {
  return key_index_bytes() + representative_row_.byte_size() +
         (matching_rows_.size() + 63) / 64 * sizeof(std::uint64_t);
}

std::string VertexType::key_string(VertexIndex v) const {
  const RowIndex row = representative_row(v);
  if (key_cols_.size() == 1) {
    return source_->value_at(row, key_cols_[0]).to_string();
  }
  std::string out = "(";
  for (std::size_t i = 0; i < key_cols_.size(); ++i) {
    if (i > 0) out += ", ";
    out += source_->value_at(row, key_cols_[i]).to_string();
  }
  out += ")";
  return out;
}

}  // namespace gems::graph
