// Vertex types — views over tables (paper Eq. 1):
//   V(a1..ak) = Π_{a1..ak} σ_φ(T)
// One vertex instance exists per distinct key-column combination among the
// rows passing the optional filter. One-to-one mappings (key is unique in
// the table) expose the full source schema as vertex attributes;
// many-to-one mappings (Fig. 4: ProducerCountry from Producers) expose
// only the key columns, because other attributes are ambiguous across the
// collapsed rows.
//
// Each vertex has a representative row. When vertex v's is row v for
// every vertex (the rows are the identity, as for a one-to-one type over
// an unfiltered table), the rows are not stored. Whether they are is a
// function of the representative rows alone, so a type built or extended
// to the same rows stores the same arrays. Stored rows are a
// storage::ColumnData<RowIndex> with every row valid, in kChunkRows-row
// chunks narrowed as they seal, as a column's are.
#pragma once

#include <memory>
#include <memory_resource>
#include <span>
#include <string>
#include <vector>

#include "common/bitset.hpp"
#include "common/id_table.hpp"
#include "common/status.hpp"
#include "graph/ids.hpp"
#include "relational/bound_expr.hpp"
#include "relational/row_key.hpp"
#include "storage/column_data.hpp"
#include "storage/table.hpp"

namespace gems::graph {

class VertexType {
 public:
  /// Materializes the vertex set from `source` (Eq. 1). `filter` may be
  /// null. The key index fills in `scratch`, reserved for every passing
  /// row, and the type keeps its IdTable::compacted() copy. Called by the
  /// graph builder; use that instead of calling directly.
  static Result<VertexType> build(VertexTypeId id, std::string name,
                                  storage::TablePtr source,
                                  std::vector<storage::ColumnIndex> key_cols,
                                  const relational::BoundExpr* filter,
                                  std::pmr::memory_resource* scratch);

  VertexTypeId id() const noexcept { return id_; }
  const std::string& name() const noexcept { return name_; }

  const storage::Table& source() const noexcept { return *source_; }
  storage::TablePtr source_ptr() const noexcept { return source_; }

  const std::vector<storage::ColumnIndex>& key_columns() const noexcept {
    return key_cols_;
  }

  /// True when each vertex corresponds to exactly one source row.
  bool one_to_one() const noexcept { return one_to_one_; }

  std::size_t num_vertices() const noexcept { return num_vertices_; }

  /// The source row used to evaluate attribute conditions for `v`. For
  /// many-to-one vertices, only key columns are meaningful on this row.
  storage::RowIndex representative_row(VertexIndex v) const {
    GEMS_CHECK_MSG(v < num_vertices_, "vertex index out of range");
    return row_of(v);
  }
  /// True when vertex v's representative row is row v for every vertex,
  /// and the rows are not stored.
  bool identity_rows() const noexcept { return identity_rows_; }

  /// Columns of the source schema that conditions on this vertex type may
  /// reference (full schema when one-to-one, key columns otherwise).
  bool attribute_visible(storage::ColumnIndex col) const noexcept;

  /// Resolves an attribute name to a source column, enforcing visibility.
  Result<storage::ColumnIndex> resolve_attribute(std::string_view name) const;

  /// Finds the vertex whose key equals the key columns of `row` in `table`
  /// (typically a join result or the source itself). `key_cols` addresses
  /// `table`. Returns kInvalidVertex when no such vertex exists.
  VertexIndex find_by_key(const storage::Table& table, storage::RowIndex row,
                          std::span<const storage::ColumnIndex> key_cols) const;

  /// find_by_key over a key whose cells may come from several tables:
  /// cell i is compared with key column i. The edge join probes with it.
  VertexIndex find_by_cells(std::span<const relational::KeyCell> cells) const;

  /// Human-readable key of a vertex, e.g. "Product1" or "(US, 4)".
  std::string key_string(VertexIndex v) const;

  /// Resident bytes: the key index, the representative rows unless they
  /// are the identity, and the matching-rows bits. A function of the
  /// vertex count, the row count and the representative rows, so a built
  /// or extended type of the same state reports the same size.
  std::size_t byte_size() const noexcept;

  /// Bytes of the key index alone (the `graph.key_index.bytes` gauge):
  /// those of one table holding every vertex, as build() keeps, however
  /// the entries are split between base and tail.
  std::size_t key_index_bytes() const noexcept {
    return IdTable::byte_size_for(num_vertices());
  }

  /// True when both types probe the same key index base.
  bool shares_key_base(const VertexType& other) const noexcept {
    return key_base_ == other.key_base_;
  }

  /// Source rows that passed the vertex filter (Eq. 1's σ_φ). Edge
  /// creation joins against exactly these rows, so edges never attach to
  /// filtered-out vertices.
  const DynamicBitset& matching_rows() const noexcept {
    return matching_rows_;
  }

  /// Incremental ingest (gems::mvcc): extends `base` with the rows of
  /// `new_source` at indices >= `first_new_row` (the CSV batch just
  /// appended to a copy-on-write clone of the source table). Vertex
  /// numbering, representative rows and matching-rows bits are identical
  /// to a full build() over the grown table, because build() assigns
  /// vertex indices in first-occurrence order and all base rows precede
  /// the new ones. When a new row collapses into an existing key while
  /// the base was one-to-one, the type's attribute visibility (and the
  /// collapse decisions of every edge type touching it) would change —
  /// `*flipped` is set and the caller must fall back to a full rebuild.
  /// The new vertices go to a copy of the key index tail; the base is
  /// shared until the tail would exceed 1/kTailFoldDivisor of it, when the
  /// two fold into a new base.
  static Result<VertexType> extend(const VertexType& base,
                                   storage::TablePtr new_source,
                                   const relational::BoundExpr* filter,
                                   storage::RowIndex first_new_row,
                                   bool* flipped);

 private:
  VertexType() = default;

  /// Registers source row `row` under its key in `tail` (the key index
  /// tail, or the table build() fills before it becomes the base): returns true when the key is new (the row becomes the next
  /// vertex's representative), false when it collapses into an existing
  /// vertex. The first new vertex whose row is not its index writes the
  /// identity rows out, once.
  bool add_row(IdTable& tail, storage::RowIndex row);

  /// Vertex c's representative row, unchecked.
  storage::RowIndex row_of(VertexIndex c) const noexcept {
    return identity_rows_ ? c : representative_row_[c];
  }

  /// The vertex stored under `hash` in the key index base or in `tail`
  /// for which `equal(vertex)` holds, or kInvalidVertex.
  template <typename Equal>
  VertexIndex probe(const IdTable& tail, std::uint64_t hash,
                    Equal&& equal) const;

  /// find_by_key against the key index base and `tail`.
  VertexIndex find_in(const IdTable& tail, const storage::Table& table,
                      storage::RowIndex row,
                      std::span<const storage::ColumnIndex> key_cols) const;

  VertexTypeId id_ = kInvalidVertexType;
  std::string name_;
  storage::TablePtr source_;
  std::vector<storage::ColumnIndex> key_cols_;
  bool one_to_one_ = true;

  // Chunked: extend() copies the base type, sharing its sealed chunks.
  // Empty while identity_rows_.
  storage::ColumnData<storage::RowIndex> representative_row_;
  std::size_t num_vertices_ = 0;
  bool identity_rows_ = true;
  // key -> vertex index, keyed by relational::hash_row_key over the key
  // columns and checked with row_keys_equal against the candidate's
  // representative row (DESIGN.md §5m). Two keys are equal when each
  // pair of cells is: both NULL (NULL keys collapse into one vertex), or
  // equal values, with -0.0 equal to +0.0, other doubles compared by bit
  // pattern and strings by id. String ids come from the shared pool, so
  // keys compare across tables. The base is shared by every epoch since
  // the last fold (null before build() fills it); the tail
  // holds the vertices extend() added since (DESIGN.md §5n).
  std::shared_ptr<const IdTable> key_base_;
  IdTable key_tail_;
  DynamicBitset matching_rows_;
};

}  // namespace gems::graph
