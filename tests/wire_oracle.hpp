// Boxed row and result encoders: the oracles RowCodecTest (codec_test.cpp)
// compares graql::encode_rows against and WireResultOracleTest
// (net_test.cpp) compares net::encode_results against. They are the
// plainest correct encoding — every cell boxed through Table::value_at and
// written by graql::encode_value, row by row into one growing buffer — so
// they share no chunk walk, typed cell dispatch or streaming with
// src/graql/ir.cpp or src/net/wire.cpp. They also record where each cell's
// bytes start and end, so a test can tell where a stream's flushes fall.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "exec/executor.hpp"
#include "exec/subgraph.hpp"
#include "graql/ir.hpp"

namespace gems::wire_oracle {

/// One encoded cell: its kind (NULL cells record their column's kind) and
/// its bytes [begin, end) in the encoding.
struct CellSpan {
  storage::TypeKind kind;
  bool null;
  std::size_t begin;
  std::size_t end;
};

/// The bytes graql::encode_rows writes for rows [first, first + n) of
/// `table`. When `cells` is given, each cell's span in the returned bytes
/// is appended to it.
inline std::vector<std::uint8_t> encode_rows(
    const storage::Table& table, std::size_t first, std::size_t n,
    std::vector<CellSpan>* cells = nullptr) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  for (std::size_t row = first; row < first + n; ++row) {
    for (std::size_t col = 0; col < table.num_columns(); ++col) {
      const auto c = static_cast<storage::ColumnIndex>(col);
      const storage::Value v =
          table.value_at(static_cast<storage::RowIndex>(row), c);
      const std::size_t begin = out.size();
      graql::encode_value(v, w);
      if (cells != nullptr) {
        cells->push_back({table.schema().column(c).type.kind, v.is_null(),
                          begin, out.size()});
      }
    }
  }
  return out;
}

/// The bytes net::encode_results writes for `results`. When `cells` is
/// given, each table cell's span is appended to it.
inline std::vector<std::uint8_t> encode_results(
    const std::vector<exec::StatementResult>& results,
    std::vector<CellSpan>* cells = nullptr) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.u32(static_cast<std::uint32_t>(results.size()));
  for (const auto& r : results) {
    w.u8(static_cast<std::uint8_t>(r.kind));
    w.boolean(r.truncated);
    w.u8(static_cast<std::uint8_t>(r.into));
    w.str(r.into_name);
    w.str(r.message);
    const storage::Table* table = r.table.get();
    w.boolean(table != nullptr);
    if (table != nullptr) {
      w.str(table->name());
      w.u32(static_cast<std::uint32_t>(table->schema().num_columns()));
      for (const auto& col : table->schema().columns()) {
        w.str(col.name);
        w.u8(static_cast<std::uint8_t>(col.type.kind));
        w.u32(col.type.varchar_length);
      }
      w.u64(table->num_rows());
      const std::size_t base = out.size();
      std::vector<CellSpan> spans;
      w.bytes(encode_rows(*table, 0, table->num_rows(), &spans));
      if (cells != nullptr) {
        for (const CellSpan& cell : spans) {
          cells->push_back(
              {cell.kind, cell.null, base + cell.begin, base + cell.end});
        }
      }
    }
    const bool has_subgraph = r.subgraph != nullptr;
    w.boolean(has_subgraph);
    if (has_subgraph) {
      w.u64(r.subgraph->num_vertices());
      w.u64(r.subgraph->num_edges());
    }
  }
  return out;
}

}  // namespace gems::wire_oracle
