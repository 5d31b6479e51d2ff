// Binary intermediate representation of GraQL scripts (paper Sec. III):
// "A GraQL script is parsed and compiled into a high-level binary
// intermediate representation (IR) that is a convenient mechanism for
// moving the query script from the front-end portion of the GEMS system
// to the backend for execution."
//
// The IR is a tagged byte stream with a magic/version header. It is
// self-contained: decode(encode(script)) reproduces the AST exactly
// (property-tested), so front-end and backend can run in separate
// processes in a real deployment.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "graql/ast.hpp"
#include "relational/bound_expr.hpp"
#include "storage/table.hpp"

namespace gems::graql {

inline constexpr std::uint32_t kIrMagic = 0x47514C31;  // "GQL1"
// v2: statements, steps, groups, select targets/items, order items and
// leaf expressions carry source spans, so a decoded IR produces the same
// located diagnostics as the original text (the net `check` contract).
inline constexpr std::uint16_t kIrVersion = 2;

/// Serializes a script to the binary IR.
std::vector<std::uint8_t> encode_script(const Script& script);

/// Deserializes; rejects wrong magic/version/truncated input. Hostile
/// length prefixes (larger than the remaining buffer) are rejected before
/// any allocation, with the byte offset of the bad field in the message.
Result<Script> decode_script(std::span<const std::uint8_t> bytes);

// ---- Value / row / parameter codec -----------------------------------------
// The tagged value encoding the IR uses for literals, exposed so the wire
// layer (src/net) can ship parameter bindings and result tables, and the
// WAL (src/store) its ingested rows, in the same format as the script IR.

/// Writes one tagged value.
void encode_value(const storage::Value& v, ByteWriter& w);

/// Reads one tagged value.
Result<storage::Value> decode_value(ByteReader& r);

/// Rows [first, first + n) of `table`, row-major: the bytes encode_value
/// writes for each boxed cell, read from the columns' typed chunks without
/// boxing. `W` is a ByteWriter, ByteCounter or StreamWriter.
template <typename W>
void encode_rows(const storage::Table& table, storage::RowIndex first,
                 std::size_t n, W& w);
extern template void encode_rows(const storage::Table&, storage::RowIndex,
                                 std::size_t, ByteWriter&);
extern template void encode_rows(const storage::Table&, storage::RowIndex,
                                 std::size_t, ByteCounter&);
extern template void encode_rows(const storage::Table&, storage::RowIndex,
                                 std::size_t, StreamWriter&);

/// Stages `nrows` rows of encode_rows' encoding for `table`'s columns into
/// `out`, with no Value per cell. Each cell must pass Table::check_cell (an
/// int64 is promoted into a double column); a bad cell, tag or row count is
/// `r`'s error, and `out` is then to be discarded.
Status decode_rows(ByteReader& r, std::uint64_t nrows,
                   const storage::Table& table, storage::TableAppender& out);

/// Serializes a parameter map (name -> value) for the wire.
std::vector<std::uint8_t> encode_params(const relational::ParamMap& params);

/// Deserializes a parameter map; rejects truncated/hostile input without
/// over-allocating.
Result<relational::ParamMap> decode_params(
    std::span<const std::uint8_t> bytes);

}  // namespace gems::graql
