#include "net/wire.hpp"

#include "graql/ir.hpp"

namespace gems::net {

std::string_view verb_name(Verb verb) noexcept {
  switch (verb) {
    case Verb::kHandshake:
      return "handshake";
    case Verb::kRunScript:
      return "run-script";
    case Verb::kCheck:
      return "check";
    case Verb::kExplain:
      return "explain";
    case Verb::kCatalog:
      return "catalog";
    case Verb::kStats:
      return "stats";
    case Verb::kCancel:
      return "cancel";
    case Verb::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

// ---- Frame I/O -------------------------------------------------------------

Status send_frame(const Socket& socket, Verb verb, bool is_response,
                  std::uint64_t request_id,
                  std::span<const std::uint8_t> payload) {
  if (payload.size() > kMaxPayloadBytes) {
    return invalid_argument("frame payload of " +
                            std::to_string(payload.size()) +
                            " bytes exceeds the u32 length field");
  }
  std::vector<std::uint8_t> frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  ByteWriter w(frame);
  write_frame_header(w, verb, is_response, request_id,
                     static_cast<std::uint32_t>(payload.size()));
  w.bytes(payload);
  return send_all(socket, frame);
}

Result<Frame> recv_frame(const Socket& socket, std::size_t max_frame_bytes) {
  std::uint8_t header[kFrameHeaderBytes];
  GEMS_RETURN_IF_ERROR(recv_all(socket, header));
  ByteReader r = frame_reader(header);
  GEMS_ASSIGN_OR_RETURN(std::uint32_t magic, r.u32());
  if (magic != kFrameMagic) {
    return r.error_at(0, "bad frame magic (not a GEMS wire peer?)");
  }
  Frame frame;
  GEMS_ASSIGN_OR_RETURN(frame.header.version, r.u16());
  if (frame.header.version != kWireVersion) {
    return r.error_at(4, "unsupported wire version " +
                             std::to_string(frame.header.version) +
                             " (this peer speaks " +
                             std::to_string(kWireVersion) + ")");
  }
  GEMS_ASSIGN_OR_RETURN(std::uint8_t verb, r.u8());
  if (verb >= kNumVerbs) {
    return r.error_at(6, "unknown verb " + std::to_string(verb));
  }
  frame.header.verb = static_cast<Verb>(verb);
  GEMS_ASSIGN_OR_RETURN(std::uint8_t flags, r.u8());
  frame.header.is_response = (flags & 1) != 0;
  GEMS_ASSIGN_OR_RETURN(frame.header.request_id, r.u64());
  GEMS_ASSIGN_OR_RETURN(frame.header.payload_size, r.u32());
  // The frame budget is the admission line for memory: a hostile length
  // is rejected here, before any allocation.
  if (frame.header.payload_size > max_frame_bytes) {
    return r.error_at(16, "payload length " +
                              std::to_string(frame.header.payload_size) +
                              " exceeds the frame budget of " +
                              std::to_string(max_frame_bytes) + " bytes");
  }
  frame.payload.resize(frame.header.payload_size);
  GEMS_RETURN_IF_ERROR(recv_all(socket, frame.payload));
  return frame;
}

// ---- Request payloads ------------------------------------------------------

std::vector<std::uint8_t> encode_handshake_request(const HandshakeRequest& r) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.u16(r.wire_version);
  w.str(r.client_name);
  return out;
}

Result<HandshakeRequest> decode_handshake_request(
    std::span<const std::uint8_t> bytes) {
  ByteReader r = frame_reader(bytes);
  HandshakeRequest out;
  GEMS_ASSIGN_OR_RETURN(out.wire_version, r.u16());
  GEMS_ASSIGN_OR_RETURN(out.client_name, r.str());
  return out;
}

std::vector<std::uint8_t> encode_handshake_response(
    const HandshakeResponse& r) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.u16(r.wire_version);
  w.u64(r.session_id);
  w.str(r.server_name);
  return out;
}

Result<HandshakeResponse> decode_handshake_response(ByteReader& reader) {
  HandshakeResponse out;
  GEMS_ASSIGN_OR_RETURN(out.wire_version, reader.u16());
  GEMS_ASSIGN_OR_RETURN(out.session_id, reader.u64());
  GEMS_ASSIGN_OR_RETURN(out.server_name, reader.str());
  return out;
}

std::vector<std::uint8_t> encode_script_request(const ScriptRequest& r) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.blob(r.ir);
  w.blob(r.params);
  w.u32(r.deadline_ms);
  return out;
}

Result<ScriptRequest> decode_script_request(
    std::span<const std::uint8_t> bytes) {
  ByteReader r = frame_reader(bytes);
  ScriptRequest out;
  GEMS_ASSIGN_OR_RETURN(out.ir, r.blob());
  GEMS_ASSIGN_OR_RETURN(out.params, r.blob());
  GEMS_ASSIGN_OR_RETURN(out.deadline_ms, r.u32());
  return out;
}

std::vector<std::uint8_t> encode_cancel_request(const CancelRequest& r) {
  std::vector<std::uint8_t> out;
  ByteWriter(out).u64(r.target_request_id);
  return out;
}

Result<CancelRequest> decode_cancel_request(
    std::span<const std::uint8_t> bytes) {
  ByteReader r = frame_reader(bytes);
  CancelRequest out;
  GEMS_ASSIGN_OR_RETURN(out.target_request_id, r.u64());
  return out;
}

// ---- Response payloads -----------------------------------------------------

Status decode_status(ByteReader& reader) {
  const std::size_t at = reader.pos();
  auto code = reader.u16();
  if (!code.is_ok()) return code.status();
  auto message = reader.str();
  if (!message.is_ok()) return message.status();
  if (*code > static_cast<std::uint16_t>(StatusCode::kUnavailable)) {
    return reader.error_at(at, "unknown status code " + std::to_string(*code));
  }
  return Status(static_cast<StatusCode>(*code), std::move(*message));
}

template <typename W>
void encode_results(const std::vector<exec::StatementResult>& results,
                    W& w) {
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
      graql::encode_rows(*table, 0, table->num_rows(), w);
    }
    const bool has_subgraph = r.subgraph != nullptr;
    w.boolean(has_subgraph);
    if (has_subgraph) {
      w.u64(r.subgraph->num_vertices());
      w.u64(r.subgraph->num_edges());
    }
  }
}

template void encode_results(const std::vector<exec::StatementResult>&,
                             ByteWriter&);
template void encode_results(const std::vector<exec::StatementResult>&,
                             ByteCounter&);
template void encode_results(const std::vector<exec::StatementResult>&,
                             StreamWriter&);

Result<std::vector<exec::StatementResult>> decode_results(ByteReader& reader,
                                                          StringPool& pool) {
  GEMS_ASSIGN_OR_RETURN(std::uint32_t n, reader.count("result list"));
  std::vector<exec::StatementResult> results;
  results.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    exec::StatementResult result;
    GEMS_ASSIGN_OR_RETURN(
        result.kind,
        reader.enum8(exec::StatementResult::Kind::kSubgraph,
                    "result kind"));
    GEMS_ASSIGN_OR_RETURN(result.truncated, reader.boolean());
    GEMS_ASSIGN_OR_RETURN(
        result.into,
        reader.enum8(graql::IntoKind::kTable, "into kind"));
    GEMS_ASSIGN_OR_RETURN(result.into_name, reader.str());
    GEMS_ASSIGN_OR_RETURN(result.message, reader.str());
    GEMS_ASSIGN_OR_RETURN(bool has_table, reader.boolean());
    if (has_table) {
      const std::size_t table_at = reader.pos();
      GEMS_ASSIGN_OR_RETURN(std::string table_name, reader.str());
      GEMS_ASSIGN_OR_RETURN(std::uint32_t ncols, reader.count("column list"));
      std::vector<storage::ColumnDef> columns;
      columns.reserve(ncols);
      for (std::uint32_t c = 0; c < ncols; ++c) {
        storage::ColumnDef def;
        GEMS_ASSIGN_OR_RETURN(def.name, reader.str());
        GEMS_ASSIGN_OR_RETURN(
            def.type.kind,
            reader.enum8(storage::TypeKind::kDate, "column type kind"));
        GEMS_ASSIGN_OR_RETURN(def.type.varchar_length, reader.u32());
        columns.push_back(std::move(def));
      }
      auto schema = storage::Schema::create(std::move(columns));
      if (!schema.is_ok()) {
        return reader.error_at(table_at, schema.status().message());
      }
      GEMS_ASSIGN_OR_RETURN(std::uint64_t nrows, reader.u64());
      auto table = std::make_shared<storage::Table>(
          std::move(table_name), std::move(schema).value(), pool);
      // The rows are appended in one commit once all have decoded.
      storage::TableAppender staged(*table);
      GEMS_RETURN_IF_ERROR(graql::decode_rows(reader, nrows, *table, staged));
      staged.commit();
      result.table = std::move(table);
    }
    GEMS_ASSIGN_OR_RETURN(bool has_subgraph, reader.boolean());
    if (has_subgraph) {
      // The vertex/edge sets stay server-side; clients get the summary.
      GEMS_ASSIGN_OR_RETURN(std::uint64_t nverts, reader.u64());
      GEMS_ASSIGN_OR_RETURN(std::uint64_t nedges, reader.u64());
      if (result.message.empty()) {
        result.message = "subgraph '" + result.into_name + "': " +
                         std::to_string(nverts) + " vertices, " +
                         std::to_string(nedges) + " edges (server-side)";
      }
    }
    results.push_back(std::move(result));
  }
  return results;
}

Result<std::vector<server::CatalogEntry>> decode_catalog(ByteReader& reader) {
  GEMS_ASSIGN_OR_RETURN(std::uint32_t n, reader.count("catalog list"));
  std::vector<server::CatalogEntry> entries;
  entries.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    server::CatalogEntry e;
    GEMS_ASSIGN_OR_RETURN(
        e.kind, reader.enum8(server::CatalogEntry::Kind::kSubgraph,
                            "catalog kind"));
    GEMS_ASSIGN_OR_RETURN(e.name, reader.str());
    GEMS_ASSIGN_OR_RETURN(std::uint64_t instances, reader.u64());
    GEMS_ASSIGN_OR_RETURN(std::uint64_t byte_size, reader.u64());
    e.instances = static_cast<std::size_t>(instances);
    e.byte_size = static_cast<std::size_t>(byte_size);
    entries.push_back(std::move(e));
  }
  return entries;
}

}  // namespace gems::net
