#include "store/store.hpp"

#include <utility>
#include <variant>

#include "common/logging.hpp"
#include "common/timer.hpp"
#include "graql/ir.hpp"
#include "store/format.hpp"
#include "store/snapshot.hpp"

namespace gems::store {

namespace {

/// Applies one WAL record to the context. Each row-append record
/// maintains the graph immediately through the maintenance the live
/// ingest ran (ExecContext::maintain_graph_after_ingest), so the recovered
/// graph is byte-identical to the pre-crash one (edge ordering included).
Status replay_record(const WalRecord& rec, exec::ExecContext& ctx) {
  const std::string where = "WAL record seq " + std::to_string(rec.seq);
  if (rec.type == WalRecordType::kStatement) {
    auto script = graql::decode_script(rec.payload);
    if (!script.is_ok()) {
      return script.status().with_context(where);
    }
    if (script->statements.size() != 1) {
      return io_error(where + ": expected one statement, got " +
                      std::to_string(script->statements.size()));
    }
    const graql::Statement& stmt = script->statements.front();
    if (!std::holds_alternative<graql::CreateTableStmt>(stmt) &&
        !std::holds_alternative<graql::CreateVertexStmt>(stmt) &&
        !std::holds_alternative<graql::CreateEdgeStmt>(stmt)) {
      return io_error(where + ": statement kind is not replayable DDL");
    }
    auto result = exec::execute_statement(stmt, ctx);
    if (!result.is_ok()) return result.status().with_context(where);
    return Status::ok();
  }

  // kIngestRows: table name, column count, row count, then the cells in
  // graql::encode_rows' row-major encoding. Replay is independent of the
  // original CSV file.
  ByteReader r = store_reader(rec.payload);
  GEMS_ASSIGN_OR_RETURN(std::string table_name, r.str());
  GEMS_ASSIGN_OR_RETURN(std::uint32_t ncols, r.u32());
  GEMS_ASSIGN_OR_RETURN(std::uint64_t nrows, r.u64());
  auto table = ctx.tables.find(table_name);
  if (!table.is_ok()) return table.status().with_context(where);
  if (ncols != (*table)->num_columns()) {
    return io_error(where + ": column count " + std::to_string(ncols) +
                    " != table '" + table_name + "' arity " +
                    std::to_string((*table)->num_columns()));
  }
  // Rows are staged and appended once the whole record has decoded, as a
  // live ingest appends its file. Each cell gets append_row's checks, so
  // corrupted values that survive the CRC (or a schema drift bug) surface
  // as a corrupt-record error instead of poisoning the column data.
  storage::Table& t = **table;
  storage::TableAppender staged(t);
  GEMS_RETURN_IF_ERROR(
      graql::decode_rows(r, nrows, t, staged).with_context(where));
  GEMS_RETURN_IF_ERROR(r.expect_end("the declared rows").with_context(where));
  const auto first_new_row = static_cast<storage::RowIndex>(t.num_rows());
  staged.commit();
  return ctx.maintain_graph_after_ingest(table_name, first_new_row)
      .with_context(where);
}

}  // namespace

Result<std::unique_ptr<Store>> Store::open(StoreOptions options,
                                           exec::ExecContext& ctx) {
  GEMS_RETURN_IF_ERROR(ensure_dir(options.dir));
  const std::string snapshot_path = options.dir + "/snapshot.gsnp";
  const std::string wal_path = options.dir + "/wal.gwal";

  // 1. Snapshot, if present. Corrupt -> typed error, fail the open.
  Timer snapshot_timer;
  std::uint64_t snap_seq = 0;
  std::uint64_t snapshot_bytes = 0;
  bool have_snapshot = false;
  auto image = read_file_bytes(snapshot_path);
  if (image.is_ok()) {
    auto info = decode_snapshot(*image, ctx);
    if (!info.is_ok()) {
      return info.status().with_context("snapshot '" + snapshot_path + "'");
    }
    snap_seq = info->wal_seq;
    snapshot_bytes = image->size();
    have_snapshot = true;
  } else if (image.status().code() != StatusCode::kNotFound) {
    return image.status();
  }
  const double snapshot_seconds = snapshot_timer.elapsed_seconds();

  // 2. WAL: scan (truncating any torn tail) and replay past the snapshot.
  Timer replay_timer;
  GEMS_ASSIGN_OR_RETURN(Wal::OpenResult wal,
                        Wal::open(wal_path, snap_seq, options.wal_fsync));
  if (wal.header_snapshot_seq > snap_seq) {
    // The log's records assume a snapshot newer than the one on disk
    // (deleted or replaced by hand?). Replaying them onto older state
    // would silently corrupt the database; refuse instead.
    return io_error("WAL '" + wal_path + "' was rotated after snapshot seq " +
                    std::to_string(wal.header_snapshot_seq) + " but " +
                    (have_snapshot ? "the snapshot on disk is older (seq " +
                                         std::to_string(snap_seq) + ")"
                                   : "no snapshot exists") +
                    "; the data directory is inconsistent");
  }
  std::uint64_t applied = 0;
  std::uint64_t skipped = 0;
  for (const WalRecord& rec : wal.records) {
    if (rec.seq <= snap_seq) {
      ++skipped;  // already captured by the snapshot
      continue;
    }
    GEMS_RETURN_IF_ERROR(replay_record(rec, ctx));
    ++applied;
  }
  wal.wal->advance_seq(snap_seq);
  const double replay_seconds = replay_timer.elapsed_seconds();

  auto store = std::unique_ptr<Store>(
      new Store(std::move(options), std::move(wal.wal)));
  store->last_checkpoint_seq_ = snap_seq;
  metrics::Registry& m = store->metrics_;
  m.gauge("store.recovery.from_snapshot").set(have_snapshot ? 1 : 0);
  m.gauge("store.recovery.snapshot_bytes").set(snapshot_bytes);
  m.gauge("store.recovery.snapshot_us")
      .set(static_cast<std::uint64_t>(snapshot_seconds * 1e6));
  m.gauge("store.recovery.records_applied").set(applied);
  m.gauge("store.recovery.records_skipped").set(skipped);
  m.gauge("store.recovery.truncated_bytes").set(wal.truncated_bytes);
  m.gauge("store.recovery.replay_us")
      .set(static_cast<std::uint64_t>(replay_seconds * 1e6));
  GEMS_LOG(Info) << "store '" << store->options_.dir << "' opened: "
                 << (have_snapshot
                         ? "snapshot seq " + std::to_string(snap_seq) + " (" +
                               std::to_string(snapshot_bytes) + " bytes, " +
                               std::to_string(snapshot_seconds * 1e3) + " ms)"
                         : std::string("no snapshot"))
                 << ", " << applied << " WAL records replayed (" << skipped
                 << " skipped, " << wal.truncated_bytes
                 << " torn bytes truncated, "
                 << replay_seconds * 1e3 << " ms)";
  return store;
}

Status Store::log_mutation(const exec::MutationEvent& ev) {
  if (ev.statement == nullptr) {
    return internal_error("log_mutation: event carries no statement");
  }
  Timer timer;
  std::vector<std::uint8_t> payload;
  WalRecordType type;

  if (std::holds_alternative<graql::IngestStmt>(*ev.statement)) {
    if (ev.table == nullptr) {
      return internal_error("log_mutation: ingest event carries no table");
    }
    type = WalRecordType::kIngestRows;
    ByteWriter w(payload);
    w.str(ev.table->name());
    w.u32(static_cast<std::uint32_t>(ev.table->num_columns()));
    w.u64(ev.num_rows);
    graql::encode_rows(*ev.table,
                       static_cast<storage::RowIndex>(ev.first_row),
                       ev.num_rows, w);
  } else if (std::holds_alternative<graql::CreateTableStmt>(*ev.statement) ||
             std::holds_alternative<graql::CreateVertexStmt>(*ev.statement) ||
             std::holds_alternative<graql::CreateEdgeStmt>(*ev.statement)) {
    type = WalRecordType::kStatement;
    graql::Script script;
    script.statements.push_back(*ev.statement);
    payload = graql::encode_script(script);
  } else {
    // Queries and outputs do not mutate base state; nothing to log.
    return Status::ok();
  }

  GEMS_ASSIGN_OR_RETURN(std::uint64_t seq, wal_->append(type, payload));
  (void)seq;
  wal_records_.add();
  wal_bytes_.add(payload.size() + kWalFrameBytes);
  wal_append_us_.record(static_cast<std::uint64_t>(timer.elapsed_us()));
  return Status::ok();
}

Status Store::checkpoint(const exec::ExecContext& ctx) {
  const std::uint64_t seq = wal_->last_seq();
  GEMS_RETURN_IF_ERROR(write_snapshot(ctx, seq));
  return finish_checkpoint(seq);
}

Status Store::write_snapshot(const exec::ExecContext& ctx,
                             std::uint64_t seq) {
  Timer timer;
  const Result<std::uint64_t> bytes =
      write_snapshot_file(snapshot_path(), ctx, seq);
  if (!bytes.is_ok()) {
    return bytes.status().with_context("checkpoint snapshot");
  }
  const double us = timer.elapsed_us();
  snapshots_written_.add();
  snapshot_last_bytes_.set(*bytes);
  snapshot_write_us_.record(static_cast<std::uint64_t>(us));
  GEMS_LOG(Info) << "checkpoint: " << *bytes << " bytes at WAL seq "
                 << seq << " (" << us / 1e3 << " ms)";
  return Status::ok();
}

Status Store::finish_checkpoint(std::uint64_t seq) {
  // Crash window before the rotate: new snapshot + old WAL. Safe — replay
  // skips records with seq <= the snapshot's wal_seq.
  if (wal_->last_seq() != seq) {
    // Writers appended while the snapshot was encoded outside the lock
    // (gems::mvcc pinned-epoch checkpoints). rotate(seq) would drop those
    // newer records; keep the WAL instead — the snapshot is still valid
    // and replay skips the records it already covers.
    GEMS_LOG(Info) << "checkpoint: WAL advanced past seq " << seq
                   << " during snapshot encode; skipping rotation";
    last_checkpoint_seq_ = seq;
    return Status::ok();
  }
  GEMS_RETURN_IF_ERROR(wal_->rotate(seq).with_context("checkpoint rotate"));
  last_checkpoint_seq_ = seq;
  return Status::ok();
}

}  // namespace gems::store
