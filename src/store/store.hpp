// The durability façade: one Store per database data directory, owning the
// snapshot file and the write-ahead log.
//
//   <dir>/snapshot.gsnp   latest complete snapshot (atomically replaced)
//   <dir>/wal.gwal        mutations since that snapshot
//
// Open = recovery: load the snapshot (if any), replay the WAL tail,
// truncate torn records. Checkpoint = snapshot the live state, then
// rotate the WAL. Both ends of the crash-consistency contract live here;
// the server layer (server::Database) only decides *when* to call them
// and serializes callers against the statement path.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/metrics.hpp"
#include "common/status.hpp"
#include "exec/executor.hpp"
#include "store/wal.hpp"

namespace gems::store {

struct StoreOptions {
  /// Data directory; created if missing.
  std::string dir;
  /// fsync the WAL on every append (default). Turning this off trades the
  /// crash-durability of the last few statements for append throughput —
  /// the file stays *consistent* either way (torn tails truncate).
  bool wal_fsync = true;
};

class Store {
 public:
  /// Opens the store at `options.dir`, recovering any existing state into
  /// `ctx` (which must be fresh: empty pool, empty catalog). A corrupt
  /// snapshot fails the open with a typed kIoError — `ctx` must then be
  /// discarded. A torn WAL tail is truncated and logged, never fatal.
  static Result<std::unique_ptr<Store>> open(StoreOptions options,
                                             exec::ExecContext& ctx);

  /// Durability hook (wired to exec::ExecContext::on_mutation): appends
  /// the mutation to the WAL, fsyncing when enabled.
  Status log_mutation(const exec::MutationEvent& ev);

  /// Writes a snapshot of `ctx` (atomically replacing the previous one)
  /// and rotates the WAL. The caller must hold the database's statement
  /// lock so the state is consistent for the duration of the encode.
  /// Equivalent to write_snapshot(ctx, wal_seq()) + finish_checkpoint().
  Status checkpoint(const exec::ExecContext& ctx);

  /// Split checkpoint (gems::mvcc): capture `wal_seq()` together with a
  /// pinned epoch under exclusive access, stream the snapshot to disk
  /// outside any lock via write_snapshot (ctx is the pinned epoch's
  /// immutable state; see write_snapshot_file), then call
  /// finish_checkpoint(seq) under exclusive access again — it rotates
  /// the WAL only if no writer appended past `seq` in the meantime
  /// (rotation truncates all records, so rotating past concurrent appends
  /// would lose them; skipping is safe because replay ignores records the
  /// snapshot already covers).
  std::uint64_t wal_seq() const { return wal_->last_seq(); }
  Status write_snapshot(const exec::ExecContext& ctx, std::uint64_t seq);
  Status finish_checkpoint(std::uint64_t seq);

  /// WAL, checkpoint and recovery metrics (`store.*`).
  const metrics::Registry& metrics() const { return metrics_; }

  /// WAL seq covered by the on-disk snapshot (0 = none yet this run).
  std::uint64_t last_checkpoint_seq() const { return last_checkpoint_seq_; }

  std::string snapshot_path() const { return options_.dir + "/snapshot.gsnp"; }
  std::string wal_path() const { return options_.dir + "/wal.gwal"; }

 private:
  Store(StoreOptions options, std::unique_ptr<Wal> wal)
      : options_(std::move(options)), wal_(std::move(wal)) {}

  StoreOptions options_;
  std::unique_ptr<Wal> wal_;
  std::uint64_t last_checkpoint_seq_ = 0;

  metrics::Registry metrics_;
  metrics::Counter& wal_records_ = metrics_.counter("store.wal.records");
  metrics::Counter& wal_bytes_ = metrics_.counter("store.wal.bytes");
  metrics::Histogram& wal_append_us_ =
      metrics_.histogram("store.wal.append_us");
  metrics::Counter& snapshots_written_ =
      metrics_.counter("store.snapshot.written");
  metrics::Gauge& snapshot_last_bytes_ =
      metrics_.gauge("store.snapshot.last_bytes");
  metrics::Histogram& snapshot_write_us_ =
      metrics_.histogram("store.snapshot.write_us");
};

}  // namespace gems::store
