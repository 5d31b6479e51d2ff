// A rank worker process body: connects to the coordinator, recovers its
// state image from a per-rank store directory (greeting with the image's
// CRC so an up-to-date restart skips the re-sync), then serves BSP match
// jobs until the coordinator shuts the cluster down.
//
// The worker is the paper's "backend node" made literal: it holds a full
// replica of the catalog state (shipped as a deterministic store snapshot
// image), re-lowers each job's statement IR locally, and runs the same
// `dist::run_match_rank` body the in-process simulation runs — over a
// `RankChannel` instead of a SimCluster mailbox, which is what makes the
// socket BSP stream byte-identical to the simulated one.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "cluster/bsp_wire.hpp"
#include "common/status.hpp"
#include "exec/executor.hpp"
#include "net/socket.hpp"

namespace gems::cluster {

struct RankWorkerOptions {
  std::string coordinator_host = "127.0.0.1";
  std::uint16_t coordinator_port = 0;
  std::uint32_t rank = 0;
  /// Per-rank state directory: the last synced snapshot image lives at
  /// `<store_dir>/snapshot.gsnp` and is recovered on restart. Empty =
  /// in-memory only (every admission re-syncs).
  std::string store_dir;
  std::size_t max_frame_bytes = kDefaultMaxBspFrameBytes;
  /// Connection retry budget: the coordinator may not be listening yet
  /// (process start order is not guaranteed), or the worker is restarting
  /// after a fail-stop mid-job.
  std::uint32_t connect_retries = 40;
  std::uint32_t connect_backoff_ms = 50;
  std::string worker_name = "gems-rank";
};

class RankWorker {
 public:
  explicit RankWorker(RankWorkerOptions options);
  ~RankWorker();

  RankWorker(const RankWorker&) = delete;
  RankWorker& operator=(const RankWorker&) = delete;

  /// Recovers local state, connects (with retries), greets, and serves
  /// frames until kShutdown (returns OK) or the coordinator goes away
  /// (returns the transport error). Protocol violations and mid-job
  /// transport failures are fail-stop (GEMS_CHECK aborts the process, the
  /// supervisor restarts it) — see RankChannel.
  Status run();

  // ---- Observability (for in-thread harness tests) ---------------------
  std::uint64_t jobs_run() const noexcept { return jobs_run_; }
  /// True when run() restored a usable snapshot image from store_dir.
  bool recovered() const noexcept { return recovered_; }
  std::uint32_t state_crc() const noexcept { return state_crc_; }

 private:
  /// One replica generation: pool + context are replaced wholesale on
  /// every sync (decode_snapshot requires a fresh context).
  struct State {
    StringPool pool;
    exec::ExecContext ctx;
    State() { ctx.pool = &pool; }
  };

  std::string snapshot_path() const;
  /// Loads and decodes `<store_dir>/snapshot.gsnp` if present and intact;
  /// a missing or corrupt image just leaves the worker stateless (the
  /// coordinator heals it with a sync).
  void recover();
  /// Applies a kSync frame: decode into a fresh state, persist the raw
  /// image atomically, ack with the image CRC.
  Status handle_sync(const BspFrame& frame);
  /// Runs one kJob frame and replies kJobDone (or kError on local
  /// failure, e.g. an undecodable job or a non-lowerable statement).
  Status handle_job(const BspFrame& frame);

  RankWorkerOptions options_;
  net::Socket socket_;
  std::unique_ptr<State> state_;
  std::uint32_t state_crc_ = 0;
  std::uint64_t jobs_run_ = 0;
  bool recovered_ = false;
};

}  // namespace gems::cluster
