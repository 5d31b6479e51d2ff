// The cluster coordinator: owns the catalog (a server::Database), accepts
// rank worker connections, keeps their state images in sync, routes
// rank-to-rank BSP traffic (star topology), dispatches distributed match
// jobs and merges rank results — the front-end/backend split of the
// paper's GEMS architecture (Sec. III) across real process boundaries.
//
// Threading model. One accept thread admits ranks; each connected rank
// gets a reader thread (dispatches kData/kBarrier to routing state,
// everything else to the control inbox) and a writer thread draining an
// unbounded outbox queue. Routing through queues — never writing a peer's
// socket from a reader — means a slow rank can never deadlock the star.
// Jobs are serialized by a coordinator-level mutex: concurrent read
// scripts may both reach the dist_matcher hook, but the BSP wire runs one
// collective job at a time.
//
// Recovery contract. A rank greeting with the CRC of the coordinator's
// current state image skips the sync (the restart fast path: it recovered
// the identical image from its per-rank store directory). A rank dying
// mid-job fails that job with a typed retryable kUnavailable; net::Client
// and the shell auto-retry once, by which time the returned rank has been
// re-admitted.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/bsp_wire.hpp"
#include "common/metrics.hpp"
#include "common/status.hpp"
#include "common/sync.hpp"
#include "exec/matcher.hpp"
#include "net/socket.hpp"
#include "server/database.hpp"

namespace gems::cluster {

struct CoordinatorOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral (tests); port() reports the bound port.
  std::uint16_t port = 0;
  std::size_t num_ranks = 2;
  std::size_t max_frame_bytes = kDefaultMaxBspFrameBytes;
  /// Ask ranks to record their send streams and keep the last job's
  /// per-rank transcripts (the byte-identity oracle's wire side).
  bool record_transcripts = false;
  /// How long wait_for_ranks()/jobs wait for a rank before giving up.
  std::uint32_t rank_wait_timeout_ms = 30000;
};

class Coordinator {
 public:
  /// Registers the `cluster.*` metrics (totals and `cluster.rank.<r>.*`)
  /// in the database's registry; they count for the database's lifetime.
  /// `cluster.ranks` is the rank count while attached and 0 otherwise;
  /// per-rank records at or above it are history from an earlier
  /// coordinator (disconnected, no longer moving).
  Coordinator(server::Database& db, CoordinatorOptions options);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Binds the listener and starts the accept loop.
  Status start();

  /// Bound port (valid after start()).
  std::uint16_t port() const { return port_; }

  /// Blocks until every rank is connected and state-synced (or the rank
  /// wait timeout elapses).
  Status wait_for_ranks();

  /// Installs the distributed-matcher hook on the database and sets the
  /// `cluster.ranks` gauge (0 again once detached). Call after start().
  void attach();

  /// Runs one distributed match over the connected ranks. kUnimplemented
  /// when the network is not distributable (caller falls back to the
  /// local matcher); kUnavailable when a rank is down (typed, retryable).
  Result<exec::MatchResult> match_distributed(
      const graql::GraphQueryStmt& stmt, std::size_t network_index,
      const exec::ConstraintNetwork& net,
      const relational::ParamMap& params, const exec::ExecContext& ctx);

  /// Per-rank send streams of the last completed job (only populated when
  /// options.record_transcripts is set).
  std::vector<std::vector<std::uint8_t>> last_transcripts() const;

  /// State images this coordinator shipped (the recovery tests assert a
  /// restarted rank does NOT bump this).
  std::uint64_t sync_count() const {
    return syncs_.value() - syncs_at_construction_;
  }

  /// Sends kShutdown to every connected rank and joins all threads.
  /// Idempotent; also run by the destructor.
  void shutdown();

 private:
  struct RankConn {
    net::Socket socket;
    std::thread reader;
    std::thread writer;

    sync::Mutex mutex;
    sync::CondVar cv;
    std::deque<BspFrame> outbox GEMS_GUARDED_BY(mutex);
    bool writer_stop GEMS_GUARDED_BY(mutex) = false;
  };

  /// Admission / state-sync view of one rank. Lives in the coordinator
  /// (rank_status_, guarded by control_mutex_) rather than in RankConn:
  /// its old home left the fields guarded by *another object's* mutex, a
  /// relationship the thread safety analysis cannot express — now the
  /// data and its capability share one owner.
  struct RankStatus {
    bool connected = false;
    std::uint32_t state_crc = 0;  // last greeted/acked image CRC
  };

  /// A control frame (kJobDone / kSyncAck / kError) from a rank, or a
  /// disconnect notice (frame absent).
  struct ControlEvent {
    std::uint32_t rank = 0;
    std::optional<BspFrame> frame;  // nullopt = rank disconnected
  };

  void accept_loop();
  void reader_loop(std::uint32_t rank);
  void writer_loop(std::uint32_t rank);
  void enqueue(std::uint32_t rank, BspFrame frame);
  void post_control(std::uint32_t rank, std::optional<BspFrame> frame);
  void disconnect(std::uint32_t rank);

  /// Re-encodes the cached state image from `ctx` when the graph version
  /// moved. `ctx` must be quiescent for the duration of the encode — a
  /// pinned epoch's immutable context, or the live one under exclusive
  /// access.
  void refresh_state(const exec::ExecContext& ctx);

  /// Ensures `rank` holds the current image: ships kSync and waits for
  /// the ack when its CRC differs. The REQUIRES annotation replaces the
  /// old "expects jobs_mutex_ held" comment — calling it without the job
  /// lock is now a compile error under clang.
  Status ensure_rank_synced(std::uint32_t rank) GEMS_REQUIRES(jobs_mutex_);

  /// Whether `rank` is connected and its socket has not hung up: a rank
  /// that died is gone before its reader sees the close, and a job sent
  /// to it would fail-stop its peers in their first barrier. Polling
  /// under control_mutex_ while `connected` holds is race-free: the
  /// accept thread replaces the socket only while it does not.
  bool admitted(std::uint32_t rank) const GEMS_REQUIRES(control_mutex_);

  /// Waits for the next control event (kJobDone/kError/disconnect).
  Result<BspFrame> await_control(std::uint32_t timeout_ms);

  server::Database& db_;
  CoordinatorOptions options_;
  net::Socket listener_;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  bool attached_ = false;

  std::vector<std::unique_ptr<RankConn>> conns_;

  // Lock order: jobs_mutex_ is the job driver's outermost lock; the four
  // leaf mutexes below are taken (never nested in each other) under it.
  // The ACQUIRED_BEFORE edges make an inversion a clang compile error.

  // One BSP job at a time.
  sync::Mutex jobs_mutex_ GEMS_ACQUIRED_BEFORE(barrier_mutex_,
                                               control_mutex_, state_mutex_,
                                               transcripts_mutex_);
  std::uint64_t next_job_id_ GEMS_GUARDED_BY(jobs_mutex_) = 1;

  // Barrier state: release every rank's outbox once all arrive.
  sync::Mutex barrier_mutex_;
  std::size_t barrier_arrivals_ GEMS_GUARDED_BY(barrier_mutex_) = 0;

  // Control inbox: reader threads post, the job driver consumes. Also
  // guards rank_status_ (waiters use control_cv_): admission, disconnect,
  // and the state-sync handshake.
  mutable sync::Mutex control_mutex_;
  sync::CondVar control_cv_;
  std::deque<ControlEvent> control_ GEMS_GUARDED_BY(control_mutex_);
  std::vector<RankStatus> rank_status_ GEMS_GUARDED_BY(control_mutex_);

  // Cached state image (what every rank must hold before a job).
  mutable sync::Mutex state_mutex_;
  std::vector<std::uint8_t> state_bytes_ GEMS_GUARDED_BY(state_mutex_);
  std::uint32_t state_crc_ GEMS_GUARDED_BY(state_mutex_) = 0;
  // ctx.graph_version at encode.
  std::uint64_t state_version_ GEMS_GUARDED_BY(state_mutex_) = ~0ull;

  mutable sync::Mutex transcripts_mutex_;
  std::vector<std::vector<std::uint8_t>> last_transcripts_
      GEMS_GUARDED_BY(transcripts_mutex_);

  // Handles into the database's registry. The per-rank counters add up
  // the ChannelMetrics each rank reports in its kJobDone.
  struct RankMetrics {
    metrics::Gauge& connected;
    metrics::Counter& jobs;           // distributed matches this rank ran
    metrics::Counter& messages;       // BSP messages sent (excl. self-sends)
    metrics::Counter& payload_bytes;  // BSP payload bytes (sim-comparable)
    metrics::Counter& wire_bytes;     // frame bytes incl. headers
    metrics::Counter& supersteps;     // counted on rank 0 only
    metrics::Counter& stall_us;       // blocked waiting on the wire
  };
  metrics::Gauge& ranks_;        // rank count while attached, else 0
  metrics::Counter& jobs_;       // distributed matches completed
  metrics::Counter& fallbacks_;  // networks declined (ran locally)
  metrics::Counter& syncs_;      // state images shipped to ranks
  metrics::Counter& sync_bytes_;
  std::vector<RankMetrics> rank_metrics_;
  const std::uint64_t syncs_at_construction_;
};

}  // namespace gems::cluster
