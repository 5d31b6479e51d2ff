#include "cluster/coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "cluster/bsp_wire.hpp"
#include "common/bytes.hpp"
#include "common/crc32.hpp"
#include "common/logging.hpp"
#include "dist/dist_matcher.hpp"
#include "graql/ir.hpp"
#include "net/wire.hpp"
#include "store/snapshot.hpp"

namespace gems::cluster {

namespace {

/// True when any vertex step of the query seeds from a previous result
/// (Fig. 12). Seeded queries stay on the front-end: the seed may live in
/// a script-local overlay that rank replicas never see.
bool element_has_seed(const graql::PathElement& el);

bool group_has_seed(const graql::PathGroup& g) {
  return std::any_of(g.body.begin(), g.body.end(), element_has_seed);
}

bool element_has_seed(const graql::PathElement& el) {
  if (const auto* v = std::get_if<graql::VertexStep>(&el)) {
    return !v->seed_result.empty();
  }
  if (const auto* g = std::get_if<graql::PathGroup>(&el)) {
    return group_has_seed(*g);
  }
  return false;
}

bool query_has_seed(const graql::GraphQueryStmt& stmt) {
  for (const auto& group : stmt.or_groups) {
    for (const auto& path : group) {
      if (std::any_of(path.elements.begin(), path.elements.end(),
                      element_has_seed)) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

Coordinator::Coordinator(server::Database& db, CoordinatorOptions options)
    : db_(db),
      options_(std::move(options)),
      ranks_(db.metrics().gauge("cluster.ranks")),
      jobs_(db.metrics().counter("cluster.jobs")),
      fallbacks_(db.metrics().counter("cluster.fallbacks")),
      syncs_(db.metrics().counter("cluster.syncs")),
      sync_bytes_(db.metrics().counter("cluster.sync_bytes")),
      syncs_at_construction_(syncs_.value()) {
  GEMS_CHECK(options_.num_ranks >= 1);
  conns_.reserve(options_.num_ranks);
  rank_metrics_.reserve(options_.num_ranks);
  metrics::Registry& registry = db.metrics();
  for (std::size_t r = 0; r < options_.num_ranks; ++r) {
    conns_.push_back(std::make_unique<RankConn>());
    const std::string p = "cluster.rank." + std::to_string(r) + ".";
    rank_metrics_.push_back(RankMetrics{
        registry.gauge(p + "connected"), registry.counter(p + "jobs"),
        registry.counter(p + "messages"), registry.counter(p + "payload_bytes"),
        registry.counter(p + "wire_bytes"), registry.counter(p + "supersteps"),
        registry.counter(p + "stall_us")});
  }
  rank_status_.resize(options_.num_ranks);
}

Coordinator::~Coordinator() { shutdown(); }

Status Coordinator::start() {
  GEMS_ASSIGN_OR_RETURN(
      listener_, net::tcp_listen(options_.bind_address, options_.port));
  GEMS_ASSIGN_OR_RETURN(port_, net::local_port(listener_));

  // Prime the state image so admission can compare rank CRCs at once.
  std::uint64_t version = 0;
  std::vector<std::uint8_t> image = db_.snapshot_bytes(&version);
  {
    sync::MutexLock lock(state_mutex_);
    state_crc_ = crc32(image);
    state_bytes_ = std::move(image);
    state_version_ = version;
  }

  started_ = true;
  accept_thread_ = std::thread([this] { accept_loop(); });
  return Status::ok();
}

Status Coordinator::wait_for_ranks() {
  sync::MutexLock jobs_lock(jobs_mutex_);
  for (std::size_t r = 0; r < options_.num_ranks; ++r) {
    GEMS_RETURN_IF_ERROR(ensure_rank_synced(static_cast<std::uint32_t>(r)));
  }
  return Status::ok();
}

void Coordinator::attach() {
  db_.context().dist_matcher =
      [this](const graql::GraphQueryStmt& stmt, std::size_t network_index,
             const exec::ConstraintNetwork& net,
             const relational::ParamMap& params,
             const exec::ExecContext& ctx)
      -> Result<exec::MatchResult> {
    Result<exec::MatchResult> result =
        match_distributed(stmt, network_index, net, params, ctx);
    if (!result.is_ok() &&
        result.status().code() == StatusCode::kUnimplemented) {
      fallbacks_.add();
    }
    return result;
  };
  ranks_.set(options_.num_ranks);
  attached_ = true;
  // Re-publish so read scripts (which execute against pinned epochs) see
  // the hook: epochs snapshotted before the attach do not carry it.
  db_.refresh_epoch();
}

Result<exec::MatchResult> Coordinator::match_distributed(
    const graql::GraphQueryStmt& stmt, std::size_t network_index,
    const exec::ConstraintNetwork& net, const relational::ParamMap& params,
    const exec::ExecContext& ctx) {
  // ---- Eligibility: what the BSP fixpoint does not cover runs locally.
  GEMS_RETURN_IF_ERROR(dist::distributable(net));
  if (stmt.into == graql::IntoKind::kSubgraph && !net.groups.empty()) {
    return unimplemented(
        "group interiors for subgraph output are derived on the "
        "front-end; running this network locally");
  }
  if (query_has_seed(stmt)) {
    return unimplemented(
        "result-seeded queries resolve against the front-end catalog; "
        "running this network locally");
  }

  // One collective job at a time on the wire.
  sync::MutexLock jobs_lock(jobs_mutex_);

  // `ctx` is the state the query executes against — a pinned epoch's
  // immutable snapshot on the read path (safe to encode with no lock), or
  // the live context under exclusive access on the writer path. Syncing
  // ranks from it keeps distributed and local results consistent.
  refresh_state(ctx);

  for (std::size_t r = 0; r < options_.num_ranks; ++r) {
    GEMS_RETURN_IF_ERROR(ensure_rank_synced(static_cast<std::uint32_t>(r)));
  }

  // A fresh job starts with clean collective state: any queued control
  // events are leftovers of a failed predecessor, and a dead rank cannot
  // be stuck in a barrier (jobs are serialized).
  {
    sync::MutexLock lock(barrier_mutex_);
    barrier_arrivals_ = 0;
  }
  {
    sync::MutexLock lock(control_mutex_);
    control_.clear();
  }

  const std::uint64_t job_id = next_job_id_++;  // under jobs_mutex_
  JobPayload job;
  job.job_id = job_id;
  job.num_ranks = static_cast<std::uint32_t>(options_.num_ranks);
  job.network_index = static_cast<std::uint32_t>(network_index);
  job.record_transcript = options_.record_transcripts;
  {
    // Rank replicas re-lower the statement deterministically, so the job
    // ships source IR, not lowered networks.
    graql::Script script;
    script.statements.emplace_back(stmt);
    job.ir = graql::encode_script(script);
  }
  job.params = graql::encode_params(params);

  const std::vector<std::uint8_t> job_bytes = encode_job(job);
  for (std::size_t r = 0; r < options_.num_ranks; ++r) {
    BspFrame frame;
    frame.kind = BspKind::kJob;
    frame.dest = static_cast<std::uint32_t>(r);
    frame.payload = job_bytes;
    enqueue(static_cast<std::uint32_t>(r), std::move(frame));
  }

  // ---- Collect one kJobDone per rank ----------------------------------
  std::vector<std::optional<JobDonePayload>> done(options_.num_ranks);
  std::size_t remaining = options_.num_ranks;
  Status failure = Status::ok();
  while (remaining > 0) {
    Result<BspFrame> ev = await_control(options_.rank_wait_timeout_ms);
    if (!ev.is_ok()) {
      failure = ev.status();
      break;
    }
    BspFrame frame = std::move(ev).value();
    if (frame.kind == BspKind::kError) {
      failure = decode_error(frame.payload);
      break;
    }
    Result<JobDonePayload> decoded = decode_job_done(frame.payload);
    if (!decoded.is_ok()) {
      failure = decoded.status();
      break;
    }
    JobDonePayload report = std::move(decoded).value();
    if (report.job_id != job_id) continue;  // stale, from a failed job
    const std::uint32_t r = frame.from;
    if (r >= options_.num_ranks || done[r].has_value()) {
      failure = parse_error("cluster job report from unexpected rank " +
                            std::to_string(r));
      break;
    }
    done[r] = std::move(report);
    --remaining;
  }

  if (!failure.is_ok()) {
    // Abort the collective: survivors between jobs ignore the kError;
    // a rank blocked mid-superstep fail-stops and is restarted by its
    // supervisor with its store-recovered state (see DESIGN §5h).
    BspFrame abort_frame;
    abort_frame.kind = BspKind::kError;
    abort_frame.payload = encode_error(failure);
    for (std::size_t r = 0; r < options_.num_ranks; ++r) {
      enqueue(static_cast<std::uint32_t>(r), BspFrame(abort_frame));
    }
    if (failure.code() == StatusCode::kUnavailable ||
        failure.code() == StatusCode::kDeadlineExceeded) {
      return unavailable("cluster rank became unavailable during the "
                         "distributed match; re-run the script (" +
                         failure.to_string() + ")");
    }
    return failure;
  }

  // ---- Merge: rank 0 carries the gathered domains ----------------------
  // Against `ctx`, the state the ranks were synced from: the live graph
  // may have moved on under a concurrent ingest.
  GEMS_ASSIGN_OR_RETURN(
      std::vector<exec::Domain> domains,
      dist::decode_domains(done[0]->domains, net, ctx.graph));
  exec::MatchResult result;
  result.domains = std::move(domains);
  result.matched_edges = exec::matched_edge_sets(
      net, ctx.graph, *ctx.pool, result.domains, /*stats=*/nullptr);

  // ---- Account ---------------------------------------------------------
  jobs_.add();
  for (std::size_t r = 0; r < options_.num_ranks; ++r) {
    RankMetrics& m = rank_metrics_[r];
    const JobDonePayload& report = *done[r];
    m.jobs.add();
    m.messages.add(report.messages);
    m.payload_bytes.add(report.payload_bytes);
    m.wire_bytes.add(report.wire_bytes);
    m.supersteps.add(report.supersteps);
    m.stall_us.add(report.stall_us);
  }
  if (options_.record_transcripts) {
    sync::MutexLock lock(transcripts_mutex_);
    last_transcripts_.assign(options_.num_ranks, {});
    for (std::size_t r = 0; r < options_.num_ranks; ++r) {
      last_transcripts_[r] = std::move(done[r]->transcript);
    }
  }
  return result;
}

std::vector<std::vector<std::uint8_t>> Coordinator::last_transcripts()
    const {
  sync::MutexLock lock(transcripts_mutex_);
  return last_transcripts_;
}

void Coordinator::shutdown() {
  if (stopping_.exchange(true)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  if (attached_) {
    db_.context().dist_matcher = nullptr;
    ranks_.set(0);
    attached_ = false;
    // New epochs must not carry a hook into a coordinator being torn down.
    db_.refresh_epoch();
  }
  // Ask every live rank to exit; the writer drains the outbox (so the
  // kShutdown really goes out) before stopping.
  for (std::size_t r = 0; r < conns_.size(); ++r) {
    RankConn& conn = *conns_[r];
    bool live = false;
    {
      sync::MutexLock lock(control_mutex_);
      live = rank_status_[r].connected;
    }
    if (live) {
      BspFrame frame;
      frame.kind = BspKind::kShutdown;
      frame.dest = static_cast<std::uint32_t>(r);
      enqueue(static_cast<std::uint32_t>(r), std::move(frame));
    }
    {
      sync::MutexLock lock(conn.mutex);
      conn.writer_stop = true;
    }
    conn.cv.notify_all();
  }
  for (auto& conn_ptr : conns_) {
    RankConn& conn = *conn_ptr;
    if (conn.writer.joinable()) conn.writer.join();
    conn.socket.shutdown();  // unblocks the reader
    if (conn.reader.joinable()) conn.reader.join();
  }
  if (started_) listener_.shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
}

// ---- Internals -------------------------------------------------------------

void Coordinator::accept_loop() {
  while (!stopping_.load()) {
    Result<net::Socket> accepted = net::tcp_accept(listener_);
    if (stopping_.load()) return;
    if (!accepted.is_ok()) {
      if (!listener_.valid()) return;
      continue;
    }
    net::Socket sock = std::move(accepted).value();

    // Admission: the first frame must be a hello naming a valid rank.
    Result<BspFrame> first =
        recv_bsp_frame(sock, options_.max_frame_bytes);
    if (!first.is_ok() || first->kind != BspKind::kHello) {
      GEMS_LOG(Warning) << "cluster: dropping connection without hello";
      continue;
    }
    Result<HelloPayload> hello = decode_hello(first->payload);
    if (!hello.is_ok() ||
        hello->rank >= static_cast<std::uint32_t>(options_.num_ranks)) {
      GEMS_LOG(Warning) << "cluster: dropping connection with bad hello";
      continue;
    }
    const std::uint32_t r = hello->rank;
    RankConn& conn = *conns_[r];
    {
      sync::MutexLock lock(control_mutex_);
      if (rank_status_[r].connected) {
        GEMS_LOG(Warning) << "cluster: duplicate rank " << r
                          << " connection rejected";
        continue;
      }
    }
    // A previous session's threads may still be unwinding.
    if (conn.reader.joinable()) conn.reader.join();
    if (conn.writer.joinable()) conn.writer.join();

    std::uint32_t current_crc = 0;
    {
      sync::MutexLock lock(state_mutex_);
      current_crc = state_crc_;
    }
    WelcomePayload welcome;
    welcome.num_ranks = static_cast<std::uint32_t>(options_.num_ranks);
    welcome.sync_needed = hello->state_crc != current_crc;
    BspFrame wf;
    wf.kind = BspKind::kWelcome;
    wf.dest = r;
    wf.payload = encode_welcome(welcome);
    if (!send_bsp_frame(sock, wf).is_ok()) continue;

    conn.socket = std::move(sock);
    {
      sync::MutexLock lock(conn.mutex);
      conn.outbox.clear();
      conn.writer_stop = false;
    }
    {
      sync::MutexLock lock(control_mutex_);
      rank_status_[r].connected = true;
      rank_status_[r].state_crc = hello->state_crc;
      rank_metrics_[r].connected.set(1);
    }
    control_cv_.notify_all();
    conn.reader = std::thread([this, r] { reader_loop(r); });
    conn.writer = std::thread([this, r] { writer_loop(r); });
    GEMS_LOG(Info) << "cluster: rank " << r << " connected ("
                   << hello->worker_name << ", state "
                   << (welcome.sync_needed ? "stale" : "current") << ")";
  }
}

void Coordinator::reader_loop(std::uint32_t rank) {
  RankConn& conn = *conns_[rank];
  for (;;) {
    Result<BspFrame> frame =
        recv_bsp_frame(conn.socket, options_.max_frame_bytes);
    if (!frame.is_ok()) {
      disconnect(rank);
      return;
    }
    switch (frame->kind) {
      case BspKind::kData: {
        const std::uint32_t dest = frame->dest;
        if (dest >= static_cast<std::uint32_t>(options_.num_ranks)) {
          GEMS_LOG(Warning) << "cluster: rank " << rank
                            << " sent data to bogus rank " << dest;
          break;
        }
        frame->from = rank;  // the star routes; the origin authenticates
        enqueue(dest, std::move(frame).value());
        break;
      }
      case BspKind::kBarrier: {
        std::size_t arrivals = 0;
        {
          sync::MutexLock lock(barrier_mutex_);
          arrivals = ++barrier_arrivals_;
          if (arrivals == options_.num_ranks) barrier_arrivals_ = 0;
        }
        if (arrivals == options_.num_ranks) {
          for (std::size_t r = 0; r < options_.num_ranks; ++r) {
            BspFrame release;
            release.kind = BspKind::kBarrierRelease;
            release.dest = static_cast<std::uint32_t>(r);
            enqueue(static_cast<std::uint32_t>(r), std::move(release));
          }
        }
        break;
      }
      case BspKind::kSyncAck: {
        ByteReader r(frame->payload, StatusCode::kParseError,
                     "malformed sync ack");
        Result<std::uint32_t> crc = r.u32();
        if (crc.is_ok()) {
          sync::MutexLock lock(control_mutex_);
          rank_status_[rank].state_crc = crc.value();
        }
        control_cv_.notify_all();
        break;
      }
      case BspKind::kJobDone:
      case BspKind::kError: {
        frame->from = rank;
        post_control(rank, std::move(frame).value());
        break;
      }
      default:
        GEMS_LOG(Warning) << "cluster: rank " << rank
                          << " sent unexpected "
                          << bsp_kind_name(frame->kind) << " frame";
        disconnect(rank);
        return;
    }
  }
}

void Coordinator::writer_loop(std::uint32_t rank) {
  RankConn& conn = *conns_[rank];
  for (;;) {
    BspFrame frame;
    {
      sync::MutexLock lock(conn.mutex);
      while (!conn.writer_stop && conn.outbox.empty()) {
        conn.cv.wait(conn.mutex);
      }
      if (conn.outbox.empty()) return;  // stopped and drained
      frame = std::move(conn.outbox.front());
      conn.outbox.pop_front();
    }
    if (!send_bsp_frame(conn.socket, frame).is_ok()) return;
  }
}

void Coordinator::enqueue(std::uint32_t rank, BspFrame frame) {
  RankConn& conn = *conns_[rank];
  {
    sync::MutexLock lock(conn.mutex);
    if (conn.writer_stop) return;
    conn.outbox.push_back(std::move(frame));
  }
  conn.cv.notify_one();
}

void Coordinator::post_control(std::uint32_t rank,
                               std::optional<BspFrame> frame) {
  {
    sync::MutexLock lock(control_mutex_);
    control_.push_back(ControlEvent{rank, std::move(frame)});
  }
  control_cv_.notify_all();
}

void Coordinator::disconnect(std::uint32_t rank) {
  RankConn& conn = *conns_[rank];
  conn.socket.shutdown();
  {
    sync::MutexLock lock(conn.mutex);
    conn.writer_stop = true;
  }
  conn.cv.notify_all();
  bool was_connected = false;
  {
    sync::MutexLock lock(control_mutex_);
    was_connected = rank_status_[rank].connected;
    rank_status_[rank].connected = false;
    rank_metrics_[rank].connected.set(0);
  }
  if (was_connected) {
    GEMS_LOG(Info) << "cluster: rank " << rank << " disconnected";
    post_control(rank, std::nullopt);
  }
}

void Coordinator::refresh_state(const exec::ExecContext& ctx) {
  sync::MutexLock lock(state_mutex_);
  if (state_version_ == ctx.graph_version) return;
  state_bytes_ = store::encode_snapshot(ctx, /*wal_seq=*/0);
  state_crc_ = crc32(state_bytes_);
  state_version_ = ctx.graph_version;
}

bool Coordinator::admitted(std::uint32_t rank) const {
  return rank_status_[rank].connected &&
         !net::peer_closed(conns_[rank]->socket);
}

Status Coordinator::ensure_rank_synced(std::uint32_t rank) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.rank_wait_timeout_ms);
  std::uint32_t want = 0;
  {
    sync::MutexLock lock(state_mutex_);
    want = state_crc_;
  }
  {
    sync::MutexLock lock(control_mutex_);
    while (!admitted(rank)) {
      if (!control_cv_.wait_until(control_mutex_, deadline) &&
          !admitted(rank)) {
        return unavailable("cluster rank " + std::to_string(rank) +
                           " is not connected; re-run the script");
      }
    }
    if (rank_status_[rank].state_crc == want) return Status::ok();
  }

  BspFrame sync_frame;
  sync_frame.kind = BspKind::kSync;
  sync_frame.dest = rank;
  {
    sync::MutexLock lock(state_mutex_);
    sync_frame.payload = state_bytes_;
  }
  const std::size_t image_bytes = sync_frame.payload.size();
  enqueue(rank, std::move(sync_frame));
  syncs_.add();
  sync_bytes_.add(image_bytes);

  sync::MutexLock lock(control_mutex_);
  while (rank_status_[rank].connected &&
         rank_status_[rank].state_crc != want) {
    if (!control_cv_.wait_until(control_mutex_, deadline) &&
        rank_status_[rank].connected &&
        rank_status_[rank].state_crc != want) {
      return unavailable("cluster rank " + std::to_string(rank) +
                         " state sync timed out; re-run the script");
    }
  }
  if (!rank_status_[rank].connected) {
    return unavailable("cluster rank " + std::to_string(rank) +
                       " disconnected during state sync; re-run the "
                       "script");
  }
  return Status::ok();
}

Result<BspFrame> Coordinator::await_control(std::uint32_t timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  sync::MutexLock lock(control_mutex_);
  while (control_.empty()) {
    if (!control_cv_.wait_until(control_mutex_, deadline) &&
        control_.empty()) {
      return deadline_exceeded("timed out waiting for cluster ranks");
    }
  }
  ControlEvent& ev = control_.front();
  if (!ev.frame.has_value()) {
    const std::uint32_t rank = ev.rank;
    control_.pop_front();
    return unavailable("cluster rank " + std::to_string(rank) +
                       " disconnected");
  }
  BspFrame frame = std::move(*ev.frame);
  control_.pop_front();
  return frame;
}

}  // namespace gems::cluster
