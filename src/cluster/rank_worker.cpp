#include "cluster/rank_worker.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <thread>
#include <utility>

#include "common/bytes.hpp"
#include "common/crc32.hpp"
#include "common/logging.hpp"
#include "cluster/channel.hpp"
#include "dist/dist_matcher.hpp"
#include "dist/partition.hpp"
#include "exec/lowering.hpp"
#include "graql/ir.hpp"
#include "net/wire.hpp"
#include "store/format.hpp"
#include "store/snapshot.hpp"

namespace gems::cluster {

RankWorker::RankWorker(RankWorkerOptions options)
    : options_(std::move(options)) {
  if (options_.intra_node_threads > 0) {
    intra_pool_ = std::make_unique<ThreadPool>(options_.intra_node_threads);
  }
}

RankWorker::~RankWorker() = default;

std::string RankWorker::snapshot_path() const {
  return (std::filesystem::path(options_.store_dir) / "snapshot.gsnp")
      .string();
}

void RankWorker::recover() {
  if (options_.store_dir.empty()) return;
  Result<std::pmr::vector<std::uint8_t>> image =
      store::read_file_bytes(snapshot_path());
  if (!image.is_ok()) {
    if (image.status().code() != StatusCode::kNotFound) {
      GEMS_LOG(Warning) << "rank " << options_.rank
                        << ": unreadable state image, starting stateless: "
                        << image.status().to_string();
    }
    return;
  }
  auto fresh = std::make_unique<State>();
  Result<store::SnapshotInfo> info =
      store::decode_snapshot(*image, fresh->ctx);
  if (!info.is_ok()) {
    // A torn or stale image is not fatal: greet with CRC 0 and let the
    // coordinator re-sync.
    GEMS_LOG(Warning) << "rank " << options_.rank
                      << ": corrupt state image, starting stateless: "
                      << info.status().to_string();
    return;
  }
  state_ = std::move(fresh);
  state_crc_ = crc32(*image);
  recovered_ = true;
  GEMS_LOG(Info) << "rank " << options_.rank << " recovered state image ("
                 << image->size() << " bytes, crc " << state_crc_ << ")";
}

Status RankWorker::handle_sync(const BspFrame& frame) {
  auto fresh = std::make_unique<State>();
  Result<store::SnapshotInfo> info =
      store::decode_snapshot(frame.payload, fresh->ctx);
  if (!info.is_ok()) {
    return info.status().with_context("rank state sync");
  }
  state_ = std::move(fresh);
  state_crc_ = crc32(frame.payload);
  if (!options_.store_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.store_dir, ec);
    const Status persisted =
        store::write_file_durable(snapshot_path(), frame.payload);
    if (!persisted.is_ok()) {
      // Serving can continue in-memory; the next restart just re-syncs.
      GEMS_LOG(Warning) << "rank " << options_.rank
                        << ": could not persist state image: "
                        << persisted.to_string();
    }
  }
  BspFrame ack;
  ack.kind = BspKind::kSyncAck;
  ack.from = options_.rank;
  ByteWriter(ack.payload).u32(state_crc_);
  return send_bsp_frame(socket_, ack);
}

Status RankWorker::handle_job(const BspFrame& frame) {
  // Local (pre-collective) failures are reported with a kError reply; they
  // are deterministic over identical replicas, so every rank declines the
  // same way and nobody is left blocked in the collective.
  const auto fail = [&](const Status& status) -> Status {
    BspFrame err;
    err.kind = BspKind::kError;
    err.from = options_.rank;
    err.payload = encode_error(status);
    return send_bsp_frame(socket_, err);
  };

  Result<JobPayload> job = decode_job(frame.payload);
  if (!job.is_ok()) return fail(job.status());
  if (state_ == nullptr) {
    return fail(internal_error("rank " + std::to_string(options_.rank) +
                               " received a job before any state sync"));
  }
  exec::ExecContext& ctx = state_->ctx;

  Result<graql::Script> script = graql::decode_script(job->ir);
  if (!script.is_ok()) return fail(script.status());
  if (script->statements.size() != 1) {
    return fail(invalid_argument("cluster job IR must hold exactly one "
                                 "statement"));
  }
  const auto* stmt =
      std::get_if<graql::GraphQueryStmt>(&script->statements[0]);
  if (stmt == nullptr) {
    return fail(invalid_argument("cluster job IR is not a graph query"));
  }
  Result<relational::ParamMap> params = graql::decode_params(job->params);
  if (!params.is_ok()) return fail(params.status());

  const exec::SubgraphResolver resolver =
      [&ctx](const std::string& name) -> Result<exec::SubgraphPtr> {
    auto it = ctx.subgraphs.find(name);
    if (it == ctx.subgraphs.end()) {
      return not_found("unknown subgraph '" + name + "' on rank replica");
    }
    return it->second;
  };
  Result<exec::LoweredQuery> lowered = exec::lower_graph_query(
      *stmt, ctx.graph, resolver, *params, state_->pool);
  if (!lowered.is_ok()) return fail(lowered.status());
  if (job->network_index >= lowered->networks.size()) {
    return fail(internal_error(
        "cluster job network index " + std::to_string(job->network_index) +
        " out of range (" + std::to_string(lowered->networks.size()) +
        " networks)"));
  }
  const exec::ConstraintNetwork& net =
      lowered->networks[job->network_index];

  // Same shard formula as the in-process simulation; the send stream does
  // not depend on it (shard outboxes concatenate in word-range order).
  const std::size_t num_ranks = job->num_ranks;
  const std::size_t rank_shards =
      intra_pool_ != nullptr
          ? std::max<std::size_t>(1, intra_pool_->size() / num_ranks)
          : 1;
  const dist::VertexPartition partition(ctx.graph, num_ranks);

  RankChannel channel(socket_, static_cast<int>(options_.rank),
                      static_cast<int>(num_ranks),
                      options_.max_frame_bytes);
  dist::RankMatchOutput out;
  std::vector<std::uint8_t> transcript;
  if (job->record_transcript) {
    dist::RecordingComm recording(channel);
    dist::run_match_rank(net, ctx.graph, state_->pool, partition, recording,
                         out, intra_pool_.get(), rank_shards);
    transcript = std::move(recording.transcript());
  } else {
    dist::run_match_rank(net, ctx.graph, state_->pool, partition, channel,
                         out, intra_pool_.get(), rank_shards);
  }

  JobDonePayload done;
  done.job_id = job->job_id;
  done.messages = channel.metrics().messages;
  done.payload_bytes = channel.metrics().payload_bytes;
  done.wire_bytes = channel.metrics().wire_bytes;
  done.activations = out.activations_sent;
  done.supersteps = out.supersteps;
  done.stall_us = channel.metrics().stall_us;
  done.transcript = std::move(transcript);
  if (options_.rank == 0) {
    dist::encode_domains(out.domains, done.domains);
  }
  BspFrame reply;
  reply.kind = BspKind::kJobDone;
  reply.from = options_.rank;
  reply.payload = encode_job_done(done);
  GEMS_RETURN_IF_ERROR(send_bsp_frame(socket_, reply));
  ++jobs_run_;
  return Status::ok();
}

Status RankWorker::run() {
  recover();

  Status last = unavailable("no connection attempt made");
  for (std::uint32_t attempt = 0; attempt <= options_.connect_retries;
       ++attempt) {
    Result<net::Socket> sock = net::tcp_connect(options_.coordinator_host,
                                                options_.coordinator_port);
    if (sock.is_ok()) {
      socket_ = std::move(sock).value();
      last = Status::ok();
      break;
    }
    last = sock.status();
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.connect_backoff_ms));
  }
  GEMS_RETURN_IF_ERROR(last.with_context(
      "rank " + std::to_string(options_.rank) + " connecting to " +
      options_.coordinator_host + ":" +
      std::to_string(options_.coordinator_port)));

  HelloPayload hello;
  hello.rank = options_.rank;
  hello.state_crc = state_crc_;
  hello.worker_name = options_.worker_name;
  BspFrame greet;
  greet.kind = BspKind::kHello;
  greet.from = options_.rank;
  greet.payload = encode_hello(hello);
  GEMS_RETURN_IF_ERROR(send_bsp_frame(socket_, greet));

  Result<BspFrame> first =
      recv_bsp_frame(socket_, options_.max_frame_bytes);
  GEMS_RETURN_IF_ERROR(first.status());
  if (first->kind == BspKind::kError) {
    return decode_error(first->payload);
  }
  if (first->kind != BspKind::kWelcome) {
    return parse_error("expected a welcome frame, got " +
                       std::string(bsp_kind_name(first->kind)));
  }
  Result<WelcomePayload> welcome = decode_welcome(first->payload);
  GEMS_RETURN_IF_ERROR(welcome.status());
  GEMS_LOG(Info) << "rank " << options_.rank << " admitted ("
                 << welcome->num_ranks << " ranks, sync "
                 << (welcome->sync_needed ? "pending" : "skipped") << ")";

  for (;;) {
    Result<BspFrame> frame =
        recv_bsp_frame(socket_, options_.max_frame_bytes);
    if (!frame.is_ok()) {
      return frame.status().with_context(
          "rank " + std::to_string(options_.rank) +
          " lost the coordinator");
    }
    switch (frame->kind) {
      case BspKind::kSync:
        GEMS_RETURN_IF_ERROR(handle_sync(*frame));
        break;
      case BspKind::kJob:
        GEMS_RETURN_IF_ERROR(handle_job(*frame));
        break;
      case BspKind::kError:
        // A job this rank already finished (or declined) failed on a peer;
        // between jobs there is nothing to unwind.
        break;
      case BspKind::kShutdown:
        GEMS_LOG(Info) << "rank " << options_.rank << " shutting down ("
                       << jobs_run_ << " jobs)";
        return Status::ok();
      default:
        return parse_error("rank " + std::to_string(options_.rank) +
                           " received an unexpected " +
                           std::string(bsp_kind_name(frame->kind)) +
                           " frame");
    }
  }
}

}  // namespace gems::cluster
