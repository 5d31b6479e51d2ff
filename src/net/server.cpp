#include "net/server.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/logging.hpp"
#include "graql/ir.hpp"

namespace gems::net {

using Clock = std::chrono::steady_clock;

namespace {

std::uint64_t elapsed_us(Clock::time_point from, Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

}  // namespace

/// One connected client: the socket, its write lock (reader thread and
/// any worker may respond), and the best-effort cancel set.
struct Server::SessionConn {
  Socket socket;
  std::uint64_t session_id = 0;
  sync::Mutex write_mutex;
  sync::Mutex cancel_mutex;
  std::unordered_set<std::uint64_t> cancelled GEMS_GUARDED_BY(cancel_mutex);

  bool is_cancelled(std::uint64_t request_id) {
    sync::MutexLock lock(cancel_mutex);
    return cancelled.erase(request_id) > 0;
  }
};

struct Server::Request {
  std::shared_ptr<SessionConn> session;
  Verb verb = Verb::kRunScript;
  std::uint64_t request_id = 0;
  std::vector<std::uint8_t> payload;
  std::size_t bytes_in = 0;
  Clock::time_point arrival;
};

Server::Server(server::Database& db, ServerOptions options)
    : db_(db), options_(std::move(options)) {
  if (options_.num_workers == 0) options_.num_workers = 1;
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
}

Server::~Server() { stop(); }

metrics::Snapshot Server::metrics_snapshot() const {
  metrics::Snapshot snapshot = db_.metrics_snapshot();
  metrics::merge(snapshot, metrics_.snapshot());
  return snapshot;
}

Status Server::start() {
  GEMS_ASSIGN_OR_RETURN(
      listener_, tcp_listen(options_.bind_address, options_.port));
  GEMS_ASSIGN_OR_RETURN(port_, local_port(listener_));
  running_.store(true, std::memory_order_release);
  stopping_.store(false, std::memory_order_release);
  workers_ = std::make_unique<ThreadPool>(options_.num_workers);
  for (std::size_t i = 0; i < options_.num_workers; ++i) {
    workers_->submit([this] { worker_loop(); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
  return Status::ok();
}

void Server::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);

  // Wake everything: the accept loop (listener shutdown), the workers
  // (queue cv) and any session reader blocked in recv (socket shutdown).
  // The listener fd is closed only after the accept thread joins, so the
  // kernel cannot recycle its fd number under a racing accept() call.
  listener_.shutdown();
  queue_cv_.notify_all();
  {
    sync::MutexLock lock(sessions_mutex_);
    for (const auto& session : sessions_) session->socket.shutdown();
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();
  // Swap the reader threads out under the lock, join them outside it:
  // joining under sessions_mutex_ would deadlock with a reader blocked
  // on that same lock (and the analysis would flag the unlocked
  // traversal the old code did after the accept join).
  std::vector<std::thread> readers;
  {
    sync::MutexLock lock(sessions_mutex_);
    readers.swap(session_threads_);
  }
  for (auto& t : readers) {
    if (t.joinable()) t.join();
  }
  workers_.reset();  // joins the drain tasks
  {
    sync::MutexLock lock(sessions_mutex_);
    sessions_.clear();
  }
  {
    sync::MutexLock lock(shutdown_mutex_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

void Server::wait() {
  sync::MutexLock lock(shutdown_mutex_);
  while (!shutdown_requested_) shutdown_cv_.wait(shutdown_mutex_);
}

void Server::accept_loop() {
  while (running_.load(std::memory_order_acquire)) {
    auto accepted = tcp_accept(listener_);
    if (!accepted.is_ok()) {
      if (!running_.load(std::memory_order_acquire)) return;
      continue;  // transient accept failure; keep serving
    }
    auto session = std::make_shared<SessionConn>();
    session->socket = std::move(accepted).value();
    session->session_id =
        next_session_id_.fetch_add(1, std::memory_order_relaxed);
    sync::MutexLock lock(sessions_mutex_);
    if (!running_.load(std::memory_order_acquire)) return;
    sessions_.push_back(session);
    session_threads_.emplace_back(
        [this, session] { session_loop(session); });
  }
}

template <typename Body>
std::size_t Server::respond(SessionConn& session, Verb verb,
                            std::uint64_t request_id, Status status,
                            const Body& body,
                            const RequestMetrics::Outcome* outcome) {
  ByteCounter counted;
  encode_status(status, counted);
  if (status.is_ok()) body(counted);
  const std::uint64_t budget =
      std::min<std::uint64_t>(options_.max_frame_bytes, kMaxPayloadBytes);
  if (counted.written() > budget) {
    status = invalid_argument(
        "reply of " + std::to_string(counted.written()) +
        " bytes exceeds the frame budget of " + std::to_string(budget) +
        " bytes; ask for fewer rows (select top N)");
    counted = ByteCounter();
    encode_status(status, counted);
  }
  const std::uint64_t payload_bytes = counted.written();
  const std::size_t frame_bytes = kFrameHeaderBytes + payload_bytes;
  // Metrics are recorded *before* the response leaves: a client that has
  // its answer must already be visible in a stats snapshot.
  if (outcome != nullptr) {
    RequestMetrics::Outcome o = *outcome;
    o.code = status.code();
    o.bytes_out = frame_bytes;
    requests_.record(verb, o);
  }
  sync::MutexLock lock(session.write_mutex);
  StreamWriter w(std::min(kReplyBufferBytes, frame_bytes),
                 [&session](std::span<const std::uint8_t> bytes) {
                   return send_all(session.socket, bytes);
                 });
  write_frame_header(w, verb, /*is_response=*/true, request_id,
                     static_cast<std::uint32_t>(payload_bytes));
  encode_status(status, w);
  if (status.is_ok()) body(w);
  // A send failure means the client went away; the reader thread will see
  // the close and unwind, so the status is intentionally dropped here.
  (void)w.finish();
  return frame_bytes;
}

std::size_t Server::respond(SessionConn& session, Verb verb,
                            std::uint64_t request_id, const Status& status,
                            const RequestMetrics::Outcome* outcome) {
  return respond(session, verb, request_id, status, [](auto&) {}, outcome);
}

bool Server::try_enqueue(Request request) {
  {
    sync::MutexLock lock(queue_mutex_);
    if (queue_.size() >= options_.queue_capacity) return false;
    queue_.push_back(std::move(request));
  }
  queue_cv_.notify_one();
  return true;
}

void Server::session_loop(const std::shared_ptr<SessionConn>& session) {
  bool handshaken = false;
  // Half-close on every exit path so a dropped client sees EOF right away
  // instead of waiting out its receive timeout. shutdown() leaves fd_
  // untouched, so racing Server::stop() is safe; the fd is closed when
  // stop() clears the session list.
  struct FinOnExit {
    SessionConn& session;
    ~FinOnExit() { session.socket.shutdown(); }
  } fin{*session};
  while (running_.load(std::memory_order_acquire)) {
    auto frame = recv_frame(session->socket, options_.max_frame_bytes);
    if (!frame.is_ok()) {
      // EOF/reset ends the session quietly. A parse error (bad magic,
      // hostile length) leaves the byte stream unsynchronized: report it
      // on request id 0, then drop the connection — resynchronizing an
      // attacker-controlled stream is not worth the risk.
      if (frame.status().code() == StatusCode::kParseError) {
        respond(*session, Verb::kHandshake, 0, frame.status());
      }
      break;
    }
    const FrameHeader& header = frame->header;
    const Clock::time_point arrival = Clock::now();
    const std::size_t bytes_in = frame->wire_size();

    if (!handshaken && header.verb != Verb::kHandshake) {
      const Status status =
          invalid_argument("handshake required before any other verb");
      const RequestMetrics::Outcome outcome{status.code(), bytes_in, 0, 0, 0};
      respond(*session, header.verb, header.request_id, status,
              &outcome);
      break;
    }

    switch (header.verb) {
      case Verb::kHandshake: {
        auto request = decode_handshake_request(frame->payload);
        Status status = request.is_ok() ? Status::ok() : request.status();
        if (status.is_ok() && request->wire_version != kWireVersion) {
          status = invalid_argument(
              "unsupported wire version " +
              std::to_string(request->wire_version) + " (server speaks " +
              std::to_string(kWireVersion) + ")");
        }
        std::vector<std::uint8_t> body;
        if (status.is_ok()) {
          handshaken = true;
          body = encode_handshake_response(
              {kWireVersion, session->session_id, "gems-graql"});
        }
        const RequestMetrics::Outcome outcome{status.code(), bytes_in, 0, 0, 0};
        respond(*session, header.verb, header.request_id, status,
                [&](auto& w) { w.bytes(body); }, &outcome);
        if (!status.is_ok()) return;  // version mismatch: drop the session
        break;
      }
      case Verb::kCancel: {
        auto request = decode_cancel_request(frame->payload);
        Status status = request.is_ok() ? Status::ok() : request.status();
        if (status.is_ok()) {
          sync::MutexLock lock(session->cancel_mutex);
          session->cancelled.insert(request->target_request_id);
        }
        const RequestMetrics::Outcome outcome{status.code(), bytes_in, 0, 0, 0};
        respond(*session, header.verb, header.request_id, status,
                &outcome);
        break;
      }
      case Verb::kStats: {
        std::vector<std::uint8_t> body;
        encode_snapshot(metrics_snapshot(), body);
        const RequestMetrics::Outcome outcome{StatusCode::kOk, bytes_in, 0,
                                              0, 0};
        respond(*session, header.verb, header.request_id, Status::ok(),
                [&](auto& w) { w.bytes(body); }, &outcome);
        break;
      }
      case Verb::kShutdown: {
        // Durable servers take a final checkpoint so a restart recovers
        // from the snapshot instead of replaying the whole WAL. Failure
        // is non-fatal: the WAL still covers everything acknowledged.
        if (db_.durable()) {
          const Status ckpt = db_.checkpoint();
          if (!ckpt.is_ok()) {
            GEMS_LOG(Warning) << "shutdown checkpoint failed: "
                              << ckpt.to_string();
          }
        }
        const RequestMetrics::Outcome outcome{StatusCode::kOk, bytes_in, 0,
                                              0, 0};
        respond(*session, header.verb, header.request_id, Status::ok(),
                &outcome);
        // Flip the wait() latch; the owner decides to stop(). Stopping
        // from this thread would deadlock on joining ourselves.
        {
          sync::MutexLock lock(shutdown_mutex_);
          shutdown_requested_ = true;
        }
        shutdown_cv_.notify_all();
        return;
      }
      case Verb::kRunScript:
      case Verb::kCheck:
      case Verb::kExplain:
      case Verb::kCatalog: {
        Request request;
        request.session = session;
        request.verb = header.verb;
        request.request_id = header.request_id;
        request.payload = std::move(frame->payload);
        request.bytes_in = bytes_in;
        request.arrival = arrival;
        if (!try_enqueue(std::move(request))) {
          // Admission control: reject instead of stalling the reader.
          const Status status = overloaded(
              "request queue full (" +
              std::to_string(options_.queue_capacity) +
              " pending); retry with backoff");
          const RequestMetrics::Outcome outcome{status.code(), bytes_in, 0,
                                                0, 0};
          respond(*session, header.verb, header.request_id, status,
                  &outcome);
        }
        break;
      }
    }
  }
}

void Server::worker_loop() {
  for (;;) {
    Request request;
    {
      sync::MutexLock lock(queue_mutex_);
      while (!stopping_.load(std::memory_order_acquire) && queue_.empty()) {
        queue_cv_.wait(queue_mutex_);
      }
      if (stopping_.load(std::memory_order_acquire)) return;
      request = std::move(queue_.front());
      queue_.pop_front();
    }
    process_request(request);
  }
}

void Server::process_request(Request& request) {
  const Clock::time_point dequeued = Clock::now();
  const std::uint64_t queue_wait_us = elapsed_us(request.arrival, dequeued);

  if (options_.debug_execute_delay_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.debug_execute_delay_ms));
  }

  Status status = Status::ok();
  ScriptRequest script;
  bool have_script = false;

  if (request.session->is_cancelled(request.request_id)) {
    status = cancelled("request " + std::to_string(request.request_id) +
                       " cancelled before execution");
  } else if (request.verb != Verb::kCatalog) {
    auto decoded = decode_script_request(request.payload);
    if (!decoded.is_ok()) {
      status = decoded.status();
    } else {
      script = std::move(decoded).value();
      have_script = true;
    }
  }

  if (status.is_ok() && have_script && script.deadline_ms > 0 &&
      dequeued - request.arrival >
          std::chrono::milliseconds(script.deadline_ms)) {
    status = deadline_exceeded(
        "request waited " + std::to_string(queue_wait_us / 1000) +
        " ms in queue, past its " + std::to_string(script.deadline_ms) +
        " ms deadline");
  }

  // What the verb answers with; the reply encodes it straight to the
  // socket.
  std::vector<exec::StatementResult> results;
  std::vector<std::uint8_t> diagnostics;
  std::string plan;
  std::vector<server::CatalogEntry> catalog;
  if (status.is_ok()) {
    relational::ParamMap params;
    // An empty blob means "no params" (clients skip encoding entirely in
    // that case) — don't run the decoder just to produce an empty map.
    if (have_script && !script.params.empty()) {
      auto decoded = graql::decode_params(script.params);
      if (decoded.is_ok()) {
        params = std::move(decoded).value();
      } else {
        status = decoded.status();
      }
    }
    if (status.is_ok()) {
      switch (request.verb) {
        case Verb::kRunScript: {
          auto ran = db_.run_ir(script.ir, params);
          if (ran.is_ok()) {
            results = std::move(ran).value();
          } else {
            status = ran.status();
          }
          break;
        }
        case Verb::kCheck: {
          // The response stays kOk even for a faulty script: the payload
          // carries the full structured diagnostic list (the client's
          // fail-stop wrapper reconstructs the legacy Status from it).
          auto diags = db_.check_ir(script.ir, &params);
          if (diags.is_ok()) {
            diagnostics = graql::encode_diagnostics(diags.value());
          } else {
            status = diags.status();
          }
          break;
        }
        case Verb::kExplain: {
          auto rendered = db_.explain_ir(script.ir, params);
          if (rendered.is_ok()) {
            plan = std::move(rendered).value();
          } else {
            status = rendered.status();
          }
          break;
        }
        case Verb::kCatalog:
          catalog = db_.catalog();
          break;
        default:
          status = internal_error("verb routed to worker unexpectedly");
          break;
      }
    }
  }

  const std::uint64_t execute_us = elapsed_us(dequeued, Clock::now());
  const RequestMetrics::Outcome outcome{status.code(), request.bytes_in, 0,
                                        queue_wait_us, execute_us};
  respond(
      *request.session, request.verb, request.request_id, status,
      [&](auto& w) {
        switch (request.verb) {
          case Verb::kRunScript:
            encode_results(results, w);
            break;
          case Verb::kCheck:
            w.blob(diagnostics);
            break;
          case Verb::kExplain:
            w.str(plan);
            break;
          case Verb::kCatalog:
            encode_catalog(catalog, w);
            break;
          default:
            break;
        }
      },
      &outcome);
}

}  // namespace gems::net
