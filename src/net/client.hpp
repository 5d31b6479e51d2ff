// gems::net::Client — the client library of the GEMS split (paper
// Sec. III component 1). Parses GraQL locally, compiles it to the binary
// IR with `graql::encode_script`, and ships IR + params over the wire;
// the server does static checking against the live catalog, planning and
// execution. The synchronous API mirrors `server::Database`, so code can
// switch between in-process and remote execution by swapping the object.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "common/status.hpp"
#include "common/string_pool.hpp"
#include "net/metrics.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "server/database.hpp"

namespace gems::net {

struct ClientOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// connect() attempts: 1 + this many retries, with exponential backoff
  /// starting at `retry_backoff_ms` (doubling each attempt).
  int connect_retries = 4;
  std::uint32_t retry_backoff_ms = 50;
  /// Per-request budget: sent to the server as its queue deadline and
  /// armed locally as the socket receive timeout (0 = no limit).
  std::uint32_t request_timeout_ms = 30000;
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  std::string client_name = "gems-net-client";
  /// Auto-retry budget for *in-band* kUnavailable responses — the server
  /// executed nothing and reported a typed transient condition (e.g. a
  /// cluster rank died before the job ran, or a named subgraph was
  /// invalidated between statements). Transport failures are never
  /// retried here: a lost connection mid-request leaves the server-side
  /// outcome unknown, and re-sending could execute a mutation twice.
  std::uint32_t unavailable_retries = 1;
  std::uint32_t unavailable_backoff_ms = 100;
};

class Client {
 public:
  explicit Client(ClientOptions options);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects (with retry/backoff) and performs the version handshake.
  Status connect();

  /// Drops the connection; connect() may be called again.
  void disconnect();

  bool connected() const { return socket_.valid(); }
  std::uint64_t session_id() const { return session_id_; }

  // ---- Database-mirroring API ----------------------------------------
  // Result tables are rebuilt locally against the client's string pool;
  // subgraph results arrive as summaries (the instance sets stay
  // server-side as named catalog objects).

  Result<std::vector<exec::StatementResult>> run_script(
      const std::string& text, const relational::ParamMap& params = {});

  /// Fail-stop check: first problem as a Status (wraps `check`).
  Status check_script(const std::string& text,
                      const relational::ParamMap* params = nullptr);

  /// Multi-error check: the server's full structured diagnostic list for
  /// the script, byte-identical to a local Database::check. Lex/parse
  /// problems are diagnosed locally (the IR never ships).
  Result<std::vector<graql::Diagnostic>> check(
      const std::string& text,
      const relational::ParamMap* params = nullptr);

  Result<std::string> explain(const std::string& text,
                              const relational::ParamMap& params = {});

  Result<std::vector<server::CatalogEntry>> catalog();

  /// The server's metrics snapshot (Server::metrics_snapshot()).
  Result<metrics::Snapshot> stats();

  /// Best-effort cancel of a previously issued request id (only useful
  /// from another client thread while a request is queued server-side).
  Status cancel(std::uint64_t request_id);

  /// Asks the server process to shut down (unblocks Server::wait()).
  Status shutdown_server();

  /// Id the next request will use (for pairing with cancel()).
  std::uint64_t next_request_id() const { return next_request_id_; }

  /// In-band kUnavailable responses transparently retried so far (the
  /// retry tests assert on this).
  std::uint64_t unavailable_retries_used() const {
    return unavailable_retries_used_;
  }

  StringPool& pool() { return pool_; }

 private:
  /// Sends one request frame and reads its paired response. Returns the
  /// response payload (status + body). Transport failures mark the
  /// connection dead.
  Result<std::vector<std::uint8_t>> round_trip(
      Verb verb, std::span<const std::uint8_t> payload);

  /// Builds the IR+params request payload for run/check/explain.
  Result<std::vector<std::uint8_t>> make_script_request(
      const std::string& text, const relational::ParamMap& params);

  ClientOptions options_;
  Socket socket_;
  StringPool pool_;
  std::uint64_t session_id_ = 0;
  std::uint64_t next_request_id_ = 1;
  std::uint64_t unavailable_retries_used_ = 0;
};

}  // namespace gems::net
