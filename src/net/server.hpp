#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "service/service.hpp"

namespace hemul::net {

/// One accepted connection of an EnvelopeServer. Replies leave through a
/// per-connection writer thread in completion order: its queue holds only
/// ready replies, so a quick reply never waits behind a long request that
/// arrived before it. The reader thread only reads and dispatches:
///   - a reply that is ready at once goes out through send_now;
///   - a reply another thread produces later goes through respond_later's
///     Responder -- the shard hands it to the Service as the completion
///     callback, and the writer thread encodes the Response;
///   - work that blocks on a shard RPC (the router's creates and stats)
///     runs on the connection's serial worker (run_serial), one item at a
///     time in arrival order, so one thread per connection bounds it;
///   - the router's forwards run one task each (respond_async).
/// Pipelined submits therefore stay outstanding together, which is what
/// lets the admission window coalesce them. Teardown drains the serial
/// worker, waits for every outstanding Responder and joins the forward
/// tasks before it stops the writer.
class ServerConnection {
 public:
  /// Posts the Response answering one request, exactly once. Cheap and
  /// non-blocking, so a Service completion may call it on the coordinator.
  using Responder = std::function<void(core::Response)>;

  explicit ServerConnection(Socket socket);
  ~ServerConnection();

  ServerConnection(const ServerConnection&) = delete;
  ServerConnection& operator=(const ServerConnection&) = delete;

  /// Queues a ready envelope for writing.
  void send_now(fhe::Envelope envelope);

  /// Starts work that answers (session, request_id) later: `start` gets
  /// the Responder and must arrange for it to be called, unless `start`
  /// throws -- the exception propagates and no reply is owed.
  void respond_later(u64 session, u64 request_id,
                     const std::function<void(Responder)>& start);

  /// Runs `work` on the connection's serial worker, a thread that runs
  /// while work is queued and exits when the queue is empty.
  /// If `work` throws, `request` is answered with the kError envelope the
  /// reader would have sent (see EnvelopeServer).
  void run_serial(const fhe::Envelope& request, std::function<void()> work);

  /// Computes the Response to (session, request_id) on a task of its own
  /// and posts it (kInternalError if `work` throws).
  void respond_async(u64 session, u64 request_id, std::function<core::Response()> work);

 private:
  friend class EnvelopeServer;

  struct Outgoing {
    fhe::Envelope envelope;                ///< sent as is, unless...
    std::optional<core::Response> response;  ///< ...this is set: encoded into it
  };

  void writer_loop();
  void serial_loop();
  /// Drains the serial worker, waits for the outstanding Responders and
  /// the forward tasks, then stops the writer after it drains its queue.
  void finish();

  Socket socket_;
  std::mutex mutex_;
  std::condition_variable cv_;          ///< writer: queue_ or done_
  std::condition_variable replies_cv_;  ///< expected_ reached 0
  std::deque<Outgoing> queue_;
  std::deque<std::function<void()>> serial_;
  std::vector<std::future<void>> tasks_;  ///< respond_async tasks not yet reaped
  std::size_t expected_ = 0;  ///< Responders not yet called
  bool done_ = false;
  bool serial_running_ = false;  ///< serial_worker_ is in its loop
  bool write_failed_ = false;  ///< socket died mid-write; drop the rest
  std::thread serial_worker_;
  std::thread writer_;
};

/// Minimal blocking envelope server: an accept loop, one reader thread per
/// connection, and the ServerConnection writer. All protocol logic lives in
/// the handler; the server maps handler exceptions to kError envelopes
/// (ShuttingDown -> kShuttingDown, SerializeError -> kBadRequestBytes,
/// invalid_argument -> kUnknownSession, anything else -> kInternal) so one
/// hostile or unlucky request never tears the connection down.
///
/// Closed connections are reaped as they close: each connection's thread,
/// on its way out, joins the one that closed before it, so a client that
/// reconnects in a loop never grows the server.
class EnvelopeServer {
 public:
  using Handler = std::function<void(const fhe::Envelope&, ServerConnection&)>;

  /// Binds 127.0.0.1:port (0 = ephemeral; see port()) and starts accepting.
  EnvelopeServer(int port, Handler handler);
  ~EnvelopeServer();

  EnvelopeServer(const EnvelopeServer&) = delete;
  EnvelopeServer& operator=(const EnvelopeServer&) = delete;

  [[nodiscard]] int port() const noexcept { return listener_.port(); }

  /// Connections not yet reaped: the open ones, plus the last one to
  /// close while its thread finishes.
  [[nodiscard]] std::size_t connection_count() const;

  /// Stops accepting, unblocks every connection and joins all threads.
  /// Idempotent; also run by the destructor.
  void stop();

 private:
  struct Served {
    std::unique_ptr<ServerConnection> connection;
    std::thread thread;
  };

  void accept_loop();
  void serve(u64 id, ServerConnection& connection);
  /// Moves connection `id` out of the open set and joins the connection
  /// that closed before it.
  void retire(u64 id);

  Listener listener_;
  Handler handler_;
  mutable std::mutex mutex_;
  std::condition_variable drained_cv_;  ///< open_ became empty
  std::unordered_map<u64, Served> open_;
  std::optional<Served> closed_;  ///< joined by the next to close, or stop()
  u64 next_id_ = 0;
  bool stopping_ = false;
  std::thread acceptor_;
};

/// The shard daemon's protocol: one core::Service behind an EnvelopeServer.
/// Dispatches kCreateSession / kSubmit / kStats / kShutdown (the full
/// message set a shard speaks; see docs/wire-protocol.md). A shard never
/// runs keygen and never holds a secret key: kCreateSession carries the
/// tenant's params, x0 and constant encryptions (fhe::SessionCreate), and
/// the reply carries only the session id. Submits complete through a
/// Service callback, so a long request never holds up the reader or another
/// request's reply.
class ShardServer {
 public:
  struct Options {
    int port = 0;  ///< 0 = ephemeral
    /// Invoked (once) after a kShutdown request has been acknowledged --
    /// the daemon uses it to leave its wait loop and drain.
    std::function<void()> on_shutdown;
  };

  /// The service must outlive the server.
  ShardServer(core::Service& service, Options options);
  explicit ShardServer(core::Service& service);

  [[nodiscard]] int port() const noexcept { return server_.port(); }
  [[nodiscard]] std::size_t connection_count() const { return server_.connection_count(); }
  void stop() { server_.stop(); }

 private:
  void handle(const fhe::Envelope& request, ServerConnection& connection);
  /// kCreateSession: decodes the tenant's material and opens the session.
  void create(const fhe::Envelope& request, ServerConnection& connection);

  core::Service& service_;
  std::function<void()> on_shutdown_;
  EnvelopeServer server_;  ///< last member: stops before the rest tears down
};

}  // namespace hemul::net
