#include "net/server.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

namespace hemul::net {

namespace {

/// The kError envelope answering a request whose handler threw `e`.
fhe::Envelope error_reply(u64 session, u64 request_id, const std::exception& e) {
  fhe::WireErrorCode code = fhe::WireErrorCode::kInternal;
  if (dynamic_cast<const core::ShuttingDown*>(&e) != nullptr) {
    code = fhe::WireErrorCode::kShuttingDown;
  } else if (dynamic_cast<const fhe::SerializeError*>(&e) != nullptr) {
    code = fhe::WireErrorCode::kBadRequestBytes;
  } else if (dynamic_cast<const std::invalid_argument*>(&e) != nullptr) {
    code = fhe::WireErrorCode::kUnknownSession;
  }
  fhe::Envelope reply;
  reply.type = fhe::MessageType::kError;
  reply.session = session;
  reply.request_id = request_id;
  reply.payload = fhe::encode_error_payload(code, e.what());
  return reply;
}

}  // namespace

// --- ServerConnection ------------------------------------------------------

ServerConnection::ServerConnection(Socket socket) : socket_(std::move(socket)) {
  writer_ = std::thread([this] { writer_loop(); });
}

ServerConnection::~ServerConnection() { finish(); }

void ServerConnection::send_now(fhe::Envelope envelope) {
  {
    std::lock_guard lock(mutex_);
    queue_.push_back(Outgoing{std::move(envelope), std::nullopt});
  }
  cv_.notify_one();
}

void ServerConnection::respond_later(u64 session, u64 request_id,
                                     const std::function<void(Responder)>& start) {
  {
    std::lock_guard lock(mutex_);
    ++expected_;
  }
  Responder respond = [this, session, request_id](core::Response response) {
    Outgoing out;
    out.envelope.type = fhe::MessageType::kResponse;
    out.envelope.session = session;
    out.envelope.request_id = request_id;
    out.response = std::move(response);
    std::lock_guard lock(mutex_);
    queue_.push_back(std::move(out));
    // Notified under the lock: once expected_ reads 0, finish() may go on
    // to destroy this connection.
    cv_.notify_one();
    if (--expected_ == 0) replies_cv_.notify_all();
  };
  try {
    start(std::move(respond));
  } catch (...) {
    std::lock_guard lock(mutex_);
    if (--expected_ == 0) replies_cv_.notify_all();
    throw;
  }
}

void ServerConnection::run_serial(const fhe::Envelope& request, std::function<void()> work) {
  std::function<void()> task = [this, session = request.session, id = request.request_id,
                                work = std::move(work)] {
    try {
      work();
    } catch (const std::exception& e) {
      send_now(error_reply(session, id, e));
    }
  };
  std::thread finished;
  {
    std::lock_guard lock(mutex_);
    serial_.push_back(std::move(task));
    if (serial_running_) return;
    // The worker lives only while work is queued; the one that drained the
    // previous batch has left its loop and only needs joining.
    serial_running_ = true;
    finished = std::move(serial_worker_);
    serial_worker_ = std::thread([this] { serial_loop(); });
  }
  if (finished.joinable()) finished.join();
}

void ServerConnection::respond_async(u64 session, u64 request_id,
                                     std::function<core::Response()> work) {
  respond_later(session, request_id, [&](Responder respond) {
    std::future<void> task = std::async(
        std::launch::async, [work = std::move(work), respond = std::move(respond)] {
          core::Response response;
          try {
            response = work();
          } catch (const std::exception& e) {
            // The reply is owed regardless, or teardown waits forever.
            response = core::Response{};
            response.status = core::ResponseStatus::kInternalError;
            response.error = e.what();
          }
          respond(std::move(response));
        });
    std::lock_guard lock(mutex_);
    // Reap the tasks that have posted their reply; the rest stay owned here.
    std::erase_if(tasks_, [](const std::future<void>& done) {
      return done.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
    });
    tasks_.push_back(std::move(task));
  });
}

void ServerConnection::serial_loop() {
  std::unique_lock lock(mutex_);
  while (!serial_.empty()) {
    std::function<void()> task = std::move(serial_.front());
    serial_.pop_front();
    lock.unlock();
    task();
    lock.lock();
  }
  serial_running_ = false;
}

void ServerConnection::writer_loop() {
  for (;;) {
    Outgoing out;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [&] { return done_ || !queue_.empty(); });
      if (queue_.empty()) return;  // done_ and drained
      out = std::move(queue_.front());
      queue_.pop_front();
      if (write_failed_) continue;  // peer is gone; drop the rest quietly
    }
    if (out.response) out.envelope.payload = core::encode_response(*out.response);
    try {
      write_envelope(socket_, out.envelope);
    } catch (const NetError&) {
      // The peer vanished. Nothing more reaches the wire, but outstanding
      // replies are still posted (and dropped) before teardown ends.
      std::lock_guard lock(mutex_);
      write_failed_ = true;
    }
  }
}

void ServerConnection::finish() {
  // The reader has stopped, so nothing queues serial work any more: the
  // worker drains what is queued (the creates' replies queue) and exits.
  if (serial_worker_.joinable()) serial_worker_.join();
  std::unique_lock lock(mutex_);
  // Every Service completion and forward must have posted its reply: they
  // hold a reference to this connection.
  replies_cv_.wait(lock, [&] { return expected_ == 0; });
  std::vector<std::future<void>> tasks = std::move(tasks_);
  tasks_.clear();
  done_ = true;
  lock.unlock();
  tasks.clear();  // joins the forward tasks, each already past its reply
  cv_.notify_all();
  if (writer_.joinable()) writer_.join();
}

// --- EnvelopeServer --------------------------------------------------------

EnvelopeServer::EnvelopeServer(int port, Handler handler)
    : listener_(port), handler_(std::move(handler)) {
  acceptor_ = std::thread([this] { accept_loop(); });
}

EnvelopeServer::~EnvelopeServer() { stop(); }

std::size_t EnvelopeServer::connection_count() const {
  std::lock_guard lock(mutex_);
  return open_.size() + (closed_ ? 1 : 0);
}

void EnvelopeServer::stop() {
  {
    std::lock_guard lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  listener_.close();  // wakes the acceptor
  if (acceptor_.joinable()) acceptor_.join();
  std::optional<Served> last;
  {
    std::unique_lock lock(mutex_);
    for (auto& [id, served] : open_) served.connection->socket_.shutdown_both();
    // Each connection drains and retires itself, joining its predecessor;
    // only the last to close is left to join here.
    drained_cv_.wait(lock, [&] { return open_.empty(); });
    last.swap(closed_);
  }
  if (last) last->thread.join();
}

void EnvelopeServer::accept_loop() {
  for (;;) {
    Socket socket;
    try {
      socket = listener_.accept_connection();
    } catch (const NetError&) {
      return;  // listener closed (stop()) or unrecoverable accept error
    }
    auto connection = std::make_unique<ServerConnection>(std::move(socket));
    ServerConnection* raw = connection.get();
    std::lock_guard lock(mutex_);
    if (stopping_) return;  // raced stop(); drop the connection
    // Started under the lock, so the thread cannot retire before its
    // entry exists.
    const u64 id = next_id_++;
    Served& served = open_[id];
    served.connection = std::move(connection);
    served.thread = std::thread([this, id, raw] { serve(id, *raw); });
  }
}

void EnvelopeServer::retire(u64 id) {
  std::optional<Served> previous;
  {
    std::lock_guard lock(mutex_);
    auto node = open_.extract(id);
    previous.swap(closed_);
    closed_.emplace(std::move(node.mapped()));
    if (open_.empty()) drained_cv_.notify_all();
  }
  // The predecessor has left the lock for good; it ends (or has ended)
  // without touching the server again.
  if (previous) previous->thread.join();
}

void EnvelopeServer::serve(u64 id, ServerConnection& connection) {
  for (;;) {
    fhe::Envelope request;
    try {
      request = read_envelope(connection.socket_);
    } catch (const NetError&) {
      break;  // peer closed or stop() shut the socket down
    } catch (const fhe::SerializeError& e) {
      // Bytes that are not a valid envelope: answer once, then drop the
      // connection -- framing is lost, nothing later can be trusted.
      fhe::Envelope reply;
      reply.type = fhe::MessageType::kError;
      reply.payload =
          fhe::encode_error_payload(fhe::WireErrorCode::kBadRequestBytes, e.what());
      connection.send_now(std::move(reply));
      break;
    }
    try {
      handler_(request, connection);
    } catch (const std::exception& e) {
      connection.send_now(error_reply(request.session, request.request_id, e));
    }
  }
  connection.finish();
  retire(id);
}

// --- ShardServer -----------------------------------------------------------

ShardServer::ShardServer(core::Service& service) : ShardServer(service, Options{}) {}

ShardServer::ShardServer(core::Service& service, Options options)
    : service_(service), on_shutdown_(std::move(options.on_shutdown)),
      server_(options.port, [this](const fhe::Envelope& request, ServerConnection& conn) {
        handle(request, conn);
      }) {}

void ShardServer::create(const fhe::Envelope& request, ServerConnection& connection) {
  // The tenant ran keygen: the payload holds params, x0 and the two
  // constants, which the service validates. The reply carries only the
  // session id, in its header.
  const core::SessionId id =
      service_.create_session(fhe::decode_session_create(request.payload));
  fhe::Envelope reply;
  reply.type = fhe::MessageType::kSessionCreated;
  reply.session = id;
  reply.request_id = request.request_id;
  connection.send_now(std::move(reply));
}

void ShardServer::handle(const fhe::Envelope& request, ServerConnection& connection) {
  switch (request.type) {
    case fhe::MessageType::kCreateSession:
      // A decode and a table insert: answered from the reader.
      create(request, connection);
      return;
    case fhe::MessageType::kSubmit: {
      core::Request decoded = core::decode_request(request.payload);
      // The envelope's deadline is this request's remaining budget: the
      // service drops it at admission once the budget has elapsed. The
      // completion only queues the Response; the writer encodes it.
      connection.respond_later(
          request.session, request.request_id, [&](ServerConnection::Responder respond) {
            service_.submit(request.session, std::move(decoded),
                            static_cast<double>(request.deadline_ms), std::move(respond));
          });
      return;
    }
    case fhe::MessageType::kStats: {
      FleetStats fleet;
      ShardStats self;
      self.alive = true;
      self.service = service_.stats();
      fleet.shards.push_back(std::move(self));
      fhe::Envelope reply;
      reply.type = fhe::MessageType::kStatsReply;
      reply.request_id = request.request_id;
      reply.payload = encode_fleet_stats(fleet);
      connection.send_now(std::move(reply));
      return;
    }
    case fhe::MessageType::kPing: {
      // Liveness only: answered from the reader thread, no service touch,
      // so a wedged scheduler still pongs -- probes measure the transport
      // and the process, not queue depth.
      fhe::Envelope reply;
      reply.type = fhe::MessageType::kPong;
      reply.request_id = request.request_id;
      connection.send_now(std::move(reply));
      return;
    }
    case fhe::MessageType::kShutdown: {
      service_.stop_accepting();
      fhe::Envelope reply;
      reply.type = fhe::MessageType::kShutdownAck;
      reply.request_id = request.request_id;
      connection.send_now(std::move(reply));
      if (on_shutdown_) on_shutdown_();
      return;
    }
    default: {
      fhe::Envelope reply;
      reply.type = fhe::MessageType::kError;
      reply.session = request.session;
      reply.request_id = request.request_id;
      reply.payload = fhe::encode_error_payload(
          fhe::WireErrorCode::kUnsupported,
          "message type " + std::to_string(static_cast<unsigned>(request.type)) +
              " is not served by a shard");
      connection.send_now(std::move(reply));
      return;
    }
  }
}

}  // namespace hemul::net
