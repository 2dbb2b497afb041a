#include "net/client.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

namespace hemul::net {

namespace {

/// A kError envelope answering a submit becomes a Response status, so the
/// caller-facing contract ("the future always yields a Response") holds.
core::Response error_to_response(const fhe::Envelope& envelope) {
  const auto [code, message] = fhe::decode_error_payload(envelope.payload);
  core::Response response;
  response.error = message;
  switch (code) {
    case fhe::WireErrorCode::kBadRequestBytes:
    case fhe::WireErrorCode::kUnknownSession:
      response.status = core::ResponseStatus::kBadRequest;
      break;
    case fhe::WireErrorCode::kShuttingDown:
      response.status = core::ResponseStatus::kUnavailable;
      break;
    case fhe::WireErrorCode::kUnsupported:
    case fhe::WireErrorCode::kInternal:
      response.status = core::ResponseStatus::kInternalError;
      break;
  }
  return response;
}

core::Response unavailable_response(const std::string& why) {
  core::Response response;
  response.status = core::ResponseStatus::kUnavailable;
  response.error = why;
  return response;
}

core::Response timeout_response(const std::string& why) {
  core::Response response;
  response.status = core::ResponseStatus::kTimeout;
  response.error = why;
  return response;
}

/// The wire carries the budget as whole milliseconds; anything positive
/// must stay nonzero after rounding (0 means "no deadline" on the wire).
u64 wire_deadline(double deadline_ms) noexcept {
  if (deadline_ms <= 0) return 0;
  return std::max<u64>(1, static_cast<u64>(std::llround(deadline_ms)));
}

}  // namespace

ShardClient::ShardClient(std::string address)
    : ShardClient(std::move(address), Options{}) {}

ShardClient::ShardClient(std::string address, Options options)
    : address_(std::move(address)), options_(options) {
  const auto [host, port] = parse_host_port(address_);
  socket_ = Socket::connect_to(host, port);
  timer_ = std::thread([this] { timer_loop(); });
  reader_ = std::thread([this] { reader_loop(); });
}

ShardClient::~ShardClient() {
  close();
  {
    std::lock_guard lock(mutex_);
    closing_ = true;
  }
  timer_cv_.notify_all();
  if (reader_.joinable()) reader_.join();
  if (timer_.joinable()) timer_.join();
}

void ShardClient::close() {
  socket_.shutdown_both();  // unblocks the reader, which fails the pending
}

bool ShardClient::alive() const {
  std::lock_guard lock(mutex_);
  return alive_;
}

void ShardClient::reader_loop() {
  for (;;) {
    fhe::Envelope envelope;
    try {
      envelope = read_envelope(socket_);
    } catch (const std::exception& e) {
      fail_all_pending(std::string("connection to ") + address_ + " lost: " + e.what());
      return;
    }
    PendingCall pending;
    bool found = false;
    {
      std::lock_guard lock(mutex_);
      const auto it = pending_.find(envelope.request_id);
      if (it != pending_.end()) {
        pending = std::move(it->second);
        pending_.erase(it);
        found = true;
      }
    }
    if (!found) continue;  // stale reply (e.g. after a local timeout path)
    if (pending.is_submit) {
      core::Response response;
      try {
        if (envelope.type == fhe::MessageType::kError) {
          response = error_to_response(envelope);
        } else if (envelope.type == fhe::MessageType::kResponse) {
          response = core::decode_response(envelope.payload);
        } else {
          response.status = core::ResponseStatus::kInternalError;
          response.error = "peer answered a submit with message type " +
                           std::to_string(static_cast<unsigned>(envelope.type));
        }
      } catch (const std::exception& e) {
        response = core::Response{};
        response.status = core::ResponseStatus::kInternalError;
        response.error = std::string("malformed response frame: ") + e.what();
      }
      pending.response.set_value(std::move(response));
    } else {
      pending.control.set_value(std::move(envelope));
    }
  }
}

void ShardClient::timer_loop() {
  using clock = std::chrono::steady_clock;
  std::unique_lock lock(mutex_);
  for (;;) {
    if (closing_) return;
    auto next = clock::time_point::max();
    for (const auto& [id, pending] : pending_) {
      if (pending.has_deadline && pending.deadline < next) next = pending.deadline;
    }
    if (next == clock::time_point::max()) {
      timer_cv_.wait(lock);
    } else {
      timer_cv_.wait_until(lock, next);
    }
    if (closing_) return;

    const auto now = clock::now();
    std::vector<PendingCall> expired;
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->second.has_deadline && it->second.deadline <= now) {
        expired.push_back(std::move(it->second));
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
    if (expired.empty()) continue;
    lock.unlock();
    // Later replies to these ids hit the reader's stale-reply path.
    const std::string why = "deadline expired waiting on " + address_;
    for (PendingCall& pending : expired) {
      if (pending.is_submit) {
        pending.response.set_value(timeout_response(why));
      } else {
        pending.control.set_exception(std::make_exception_ptr(TimeoutError(why)));
      }
    }
    lock.lock();
  }
}

void ShardClient::fail_all_pending(const std::string& why) {
  std::unordered_map<u64, PendingCall> orphaned;
  {
    std::lock_guard lock(mutex_);
    alive_ = false;
    orphaned.swap(pending_);
  }
  for (auto& [id, pending] : orphaned) {
    if (pending.is_submit) {
      pending.response.set_value(unavailable_response(why));
    } else {
      pending.control.set_exception(std::make_exception_ptr(NetError(why)));
    }
  }
}

fhe::Envelope ShardClient::call(fhe::MessageType type, u64 session, fhe::Bytes payload,
                                double deadline_ms) {
  const double budget = effective_deadline(deadline_ms);
  fhe::Envelope request;
  request.type = type;
  request.session = session;
  request.payload = std::move(payload);
  request.deadline_ms = wire_deadline(budget);

  std::future<fhe::Envelope> future;
  {
    std::lock_guard lock(mutex_);
    if (!alive_) throw NetError("connection to " + address_ + " is down");
    request.request_id = next_request_++;
    PendingCall& pending = pending_[request.request_id];
    if (budget > 0) {
      pending.has_deadline = true;
      pending.deadline = std::chrono::steady_clock::now() +
                         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                             std::chrono::duration<double, std::milli>(budget));
    }
    future = pending.control.get_future();
  }
  if (budget > 0) timer_cv_.notify_all();
  try {
    std::lock_guard lock(write_mutex_);
    write_envelope(socket_, request);
  } catch (const std::exception&) {
    // The reader will notice the dead socket too; make sure THIS call's
    // promise fails even if the reader already swept the table.
    std::lock_guard lock(mutex_);
    pending_.erase(request.request_id);
    throw;
  }
  return future.get();
}

fhe::Envelope ShardClient::create_session_raw(fhe::Bytes payload, double deadline_ms) {
  return call(fhe::MessageType::kCreateSession, 0, std::move(payload), deadline_ms);
}

ShardClient::SessionKeys ShardClient::create_session(const fhe::DghvParams& params,
                                                     u64 seed, double deadline_ms) {
  fhe::TenantKeys tenant = fhe::tenant_keygen(params, seed);
  const fhe::Envelope reply =
      create_session_raw(fhe::encode_session_create(tenant.create), deadline_ms);
  if (reply.type == fhe::MessageType::kError) {
    const auto [code, message] = fhe::decode_error_payload(reply.payload);
    if (code == fhe::WireErrorCode::kShuttingDown) throw core::ShuttingDown();
    throw std::runtime_error("create_session failed: " + message);
  }
  if (reply.type != fhe::MessageType::kSessionCreated) {
    throw NetError("unexpected reply to create_session");
  }
  if (!reply.payload.empty()) {
    throw fhe::SerializeError("create_session reply carries a payload; it must be empty");
  }
  SessionKeys keys;
  keys.session = reply.session;
  std::tie(keys.public_key, keys.secret_key) = std::move(tenant.scheme).release_keys();
  return keys;
}

std::future<core::Response> ShardClient::submit(core::SessionId session,
                                                const core::Request& request,
                                                double deadline_ms) {
  return submit_raw(session, core::encode_request(request), deadline_ms);
}

std::future<core::Response> ShardClient::submit_raw(core::SessionId session,
                                                    fhe::Bytes request_frame,
                                                    double deadline_ms) {
  const double budget = effective_deadline(deadline_ms);
  fhe::Envelope envelope;
  envelope.type = fhe::MessageType::kSubmit;
  envelope.session = session;
  envelope.payload = std::move(request_frame);
  envelope.deadline_ms = wire_deadline(budget);

  std::future<core::Response> future;
  {
    std::lock_guard lock(mutex_);
    if (!alive_) {
      std::promise<core::Response> dead;
      dead.set_value(unavailable_response("connection to " + address_ + " is down"));
      return dead.get_future();
    }
    envelope.request_id = next_request_++;
    PendingCall& pending = pending_[envelope.request_id];
    pending.is_submit = true;
    if (budget > 0) {
      pending.has_deadline = true;
      pending.deadline = std::chrono::steady_clock::now() +
                         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                             std::chrono::duration<double, std::milli>(budget));
    }
    future = pending.response.get_future();
  }
  if (budget > 0) timer_cv_.notify_all();
  try {
    std::lock_guard lock(write_mutex_);
    write_envelope(socket_, envelope);
  } catch (const std::exception& e) {
    std::promise<core::Response> orphan;
    {
      std::lock_guard lock(mutex_);
      const auto it = pending_.find(envelope.request_id);
      if (it == pending_.end()) return future;  // reader or timer already completed it
      orphan = std::move(it->second.response);
      pending_.erase(it);
    }
    orphan.set_value(unavailable_response(std::string("send failed: ") + e.what()));
  }
  return future;
}

FleetStats ShardClient::stats(double deadline_ms) {
  const fhe::Envelope reply = call(fhe::MessageType::kStats, 0, {}, deadline_ms);
  if (reply.type != fhe::MessageType::kStatsReply) {
    throw NetError("unexpected reply to stats");
  }
  return decode_fleet_stats(reply.payload);
}

void ShardClient::ping(double deadline_ms) {
  const fhe::Envelope reply = call(fhe::MessageType::kPing, 0, {}, deadline_ms);
  if (reply.type != fhe::MessageType::kPong) {
    throw NetError("unexpected reply to ping");
  }
}

void ShardClient::request_shutdown(double deadline_ms) {
  const fhe::Envelope reply = call(fhe::MessageType::kShutdown, 0, {}, deadline_ms);
  if (reply.type != fhe::MessageType::kShutdownAck) {
    throw NetError("unexpected reply to shutdown");
  }
}

}  // namespace hemul::net
