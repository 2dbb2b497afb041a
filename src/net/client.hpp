#pragma once

#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "service/service.hpp"

namespace hemul::net {

/// Thrown by synchronous control calls (create_session, stats, ping,
/// request_shutdown) whose deadline expired before the reply arrived. A
/// subclass of NetError so existing "connection trouble" handlers keep
/// working, but distinguishable where the retry policy cares.
class TimeoutError : public NetError {
 public:
  using NetError::NetError;
};

/// Blocking client of one shard (or of the router -- both speak the same
/// envelope protocol). One reader thread demultiplexes replies to callers
/// by request id, so any number of submits can be outstanding at once.
///
/// Connection loss fails exactly the in-flight calls of THIS connection:
/// pending submits complete with ResponseStatus::kUnavailable, pending
/// control calls throw NetError, and the client reports alive() == false;
/// later submits are refused locally the same way.
///
/// Deadlines: every call takes an optional budget in milliseconds. A timer
/// thread completes overdue submits with ResponseStatus::kTimeout and fails
/// overdue control calls with TimeoutError -- every future completes even
/// when the peer never answers. The budget also rides the wire (see
/// fhe::Envelope::deadline_ms) so the server can drop requests that expired
/// in its queue instead of burning multiplies on them.
class ShardClient {
 public:
  struct Options {
    /// Default per-call budget in milliseconds; 0 disables deadlines.
    /// Individual calls override it with their deadline_ms parameter.
    double deadline_ms = 0;
  };

  /// Connects to "host:port". Throws NetError on failure.
  explicit ShardClient(std::string address);
  ShardClient(std::string address, Options options);
  ~ShardClient();

  ShardClient(const ShardClient&) = delete;
  ShardClient& operator=(const ShardClient&) = delete;

  /// A created session: the server-assigned id plus the key the client
  /// generated for this tenant (it encrypts/decrypts locally by rebuilding
  /// an fhe::Dghv from these). public_key holds params and x0 only: its x
  /// is empty, since the tenant encrypts with p. The keys never left the
  /// client.
  struct SessionKeys {
    core::SessionId session = 0;
    fhe::PublicKey public_key;
    bigint::BigUInt secret_key;
  };

  /// Synchronous create-session RPC: runs fhe::tenant_keygen(params, seed)
  /// here and sends the peer only its evaluation material (params, x0 and
  /// the constant encryptions; see fhe::SessionCreate). Throws
  /// core::ShuttingDown when the peer is draining, TimeoutError past the
  /// deadline, NetError on connection loss, std::runtime_error on other
  /// remote errors.
  SessionKeys create_session(const fhe::DghvParams& params, u64 seed,
                             double deadline_ms = kUseDefault);

  /// Sends an already-encoded create-session payload
  /// (fhe::encode_session_create) and returns the reply envelope verbatim
  /// (kSessionCreated or kError) -- the router's path, for both first
  /// placement and failover replay.
  fhe::Envelope create_session_raw(fhe::Bytes payload, double deadline_ms = kUseDefault);

  /// Asynchronous evaluate RPC. The future always yields a Response
  /// (remote errors, connection loss and expired deadlines become
  /// statuses, never broken promises).
  std::future<core::Response> submit(core::SessionId session, const core::Request& request,
                                     double deadline_ms = kUseDefault);

  /// Like submit(), but forwards an already-encoded kRequest frame
  /// verbatim -- the router's path, which never re-encodes payloads.
  std::future<core::Response> submit_raw(core::SessionId session, fhe::Bytes request_frame,
                                         double deadline_ms = kUseDefault);

  /// Synchronous stats RPC (a shard replies with one-entry FleetStats; the
  /// router replies with the whole fleet).
  FleetStats stats(double deadline_ms = kUseDefault);

  /// Liveness probe: kPing, expects kPong. Throws TimeoutError / NetError
  /// when the peer is unresponsive -- the router's probe loop signal.
  void ping(double deadline_ms = kUseDefault);

  /// Sends kShutdown and waits for the acknowledgement: the peer stops
  /// accepting (in-flight work still completes).
  void request_shutdown(double deadline_ms = kUseDefault);

  /// Generic synchronous call: sends one envelope, returns the matching
  /// reply (including kError envelopes -- callers that need typed errors
  /// use the wrappers above, which map them to exceptions).
  fhe::Envelope call(fhe::MessageType type, u64 session, fhe::Bytes payload,
                     double deadline_ms = kUseDefault);

  [[nodiscard]] bool alive() const;
  [[nodiscard]] const std::string& address() const noexcept { return address_; }

  /// Closes the connection (pending calls fail as on connection loss).
  void close();

  /// Sentinel deadline meaning "use Options::deadline_ms".
  static constexpr double kUseDefault = -1.0;

 private:
  struct PendingCall {
    bool is_submit = false;
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline{};
    std::promise<core::Response> response;  ///< is_submit
    std::promise<fhe::Envelope> control;    ///< !is_submit
  };

  void reader_loop();
  void timer_loop();
  void fail_all_pending(const std::string& why);
  [[nodiscard]] double effective_deadline(double deadline_ms) const noexcept {
    return deadline_ms < 0 ? options_.deadline_ms : deadline_ms;
  }

  std::string address_;
  Options options_;
  Socket socket_;
  std::mutex write_mutex_;          ///< serializes socket writes
  mutable std::mutex mutex_;        ///< pending_ / alive_ / next_request_
  std::condition_variable timer_cv_;
  std::unordered_map<u64, PendingCall> pending_;
  u64 next_request_ = 1;
  bool alive_ = true;
  bool closing_ = false;  ///< tells the timer thread to exit
  std::thread timer_;
  std::thread reader_;  ///< last member: joins before teardown
};

}  // namespace hemul::net
