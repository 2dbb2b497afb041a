#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/config.hpp"
#include "core/scheduler.hpp"
#include "fhe/evaluator.hpp"
#include "fhe/session.hpp"
#include "service/request.hpp"

namespace hemul::core {

/// Configuration of a Service beyond the scheduler it owns.
struct ServiceOptions {
  /// Backend / PE-lane configuration of the owned Scheduler.
  Config config = Config::paper();
  /// How long the coordinator lingers after spotting the first pending
  /// request before sealing an admission round, so requests submitted
  /// concurrently by independent tenants land in the same shared wavefront
  /// (0 = admit whatever is queued the moment the coordinator wakes).
  double admission_window_ms = 0.0;
  /// Upper bound on resident tenant sessions (0 = unbounded). At the
  /// bound, create_session evicts the least-recently-used session with no
  /// requests in flight; it throws SessionTableFull when every resident
  /// session is busy (nothing is safely evictable).
  std::size_t max_sessions = 0;
  /// Upper bound on the admission queue (0 = unbounded). At the bound,
  /// submit() sheds the request with ResponseStatus::kOverloaded and a
  /// retry-after hint instead of queueing it, so callers back off rather
  /// than stall. The queue depth never exceeds this bound.
  std::size_t max_queue_depth = 0;
  /// Default per-request deadline in milliseconds (0 = none). A request
  /// whose budget elapses while it waits in the admission queue completes
  /// with ResponseStatus::kExpired before any multiplication is spent --
  /// the caller stopped waiting, so the work would be wasted. A per-call
  /// deadline on submit() overrides this default.
  double default_deadline_ms = 0.0;
};

/// Thrown by create_session after stop_accepting(): the service is draining
/// toward shutdown and opens no new tenant sessions.
class ShuttingDown : public std::runtime_error {
 public:
  ShuttingDown() : std::runtime_error("Service: draining, not accepting new sessions") {}
};

/// Thrown by create_session when ServiceOptions::max_sessions is reached
/// and every resident session has requests in flight.
class SessionTableFull : public std::runtime_error {
 public:
  SessionTableFull()
      : std::runtime_error("Service: session table full and no session is idle") {}
};

/// Multi-tenant evaluation front-end: the serving side of the accelerator.
///
/// A Service owns one core::Scheduler (the array of PE lanes) and exposes
/// the host-interface shape of Medha/FAB: tenants open sessions (per-tenant
/// fhe::EvalKey evaluation contexts -- a session never holds a secret key),
/// then submit Requests -- serialized ciphertexts plus a named or
/// caller-recorded circuit -- and receive their Responses through a
/// completion callback (or a future) as each request finishes.
/// Every transport (sockets, RPC) is a thin shim over this class.
///
/// Cross-request batching: a coordinator thread advances every in-flight
/// request one level per round through the same fhe::step_levels driver
/// fhe::Evaluator uses, and fuses the fronts -- each phase's lane jobs
/// across *all* tenants go to the scheduler as ONE batch, so independent
/// requests at the same multiplicative depth share scheduler batches
/// instead of being serialized per caller. Requests run spectrum-resident
/// on "ssa" lanes and eager on any other engine. A lane fault fails only
/// the request it served. stats().batches_submitted < requests whenever
/// tenants overlap.
///
/// Thread safety: create_session / submit / stats are safe from any
/// thread.
class Service {
 public:
  explicit Service(ServiceOptions options = {});

  /// Completes every accepted request, then stops the coordinator.
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Opens a tenant session from the tenant's evaluation material (see
  /// fhe::tenant_keygen): the session keeps params, x0 and the constant
  /// zero/one encryptions the builtin circuits splice in -- no secret key,
  /// no public encryptions of zero. Throws fhe::SerializeError when
  /// `create` fails SessionCreate::validate().
  SessionId create_session(fhe::SessionCreate create);

  /// In-process convenience over the same path: runs fhe::tenant_keygen
  /// and opens the session from its material, dropping the key pair at
  /// once. Callers that encrypt or decrypt run tenant_keygen themselves
  /// and keep its scheme.
  SessionId create_session(const fhe::DghvParams& params, u64 seed);

  /// Receives a request's Response, exactly once. It runs on the
  /// coordinator thread (or inside submit() for a shed or draining
  /// refusal), so it must not throw and should only hand the Response on.
  using Completion = std::function<void(Response)>;

  /// Enqueues one request; `done` receives its Response -- malformed
  /// payloads, noise vetoes and expired deadlines are statuses, not
  /// exceptions. Throws std::invalid_argument for an unknown session (that
  /// is a caller bug, not wire data; `done` is then never called).
  /// `deadline_ms` is this request's remaining budget (0 = use
  /// ServiceOptions::default_deadline_ms; both zero = no deadline): if it
  /// elapses before admission the request completes with
  /// ResponseStatus::kExpired instead of executing.
  void submit(SessionId session, Request request, double deadline_ms, Completion done);

  /// The same, with the Response delivered through a future.
  std::future<Response> submit(SessionId session, Request request,
                               double deadline_ms = 0.0);

  /// Drain mode for a daemon's SIGTERM path: after this, create_session
  /// throws ShuttingDown and submit() completes immediately with
  /// ResponseStatus::kUnavailable. Work already queued or in flight still
  /// runs to completion (pair with wait_idle() to drain fully).
  void stop_accepting();

  /// False once stop_accepting() has been called.
  [[nodiscard]] bool accepting() const;

  /// Blocks until no request is pending or in flight.
  void wait_idle();

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] TenantStats tenant_stats(SessionId session) const;

  [[nodiscard]] Scheduler& scheduler() noexcept { return scheduler_; }
  [[nodiscard]] const ServiceOptions& options() const noexcept { return options_; }

 private:
  struct Session;
  struct Pending;
  struct Active;

  /// Evicts the least-recently-used idle session (mutex_ held). Throws
  /// SessionTableFull when every session has requests in flight.
  void evict_idle_session_locked();

  void coordinator_loop();
  /// Builds the evaluation state of one pending request; completes it
  /// immediately on parse errors, noise veto, or a multiplication-free
  /// circuit. Returns the active state otherwise.
  std::unique_ptr<Active> admit(Pending&& pending);
  /// Runs one coalesced round over `active`: one fhe::step_levels call
  /// advancing every request one level. Completed requests are removed.
  void run_round(std::vector<std::unique_ptr<Active>>& active);
  /// Retires finished / failed requests after a round (steps[k] is
  /// active[k]'s) and advances the rest one level.
  void retire_round(std::vector<std::unique_ptr<Active>>& active,
                    std::span<const fhe::LevelStep> steps);
  void complete(Active& request, Response response);

  ServiceOptions options_;
  Scheduler scheduler_;
  fhe::Lanes lanes_{scheduler_};  ///< round jobs run on the scheduler's lanes

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   ///< pending work or shutdown
  std::condition_variable idle_cv_;   ///< all work drained
  std::unordered_map<SessionId, std::unique_ptr<Session>> sessions_;
  std::deque<Pending> pending_;
  std::size_t in_flight_ = 0;  ///< admitted, not yet completed
  SessionId next_session_ = 1;
  u64 lru_tick_ = 0;  ///< monotonic session-recency clock (under mutex_)
  bool stop_ = false;
  bool accepting_ = true;  ///< cleared by stop_accepting()

  // Service-wide counters (under mutex_; lane/cache stats live in the
  // scheduler and are merged into stats() snapshots).
  ServiceStats totals_;

  std::thread coordinator_;  ///< last member: joins before teardown
};

}  // namespace hemul::core
