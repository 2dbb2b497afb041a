#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <utility>

#include "fhe/graph.hpp"
#include "fhe/noise.hpp"
#include "util/check.hpp"

namespace hemul::core {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace

/// One tenant: evaluation context, the constant encryptions the builtin
/// circuits splice in, and the tenant's monotonic counters.
struct Service::Session {
  explicit Session(fhe::SessionCreate create)
      : key(create.params, std::move(create.x0)), zero(std::move(create.zero)),
        one(std::move(create.one)) {}

  fhe::EvalKey key;
  fhe::Ciphertext zero;
  fhe::Ciphertext one;
  TenantStats stats;         ///< guarded by the Service mutex
  u64 last_used = 0;         ///< recency tick for LRU eviction (under mutex)
  std::size_t in_flight = 0; ///< this tenant's queued + executing requests
                             ///< (under mutex); eviction requires 0 so no
                             ///< Pending/Active ever holds a dangling
                             ///< Session pointer
};

/// A request accepted by submit(), waiting for admission.
struct Service::Pending {
  Session* session = nullptr;
  Request request;
  Completion done;
  Clock::time_point submitted_at;
  bool has_deadline = false;
  Clock::time_point expires_at;  ///< admission drops the request past this
};

/// An admitted request mid-evaluation: the recorded graph plus the shared
/// fhe::EvalState stepping core the coordinator advances one coalesced
/// round at a time (the very rules fhe::Evaluator runs in-process, so
/// served results are bit-exact against local evaluation by construction).
struct Service::Active {
  Session* session = nullptr;
  Completion done;
  Clock::time_point submitted_at;
  Clock::time_point admitted_at;

  fhe::Graph graph;
  std::optional<fhe::EvalState> state;  ///< built once recording succeeded
  unsigned next_level = 1;
  Response response;  ///< counters filled as rounds execute

  explicit Active(const fhe::EvalKey& key) : graph(key) {}

  [[nodiscard]] fhe::Bytes serialize_outputs() const {
    return fhe::encode_ciphertexts(state->outputs());
  }
};

Service::Service(ServiceOptions options)
    : options_(std::move(options)), scheduler_(options_.config) {
  coordinator_ = std::thread([this] { coordinator_loop(); });
}

Service::~Service() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  coordinator_.join();
}

SessionId Service::create_session(const fhe::DghvParams& params, u64 seed) {
  return create_session(fhe::tenant_keygen(params, seed).create);
}

SessionId Service::create_session(fhe::SessionCreate create) {
  create.validate();
  auto session = std::make_unique<Session>(std::move(create));
  std::lock_guard lock(mutex_);
  if (!accepting_) throw ShuttingDown();
  const SessionId id = next_session_++;
  session->stats.session = id;
  if (options_.max_sessions > 0 && sessions_.size() >= options_.max_sessions) {
    // Swaps one idle session for another: the admission linger's open and
    // busy counts are unchanged, so the coordinator is owed no wake-up.
    evict_idle_session_locked();
  }
  session->last_used = ++lru_tick_;
  sessions_.emplace(id, std::move(session));
  return id;
}

void Service::evict_idle_session_locked() {
  auto victim = sessions_.end();
  for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
    if (it->second->in_flight != 0) continue;  // never evict under a request
    if (victim == sessions_.end() || it->second->last_used < victim->second->last_used) {
      victim = it;
    }
  }
  if (victim == sessions_.end()) throw SessionTableFull();
  sessions_.erase(victim);
  ++totals_.sessions_evicted;
}

void Service::stop_accepting() {
  std::lock_guard lock(mutex_);
  accepting_ = false;
}

bool Service::accepting() const {
  std::lock_guard lock(mutex_);
  return accepting_;
}

std::future<Response> Service::submit(SessionId session, Request request,
                                      double deadline_ms) {
  auto promise = std::make_shared<std::promise<Response>>();
  std::future<Response> future = promise->get_future();
  submit(session, std::move(request), deadline_ms,
         [promise](Response response) { promise->set_value(std::move(response)); });
  return future;
}

void Service::submit(SessionId session, Request request, double deadline_ms,
                     Completion done) {
  Pending pending;
  pending.request = std::move(request);
  pending.done = std::move(done);
  pending.submitted_at = Clock::now();
  const double budget = deadline_ms > 0 ? deadline_ms : options_.default_deadline_ms;
  if (budget > 0) {
    pending.has_deadline = true;
    pending.expires_at =
        pending.submitted_at +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(budget));
  }
  // One lock acquisition covers the session lookup AND the enqueue: the
  // Session* stored in Pending must be pinned (tenant.in_flight bumped)
  // before the lock drops, or LRU eviction could invalidate it in between.
  Response refused;
  bool accepted = false;
  {
    std::lock_guard lock(mutex_);
    HEMUL_CHECK_MSG(!stop_, "Service: submit after shutdown");
    const auto it = sessions_.find(session);
    if (it == sessions_.end()) {
      throw std::invalid_argument("Service: unknown session " + std::to_string(session));
    }
    Session& tenant = *it->second;
    tenant.last_used = ++lru_tick_;
    ++totals_.submitted;
    ++tenant.stats.submitted;
    if (!accepting_) {
      refused.status = ResponseStatus::kUnavailable;
      refused.error = "service is draining; no new requests accepted";
    } else if (options_.max_queue_depth > 0 &&
               pending_.size() >= options_.max_queue_depth) {
      // Load-shed at the door: the request never enters the queue, so the
      // queue depth is structurally bounded by max_queue_depth.
      refused.status = ResponseStatus::kOverloaded;
      refused.error = "admission queue full (bound " +
                      std::to_string(options_.max_queue_depth) + ")";
      refused.retry_after_ms = std::max(options_.admission_window_ms, 1.0);
      ++totals_.shed;
      ++tenant.stats.shed;
    } else {
      tenant.stats.bytes_in += pending.request.graph.size() + pending.request.inputs.size();
      ++in_flight_;
      if (tenant.in_flight++ == 0) ++busy_sessions_;
      pending.session = &tenant;
      pending_.push_back(std::move(pending));
      accepted = true;
    }
  }
  if (!accepted) {
    pending.done(std::move(refused));
    return;
  }
  work_cv_.notify_all();
}

void Service::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_cv_.wait(lock, [&] { return in_flight_ == 0; });
}

ServiceStats Service::stats() const {
  const SchedulerStats sched = scheduler_.stats();
  std::lock_guard lock(mutex_);
  ServiceStats snapshot = totals_;
  snapshot.queue_depth = pending_.size();
  snapshot.active_requests = in_flight_ - pending_.size();
  snapshot.sessions = sessions_.size();
  snapshot.lanes = sched.lanes;
  return snapshot;
}

TenantStats Service::tenant_stats(SessionId session) const {
  std::lock_guard lock(mutex_);
  const auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    throw std::invalid_argument("Service: unknown session " + std::to_string(session));
  }
  return it->second->stats;
}

void Service::complete(Active& request, Response response) {
  response.queue_ms =
      std::chrono::duration<double, std::milli>(request.admitted_at - request.submitted_at)
          .count();
  response.exec_ms = ms_since(request.admitted_at);
  bool idle = false;
  {
    std::lock_guard lock(mutex_);
    Session& session = *request.session;
    TenantStats& tenant = session.stats;
    switch (response.status) {
      case ResponseStatus::kOk:
        ++totals_.completed;
        ++tenant.completed;
        // Executed-work counters book only successful requests (a rejected
        // request spends no multiplication by design).
        totals_.and_gates += response.and_gates;
        totals_.wavefronts += response.levels;
        totals_.transforms_executed += response.transforms_executed;
        totals_.transforms_avoided += response.transforms_avoided;
        tenant.and_gates += response.and_gates;
        tenant.wavefronts += response.levels;
        break;
      case ResponseStatus::kRejectedByNoise:
        ++totals_.rejected_by_noise;
        ++tenant.rejected_by_noise;
        break;
      case ResponseStatus::kBadRequest:
        ++totals_.bad_requests;
        ++tenant.bad_requests;
        break;
      case ResponseStatus::kInternalError:
        ++totals_.internal_errors;
        ++tenant.internal_errors;
        break;
      case ResponseStatus::kExpired:
        ++totals_.expired;
        ++tenant.expired;
        break;
      case ResponseStatus::kOverloaded:
      case ResponseStatus::kUnavailable:
        // Shed/drain refusals complete synchronously in submit() and never
        // become Active; nothing books them here.
        break;
      case ResponseStatus::kTimeout:
        // Client-local: a server never produces kTimeout for its own work.
        break;
    }
    tenant.bytes_out += response.outputs.size();
    if (--session.in_flight == 0) --busy_sessions_;
    --in_flight_;
    idle = in_flight_ == 0;
  }
  if (idle) idle_cv_.notify_all();
  request.done(std::move(response));
}

std::unique_ptr<Service::Active> Service::admit(Pending&& pending) {
  auto active = std::make_unique<Active>(pending.session->key);
  active->session = pending.session;
  active->done = std::move(pending.done);
  active->submitted_at = pending.submitted_at;
  active->admitted_at = Clock::now();

  // Deadline check FIRST: a request whose caller already gave up is dropped
  // before the input decode, let alone a multiplication, is spent on it.
  if (pending.has_deadline && active->admitted_at >= pending.expires_at) {
    Response response;
    response.status = ResponseStatus::kExpired;
    response.error = "deadline expired in the admission queue";
    complete(*active, std::move(response));
    return nullptr;
  }

  const Request& request = pending.request;
  const CircuitSpec& spec = request.spec;
  std::vector<fhe::Wire> outputs;
  try {
    const std::vector<fhe::Ciphertext> inputs = fhe::decode_ciphertexts(request.inputs);
    // Ciphertexts crossed a trust boundary: a valid DGHV ciphertext is
    // reduced modulo the session's x0. Enforcing that here keeps hostile
    // operand sizes out of the PE lanes entirely.
    const bigint::BigUInt& x0 = active->session->key.x0();
    for (const fhe::Ciphertext& c : inputs) {
      if (!(c.value < x0)) {
        throw fhe::SerializeError("input ciphertext is not reduced modulo the session x0");
      }
    }
    fhe::Graph& g = active->graph;
    g.set_lowering(spec.lowering);  // the strategy byte steers every builtin
    if (spec.kind == CircuitKind::kGraph) {
      const fhe::GraphTopology topology = fhe::decode_graph(request.graph);
      outputs = topology.build(g, inputs);
    } else {
      spec.validate();
      const std::size_t expect = spec.input_count();
      if (inputs.size() != expect) {
        throw fhe::SerializeError("circuit " + spec.describe() + " needs " +
                                  std::to_string(expect) + " input ciphertexts, got " +
                                  std::to_string(inputs.size()));
      }
      const unsigned w = spec.width;
      const std::vector<fhe::Wire> wires = g.inputs(inputs);
      const std::span<const fhe::Wire> all(wires);
      switch (spec.kind) {
        case CircuitKind::kAnd:
          outputs = {g.gate_and(wires[0], wires[1])};
          break;
        case CircuitKind::kAdder: {
          fhe::Graph::AddResult r =
              g.add(all.first(w), all.subspan(w, w), g.input(active->session->zero));
          outputs = std::move(r.sum);
          outputs.push_back(r.carry_out);
          break;
        }
        case CircuitKind::kEquals:
          outputs = {g.equals(all.first(w), all.subspan(w, w), g.input(active->session->one))};
          break;
        case CircuitKind::kMul:
          outputs = g.multiply(all.first(w), all.subspan(w, w), g.input(active->session->zero));
          break;
        case CircuitKind::kMux:
          outputs = g.mux(wires[0], all.subspan(1, w), all.subspan(1 + w, w));
          break;
        case CircuitKind::kLessThan:
          outputs = {g.less_than(all.first(w), all.subspan(w, w),
                                 g.input(active->session->zero),
                                 g.input(active->session->one))};
          break;
        case CircuitKind::kGraph:
          break;  // handled above
      }
    }
    // Dead-node elimination, leveling and the noise audit -- the shared
    // fhe::EvalState core, so the rules cannot diverge from in-process
    // evaluation.
    active->state.emplace(active->graph, outputs);
  } catch (const std::exception& e) {
    // SerializeError and width/count violations are malformed wire data;
    // anything else a hostile payload provokes at record time lands here
    // too -- a tenant's bad bytes must never take the coordinator down.
    Response response;
    response.status = ResponseStatus::kBadRequest;
    response.error = e.what();
    complete(*active, std::move(response));
    return nullptr;
  }

  const fhe::EvalState& state = *active->state;
  active->response.levels = state.max_level();

  // Pre-execution noise veto: refuse before any multiplication is spent.
  if (!state.decryptable()) {
    const fhe::DghvParams& params = active->session->key.params();
    Response response = std::move(active->response);
    response.status = ResponseStatus::kRejectedByNoise;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "predicted noise %.1f bits exceeds the decryptability budget %.1f bits",
                  state.max_noise_bits(), fhe::NoiseModel::budget_bits(params));
    response.error = buf;
    complete(*active, std::move(response));
    return nullptr;
  }

  if (state.max_level() == 0) {  // multiplication-free circuit: done already
    Response response = std::move(active->response);
    response.outputs = active->serialize_outputs();
    complete(*active, std::move(response));
    return nullptr;
  }

  // Spectrum-resident rounds when the lanes speak spectra (the request's
  // wire spectra live in its own EvalState).
  lanes_.plan(*active->state);
  return active;
}

void Service::retire_round(std::vector<std::unique_ptr<Active>>& active,
                           std::span<const fhe::LevelStep> steps) {
  // Retire the failed and the finished; the rest move on one level.
  std::vector<std::unique_ptr<Active>> still_running;
  still_running.reserve(active.size());
  for (std::size_t k = 0; k < active.size(); ++k) {
    std::unique_ptr<Active>& request = active[k];
    if (steps[k].fault) {
      Response response = std::move(request->response);
      response.status = ResponseStatus::kInternalError;
      response.error = "execution failed: " + *steps[k].fault;
      complete(*request, std::move(response));
      continue;
    }
    const fhe::EvalState& state = *request->state;
    request->response.and_gates += state.wavefront(request->next_level).size();
    ++request->response.shared_batches;
    ++request->next_level;
    if (request->next_level > state.max_level()) {
      Response response = std::move(request->response);
      if (state.residency_enabled()) {
        const u64 executed = state.residency_stats().transforms_executed();
        response.transforms_executed = executed;
        response.transforms_avoided =
            static_cast<i64>(3 * response.and_gates) - static_cast<i64>(executed);
      }
      response.outputs = request->serialize_outputs();
      complete(*request, std::move(response));
    } else {
      still_running.push_back(std::move(request));
    }
  }
  active = std::move(still_running);
}

void Service::run_round(std::vector<std::unique_ptr<Active>>& active) {
  {
    std::lock_guard lock(mutex_);
    ++totals_.batches_submitted;
    totals_.coalesced_requests += active.size();
  }
  // Fuse the fronts: every request's next level goes through one
  // step_levels call, so independent tenants at the same depth share each
  // phase's scheduler batch. A lane fault fails only its own request.
  std::vector<fhe::LevelStep> steps;
  steps.reserve(active.size());
  for (const auto& request : active) steps.push_back({&*request->state, request->next_level, {}});
  fhe::step_levels(steps, lanes_);
  retire_round(active, steps);
}

void Service::coordinator_loop() {
  std::vector<std::unique_ptr<Active>> active;
  std::unique_lock lock(mutex_);
  for (;;) {
    if (active.empty()) {
      work_cv_.wait(lock, [&] { return stop_ || !pending_.empty(); });
      if (pending_.empty()) {
        if (stop_) break;
        continue;
      }
      if (options_.admission_window_ms > 0.0 && !stop_) {
        // Linger so tenants submitting concurrently land in one round, but
        // only while the round can still grow: with nothing active, every
        // busy session's requests are pending, so once every open session
        // is busy no other tenant can join.
        const auto deadline = Clock::now() + std::chrono::duration<double, std::milli>(
                                                 options_.admission_window_ms);
        const auto linger_over = [&] { return stop_ || busy_sessions_ == sessions_.size(); };
        work_cv_.wait_until(lock, deadline, linger_over);
      }
    }
    std::vector<Pending> batch;
    while (!pending_.empty()) {
      batch.push_back(std::move(pending_.front()));
      pending_.pop_front();
    }
    lock.unlock();
    for (Pending& pending : batch) {
      if (auto admitted = admit(std::move(pending))) active.push_back(std::move(admitted));
    }
    if (!active.empty()) run_round(active);
    lock.lock();
  }
  HEMUL_CHECK_MSG(active.empty() && pending_.empty(), "Service: shutdown with work in flight");
}

}  // namespace hemul::core
