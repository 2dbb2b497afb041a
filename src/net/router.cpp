#include "net/router.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "util/check.hpp"

namespace hemul::net {

namespace {

/// splitmix64 (same mixer as shard_of and the fault injector).
u64 mix64(u64 z) noexcept {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void sleep_ms(double ms) {
  if (ms > 0) std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

[[nodiscard]] bool serving(ShardState state) noexcept {
  return state == ShardState::kAlive || state == ShardState::kSuspect;
}

}  // namespace

Router::Router(std::vector<std::string> shard_addresses)
    : Router(std::move(shard_addresses), Options{}) {}

Router::Router(std::vector<std::string> shard_addresses, Options options)
    : options_(std::move(options)), on_shutdown_(options_.on_shutdown),
      shards_([&shard_addresses] {
        HEMUL_CHECK_MSG(!shard_addresses.empty(), "Router: no shards configured");
        std::vector<Shard> shards;
        shards.reserve(shard_addresses.size());
        for (std::string& address : shard_addresses) {
          Shard shard;
          shard.address = std::move(address);
          shard.client = std::make_shared<ShardClient>(shard.address);
          shards.push_back(std::move(shard));
        }
        return shards;
      }()),
      server_(options_.port, [this](const fhe::Envelope& request, ServerConnection& conn) {
        handle(request, conn);
      }) {
  if (options_.probe_interval_ms > 0) {
    prober_ = std::thread([this] { probe_loop(); });
  }
}

Router::~Router() { stop(); }

void Router::stop() {
  {
    std::lock_guard lock(probe_mutex_);
    stopping_ = true;
  }
  probe_cv_.notify_all();
  if (prober_.joinable()) prober_.join();
  server_.stop();
}

std::size_t Router::shard_of(u64 global_session, std::size_t shard_count) noexcept {
  // splitmix64: deterministic, well-mixed, and stable across platforms --
  // the same session id always lands on the same shard.
  return static_cast<std::size_t>(mix64(global_session) % shard_count);
}

std::vector<std::size_t> Router::walk_order(u64 global) const {
  const std::size_t n = shards_.size();
  std::vector<std::size_t> order(n);
  const std::size_t first = shard_of(global, n);
  for (std::size_t k = 0; k < n; ++k) order[k] = (first + k) % n;
  return order;
}

double Router::backoff_ms(u64 key, unsigned attempt) const noexcept {
  const RetryPolicy& policy = options_.retry;
  const unsigned doublings = std::min(attempt > 0 ? attempt - 1 : 0u, 20u);
  const double capped =
      std::min(policy.base_backoff_ms * static_cast<double>(u64{1} << doublings),
               policy.max_backoff_ms);
  // Deterministic jitter in [0.5, 1.0): reproducible runs, but concurrent
  // retriers of different sessions never sleep in lockstep.
  const u64 h = mix64(policy.jitter_seed ^ key ^ attempt);
  return capped * (0.5 + 0.5 * static_cast<double>(h >> 11) * 0x1.0p-53);
}

void Router::mark_dead(std::size_t shard, const std::shared_ptr<ShardClient>& expected) {
  std::lock_guard lock(mutex_);
  if (shards_[shard].client == expected) shards_[shard].state = ShardState::kDead;
}

void Router::probe_loop() {
  std::unique_lock lock(probe_mutex_);
  while (!stopping_) {
    probe_cv_.wait_for(
        lock, std::chrono::duration<double, std::milli>(options_.probe_interval_ms),
        [&] { return stopping_; });
    if (stopping_) return;
    lock.unlock();
    probe_once();
    lock.lock();
  }
}

void Router::probe_once() {
  // A probe must complete even against a wedged-but-connected peer, so it
  // always carries a deadline: the configured control deadline, else one
  // probe period, else a second.
  const double probe_deadline =
      options_.shard_deadline_ms > 0
          ? options_.shard_deadline_ms
          : (options_.probe_interval_ms > 0 ? options_.probe_interval_ms : 1000.0);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    std::shared_ptr<ShardClient> client;
    ShardState state;
    std::string address;
    {
      std::lock_guard lock(mutex_);
      client = shards_[i].client;
      state = shards_[i].state;
      address = shards_[i].address;
    }
    switch (state) {
      case ShardState::kAlive:
      case ShardState::kSuspect: {
        if (!client->alive()) {
          mark_dead(i, client);
          break;
        }
        {
          std::lock_guard lock(mutex_);
          ++probes_sent_;
        }
        try {
          client->ping(probe_deadline);
          std::lock_guard lock(mutex_);
          if (shards_[i].client == client) shards_[i].state = ShardState::kAlive;
        } catch (const std::exception&) {
          // One failed probe demotes alive -> suspect (still serving); a
          // second -- or an outright dead connection -- kills it.
          std::lock_guard lock(mutex_);
          if (shards_[i].client != client) break;
          shards_[i].state = (state == ShardState::kAlive && client->alive())
                                 ? ShardState::kSuspect
                                 : ShardState::kDead;
        }
        break;
      }
      case ShardState::kDead: {
        {
          std::lock_guard lock(mutex_);
          if (shards_[i].state != ShardState::kDead) break;
          shards_[i].state = ShardState::kReconnecting;
        }
        try {
          auto fresh = std::make_shared<ShardClient>(address);
          std::lock_guard lock(mutex_);
          shards_[i].client = std::move(fresh);
          // A restarted shard lost its sessions: the incarnation bump makes
          // every placement pinned to the old connection re-home on next use.
          ++shards_[i].incarnation;
          shards_[i].state = ShardState::kAlive;
        } catch (const std::exception&) {
          std::lock_guard lock(mutex_);
          shards_[i].state = ShardState::kDead;  // redial next pass
        }
        break;
      }
      case ShardState::kReconnecting:
        break;  // a concurrent pass owns the redial
    }
  }
}

Router::Resolved Router::resolve_session(u64 global) {
  const auto try_resolve = [&]() -> std::optional<Resolved> {
    std::lock_guard lock(mutex_);
    const auto it = placements_.find(global);
    if (it == placements_.end()) {
      throw std::invalid_argument("unknown session " + std::to_string(global));
    }
    const Placement& placement = it->second;
    const Shard& shard = shards_[placement.shard];
    if (shard.incarnation == placement.incarnation && serving(shard.state) &&
        shard.client->alive()) {
      return Resolved{placement.shard, placement.remote, shard.client};
    }
    return std::nullopt;
  };
  if (std::optional<Resolved> resolved = try_resolve()) return *resolved;

  // The recorded owner is dead or was restarted without its sessions:
  // replay the session's creation on the next live shard in walk order.
  // The payload is the session's whole evaluation material, so the replayed
  // session is the original bit for bit and answers bit-exactly. One
  // re-homer at a time per router -- concurrent requests of a dead shard's
  // sessions must yield ONE replay per session, not a herd of duplicates.
  std::lock_guard rehome(rehome_mutex_);
  if (std::optional<Resolved> resolved = try_resolve()) return *resolved;

  fhe::Bytes payload;
  {
    std::lock_guard lock(mutex_);
    payload = placements_.at(global).create_payload;
  }
  for (const std::size_t i : walk_order(global)) {
    std::shared_ptr<ShardClient> client;
    u64 incarnation = 0;
    {
      std::lock_guard lock(mutex_);
      const Shard& shard = shards_[i];
      if (!serving(shard.state) || !shard.client->alive()) continue;
      client = shard.client;
      incarnation = shard.incarnation;
    }
    try {
      const fhe::Envelope remote = client->create_session_raw(payload);
      if (remote.type != fhe::MessageType::kSessionCreated) {
        continue;  // refused (draining, table full): try the next shard
      }
      std::lock_guard lock(mutex_);
      Placement& placement = placements_.at(global);
      placement.shard = i;
      placement.remote = remote.session;
      placement.incarnation = incarnation;
      ++sessions_rehomed_;
      return Resolved{i, placement.remote, client};
    } catch (const std::exception&) {
      mark_dead(i, client);
    }
  }
  throw NetError("no live shard to re-home session " + std::to_string(global) + " onto");
}

core::Response Router::forward_submit(u64 global, fhe::Bytes payload, u64 deadline_ms) {
  const auto started = std::chrono::steady_clock::now();
  const auto remaining = [&]() -> double {
    const double elapsed =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                  started)
            .count();
    return static_cast<double>(deadline_ms) - elapsed;
  };
  for (unsigned attempt = 0;; ++attempt) {
    double budget = 0.0;  // 0 = no deadline on the forward
    if (deadline_ms != 0) {
      budget = remaining();
      if (budget <= 0) {
        core::Response response;
        response.status = core::ResponseStatus::kExpired;
        response.error = "deadline expired in the router";
        return response;
      }
    }

    Resolved place;
    try {
      place = resolve_session(global);
    } catch (const std::invalid_argument& e) {
      core::Response response;
      response.status = core::ResponseStatus::kBadRequest;
      response.error = e.what();
      return response;
    } catch (const std::exception& e) {
      core::Response response;
      response.status = core::ResponseStatus::kUnavailable;
      response.error = e.what();
      std::lock_guard lock(mutex_);
      ++failed_;
      return response;
    }

    if (!place.client->alive()) {
      // The connection died before anything was written: replaying is
      // unambiguously safe, and re-resolving will re-home the session.
      mark_dead(place.shard, place.client);
      if (attempt < options_.retry.max_retries) {
        std::lock_guard lock(mutex_);
        ++retries_;
        continue;
      }
      core::Response response;
      response.status = core::ResponseStatus::kUnavailable;
      response.error = "shard for session " + std::to_string(global) + " is down";
      std::lock_guard lock(mutex_);
      ++failed_;
      return response;
    }

    {
      std::lock_guard lock(mutex_);
      ++forwarded_;
    }
    core::Response response =
        place.client->submit_raw(place.remote, payload, budget).get();

    if (response.status == core::ResponseStatus::kUnavailable &&
        !place.client->alive()) {
      // Ambiguous loss: the frame may have reached the shard before the
      // connection died, so a replay could double-execute. Fail THIS
      // request once; marking the shard dead makes the tenant's next
      // request re-home cleanly.
      mark_dead(place.shard, place.client);
      std::lock_guard lock(mutex_);
      ++failed_;
      return response;
    }
    if (response.status == core::ResponseStatus::kOverloaded &&
        attempt < options_.retry.max_retries) {
      // Honor the shard's retry-after hint, floor it with our own backoff
      // curve, and never sleep past the caller's deadline.
      double pause = std::max(response.retry_after_ms, backoff_ms(global, attempt + 1));
      if (deadline_ms != 0) pause = std::min(pause, remaining());
      sleep_ms(pause);
      std::lock_guard lock(mutex_);
      ++retries_;
      continue;
    }
    return response;
  }
}

FleetStats Router::fleet_stats() {
  FleetStats fleet;
  struct Snapshot {
    std::string address;
    std::shared_ptr<ShardClient> client;
    ShardState state;
  };
  std::vector<Snapshot> snapshot;
  {
    std::lock_guard lock(mutex_);
    fleet.sessions_created = sessions_created_;
    fleet.forwarded = forwarded_;
    fleet.failed = failed_;
    fleet.sessions_rehomed = sessions_rehomed_;
    fleet.retries = retries_;
    fleet.probes_sent = probes_sent_;
    snapshot.reserve(shards_.size());
    for (const Shard& shard : shards_) {
      snapshot.push_back({shard.address, shard.client, shard.state});
    }
  }
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    ShardStats shard;
    shard.address = snapshot[i].address;
    shard.state = snapshot[i].state;
    shard.alive = serving(shard.state) && snapshot[i].client->alive();
    if (shard.alive) {
      try {
        FleetStats remote = snapshot[i].client->stats(options_.shard_deadline_ms);
        if (remote.shards.size() == 1) shard.service = std::move(remote.shards[0].service);
      } catch (const std::exception&) {
        shard.alive = false;  // died (or hung) between the check and the RPC
        if (!snapshot[i].client->alive()) {
          mark_dead(i, snapshot[i].client);
          shard.state = ShardState::kDead;
        }
      }
    }
    fleet.shards.push_back(std::move(shard));
  }
  return fleet;
}

void Router::handle_create(const fhe::Envelope& request, ServerConnection& connection) {
  u64 global = 0;
  {
    std::lock_guard lock(mutex_);
    global = next_session_++;
  }
  // Creates forward the caller's deadline, never the control-RPC bound.
  const double deadline = static_cast<double>(request.deadline_ms);
  std::string last_error = "no live shard to place the session on";
  for (unsigned attempt = 0; attempt <= options_.retry.max_retries; ++attempt) {
    if (attempt > 0) {
      sleep_ms(backoff_ms(global, attempt));
      std::lock_guard lock(mutex_);
      ++retries_;
    }
    std::shared_ptr<ShardClient> client;
    std::size_t index = 0;
    u64 incarnation = 0;
    for (const std::size_t i : walk_order(global)) {
      std::lock_guard lock(mutex_);
      const Shard& shard = shards_[i];
      if (serving(shard.state) && shard.client->alive()) {
        client = shard.client;
        index = i;
        incarnation = shard.incarnation;
        break;
      }
    }
    if (!client) continue;  // a probe pass may revive one before the retry

    fhe::Envelope remote;
    try {
      remote = client->create_session_raw(request.payload, deadline);
    } catch (const std::exception& e) {
      // The replay is idempotent even if the shard opened the session
      // before the connection died: the orphan session just idles.
      mark_dead(index, client);
      last_error = e.what();
      continue;
    }
    if (remote.type == fhe::MessageType::kError) {
      // Re-raise toward OUR client with the shard's error payload (a
      // deliberate refusal -- draining, table full -- is not retried).
      fhe::Envelope reply;
      reply.type = fhe::MessageType::kError;
      reply.session = request.session;
      reply.request_id = request.request_id;
      reply.payload = remote.payload;
      connection.send_now(std::move(reply));
      return;
    }
    if (remote.type != fhe::MessageType::kSessionCreated) {
      // Protocol breach: answer our client cleanly and stop trusting the
      // shard, instead of throwing the whole client connection away.
      {
        std::lock_guard lock(mutex_);
        if (shards_[index].client == client &&
            shards_[index].state == ShardState::kAlive) {
          shards_[index].state = ShardState::kSuspect;
        }
      }
      fhe::Envelope reply;
      reply.type = fhe::MessageType::kError;
      reply.session = request.session;
      reply.request_id = request.request_id;
      reply.payload = fhe::encode_error_payload(
          fhe::WireErrorCode::kInternal,
          "shard answered create_session with message type " +
              std::to_string(static_cast<unsigned>(remote.type)));
      connection.send_now(std::move(reply));
      return;
    }
    {
      std::lock_guard lock(mutex_);
      Placement placement;
      placement.shard = index;
      placement.remote = remote.session;
      placement.incarnation = incarnation;
      placement.create_payload = request.payload;  // replayed on failover
      placements_[global] = std::move(placement);
      ++sessions_created_;
    }
    fhe::Envelope reply;
    reply.type = fhe::MessageType::kSessionCreated;
    reply.session = global;
    reply.request_id = request.request_id;
    reply.payload = remote.payload;
    connection.send_now(std::move(reply));
    return;
  }
  fhe::Envelope reply;
  reply.type = fhe::MessageType::kError;
  reply.session = request.session;
  reply.request_id = request.request_id;
  reply.payload = fhe::encode_error_payload(
      fhe::WireErrorCode::kInternal, "create_session failed after retries: " + last_error);
  connection.send_now(std::move(reply));
}

void Router::handle(const fhe::Envelope& request, ServerConnection& connection) {
  switch (request.type) {
    case fhe::MessageType::kCreateSession:
      // Blocks on a shard RPC: off the reader.
      connection.run_serial(request,
                            [this, &connection, request] { handle_create(request, connection); });
      return;
    case fhe::MessageType::kSubmit: {
      {
        // Unknown sessions fail synchronously (kUnknownSession envelope via
        // the server's exception mapping); placements are never erased, so
        // the async forward cannot race this check into a false positive.
        std::lock_guard lock(mutex_);
        if (placements_.find(request.session) == placements_.end()) {
          throw std::invalid_argument("unknown session " +
                                      std::to_string(request.session));
        }
      }
      // The forward runs on its own task and posts its own reply: it may
      // block on retry backoff or a failover replay, and neither the reader
      // nor any other reply waits for it.
      connection.respond_async(request.session, request.request_id,
                               [this, session = request.session, payload = request.payload,
                                deadline = request.deadline_ms]() mutable {
                                 return forward_submit(session, std::move(payload), deadline);
                               });
      return;
    }
    case fhe::MessageType::kPing: {
      fhe::Envelope reply;
      reply.type = fhe::MessageType::kPong;
      reply.request_id = request.request_id;
      connection.send_now(std::move(reply));
      return;
    }
    case fhe::MessageType::kStats:
      // Waits on every shard's stats RPC: off the reader too.
      connection.run_serial(request, [this, &connection, id = request.request_id] {
        fhe::Envelope reply;
        reply.type = fhe::MessageType::kStatsReply;
        reply.request_id = id;
        reply.payload = encode_fleet_stats(fleet_stats());
        connection.send_now(std::move(reply));
      });
      return;
    case fhe::MessageType::kShutdown: {
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
              " is not served by the router");
      connection.send_now(std::move(reply));
      return;
    }
  }
}

}  // namespace hemul::net
