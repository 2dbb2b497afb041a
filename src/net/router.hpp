#pragma once

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/client.hpp"
#include "net/server.hpp"

namespace hemul::net {

/// When a shard RPC is safe to replay, how the router paces the replays:
/// capped exponential backoff with deterministic jitter (splitmix64 over
/// jitter_seed, the session id and the attempt number -- reproducible runs,
/// no synchronized retry herds).
struct RetryPolicy {
  unsigned max_retries = 2;      ///< replays after the first attempt
  double base_backoff_ms = 10.0; ///< first retry sleeps ~this long
  double max_backoff_ms = 500.0; ///< backoff growth cap
  u64 jitter_seed = 0x9E3779B97F4A7C15ull;
};

/// Fleet front door: speaks the same envelope protocol as a shard, but owns
/// no Service -- it places sessions on shards by hashing the (router-
/// assigned) global session id, forwards submits verbatim to the owning
/// shard, and aggregates per-shard stats into one kStatsReply. Nothing that
/// waits on a shard runs on a connection's reader: creates and stats run on
/// the connection's serial worker, each submit forward on a task of its
/// own that posts its reply the moment the shard answers.
///
/// Placement is deterministic: shard_of(id, n) depends only on the id and
/// the shard count, so a restarted router with the same shard list hashes
/// identically. Sessions survive shard death: the router records every
/// session's create payload (params || x0 || zero || one, about 3 gamma
/// bits; placements are never dropped) and, when the owner dies, replays it
/// on the next live shard in the deterministic walk order -- the payload is
/// the session, so the re-homed session is the same bit for bit and answers
/// bit-exactly (FleetStats::sessions_rehomed counts these).
///
/// A probe loop (Options::probe_interval_ms) drives each shard through
/// kAlive -> kSuspect -> kDead on failed kPing probes and redials dead
/// shards (kReconnecting -> kAlive, with a bumped incarnation so stale
/// placements re-home rather than trust a restarted, session-less peer).
class Router {
 public:
  struct Options {
    int port = 0;  ///< 0 = ephemeral
    RetryPolicy retry;
    /// Probe loop period; 0 disables probing (shards still transition to
    /// dead on connection loss observed by regular traffic).
    double probe_interval_ms = 0.0;
    /// Deadline for the router's own cheap control RPCs to shards (ping,
    /// stats); 0 = none. Never applied to create or submit forwards --
    /// those carry the caller's own deadline, and deep circuits are
    /// legitimately seconds-scale.
    double shard_deadline_ms = 0.0;
    /// Invoked (once) after a kShutdown request has been acknowledged.
    std::function<void()> on_shutdown;
  };

  /// Connects to every shard up front; throws NetError if any is
  /// unreachable (a fleet that never formed is a deployment error, unlike
  /// a shard dying later, which is handled).
  Router(std::vector<std::string> shard_addresses, Options options);
  explicit Router(std::vector<std::string> shard_addresses);
  ~Router();

  [[nodiscard]] int port() const noexcept { return server_.port(); }
  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }
  void stop();

  /// The placement hash: splitmix64 over the global session id, reduced
  /// modulo the shard count. Exposed so tests can assert determinism.
  [[nodiscard]] static std::size_t shard_of(u64 global_session,
                                            std::size_t shard_count) noexcept;

  /// The router's own view of the fleet (same data a kStats RPC returns).
  [[nodiscard]] FleetStats fleet_stats();

  /// One probe pass over every shard, exactly what the probe loop runs per
  /// period: ping live shards (escalating failures alive -> suspect ->
  /// dead) and redial dead ones. Exposed so tests can drive the state
  /// machine without real-time waits.
  void probe_once();

 private:
  struct Shard {
    std::string address;
    std::shared_ptr<ShardClient> client;
    ShardState state = ShardState::kAlive;
    u64 incarnation = 0;  ///< bumped per reconnect; placements pin the one
                          ///< they were created under
  };

  struct Placement {
    std::size_t shard = 0;
    core::SessionId remote = 0;  ///< the session id inside that shard
    u64 incarnation = 0;
    fhe::Bytes create_payload;   ///< params || x0 || zero || one, replayed on failover
  };

  /// A placement resolved to a live connection (what a forward needs).
  struct Resolved {
    std::size_t shard = 0;
    core::SessionId remote = 0;
    std::shared_ptr<ShardClient> client;
  };

  void handle(const fhe::Envelope& request, ServerConnection& connection);
  /// Places a new session; runs on the connection's serial worker, since it
  /// waits on a shard RPC.
  void handle_create(const fhe::Envelope& request, ServerConnection& connection);
  /// The async forward of one submit; never throws -- every failure mode
  /// becomes a Response status.
  core::Response forward_submit(u64 global, fhe::Bytes payload, u64 deadline_ms);
  /// Maps a global session to a live shard connection, re-homing it (create
  /// replay on the next live shard) when the recorded owner is dead or was
  /// restarted. Throws std::invalid_argument for unknown sessions and
  /// NetError when no live shard remains.
  Resolved resolve_session(u64 global);
  /// Walks shard indices starting at the placement hash; deterministic, so
  /// independent routers agree on the failover target.
  [[nodiscard]] std::vector<std::size_t> walk_order(u64 global) const;
  /// Marks a shard dead iff `expected` is still its current connection
  /// (a reconnected shard must not be re-killed by a stale observation).
  void mark_dead(std::size_t shard, const std::shared_ptr<ShardClient>& expected);
  [[nodiscard]] double backoff_ms(u64 key, unsigned attempt) const noexcept;
  void probe_loop();

  Options options_;
  std::function<void()> on_shutdown_;

  std::mutex mutex_;  ///< shards_ entries, placements_, counters
  std::vector<Shard> shards_;
  std::unordered_map<u64, Placement> placements_;
  u64 next_session_ = 1;
  u64 sessions_created_ = 0;
  u64 forwarded_ = 0;
  u64 failed_ = 0;            ///< submits refused because the owner is down
  u64 sessions_rehomed_ = 0;  ///< failover create replays that landed
  u64 retries_ = 0;           ///< safe replays (create placement, overload)
  u64 probes_sent_ = 0;

  /// Serializes re-homing: concurrent requests of one dead shard's sessions
  /// must produce ONE replay per session, not a thundering herd.
  std::mutex rehome_mutex_;

  std::mutex probe_mutex_;
  std::condition_variable probe_cv_;
  bool stopping_ = false;
  std::thread prober_;

  EnvelopeServer server_;  ///< last member: stops before the clients close
};

}  // namespace hemul::net
