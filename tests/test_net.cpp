// In-process loopback tests of the fleet transport (src/net/): a real
// ShardServer/Router listening on 127.0.0.1, driven through ShardClient.
// The multi-process variant (fork/exec of the actual daemons) lives in
// test_fleet_integration.cpp; everything here runs in one process so the
// sanitizer cells can see both sides.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fhe/circuits.hpp"
#include "fhe/evaluator.hpp"
#include "fhe/graph.hpp"
#include "fhe/serialize.hpp"
#include "fhe/session.hpp"
#include "net/client.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "service/service.hpp"

namespace hemul::net {
namespace {

using fhe::Ciphertext;
using fhe::DghvParams;

core::ServiceOptions ssa_options(unsigned workers, double window_ms = 0.0) {
  core::ServiceOptions options;
  options.config.backend_name = "ssa";
  options.config.num_workers = workers;
  options.admission_window_ms = window_ms;
  return options;
}

std::string loopback(int port) { return "127.0.0.1:" + std::to_string(port); }

fhe::Bytes concat(const fhe::Bytes& a, const fhe::Bytes& b) {
  fhe::Bytes out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

/// A width-2 carry-save multiply request (the fleet's canonical traffic:
/// ripple at width 2 exceeds the toy noise budget, carry-save fits).
core::Request mul_request(fhe::Dghv& scheme, u64 x, u64 y) {
  core::Request request;
  request.spec.kind = core::CircuitKind::kMul;
  request.spec.width = 2;
  request.spec.lowering.strategy = fhe::LoweringStrategy::kCarrySave;
  request.inputs = concat(fhe::encode_ciphertexts(fhe::encrypt_int(scheme, x, 2)),
                          fhe::encode_ciphertexts(fhe::encrypt_int(scheme, y, 2)));
  return request;
}

/// One AND gate: the shortest request there is.
core::Request and_request(fhe::Dghv& scheme, bool a, bool b) {
  core::Request request;
  request.spec.kind = core::CircuitKind::kAnd;
  const std::vector<Ciphertext> inputs = {scheme.encrypt(a), scheme.encrypt(b)};
  request.inputs = fhe::encode_ciphertexts(inputs);
  return request;
}

/// `chains` independent AND chains of `depth` levels: each level multiplies
/// a chain by that chain's own encryption of 1, so the noise grows only
/// linearly and deep() admits hundreds of levels -- a request that is long
/// in rounds, not just in gates. Every output decrypts to 1.
core::Request chain_request(fhe::Dghv& scheme, unsigned chains, unsigned depth) {
  fhe::Graph graph(scheme);
  std::vector<Ciphertext> inputs;
  std::vector<fhe::Wire> outputs;
  for (unsigned c = 0; c < chains; ++c) {
    inputs.push_back(scheme.encrypt(true));
    fhe::Wire wire = graph.input(inputs.back());
    inputs.push_back(scheme.encrypt(true));
    const fhe::Wire one = graph.input(inputs.back());
    for (unsigned level = 0; level < depth; ++level) wire = graph.gate_and(wire, one);
    outputs.push_back(wire);
  }
  core::Request request;
  request.spec.kind = core::CircuitKind::kGraph;
  request.graph = fhe::encode_graph(fhe::GraphTopology::capture(graph, outputs));
  request.inputs = fhe::encode_ciphertexts(inputs);
  return request;
}

bool ready(const std::future<core::Response>& future) {
  return future.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

u64 decrypt_response(const fhe::Dghv& scheme, const core::Response& response) {
  const std::vector<Ciphertext> outputs = fhe::decode_ciphertexts(response.outputs);
  return fhe::decrypt_int(scheme, fhe::EncryptedInt(outputs.begin(), outputs.end()));
}

// --- placement hash ---------------------------------------------------------

TEST(NetTest, ShardPlacementHashIsDeterministicAndSpreads) {
  // Same id, same count -> same shard, always (the router restart story).
  for (u64 id = 0; id < 64; ++id) {
    for (std::size_t count : {std::size_t{1}, std::size_t{2}, std::size_t{5}}) {
      const std::size_t first = Router::shard_of(id, count);
      EXPECT_EQ(first, Router::shard_of(id, count));
      EXPECT_LT(first, count);
    }
  }
  // splitmix64 mixes well enough that a handful of consecutive ids already
  // touches every shard of a small fleet.
  std::set<std::size_t> hit;
  for (u64 id = 1; id <= 16; ++id) hit.insert(Router::shard_of(id, 2));
  EXPECT_EQ(hit.size(), 2u);
}

// --- one shard over loopback ------------------------------------------------

TEST(NetTest, LoopbackShardMatchesInProcessServiceBitExactly) {
  // The same seeds and the same encrypted request bytes through both paths:
  // a ShardServer over TCP and a plain in-process Service. Keygen is
  // deterministic from (params, seed), so the two services hold identical
  // evaluation material and must produce byte-identical response payloads.
  core::Service remote_service(ssa_options(2));
  ShardServer server(remote_service);
  ShardClient client(loopback(server.port()));

  core::Service local_service(ssa_options(2));

  const u64 key_seed = 12345;
  ShardClient::SessionKeys keys = client.create_session(DghvParams::toy(), key_seed);
  const core::SessionId local_session =
      local_service.create_session(DghvParams::toy(), key_seed);
  // The tenant encrypts with p: keygen built no public encryptions of zero.
  EXPECT_TRUE(keys.public_key.x.empty());

  // The tenant rebuilds its scheme from the keys create_session generated;
  // its x0 is the one the in-process session was opened with.
  fhe::Dghv tenant(std::move(keys.public_key), std::move(keys.secret_key), 777);
  EXPECT_EQ(tenant.public_key().x0, fhe::tenant_keygen(DghvParams::toy(), key_seed).create.x0);

  for (const auto& [x, y] : std::vector<std::pair<u64, u64>>{{3, 2}, {1, 3}, {2, 2}}) {
    const core::Request request = mul_request(tenant, x, y);
    const fhe::Bytes wire = core::encode_request(request);

    const core::Response remote = client.submit(keys.session, request).get();
    const core::Response local =
        local_service.submit(local_session, core::decode_request(wire)).get();

    ASSERT_TRUE(remote.ok()) << remote.error;
    ASSERT_TRUE(local.ok()) << local.error;
    EXPECT_EQ(remote.outputs, local.outputs) << "x=" << x << " y=" << y;
    EXPECT_EQ(decrypt_response(tenant, remote), x * y);
    EXPECT_EQ(remote.and_gates, local.and_gates);
    EXPECT_EQ(remote.levels, local.levels);
  }

  const FleetStats stats = client.stats();
  ASSERT_EQ(stats.shards.size(), 1u);
  EXPECT_EQ(stats.shards[0].service.completed, 3u);
}

TEST(NetTest, DrainingShardRefusesNewSessionsCleanly) {
  core::Service service(ssa_options(1));
  ShardServer server(service);
  ShardClient client(loopback(server.port()));

  const ShardClient::SessionKeys keys = client.create_session(DghvParams::toy(), 5);
  service.stop_accepting();

  // New tenants are turned away with the typed error...
  EXPECT_THROW((void)client.create_session(DghvParams::toy(), 6), core::ShuttingDown);

  // ...and submits on existing sessions complete immediately as
  // kUnavailable rather than hanging or tearing the connection down.
  fhe::Dghv tenant(DghvParams::toy(), 5);
  const core::Response response = client.submit(keys.session, mul_request(tenant, 2, 3)).get();
  EXPECT_EQ(response.status, core::ResponseStatus::kUnavailable);

  // The connection itself is still healthy: stats still answers.
  EXPECT_EQ(client.stats().shards.size(), 1u);
}

TEST(NetTest, OverloadSheddingIsBoundedAndObservableOverTheWire) {
  // One worker, a bounded queue of 1 and a long admission window: the
  // first pipelined submit occupies the queue slot, every later one must
  // be shed with kOverloaded + a retry hint before the window closes. An
  // idle second session keeps the window open to its bound.
  core::ServiceOptions options = ssa_options(1, /*window_ms=*/200.0);
  options.max_queue_depth = 1;
  core::Service service(options);
  ShardServer server(service);
  ShardClient client(loopback(server.port()));

  ShardClient::SessionKeys keys = client.create_session(DghvParams::toy(), 9);
  (void)client.create_session(DghvParams::toy(), 10);
  fhe::Dghv tenant(std::move(keys.public_key), std::move(keys.secret_key), 99);

  constexpr int kPipelined = 6;
  std::vector<std::future<core::Response>> futures;
  futures.reserve(kPipelined);
  for (int i = 0; i < kPipelined; ++i) {
    futures.push_back(client.submit(keys.session, mul_request(tenant, 3, 2)));
  }
  EXPECT_LE(service.stats().queue_depth, 1u);  // the bound holds while they arrive

  int ok = 0, shed = 0;
  for (auto& future : futures) {
    const core::Response response = future.get();  // every future completes
    if (response.ok()) {
      ++ok;
      EXPECT_EQ(decrypt_response(tenant, response), 6u);
    } else {
      ASSERT_EQ(response.status, core::ResponseStatus::kOverloaded) << response.error;
      EXPECT_GT(response.retry_after_ms, 0.0);
      ++shed;
    }
  }
  EXPECT_EQ(ok, 1) << "exactly the queued request executes";
  EXPECT_EQ(shed, kPipelined - 1);

  // The service's own ledger agrees with what came over the wire.
  const core::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shed, static_cast<u64>(shed));
  EXPECT_EQ(stats.completed, static_cast<u64>(ok));
  EXPECT_LE(stats.queue_depth, 1u);  // the bound held
  EXPECT_EQ(client.stats().shards[0].service.shed, static_cast<u64>(shed));
}

TEST(NetTest, LoneTenantRequestIsNotHeldByTheWindow) {
  // The shard's only session has a request waiting: no other tenant could
  // join the round, so admission does not wait out the window.
  constexpr double kWindowMs = 250.0;
  core::Service service(ssa_options(1, kWindowMs));
  ShardServer server(service);
  ShardClient client(loopback(server.port()));

  ShardClient::SessionKeys keys = client.create_session(DghvParams::toy(), 11);
  fhe::Dghv tenant(std::move(keys.public_key), std::move(keys.secret_key), 12);
  const core::Response response =
      client.submit(keys.session, and_request(tenant, true, true)).get();
  ASSERT_TRUE(response.ok()) << response.error;
  EXPECT_EQ(decrypt_response(tenant, response), 1u);
  EXPECT_LT(response.queue_ms, kWindowMs / 2);
}

TEST(NetTest, LruEvictionDropsIdleSessionsOverTheWire) {
  core::ServiceOptions options = ssa_options(1);
  options.max_sessions = 2;
  core::Service service(options);
  ShardServer server(service);
  ShardClient client(loopback(server.port()));

  const ShardClient::SessionKeys first = client.create_session(DghvParams::toy(), 1);
  (void)client.create_session(DghvParams::toy(), 2);
  (void)client.create_session(DghvParams::toy(), 3);  // evicts the idle first

  EXPECT_EQ(service.stats().sessions_evicted, 1u);
  EXPECT_EQ(service.stats().sessions, 2u);

  // The evicted tenant's submits now fail as an unknown session -- a clean
  // kBadRequest status, not a hang or a dropped connection.
  fhe::Dghv tenant(DghvParams::toy(), 1);
  const core::Response response =
      client.submit(first.session, mul_request(tenant, 1, 2)).get();
  EXPECT_EQ(response.status, core::ResponseStatus::kBadRequest);
}

TEST(NetTest, ConnectionLossFailsOnlyThatConnectionsRequests) {
  core::Service service(ssa_options(1, /*window_ms=*/100.0));
  ShardServer server(service);

  auto doomed = std::make_unique<ShardClient>(loopback(server.port()));
  ShardClient survivor(loopback(server.port()));

  ShardClient::SessionKeys doomed_keys = doomed->create_session(DghvParams::toy(), 21);
  ShardClient::SessionKeys keys = survivor.create_session(DghvParams::toy(), 22);
  fhe::Dghv doomed_tenant(std::move(doomed_keys.public_key),
                          std::move(doomed_keys.secret_key), 5);
  fhe::Dghv tenant(std::move(keys.public_key), std::move(keys.secret_key), 6);

  // Leave one request in flight on the doomed connection, then cut it.
  std::future<core::Response> orphan =
      doomed->submit(doomed_keys.session, mul_request(doomed_tenant, 2, 3));
  doomed->close();
  const core::Response lost = orphan.get();  // fails cleanly, never hangs
  EXPECT_EQ(lost.status, core::ResponseStatus::kUnavailable);
  EXPECT_FALSE(doomed->alive());

  // The other connection (and the service behind it) is untouched.
  const core::Response response =
      survivor.submit(keys.session, mul_request(tenant, 3, 3)).get();
  ASSERT_TRUE(response.ok()) << response.error;
  EXPECT_EQ(decrypt_response(tenant, response), 9u);
}

TEST(NetTest, UnknownSessionsAndUnsupportedTypesYieldTypedErrors) {
  core::Service service(ssa_options(1));
  ShardServer server(service);
  ShardClient client(loopback(server.port()));

  fhe::Dghv tenant(DghvParams::toy(), 4);
  const core::Response response =
      client.submit(/*session=*/424242, mul_request(tenant, 1, 1)).get();
  EXPECT_EQ(response.status, core::ResponseStatus::kBadRequest);

  // A message type no shard serves comes back as kError/kUnsupported
  // instead of closing the connection.
  const fhe::Envelope reply = client.call(fhe::MessageType::kSessionCreated, 0, {});
  ASSERT_EQ(reply.type, fhe::MessageType::kError);
  const auto [code, message] = fhe::decode_error_payload(reply.payload);
  EXPECT_EQ(code, fhe::WireErrorCode::kUnsupported);
  EXPECT_FALSE(message.empty());
}

// --- router in front of two shards ------------------------------------------

TEST(NetTest, RouterPlacesSessionsForwardsAndAggregatesStats) {
  core::Service service_a(ssa_options(1));
  core::Service service_b(ssa_options(1));
  ShardServer shard_a(service_a);
  ShardServer shard_b(service_b);

  Router router({loopback(shard_a.port()), loopback(shard_b.port())});
  ShardClient client(loopback(router.port()));

  // Enough tenants that splitmix64 places some on each shard; the router
  // assigns global ids 1, 2, 3, ... so the expected placement is computable.
  constexpr int kTenants = 4;
  std::size_t expected_on[2] = {0, 0};
  int verified = 0;
  for (int t = 0; t < kTenants; ++t) {
    ShardClient::SessionKeys keys =
        client.create_session(DghvParams::toy(), 1000 + static_cast<u64>(t));
    ++expected_on[Router::shard_of(keys.session, 2)];
    fhe::Dghv tenant(std::move(keys.public_key), std::move(keys.secret_key),
                     2000 + static_cast<u64>(t));
    const u64 x = static_cast<u64>(t) % 4, y = (static_cast<u64>(t) * 3 + 1) % 4;
    const core::Response response = client.submit(keys.session, mul_request(tenant, x, y)).get();
    ASSERT_TRUE(response.ok()) << response.error;
    EXPECT_EQ(decrypt_response(tenant, response), x * y);
    ++verified;
  }
  EXPECT_EQ(verified, kTenants);

  const FleetStats fleet = client.stats();
  ASSERT_EQ(fleet.shards.size(), 2u);
  EXPECT_TRUE(fleet.shards[0].alive);
  EXPECT_TRUE(fleet.shards[1].alive);
  EXPECT_EQ(fleet.sessions_created, static_cast<u64>(kTenants));
  EXPECT_EQ(fleet.forwarded, static_cast<u64>(kTenants));
  EXPECT_EQ(fleet.failed, 0u);
  // The sessions really landed where shard_of says they do.
  EXPECT_EQ(fleet.shards[0].service.sessions, expected_on[0]);
  EXPECT_EQ(fleet.shards[1].service.sessions, expected_on[1]);
  EXPECT_EQ(fleet.aggregate().completed, static_cast<u64>(kTenants));
}

TEST(NetTest, DeadShardSessionsRehomeOntoLiveShards) {
  core::Service service_a(ssa_options(1));
  auto service_b = std::make_unique<core::Service>(ssa_options(1));
  ShardServer shard_a(service_a);
  auto shard_b = std::make_unique<ShardServer>(*service_b);
  const int port_b = shard_b->port();

  Router router({loopback(shard_a.port()), loopback(port_b)});
  ShardClient client(loopback(router.port()));

  // Create sessions until both shards hold at least one tenant.
  std::vector<ShardClient::SessionKeys> on_a, on_b;
  std::vector<fhe::Dghv> tenants_a, tenants_b;
  u64 seed = 0;
  while (on_a.empty() || on_b.empty()) {
    ShardClient::SessionKeys keys = client.create_session(DghvParams::toy(), 3000 + seed);
    fhe::Dghv tenant(std::move(keys.public_key), std::move(keys.secret_key), 4000 + seed);
    ++seed;
    if (Router::shard_of(keys.session, 2) == 0) {
      on_a.push_back(std::move(keys));
      tenants_a.push_back(std::move(tenant));
    } else {
      on_b.push_back(std::move(keys));
      tenants_b.push_back(std::move(tenant));
    }
    ASSERT_LT(seed, 64u) << "splitmix64 should spread a few ids over 2 shards";
  }

  // Kill shard B outright (server first, then its service).
  shard_b->stop();
  shard_b.reset();
  service_b.reset();

  // Shard B's sessions re-home: the router replays the recorded seeded
  // create on shard A, so the tenant's keys still decrypt the answers
  // bit-exactly. The very first request after the kill may race the
  // connection-loss detection and fail once with kUnavailable (ambiguous
  // mid-flight loss is never replayed) -- the next one must succeed.
  core::Response rehomed =
      client.submit(on_b[0].session, mul_request(tenants_b[0], 1, 2)).get();
  if (rehomed.status == core::ResponseStatus::kUnavailable) {
    rehomed = client.submit(on_b[0].session, mul_request(tenants_b[0], 1, 2)).get();
  }
  ASSERT_TRUE(rehomed.ok()) << rehomed.error;
  EXPECT_EQ(decrypt_response(tenants_b[0], rehomed), 2u);

  // Shard A's own sessions were never disturbed.
  const core::Response alive =
      client.submit(on_a[0].session, mul_request(tenants_a[0], 2, 3)).get();
  ASSERT_TRUE(alive.ok()) << alive.error;
  EXPECT_EQ(decrypt_response(tenants_a[0], alive), 6u);

  // Drive the health state machine once by hand (this router has no probe
  // thread): the dead connection demotes shard B straight to kDead.
  router.probe_once();

  // The stats reply calls the dead shard out and counts the re-homing.
  const FleetStats fleet = client.stats();
  ASSERT_EQ(fleet.shards.size(), 2u);
  EXPECT_TRUE(fleet.shards[0].alive);
  EXPECT_EQ(fleet.shards[0].state, ShardState::kAlive);
  EXPECT_FALSE(fleet.shards[1].alive);
  EXPECT_EQ(fleet.shards[1].state, ShardState::kDead);
  EXPECT_GE(fleet.sessions_rehomed, 1u);

  // New sessions always land on a live shard now: the placement walk skips
  // dead shards instead of refusing the tenant.
  for (int attempt = 0; attempt < 8; ++attempt) {
    ShardClient::SessionKeys keys = client.create_session(DghvParams::toy(), 5000 + attempt);
    fhe::Dghv tenant(std::move(keys.public_key), std::move(keys.secret_key), 6000 + attempt);
    const core::Response fresh =
        client.submit(keys.session, mul_request(tenant, 3, 3)).get();
    ASSERT_TRUE(fresh.ok()) << fresh.error;
    EXPECT_EQ(decrypt_response(tenant, fresh), 9u);
  }
}

TEST(NetTest, PipelinedRoundsAcrossAShardKillCompleteBitExactly) {
  // Three shards, six tenants, and a pipelined round of multiplies before
  // and after killing the shard that hosts tenant 0: every future completes
  // within a bounded wait, each victim re-homes exactly once through the
  // seeded create replay, and every answer decrypts right. A request caught
  // by the kill may fail once as kUnavailable (an ambiguous loss is never
  // replayed); its resubmission must succeed.
  constexpr std::size_t kShards = 3;
  constexpr u64 kTenants = 6;
  std::vector<std::unique_ptr<core::Service>> services;
  std::vector<std::unique_ptr<ShardServer>> servers;
  std::vector<std::string> addresses;
  for (std::size_t s = 0; s < kShards; ++s) {
    services.push_back(std::make_unique<core::Service>(ssa_options(1)));
    servers.push_back(std::make_unique<ShardServer>(*services.back()));
    addresses.push_back(loopback(servers.back()->port()));
  }
  Router router(addresses);
  ShardClient client(loopback(router.port()));

  std::vector<core::SessionId> sessions;
  std::vector<fhe::Dghv> tenants;
  for (u64 t = 0; t < kTenants; ++t) {
    ShardClient::SessionKeys keys = client.create_session(DghvParams::toy(), 7000 + t);
    sessions.push_back(keys.session);
    tenants.emplace_back(std::move(keys.public_key), std::move(keys.secret_key), 8000 + t);
  }

  const auto bounded_get = [](std::future<core::Response>& future) {
    if (future.wait_for(std::chrono::seconds(60)) == std::future_status::ready) {
      return future.get();
    }
    core::Response hung;
    hung.status = core::ResponseStatus::kTimeout;
    hung.error = "no reply within 60 s";
    return hung;
  };
  const auto round = [&](u64 r) {
    std::vector<std::future<core::Response>> futures;
    for (u64 t = 0; t < kTenants; ++t) {
      futures.push_back(
          client.submit(sessions[t], mul_request(tenants[t], (t + r) % 4, (3 * t + r) % 4)));
    }
    for (u64 t = 0; t < kTenants; ++t) {
      const u64 x = (t + r) % 4, y = (3 * t + r) % 4;
      core::Response response = bounded_get(futures[t]);
      if (response.status == core::ResponseStatus::kUnavailable) {
        std::future<core::Response> retry =
            client.submit(sessions[t], mul_request(tenants[t], x, y));
        response = bounded_get(retry);
      }
      ASSERT_TRUE(response.ok()) << "round " << r << " tenant " << t << ": " << response.error;
      EXPECT_EQ(decrypt_response(tenants[t], response), x * y) << "round " << r;
    }
  };

  round(0);
  const std::size_t dead = Router::shard_of(sessions[0], kShards);
  u64 victims = 0;
  for (const core::SessionId session : sessions) {
    if (Router::shard_of(session, kShards) == dead) ++victims;
  }
  servers[dead]->stop();
  servers[dead].reset();
  services[dead].reset();

  round(1);
  round(2);
  EXPECT_EQ(client.stats().sessions_rehomed, victims);
}

// The probe loop's full arc: alive -> dead on connection loss, then
// kReconnecting -> kAlive with an incarnation bump once the shard is back,
// and the bump forces sessions pinned to the old incarnation to re-home.
TEST(NetTest, ProbeLoopRedialsRestartedShardAndRehomesItsSessions) {
  core::Service service_a(ssa_options(1));
  auto service_b = std::make_unique<core::Service>(ssa_options(1));
  ShardServer shard_a(service_a);
  auto shard_b = std::make_unique<ShardServer>(*service_b);
  const int port_b = shard_b->port();

  Router router({loopback(shard_a.port()), loopback(port_b)});
  ShardClient client(loopback(router.port()));

  // Find a session that lands on shard B.
  u64 seed = 0;
  std::optional<ShardClient::SessionKeys> victim;
  std::optional<fhe::Dghv> tenant;
  while (!victim) {
    ShardClient::SessionKeys keys = client.create_session(DghvParams::toy(), 7000 + seed);
    if (Router::shard_of(keys.session, 2) == 1) {
      tenant.emplace(std::move(keys.public_key), std::move(keys.secret_key), 8000 + seed);
      victim = std::move(keys);
    }
    ++seed;
    ASSERT_LT(seed, 64u);
  }

  // Restart shard B on the same port with a FRESH service: the old session
  // table is gone, exactly like a crashed-and-respawned daemon.
  shard_b->stop();
  shard_b.reset();
  service_b.reset();
  router.probe_once();  // sees the dead connection -> kDead
  {
    const FleetStats fleet = client.stats();
    EXPECT_EQ(fleet.shards[1].state, ShardState::kDead);
  }

  service_b = std::make_unique<core::Service>(ssa_options(1));
  {
    ShardServer::Options reopen;
    reopen.port = port_b;
    shard_b = std::make_unique<ShardServer>(*service_b, std::move(reopen));
  }
  router.probe_once();  // kDead -> redial -> kAlive, incarnation bumped
  {
    const FleetStats fleet = client.stats();
    EXPECT_TRUE(fleet.shards[1].alive);
    EXPECT_EQ(fleet.shards[1].state, ShardState::kAlive);
    EXPECT_GE(fleet.probes_sent, 1u);
  }

  // The victim's placement points at the old incarnation, so its next
  // request replays the seeded create (possibly onto the restarted shard
  // itself) and still answers bit-exactly.
  const core::Response response =
      client.submit(victim->session, mul_request(*tenant, 2, 2)).get();
  ASSERT_TRUE(response.ok()) << response.error;
  EXPECT_EQ(decrypt_response(*tenant, response), 4u);
  const FleetStats fleet = client.stats();
  EXPECT_GE(fleet.sessions_rehomed, 1u);
}

// --- completion order and free readers ---------------------------------------

TEST(NetTest, ShardRepliesInCompletionOrderOnOneConnection) {
  // One connection carries a long request and, behind it, a single AND of
  // another tenant and a session create. Both short ones must come back
  // while the long one is still running: a reply never waits behind an
  // earlier request. The long request is 4 AND chains of 400 levels at
  // deep() (a 16-bit multiply would be longer in gates, but the noise
  // audit refuses it at deep()); the AND rides at most two of its 400
  // rounds and the create is a deep() keygen of a few ms, so both margins
  // are far above 20x.
  core::Service service(ssa_options(1));
  ShardServer server(service);
  ShardClient client(loopback(server.port()));

  ShardClient::SessionKeys long_keys = client.create_session(DghvParams::deep(), 31);
  ShardClient::SessionKeys short_keys = client.create_session(DghvParams::deep(), 32);
  fhe::Dghv long_tenant(std::move(long_keys.public_key), std::move(long_keys.secret_key), 3);
  fhe::Dghv short_tenant(std::move(short_keys.public_key), std::move(short_keys.secret_key),
                         4);
  constexpr unsigned kChains = 4, kDepth = 400;
  const core::Request long_request = chain_request(long_tenant, kChains, kDepth);
  const core::Request short_request = and_request(short_tenant, true, true);

  std::future<core::Response> long_future = client.submit(long_keys.session, long_request);
  std::future<core::Response> short_future = client.submit(short_keys.session, short_request);
  const core::Response short_response = short_future.get();
  EXPECT_FALSE(ready(long_future)) << "the AND reply waited for the long request";
  const ShardClient::SessionKeys keys = client.create_session(DghvParams::deep(), 33);
  EXPECT_FALSE(ready(long_future)) << "the create reply waited for the long request";

  ASSERT_TRUE(short_response.ok()) << short_response.error;
  EXPECT_EQ(decrypt_response(short_tenant, short_response), 1u);
  const core::Response long_response = long_future.get();
  ASSERT_TRUE(long_response.ok()) << long_response.error;
  EXPECT_EQ(long_response.levels, kDepth);
  for (const Ciphertext& bit : fhe::decode_ciphertexts(long_response.outputs)) {
    EXPECT_TRUE(long_tenant.decrypt(bit));
  }
  EXPECT_NE(keys.session, long_keys.session);
}

// --- session creation: the tenant's material, nothing back ------------------

/// Sends `payload` as a create and expects a typed kBadRequestBytes error.
void expect_create_refused(ShardClient& client, const fhe::Bytes& payload, const char* why) {
  const fhe::Envelope reply = client.create_session_raw(payload);
  ASSERT_EQ(reply.type, fhe::MessageType::kError) << why;
  const auto [code, message] = fhe::decode_error_payload(reply.payload);
  EXPECT_EQ(code, fhe::WireErrorCode::kBadRequestBytes) << why << ": " << message;
}

TEST(NetTest, ShardCreateTakesTheTenantsMaterialAndRepliesWithNoPayload) {
  core::Service service(ssa_options(1));
  ShardServer server(service);
  ShardClient client(loopback(server.port()));

  fhe::TenantKeys keys = fhe::tenant_keygen(DghvParams::toy(), 61);
  const fhe::Envelope created = client.create_session_raw(fhe::encode_session_create(keys.create));
  ASSERT_EQ(created.type, fhe::MessageType::kSessionCreated);
  // Only the session id comes back, in the header: no key frame of any tag
  // (kSecretKey above all) leaves a shard.
  EXPECT_TRUE(created.payload.empty());
  EXPECT_NE(created.session, 0u);

  const core::Response response =
      client.submit(created.session, mul_request(keys.scheme, 3, 3)).get();
  ASSERT_TRUE(response.ok()) << response.error;
  EXPECT_EQ(decrypt_response(keys.scheme, response), 9u);
}

TEST(NetTest, HostileCreatesGetTypedErrorsAndOpenNoSession) {
  core::Service service(ssa_options(1));
  ShardServer server(service);
  ShardClient client(loopback(server.port()));
  const fhe::SessionCreate good = fhe::tenant_keygen(DghvParams::toy(), 62).create;

  fhe::SessionCreate bad = good;
  bad.x0 = good.x0 - bigint::BigUInt{1};
  expect_create_refused(client, fhe::encode_session_create(bad), "even x0");
  bad.x0 = bigint::BigUInt{};
  expect_create_refused(client, fhe::encode_session_create(bad), "zero x0");
  bad.x0 = (good.x0 << 1) + bigint::BigUInt{1};
  expect_create_refused(client, fhe::encode_session_create(bad), "x0 of gamma + 1 bits");
  bad.x0 = good.x0 >> 2;
  if (!bad.x0.is_odd()) bad.x0 += bigint::BigUInt{1};
  expect_create_refused(client, fhe::encode_session_create(bad), "x0 of gamma - 2 bits or fewer");
  bad = good;
  bad.zero.value = good.x0;
  expect_create_refused(client, fhe::encode_session_create(bad), "constant equal to x0");
  bad = good;
  bad.params.rho = bad.params.eta;
  expect_create_refused(client, fhe::encode_session_create(bad), "params that fail validate()");

  // The retired params || u64 seed layout: named, not run.
  fhe::ByteWriter seed;
  seed.put_u64(62);
  const fhe::Bytes legacy = concat(fhe::encode_params(DghvParams::toy()), seed.take());
  const fhe::Envelope reply = client.create_session_raw(legacy);
  ASSERT_EQ(reply.type, fhe::MessageType::kError);
  const auto [code, message] = fhe::decode_error_payload(reply.payload);
  EXPECT_EQ(code, fhe::WireErrorCode::kBadRequestBytes);
  EXPECT_NE(message.find("retired"), std::string::npos) << message;

  const fhe::Bytes valid = fhe::encode_session_create(good);
  expect_create_refused(client, concat(valid, fhe::Bytes{0x00}), "one trailing byte");
  expect_create_refused(client, fhe::Bytes(valid.begin(), valid.end() - 1), "one byte short");

  // The connection is still up and no hostile create opened a session.
  const FleetStats stats = client.stats();
  ASSERT_EQ(stats.shards.size(), 1u);
  EXPECT_EQ(stats.shards[0].service.sessions, 0u);
  EXPECT_EQ(client.create_session_raw(valid).type, fhe::MessageType::kSessionCreated);
  EXPECT_EQ(client.stats().shards[0].service.sessions, 1u);
}

TEST(NetTest, CreateDoesNotBlockTheRouterReader) {
  // A stand-in shard that answers submits at once and holds every create
  // after the first for a second, on its serial worker. The router's
  // create forward waits on it; a submit sent after the slow create on the
  // same client connection must be answered first.
  std::atomic<unsigned> creates{0};
  EnvelopeServer slow_shard(0, [&creates](const fhe::Envelope& request,
                                          ServerConnection& connection) {
    fhe::Envelope reply;
    reply.session = request.session;
    reply.request_id = request.request_id;
    if (request.type == fhe::MessageType::kCreateSession) {
      connection.run_serial(request, [&creates, &connection, reply]() mutable {
        const unsigned n = ++creates;
        if (n > 1) std::this_thread::sleep_for(std::chrono::seconds(1));
        reply.type = fhe::MessageType::kSessionCreated;
        reply.session = n;
        connection.send_now(std::move(reply));
      });
      return;
    }
    reply.type = request.type == fhe::MessageType::kSubmit ? fhe::MessageType::kResponse
                                                            : fhe::MessageType::kPong;
    if (request.type == fhe::MessageType::kSubmit) {
      reply.payload = core::encode_response(core::Response{});
    }
    connection.send_now(std::move(reply));
  });
  Router router({loopback(slow_shard.port())});
  ShardClient client(loopback(router.port()));

  const fhe::Bytes payload =
      fhe::encode_session_create(fhe::tenant_keygen(DghvParams::toy(), 41).create);
  const fhe::Envelope first = client.create_session_raw(payload);
  ASSERT_EQ(first.type, fhe::MessageType::kSessionCreated);
  std::future<fhe::Envelope> slow =
      std::async(std::launch::async, [&] { return client.create_session_raw(payload); });
  // Let the create's frame reach the wire before the submit's.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const core::Response response = client.submit(first.session, core::Request{}).get();
  EXPECT_EQ(slow.wait_for(std::chrono::seconds(0)), std::future_status::timeout)
      << "the submit was answered only after the create";
  EXPECT_TRUE(response.ok()) << response.error;
  const fhe::Envelope created = slow.get();
  EXPECT_EQ(created.type, fhe::MessageType::kSessionCreated);
  EXPECT_NE(created.session, first.session);
}

TEST(NetTest, ClosedConnectionsAreReaped) {
  core::Service service(ssa_options(1));
  ShardServer server(service);
  for (int i = 0; i < 64; ++i) {
    ShardClient client(loopback(server.port()));
    client.ping();  // accepted and served before it closes
  }
  // Each connection's thread retires it on the way out; only the last one
  // to close may still be held while its thread ends.
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.connection_count() > 1 && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_LE(server.connection_count(), 1u);
  ShardClient client(loopback(server.port()));
  EXPECT_EQ(client.stats().shards.size(), 1u);
}

// --- FleetStats codec --------------------------------------------------------

TEST(NetTest, FleetStatsRoundTripAndTruncationFuzz) {
  FleetStats fleet;
  fleet.sessions_created = 5;
  fleet.forwarded = 17;
  fleet.failed = 2;
  fleet.sessions_rehomed = 3;
  fleet.retries = 11;
  fleet.probes_sent = 29;
  ShardStats shard;
  shard.address = "127.0.0.1:4242";
  shard.alive = false;
  shard.state = ShardState::kDead;
  shard.service.submitted = 9;
  shard.service.completed = 7;
  shard.service.shed = 1;
  shard.service.sessions_evicted = 1;
  shard.service.coalesced_requests = 6;
  shard.service.batches_submitted = 2;
  shard.service.transforms_avoided = -3;
  core::LaneStats lane;
  lane.lane = 1;
  lane.jobs = 4;
  lane.hw_cycles = 99;
  lane.busy_ms = 2.5;
  shard.service.lanes.push_back(lane);
  fleet.shards.push_back(shard);
  shard.alive = true;
  shard.state = ShardState::kSuspect;
  fleet.shards.push_back(shard);

  const fhe::Bytes wire = encode_fleet_stats(fleet);
  const FleetStats back = decode_fleet_stats(wire);
  ASSERT_EQ(back.shards.size(), 2u);
  EXPECT_EQ(back.sessions_created, fleet.sessions_created);
  EXPECT_EQ(back.forwarded, fleet.forwarded);
  EXPECT_EQ(back.failed, fleet.failed);
  EXPECT_EQ(back.sessions_rehomed, 3u);
  EXPECT_EQ(back.retries, 11u);
  EXPECT_EQ(back.probes_sent, 29u);
  EXPECT_EQ(back.shards[0].address, "127.0.0.1:4242");
  EXPECT_FALSE(back.shards[0].alive);
  EXPECT_EQ(back.shards[0].state, ShardState::kDead);
  EXPECT_TRUE(back.shards[1].alive);
  EXPECT_EQ(back.shards[1].state, ShardState::kSuspect);
  EXPECT_EQ(back.shards[0].service.completed, 7u);
  EXPECT_EQ(back.shards[0].service.transforms_avoided, -3);
  EXPECT_EQ(back.aggregate().submitted, 18u);
  EXPECT_EQ(back.aggregate().coalesced_requests, 12u);
  ASSERT_EQ(back.shards[1].service.lanes.size(), 1u);
  EXPECT_EQ(back.shards[1].service.lanes[0].lane, 1u);
  EXPECT_EQ(back.shards[1].service.lanes[0].jobs, 4u);
  EXPECT_EQ(back.shards[1].service.lanes[0].hw_cycles, 99u);
  EXPECT_EQ(back.shards[1].service.lanes[0].busy_ms, 2.5);
  // A lane entry is u32 lane, u64 jobs, a reserved u64 written as 0 (the
  // retired intra-op tile count), u64 hw_cycles and f64 busy_ms; the last
  // shard's only lane ends the frame.
  constexpr std::size_t kLaneBytes = 4 + 8 + 8 + 8 + 8;
  const std::size_t reserved = wire.size() - kLaneBytes + 4 + 8;
  for (std::size_t i = reserved; i < reserved + 8; ++i) EXPECT_EQ(wire[i], 0u) << "byte " << i;

  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_THROW((void)decode_fleet_stats(std::span<const u8>(wire.data(), len)),
                 fhe::SerializeError)
        << "truncated to " << len << " of " << wire.size();
  }
  fhe::Bytes trailing = wire;
  trailing.push_back(0);
  EXPECT_THROW((void)decode_fleet_stats(trailing), fhe::SerializeError);
}

}  // namespace
}  // namespace hemul::net
