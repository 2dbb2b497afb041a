// The deployed fleet (router + shard servers + services in one process over
// loopback TCP), its set-up, and the closed-loop load generator.
#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "fhe/dghv.hpp"
#include "net/client.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "service/service.hpp"
#include "workload.hpp"

namespace fleetbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point from) {
  return ms_between(from, Clock::now());
}

/// Every client call carries this deadline, so a wedged fleet fails the run
/// instead of hanging it.
inline constexpr double kCallDeadlineMs = 60'000.0;

/// Shard options as the deployed daemon sets them, sized by the workload.
core::ServiceOptions service_options(const WorkloadConfig& config);

/// The fleet: one core::Service per shard behind a net::ShardServer, and a
/// net::Router in front of them, all on loopback TCP.
class Fleet {
 public:
  explicit Fleet(const WorkloadConfig& config);

  [[nodiscard]] std::string router_address() const;
  [[nodiscard]] std::string shard_address(std::size_t shard) const;
  [[nodiscard]] std::size_t shard_count() const noexcept { return services_.size(); }
  [[nodiscard]] core::Service& service(std::size_t shard) { return *services_.at(shard); }

 private:
  std::vector<std::unique_ptr<core::Service>> services_;
  std::vector<std::unique_ptr<net::ShardServer>> servers_;
  std::unique_ptr<net::Router> router_;  ///< last: stops before the shards
};

/// A tenant as its client sees it: the router's session id and the key
/// context rebuilt from the keys the shard generated.
struct Tenant {
  u64 key_seed = 0;
  core::SessionId session = 0;
  std::size_t shard = 0;  ///< Router::shard_of(session)
  std::unique_ptr<fhe::Dghv> scheme;
  std::vector<fhe::Ciphertext> constant;  ///< encrypted constant word (circuit_mix)
};

/// Opens a session through `client` and rebuilds its key context. Only the
/// create RPC is timed into `create_ms`.
Tenant open_tenant(net::ShardClient& client, const WorkloadConfig& config, u64 key_seed,
                   std::size_t shards, double* create_ms);

/// One load-generator thread: its router connection, its tenant (fixed, or
/// the current churned session) and its deterministic request stream.
struct Client {
  unsigned index = 0;
  std::unique_ptr<net::ShardClient> connection;
  Tenant tenant;
  std::unique_ptr<JobStream> stream;
  u64 sessions_opened = 0;
};

/// A fleet brought up to the serving state.
struct Deployment {
  WorkloadConfig config;
  u64 seed = 0;
  std::unique_ptr<Fleet> fleet;
  std::vector<Client> clients;  ///< after fleet: disconnects first
  double setup_s = 0.0;         ///< fleet start + sessions + warm-up (no encryption)
  std::vector<double> create_ms;
  u64 joins = 0;  ///< tenants that joined during timed phases
};

/// Starts the fleet, opens the tenants and sends each client's warm-up
/// requests. Throws on any failure: a fleet that cannot set up has no result.
std::unique_ptr<Deployment> deploy(const WorkloadConfig& config, u64 seed);

/// What one closed-loop phase measured.
struct LoopStats {
  std::vector<double> latency_ms;  ///< submit -> verified response
  std::vector<double> create_ms;   ///< churned or joining tenants' session creations
  std::vector<double> queue_ms;    ///< Response::queue_ms
  std::vector<double> exec_ms;     ///< Response::exec_ms
  u64 attempted = 0;
  u64 verified = 0;
  u64 and_gates = 0;
  double wall_s = 0.0;  ///< phase start -> last completion
  std::vector<std::string> failures;
};

struct LoopOptions {
  double seconds = 10.0;
  /// Flip one bit of the first output ciphertext of every client's first
  /// response, which verification must catch (the benchmark's self-test).
  bool inject_flip = false;
  /// Keep every verified request's latency, queue and exec times. Off,
  /// the phase only counts requests and gates.
  bool record = true;
};

/// Runs every client closed-loop (one request outstanding per client) for
/// `seconds`, verifying each response, while tenants join at the
/// workload's join interval.
LoopStats run_loop(Deployment& deployment, const LoopOptions& options);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

}  // namespace fleetbench
