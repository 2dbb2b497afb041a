#include "fleet.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <exception>
#include <future>
#include <stdexcept>
#include <thread>

#include "fhe/serialize.hpp"

namespace fleetbench {

namespace {

std::string loopback(int port) { return "127.0.0.1:" + std::to_string(port); }

/// Runs fn(i) for i in [0, n) on n threads and rethrows the first failure
/// after all have joined.
template <typename Fn>
void parallel_for(std::size_t n, Fn fn) {
  std::vector<std::exception_ptr> errors(n);
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

/// A request ready to send: the plaintext job and its encrypted form.
struct Prepared {
  Job job;
  core::Request request;
};

Prepared prepare(Client& client) {
  Prepared p;
  p.job = client.stream->next();
  p.request = encrypt_job(*client.tenant.scheme, p.job, client.tenant.constant);
  return p;
}

void flip_first_output_bit(core::Response& response) {
  std::vector<fhe::Ciphertext> outputs = fhe::decode_ciphertexts(response.outputs);
  if (outputs.empty()) return;
  std::vector<u64> limbs(outputs[0].value.limbs().begin(), outputs[0].value.limbs().end());
  if (limbs.empty()) limbs.push_back(0);
  limbs[0] ^= 1;
  outputs[0].value = bigint::BigUInt::from_limbs(std::move(limbs));
  response.outputs = fhe::encode_ciphertexts(outputs);
}

/// Key seed of a client's fixed tenant, or of its n-th churned session.
u64 tenant_key_seed(u64 seed, unsigned client, u64 session_number) noexcept {
  return mix(mix(mix(seed, 0x7E4A47ull), client), session_number);
}

/// Opens the churned session a client's next iteration uses.
void open_next_churn_session(Client& client, const Deployment& d, double* create_ms) {
  const u64 key_seed = tenant_key_seed(d.seed, client.index, client.sessions_opened++);
  client.tenant =
      open_tenant(*client.connection, d.config, key_seed, d.fleet->shard_count(), create_ms);
}

}  // namespace

core::ServiceOptions service_options(const WorkloadConfig& config) {
  core::ServiceOptions options;
  options.config.backend_name = "ssa";
  options.config.num_workers = config.lanes;
  options.admission_window_ms = config.window_ms;
  options.max_sessions = config.max_sessions;
  return options;
}

Fleet::Fleet(const WorkloadConfig& config) {
  std::vector<std::string> addresses;
  for (unsigned s = 0; s < config.shards; ++s) {
    services_.push_back(std::make_unique<core::Service>(service_options(config)));
    servers_.push_back(std::make_unique<net::ShardServer>(*services_.back()));
    addresses.push_back(loopback(servers_.back()->port()));
  }
  router_ = std::make_unique<net::Router>(addresses);
}

std::string Fleet::router_address() const { return loopback(router_->port()); }

std::string Fleet::shard_address(std::size_t shard) const {
  return loopback(servers_.at(shard)->port());
}

Tenant open_tenant(net::ShardClient& client, const WorkloadConfig& config, u64 key_seed,
                   std::size_t shards, double* create_ms) {
  const Clock::time_point start = Clock::now();
  net::ShardClient::SessionKeys keys = client.create_session(config.params, key_seed);
  *create_ms = ms_since(start);

  Tenant tenant;
  tenant.key_seed = key_seed;
  tenant.session = keys.session;
  tenant.shard = net::Router::shard_of(keys.session, shards);
  tenant.scheme = std::make_unique<fhe::Dghv>(std::move(keys.public_key),
                                              std::move(keys.secret_key), mix(key_seed, 0xE4C));
  return tenant;
}

std::unique_ptr<Deployment> deploy(const WorkloadConfig& config, u64 seed) {
  auto d = std::make_unique<Deployment>();
  d->config = config;
  d->seed = seed;
  const std::size_t n = config.clients;

  // Timed: fleet start and client connections.
  Clock::time_point start = Clock::now();
  d->fleet = std::make_unique<Fleet>(config);
  d->clients.resize(n);
  for (unsigned i = 0; i < n; ++i) {
    d->clients[i].index = i;
    d->clients[i].connection = std::make_unique<net::ShardClient>(
        d->fleet->router_address(), net::ShardClient::Options{kCallDeadlineMs});
  }
  double setup_ms = ms_since(start);

  // Timed: session creation, one tenant after the other. Sequential
  // creation fixes the session ids, hence the placement, and keeps the
  // creations' transient key buffers from overlapping, so peak memory
  // repeats from run to run.
  std::vector<double> create_ms(n);
  start = Clock::now();
  for (Client& c : d->clients) {
    if (config.churn()) {
      open_next_churn_session(c, *d, &create_ms[c.index]);
    } else {
      c.tenant = open_tenant(*c.connection, config, tenant_key_seed(seed, c.index, 0),
                             config.shards, &create_ms[c.index]);
    }
  }
  setup_ms += ms_since(start);
  d->create_ms = create_ms;

  if (!config.churn()) {
    std::vector<std::size_t> per_shard(config.shards, 0);
    for (const Client& c : d->clients) ++per_shard[c.tenant.shard];
    if (std::count(per_shard.begin(), per_shard.end(), 0) > 0) {
      throw std::runtime_error("tenant placement left a shard without tenants");
    }
  }

  // Untimed: client-side encryption of the constant word and of the warm-up
  // inputs, one request of every circuit shape the workload sends.
  std::vector<std::vector<Prepared>> warmup(n);
  parallel_for(n, [&](std::size_t i) {
    Client& c = d->clients[i];
    const u64 constant = tenant_constant(seed, c.index);
    if (config.kind == Kind::kCircuitMix) {
      c.tenant.constant = fhe::encrypt_int(*c.tenant.scheme, constant, kConstantWidth);
    }
    c.stream = std::make_unique<JobStream>(config, seed, c.index, constant);
    for (Job& job : c.stream->one_of_each()) {
      core::Request request = encrypt_job(*c.tenant.scheme, job, c.tenant.constant);
      warmup[i].push_back({std::move(job), std::move(request)});
    }
  });

  // Timed: the verified warm-up requests, one at a time per client.
  start = Clock::now();
  parallel_for(n, [&](std::size_t i) {
    Client& c = d->clients[i];
    for (const Prepared& p : warmup[i]) {
      const core::Response response = c.connection->submit(c.tenant.session, p.request).get();
      const std::string why = verify(*c.tenant.scheme, p.job, response);
      if (!why.empty()) throw std::runtime_error("warm-up request failed: " + why);
    }
  });
  setup_ms += ms_since(start);
  d->setup_s = setup_ms / 1000.0;
  return d;
}

LoopStats run_loop(Deployment& d, const LoopOptions& options) {
  const std::size_t n = d.clients.size();
  std::vector<LoopStats> per_client(n);
  std::vector<Clock::time_point> last_done(n);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));

  // Tenants joining the serving fleet (workloads with a join interval).
  std::vector<double> join_ms;
  std::vector<std::string> join_failures;
  const auto join_tenants = [&] {
    const auto interval = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(d.config.join_interval_ms));
    for (Clock::time_point next = start + interval; next < deadline; next += interval) {
      std::this_thread::sleep_until(next);
      double create_ms = 0.0;
      try {
        open_tenant(*d.clients[0].connection, d.config, tenant_key_seed(d.seed, 0x701, d.joins),
                    d.fleet->shard_count(), &create_ms);
        join_ms.push_back(create_ms);
      } catch (const std::exception& e) {
        join_failures.push_back(std::string("join: ") + e.what());
      }
      ++d.joins;
    }
  };
  const std::size_t tasks = n + (d.config.join_interval_ms > 0.0 ? 1 : 0);

  parallel_for(tasks, [&](std::size_t i) {
    if (i == n) return join_tenants();
    Client& c = d.clients[i];
    LoopStats& s = per_client[i];
    last_done[i] = start;
    bool flip_pending = options.inject_flip;

    const auto send = [&](const Prepared& p, std::future<Prepared>* prefetch) {
      const Clock::time_point submitted = Clock::now();
      std::future<core::Response> future = c.connection->submit(c.tenant.session, p.request);
      // Encrypt the next input while this request is served (closed loop:
      // it is sent only after this response is verified).
      if (prefetch != nullptr) *prefetch = std::async(std::launch::async, prepare, std::ref(c));
      core::Response response = future.get();
      if (flip_pending && response.ok()) {
        flip_first_output_bit(response);
        flip_pending = false;
      }
      const std::string why = verify(*c.tenant.scheme, p.job, response);
      const Clock::time_point verified = Clock::now();
      ++s.attempted;
      if (why.empty()) {
        ++s.verified;
        s.and_gates += response.and_gates;
        if (options.record) {
          s.latency_ms.push_back(ms_between(submitted, verified));
          s.queue_ms.push_back(response.queue_ms);
          s.exec_ms.push_back(response.exec_ms);
        }
      } else if (s.failures.size() < 8) {
        s.failures.push_back(why);
      }
      last_done[i] = verified;
    };

    if (d.config.churn()) {
      while (Clock::now() < deadline) {
        double create_ms = 0.0;
        try {
          open_next_churn_session(c, d, &create_ms);
        } catch (const std::exception& e) {
          s.attempted += 2;
          if (s.failures.size() < 8) s.failures.push_back(std::string("create: ") + e.what());
          continue;
        }
        s.create_ms.push_back(create_ms);
        for (int k = 0; k < 2; ++k) send(prepare(c), nullptr);
      }
    } else {
      Prepared next = prepare(c);
      while (Clock::now() < deadline) {
        if (!d.config.overlap_encryption) {
          send(next, nullptr);
          next = prepare(c);
          continue;
        }
        std::future<Prepared> prefetch;
        send(next, &prefetch);
        next = prefetch.get();
      }
    }
  });

  LoopStats total;
  total.create_ms = join_ms;
  total.attempted = join_failures.size();
  total.failures = join_failures;
  Clock::time_point end = start;
  for (std::size_t i = 0; i < n; ++i) {
    LoopStats& s = per_client[i];
    end = std::max(end, last_done[i]);
    total.attempted += s.attempted;
    total.verified += s.verified;
    total.and_gates += s.and_gates;
    for (std::vector<double> LoopStats::*v : {&LoopStats::latency_ms, &LoopStats::create_ms,
                                              &LoopStats::queue_ms, &LoopStats::exec_ms}) {
      (total.*v).insert((total.*v).end(), (s.*v).begin(), (s.*v).end());
    }
    total.failures.insert(total.failures.end(), s.failures.begin(), s.failures.end());
  }
  total.wall_s = ms_between(start, end) / 1000.0;
  return total;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace fleetbench
