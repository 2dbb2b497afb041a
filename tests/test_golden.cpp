// Golden ledgers: one fixed, seeded request stream served three ways --
//
//   * core::Service on "ssa" lanes (in process);
//   * a net::Router in front of two ShardServers on loopback;
//   * inline fhe::Evaluator on one "ssa" engine, each request recorded as
//     the service records it (builtins with the session's constant wires,
//     kGraph from its topology) --
//
// with every response pinned twice: the paths must agree request by
// request (status, output ciphertexts, AND gates, levels, transforms
// executed and avoided), and the stream's ledger must equal the constants
// committed below. The fingerprint is FNV-1a over each request frame and
// its output ciphertexts, in stream order, as fleetbench computes it.
//
// A change that alters behaviour on purpose (keygen or encryption draws,
// lowering, the wire format, residency accounting) updates these
// constants in the same commit and says in CHANGES.md which ones moved and
// why. Nothing here reads a clock.

#include <gtest/gtest.h>

#include <cstdio>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "backend/registry.hpp"
#include "fhe/circuits.hpp"
#include "fhe/evaluator.hpp"
#include "fhe/graph.hpp"
#include "fhe/serialize.hpp"
#include "fhe/session.hpp"
#include "net/client.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "service/service.hpp"
#include "util/rng.hpp"

namespace hemul {
namespace {

using core::CircuitKind;
using fhe::Ciphertext;
using fhe::DghvParams;
using fhe::LoweringStrategy;

/// The stream's deterministic summary (what the constants pin).
struct Ledger {
  u64 requests = 0;
  std::string statuses;  ///< one ResponseStatus digit per request
  u64 and_gates = 0;
  u64 levels = 0;
  u64 transforms_executed = 0;
  i64 transforms_avoided = 0;
  u64 fingerprint = 0xCBF29CE484222325ull;  // FNV-1a

  void hash(const fhe::Bytes& bytes) {
    for (const u8 b : bytes) fingerprint = (fingerprint ^ b) * 0x100000001B3ull;
  }

  /// One line, in the form the golden constants are written in.
  [[nodiscard]] std::string str() const {
    char fp[24];
    std::snprintf(fp, sizeof fp, "%016llx", static_cast<unsigned long long>(fingerprint));
    return "requests " + std::to_string(requests) + ", statuses " + statuses + ", and_gates " +
           std::to_string(and_gates) + ", levels " + std::to_string(levels) +
           ", transforms_executed " + std::to_string(transforms_executed) +
           ", transforms_avoided " + std::to_string(transforms_avoided) + ", fingerprint " + fp;
  }
};

// --- the stream ---------------------------------------------------------------

struct Tenant {
  DghvParams params;
  u64 key_seed = 0;
};

/// One request of the stream: who sends it, its frame, the plaintext answer.
struct Job {
  std::size_t tenant = 0;
  core::Request request;
  fhe::Bytes frame;
  u64 expected = 0;
};

/// What one path returned for one request.
struct Outcome {
  core::ResponseStatus status = core::ResponseStatus::kOk;
  fhe::Bytes outputs;
  u64 and_gates = 0;
  unsigned levels = 0;
  u64 transforms_executed = 0;
  i64 transforms_avoided = 0;

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

Outcome outcome_of(const core::Response& response) {
  Outcome outcome;
  outcome.status = response.status;
  outcome.outputs = response.outputs;
  outcome.and_gates = response.and_gates;
  outcome.levels = response.levels;
  outcome.transforms_executed = response.transforms_executed;
  outcome.transforms_avoided = response.transforms_avoided;
  return outcome;
}

// The stream builders below draw and encrypt one statement at a time: the
// order of function arguments is unspecified, and the golden constants
// must not depend on the compiler.

/// A builtin request with seeded operands, encrypted by the tenant.
Job builtin_job(std::size_t tenant, fhe::Dghv& scheme, util::Rng& rng, CircuitKind kind,
                unsigned width, LoweringStrategy lowering) {
  Job job;
  job.tenant = tenant;
  core::Request& request = job.request;
  request.spec.kind = kind;
  request.spec.width = kind == CircuitKind::kAnd ? 1 : width;
  request.spec.lowering.strategy = lowering;
  const unsigned w = request.spec.width;
  const u64 a = rng.below(1ull << w);
  const u64 b = rng.below(1ull << w);
  const bool select = rng.flip();
  std::vector<Ciphertext> inputs;
  if (kind == CircuitKind::kMux) inputs.push_back(scheme.encrypt(select));
  for (const u64 operand : {a, b}) {
    const fhe::EncryptedInt bits = fhe::encrypt_int(scheme, operand, w);
    inputs.insert(inputs.end(), bits.begin(), bits.end());
  }
  request.inputs = fhe::encode_ciphertexts(inputs);
  switch (kind) {
    case CircuitKind::kAnd: job.expected = a & b; break;
    case CircuitKind::kAdder: job.expected = a + b; break;
    case CircuitKind::kEquals: job.expected = a == b; break;
    case CircuitKind::kMul: job.expected = a * b; break;
    case CircuitKind::kMux: job.expected = select ? a : b; break;
    case CircuitKind::kLessThan: job.expected = a < b; break;
    case CircuitKind::kGraph: break;
  }
  job.frame = core::encode_request(request);
  return job;
}

/// A recorded kGraph request over four seeded input bits: every gate kind,
/// a shared subterm (CSE) and a node no output reaches (DCE).
Job graph_job(std::size_t tenant, fhe::Dghv& scheme, util::Rng& rng) {
  bool bit[4];
  std::vector<Ciphertext> inputs;
  fhe::Graph g(scheme);
  std::vector<fhe::Wire> in;
  for (bool& b : bit) {
    b = rng.flip();
    inputs.push_back(scheme.encrypt(b));
    in.push_back(g.input(inputs.back()));
  }
  inputs.push_back(scheme.encrypt(true));
  const fhe::Wire one = g.input(inputs.back());
  const fhe::Wire ab = g.gate_and(in[0], in[1]);
  (void)g.gate_and(ab, in[3]);  // dead
  const fhe::Wire maj = g.gate_maj(in[0], in[1], in[2]);
  const fhe::Wire ad = g.gate_and(in[0], in[3]);
  const fhe::Wire not_b = g.gate_not(in[1], one);
  const fhe::Wire either = g.gate_or(ad, not_b);
  const fhe::Wire ba = g.gate_and(in[1], in[0]);  // == ab after CSE
  const fhe::Wire cd = g.gate_and(in[2], in[3]);
  const fhe::Wire parity = g.gate_xor(ba, cd);
  const fhe::Wire abc = g.gate_and(ab, in[2]);
  const fhe::Wire not_d = g.gate_xor(in[3], one);
  const fhe::Wire all3 = g.gate_and(abc, not_d);
  const std::vector<fhe::Wire> outputs = {maj, either, parity, all3};

  Job job;
  job.tenant = tenant;
  job.request.spec.kind = CircuitKind::kGraph;
  job.request.graph = fhe::encode_graph(fhe::GraphTopology::capture(g, outputs));
  job.request.inputs = fhe::encode_ciphertexts(inputs);
  job.expected = u64{(bit[0] && bit[1]) || (bit[0] && bit[2]) || (bit[1] && bit[2])} |
                 u64{(bit[0] && bit[3]) || !bit[1]} << 1 |
                 u64{(bit[0] && bit[1]) != (bit[2] && bit[3])} << 2 |
                 u64{bit[0] && bit[1] && bit[2] && !bit[3]} << 3;
  job.frame = core::encode_request(job.request);
  return job;
}

/// True for the builtins that take the session's constant zero/one wires.
bool needs_constants(CircuitKind kind) {
  return kind == CircuitKind::kAdder || kind == CircuitKind::kEquals ||
         kind == CircuitKind::kMul || kind == CircuitKind::kLessThan;
}

/// Records a request into `g` as core::Service admits it: builtins over the
/// session's constant encryptions ({zero, one}, when needs_constants),
/// kGraph from its topology.
std::vector<fhe::Wire> record(fhe::Graph& g, const core::Request& request,
                              std::span<const Ciphertext> inputs,
                              std::span<const Ciphertext> constants) {
  const core::CircuitSpec& spec = request.spec;
  g.set_lowering(spec.lowering);
  if (spec.kind == CircuitKind::kGraph) return fhe::decode_graph(request.graph).build(g, inputs);
  const unsigned w = spec.width;
  const std::vector<fhe::Wire> wires = g.inputs(inputs);
  const std::span<const fhe::Wire> all(wires);
  switch (spec.kind) {
    case CircuitKind::kAnd: return {g.gate_and(wires[0], wires[1])};
    case CircuitKind::kAdder: {
      fhe::Graph::AddResult r = g.add(all.first(w), all.subspan(w, w), g.input(constants[0]));
      r.sum.push_back(r.carry_out);
      return r.sum;
    }
    case CircuitKind::kEquals:
      return {g.equals(all.first(w), all.subspan(w, w), g.input(constants[1]))};
    case CircuitKind::kMul:
      return g.multiply(all.first(w), all.subspan(w, w), g.input(constants[0]));
    case CircuitKind::kMux: return g.mux(wires[0], all.subspan(1, w), all.subspan(1 + w, w));
    case CircuitKind::kLessThan: {
      const fhe::Wire zero = g.input(constants[0]);
      return {g.less_than(all.first(w), all.subspan(w, w), zero, g.input(constants[1]))};
    }
    case CircuitKind::kGraph: break;
  }
  return {};
}

// --- the three paths ----------------------------------------------------------

core::ServiceOptions ssa_options(unsigned workers) {
  core::ServiceOptions options;
  options.config.backend_name = "ssa";
  options.config.num_workers = workers;
  return options;
}

std::string loopback(int port) { return "127.0.0.1:" + std::to_string(port); }

/// The tenants' sessions on path 1's in-process Service, and each tenant's
/// client-side key context, rebuilt from its seeded keygen's key pair, which
/// encrypts the stream.
struct Sessions {
  explicit Sessions(std::vector<Tenant> list) : tenants(std::move(list)) {
    for (const Tenant& tenant : tenants) {
      fhe::TenantKeys keys = fhe::tenant_keygen(tenant.params, tenant.key_seed);
      local.push_back(service.create_session(std::move(keys.create)));
      clients.emplace_back(keys.scheme.public_key(), keys.scheme.secret_key(),
                           tenant.key_seed ^ 0xC11E47ull);
    }
  }

  std::vector<Tenant> tenants;
  core::Service service{ssa_options(2)};
  std::vector<core::SessionId> local;
  std::vector<fhe::Dghv> clients;
};

/// Every job's outcome on each path, in stream order.
struct Served {
  std::vector<Outcome> service, router, inline_evaluator;
};

/// Serves the stream on all three paths. Requests are pipelined: all are in
/// flight before any reply is read.
Served serve(Sessions& sessions, const std::vector<Job>& jobs) {
  const std::vector<Tenant>& tenants = sessions.tenants;
  core::Service& service = sessions.service;
  const std::vector<core::SessionId>& local = sessions.local;
  Served served;

  // Path 1: the in-process Service.
  {
    std::vector<std::future<core::Response>> futures;
    for (const Job& job : jobs) {
      futures.push_back(service.submit(local[job.tenant], core::decode_request(job.frame)));
    }
    for (auto& future : futures) served.service.push_back(outcome_of(future.get()));
  }

  // Path 2: a router in front of two shards; seeded keygen must give the
  // remote tenants the very keys the in-process tenants hold.
  {
    core::Service shard_service_a(ssa_options(1));
    core::Service shard_service_b(ssa_options(1));
    net::ShardServer shard_a(shard_service_a);
    net::ShardServer shard_b(shard_service_b);
    net::Router router({loopback(shard_a.port()), loopback(shard_b.port())});
    net::ShardClient client(loopback(router.port()));
    std::vector<core::SessionId> remote;
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      net::ShardClient::SessionKeys keys =
          client.create_session(tenants[t].params, tenants[t].key_seed);
      EXPECT_EQ(keys.public_key.x0, sessions.clients[t].public_key().x0);
      remote.push_back(keys.session);
    }
    std::vector<std::future<core::Response>> futures;
    for (const Job& job : jobs) {
      futures.push_back(client.submit(remote[job.tenant], core::decode_request(job.frame)));
    }
    for (auto& future : futures) served.router.push_back(outcome_of(future.get()));

    // Every request forwarded exactly once, none refused.
    const net::FleetStats fleet = client.stats();
    EXPECT_EQ(fleet.sessions_created, tenants.size());
    EXPECT_EQ(fleet.forwarded, jobs.size());
    EXPECT_EQ(fleet.failed, 0u);
    EXPECT_EQ(fleet.aggregate().submitted, jobs.size());
  }

  // Path 3: inline evaluation on one "ssa" engine (spectrum-resident) over
  // the tenant's keys. The session's constant wires are the first two
  // encryptions of a seeded key replica, drawn in the order
  // fhe::tenant_keygen draws them (only for tenants whose requests use
  // them: a replica repeats keygen).
  {
    const std::shared_ptr<backend::MultiplierBackend> engine = backend::make_backend("ssa");
    std::vector<std::vector<Ciphertext>> constants(tenants.size());
    for (const Job& job : jobs) {
      std::vector<Ciphertext>& drawn = constants[job.tenant];
      if (!drawn.empty() || !needs_constants(job.request.spec.kind)) continue;
      fhe::Dghv replica(tenants[job.tenant].params, tenants[job.tenant].key_seed);
      drawn.push_back(replica.encrypt(false));
      drawn.push_back(replica.encrypt(true));
    }
    for (const Job& job : jobs) {
      const core::Request request = core::decode_request(job.frame);
      const std::vector<Ciphertext> inputs = fhe::decode_ciphertexts(request.inputs);
      fhe::Graph graph(sessions.clients[job.tenant]);
      const std::vector<fhe::Wire> outputs = record(graph, request, inputs, constants[job.tenant]);
      Outcome outcome;
      const fhe::EvalState audit(graph, outputs);
      outcome.levels = audit.max_level();
      if (!audit.decryptable()) {
        outcome.status = core::ResponseStatus::kRejectedByNoise;
      } else {
        fhe::EvalReport report;
        outcome.outputs =
            fhe::encode_ciphertexts(fhe::Evaluator(engine).evaluate(graph, outputs, &report));
        outcome.and_gates = report.and_gates;
        outcome.transforms_executed = report.residency.transforms_executed();
        outcome.transforms_avoided = static_cast<i64>(3 * report.and_gates) -
                                     static_cast<i64>(outcome.transforms_executed);
      }
      served.inline_evaluator.push_back(std::move(outcome));
    }
  }

  // Every delivered answer decrypts to the plaintext computation.
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (served.service[j].status != core::ResponseStatus::kOk) continue;
    EXPECT_EQ(fhe::decrypt_int(sessions.clients[jobs[j].tenant],
                               fhe::decode_ciphertexts(served.service[j].outputs)),
              jobs[j].expected)
        << "request " << j << " (" << jobs[j].request.spec.describe() << ")";
  }
  return served;
}

Ledger ledger_of(const std::vector<Job>& jobs, const std::vector<Outcome>& outcomes) {
  Ledger ledger;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const Outcome& o = outcomes[j];
    ++ledger.requests;
    ledger.statuses += static_cast<char>('0' + static_cast<int>(o.status));
    ledger.and_gates += o.and_gates;
    ledger.levels += o.levels;
    ledger.transforms_executed += o.transforms_executed;
    ledger.transforms_avoided += o.transforms_avoided;
    ledger.hash(jobs[j].frame);
    ledger.hash(o.outputs);
  }
  return ledger;
}

/// The three paths agree request by request, and their ledger is `golden`.
void expect_golden(const std::vector<Job>& jobs, const Served& served, std::string_view golden) {
  ASSERT_EQ(served.service.size(), jobs.size());
  ASSERT_EQ(served.router.size(), jobs.size());
  ASSERT_EQ(served.inline_evaluator.size(), jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const std::string what = "request " + std::to_string(j) + " (" +
                             jobs[j].request.spec.describe() + ")";
    EXPECT_TRUE(served.router[j] == served.service[j]) << what << ": router vs service";
    EXPECT_TRUE(served.inline_evaluator[j] == served.service[j])
        << what << ": inline evaluator vs service";
  }
  EXPECT_EQ(ledger_of(jobs, served.service).str(), golden);
}

// --- the golden constants -----------------------------------------------------
//
// Statuses: one digit per request, 0 = kOk, 1 = kRejectedByNoise (the toy
// ripple-carry 2-bit multiply).

constexpr std::string_view kToyDeepGolden =
    "requests 25, statuses 0001000000000000000000000, and_gates 213, levels 65, "
    "transforms_executed 450, transforms_avoided 189, fingerprint a5466a3ca0afcfb2";
constexpr std::string_view kPaperAndGolden =
    "requests 1, statuses 0, and_gates 1, levels 1, "
    "transforms_executed 3, transforms_avoided 0, fingerprint 90ef585720dbb29d";

TEST(GoldenTest, ToyAndDeepStreamMatchesOnEveryPathAndTheCommittedLedger) {
  // Every builtin kind under both lowerings at toy (width 2) and deep
  // (width 4), then one recorded kGraph request at deep.
  Sessions sessions({{DghvParams::toy(), 0x601DE7}, {DghvParams::deep(), 0xDEE9}});
  util::Rng rng(0x601DE7ull);
  std::vector<Job> jobs;
  for (std::size_t t = 0; t < 2; ++t) {
    const unsigned width = t == 0 ? 2 : 4;
    for (const auto lowering : {LoweringStrategy::kRippleCarry, LoweringStrategy::kCarrySave}) {
      // The enum lists every builtin kind before kGraph.
      for (int k = 0; k < static_cast<int>(CircuitKind::kGraph); ++k) {
        const auto kind = static_cast<CircuitKind>(k);
        jobs.push_back(builtin_job(t, sessions.clients[t], rng, kind, width, lowering));
      }
    }
  }
  jobs.push_back(graph_job(1, sessions.clients[1], rng));
  expect_golden(jobs, serve(sessions, jobs), kToyDeepGolden);
}

TEST(GoldenTest, PaperSizeAndMatchesOnEveryPathAndTheCommittedLedger) {
  // The paper's operation: one AND of two fresh 786,432-bit ciphertexts.
  Sessions sessions({{DghvParams::small_paper(), 0x9A9E7}});
  util::Rng rng(0x9A9E7ull);
  fhe::Dghv& client = sessions.clients[0];
  std::vector<Job> jobs;
  jobs.push_back(builtin_job(0, client, rng, CircuitKind::kAnd, 1, LoweringStrategy::kCarrySave));
  expect_golden(jobs, serve(sessions, jobs), kPaperAndGolden);
}

}  // namespace
}  // namespace hemul
