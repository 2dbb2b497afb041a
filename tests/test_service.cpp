#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "backend/registry.hpp"
#include "bigint/div.hpp"
#include "bigint/mul.hpp"
#include "fhe/circuits.hpp"
#include "fhe/evaluator.hpp"
#include "fhe/serialize.hpp"
#include "fhe/session.hpp"
#include "service/service.hpp"

namespace hemul::core {
namespace {

using fhe::Ciphertext;
using fhe::DghvParams;

ServiceOptions ssa_options(unsigned workers, double window_ms = 0.0) {
  ServiceOptions options;
  options.config.backend_name = "ssa";
  options.config.num_workers = workers;
  options.admission_window_ms = window_ms;
  return options;
}

/// Encrypts `value` bit by bit on the tenant's scheme and serializes the
/// stream, as a remote client would.
fhe::Bytes encrypt_inputs(fhe::Dghv& scheme, u64 value, unsigned width) {
  const fhe::EncryptedInt bits = fhe::encrypt_int(scheme, value, width);
  return fhe::encode_ciphertexts(bits);
}

fhe::Bytes concat(const fhe::Bytes& a, const fhe::Bytes& b) {
  fhe::Bytes out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

u64 decrypt_response(const fhe::Dghv& scheme, const Response& response) {
  const std::vector<Ciphertext> outputs = fhe::decode_ciphertexts(response.outputs);
  return fhe::decrypt_int(scheme, fhe::EncryptedInt(outputs.begin(), outputs.end()));
}

/// An in-process tenant: the session it opened and the key context it
/// kept. The service holds only the session's evaluation material.
struct Tenant {
  SessionId session = 0;
  fhe::Dghv scheme;
};

Tenant open_tenant(Service& service, const DghvParams& params, u64 seed) {
  fhe::TenantKeys keys = fhe::tenant_keygen(params, seed);
  const SessionId session = service.create_session(std::move(keys.create));
  return {session, std::move(keys.scheme)};
}

/// Registers "faulty": an engine whose every multiply throws.
void register_faulty_backend() {
  backend::Registry::instance().add("faulty", [] {
    return std::make_shared<backend::FunctionBackend>(
        [](const bigint::BigUInt&, const bigint::BigUInt&) -> bigint::BigUInt {
          throw std::runtime_error("injected lane fault");
        },
        "faulty");
  });
}

Request and_request(fhe::Dghv& scheme, bool a, bool b) {
  Request request;
  request.spec.kind = CircuitKind::kAnd;
  request.inputs = concat(fhe::encode_ciphertexts(std::vector<Ciphertext>{scheme.encrypt(a)}),
                          fhe::encode_ciphertexts(std::vector<Ciphertext>{scheme.encrypt(b)}));
  return request;
}

// --- end-to-end builtin circuits -------------------------------------------

TEST(ServiceTest, BuiltinAdderRoundTrips) {
  Service service(ssa_options(2));
  Tenant tenant = open_tenant(service, DghvParams::toy(), 101);
  const SessionId session = tenant.session;
  fhe::Dghv& scheme = tenant.scheme;

  Request request;
  request.spec.kind = CircuitKind::kAdder;
  request.spec.width = 4;
  request.inputs = concat(encrypt_inputs(scheme, 11, 4), encrypt_inputs(scheme, 6, 4));

  const Response response = service.submit(session, std::move(request)).get();
  ASSERT_TRUE(response.ok()) << response.error;
  EXPECT_EQ(decrypt_response(scheme, response), 17u);  // 5 outputs: sum + carry
  EXPECT_EQ(response.and_gates, 8u);                   // 2 per bit
  EXPECT_EQ(response.levels, 4u);
  EXPECT_GE(response.shared_batches, 1u);
}

TEST(ServiceTest, CarrySaveLoweringRoundTripsAndRunsShallower) {
  // The same adder request under both wire-level strategy bytes: identical
  // decryption, but the carry-save form must traverse fewer wavefronts
  // than ripple's width+... chain (the strategy really steers the builtin).
  Service service(ssa_options(2));
  Tenant tenant = open_tenant(service, DghvParams::toy(), 101);
  const SessionId session = tenant.session;
  fhe::Dghv& scheme = tenant.scheme;

  unsigned levels[2] = {0, 0};
  int slot = 0;
  for (const fhe::LoweringStrategy strategy :
       {fhe::LoweringStrategy::kRippleCarry, fhe::LoweringStrategy::kCarrySave}) {
    Request request;
    request.spec.kind = CircuitKind::kAdder;
    request.spec.width = 4;
    request.spec.lowering.strategy = strategy;
    request.inputs = concat(encrypt_inputs(scheme, 11, 4), encrypt_inputs(scheme, 6, 4));

    // Through the framed wire encoding, as a remote tenant would send it.
    const Response response =
        service.submit(session, decode_request(encode_request(request))).get();
    ASSERT_TRUE(response.ok()) << response.error;
    EXPECT_EQ(decrypt_response(scheme, response), 17u)
        << fhe::lowering_strategy_name(strategy);
    levels[slot++] = response.levels;
  }
  EXPECT_LT(levels[1], levels[0]) << "carry-save must be shallower than ripple";
}

TEST(ServiceTest, EveryBuiltinCircuitDecryptsCorrectly) {
  Service service(ssa_options(2));
  Tenant tenant = open_tenant(service, DghvParams::toy(), 77);
  const SessionId session = tenant.session;
  fhe::Dghv& scheme = tenant.scheme;
  const unsigned w = 3;
  const u64 x = 5, y = 3;

  const struct {
    CircuitKind kind;
    fhe::Bytes inputs;
    u64 expected;
  } cases[] = {
      {CircuitKind::kAnd,
       concat(fhe::encode_ciphertexts(std::vector<Ciphertext>{scheme.encrypt(true)}),
              fhe::encode_ciphertexts(std::vector<Ciphertext>{scheme.encrypt(true)})),
       1},
      {CircuitKind::kEquals, concat(encrypt_inputs(scheme, x, w), encrypt_inputs(scheme, x, w)),
       1},
      {CircuitKind::kMux,
       concat(fhe::encode_ciphertexts(std::vector<Ciphertext>{scheme.encrypt(true)}),
              concat(encrypt_inputs(scheme, x, w), encrypt_inputs(scheme, y, w))),
       x},
      {CircuitKind::kLessThan,
       concat(encrypt_inputs(scheme, y, w), encrypt_inputs(scheme, x, w)), 1},
  };
  for (const auto& c : cases) {
    Request request;
    request.spec.kind = c.kind;
    request.spec.width = w;
    request.inputs = c.inputs;
    const Response response = service.submit(session, std::move(request)).get();
    ASSERT_TRUE(response.ok()) << circuit_kind_name(c.kind) << ": " << response.error;
    EXPECT_EQ(decrypt_response(scheme, response), c.expected)
        << "circuit " << circuit_kind_name(c.kind);
  }
}

// --- serialize -> evaluate -> deserialize parity ---------------------------

TEST(ServiceTest, GraphRequestBitExactAgainstInProcessForEveryBackend) {
  // The acceptance bar: for every registered backend, shipping a recorded
  // circuit through the service (serialize -> evaluate -> deserialize)
  // yields the very same ciphertext bits as evaluating the same graph
  // in-process.
  for (const std::string& name : backend::Registry::instance().names()) {
    // The registry is process-global: the lane-fault test registers an
    // always-throwing "faulty" engine, which must not poison this sweep
    // under test shuffling.
    if (name == "faulty") continue;
    ServiceOptions options;
    options.config.backend_name = name;
    options.config.num_workers = 1;
    Service service(options);
    Tenant tenant = open_tenant(service, DghvParams::toy(), 4242);
    const SessionId session = tenant.session;
    fhe::Dghv& scheme = tenant.scheme;

    // Client side: record a 2-bit adder with client-supplied constants.
    fhe::Graph graph(scheme);
    const fhe::EncryptedInt a = fhe::encrypt_int(scheme, 2, 2);
    const fhe::EncryptedInt b = fhe::encrypt_int(scheme, 3, 2);
    const Ciphertext zero = scheme.encrypt(false);
    const std::vector<fhe::Wire> wa = graph.inputs(a);
    const std::vector<fhe::Wire> wb = graph.inputs(b);
    fhe::Graph::AddResult r = graph.add(wa, wb, graph.input(zero));
    std::vector<fhe::Wire> outputs = std::move(r.sum);
    outputs.push_back(r.carry_out);

    std::vector<Ciphertext> inputs(a.begin(), a.end());
    inputs.insert(inputs.end(), b.begin(), b.end());
    inputs.push_back(zero);

    Request request;
    request.spec.kind = CircuitKind::kGraph;
    request.graph = fhe::encode_graph(fhe::GraphTopology::capture(graph, outputs));
    request.inputs = fhe::encode_ciphertexts(inputs);
    const Response response = service.submit(session, std::move(request)).get();
    ASSERT_TRUE(response.ok()) << name << ": " << response.error;

    // In-process reference on the same engine family the service lanes use.
    fhe::Evaluator evaluator(backend::make_backend(name));
    const std::vector<Ciphertext> direct = evaluator.evaluate(graph, outputs);
    const std::vector<Ciphertext> remote = fhe::decode_ciphertexts(response.outputs);
    ASSERT_EQ(remote.size(), direct.size()) << name;
    for (std::size_t i = 0; i < direct.size(); ++i) {
      EXPECT_EQ(remote[i].value, direct[i].value) << name << " output " << i;
    }
    EXPECT_EQ(decrypt_response(scheme, response), 5u) << name;
  }
}

// --- cross-request coalescing ----------------------------------------------

TEST(ServiceTest, ConcurrentSingleMultiplyTenantsShareBatches) {
  // 8 tenants, one AND (single multiply) each, submitted within the
  // admission window: the coordinator must fuse them into fewer scheduler
  // batches than there are requests -- the cross-request wavefront.
  Service service(ssa_options(2, /*window_ms=*/250.0));
  constexpr int kTenants = 8;

  std::vector<Tenant> tenants;
  std::vector<std::future<Response>> futures;
  for (int t = 0; t < kTenants; ++t) {
    tenants.push_back(open_tenant(service, DghvParams::toy(), 1000 + static_cast<u64>(t)));
  }
  for (int t = 0; t < kTenants; ++t) {
    fhe::Dghv& scheme = tenants[static_cast<std::size_t>(t)].scheme;
    Request request;
    request.spec.kind = CircuitKind::kAnd;
    request.inputs =
        concat(fhe::encode_ciphertexts(std::vector<Ciphertext>{scheme.encrypt(true)}),
               fhe::encode_ciphertexts(std::vector<Ciphertext>{scheme.encrypt(t % 2 == 0)}));
    futures.push_back(
        service.submit(tenants[static_cast<std::size_t>(t)].session, std::move(request)));
  }
  for (int t = 0; t < kTenants; ++t) {
    const Response response = futures[static_cast<std::size_t>(t)].get();
    ASSERT_TRUE(response.ok()) << response.error;
    const fhe::Dghv& scheme = tenants[static_cast<std::size_t>(t)].scheme;
    const std::vector<Ciphertext> outputs = fhe::decode_ciphertexts(response.outputs);
    ASSERT_EQ(outputs.size(), 1u);
    EXPECT_EQ(scheme.decrypt(outputs[0]), t % 2 == 0);
  }

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, static_cast<u64>(kTenants));
  EXPECT_EQ(stats.and_gates, static_cast<u64>(kTenants));
  EXPECT_LT(stats.batches_submitted, static_cast<u64>(kTenants))
      << "independent single-multiply requests must share scheduler batches";
  EXPECT_GE(stats.batches_submitted, 1u);
  EXPECT_GE(stats.coalesced_requests, stats.batches_submitted);
}

TEST(ServiceTest, MixedDepthRequestsCoalesceAndStayCorrect) {
  Service service(ssa_options(2, /*window_ms=*/250.0));
  Tenant s1 = open_tenant(service, DghvParams::toy(), 11);
  Tenant s2 = open_tenant(service, DghvParams::toy(), 22);

  Request adder;  // depth 3
  adder.spec.kind = CircuitKind::kAdder;
  adder.spec.width = 3;
  adder.inputs = concat(encrypt_inputs(s1.scheme, 5, 3),
                        encrypt_inputs(s1.scheme, 6, 3));
  Request single;  // depth 1
  single.spec.kind = CircuitKind::kAnd;
  single.inputs = concat(
      fhe::encode_ciphertexts(std::vector<Ciphertext>{s2.scheme.encrypt(true)}),
      fhe::encode_ciphertexts(std::vector<Ciphertext>{s2.scheme.encrypt(true)}));

  auto f1 = service.submit(s1.session, std::move(adder));
  auto f2 = service.submit(s2.session, std::move(single));
  const Response r1 = f1.get();
  const Response r2 = f2.get();
  ASSERT_TRUE(r1.ok()) << r1.error;
  ASSERT_TRUE(r2.ok()) << r2.error;
  EXPECT_EQ(decrypt_response(s1.scheme, r1), 11u);
  EXPECT_EQ(decrypt_response(s2.scheme, r2), 1u);

  // The adder needed 3 rounds; the AND rode the first of them when both
  // landed in one admission window, so total batches stays <= 4 either way.
  const ServiceStats stats = service.stats();
  EXPECT_LE(stats.batches_submitted, 4u);
  EXPECT_EQ(stats.wavefronts, 4u);  // 3 (adder) + 1 (and)
}

// --- noise veto / error paths ----------------------------------------------

TEST(ServiceTest, DeepCircuitOnToyParamsIsRejectedWithoutSpendingMultiplies) {
  Service service(ssa_options(1));
  Tenant tenant = open_tenant(service, DghvParams::toy(), 5);
  const SessionId session = tenant.session;
  fhe::Dghv& scheme = tenant.scheme;

  Request request;  // a 4x4 multiplier goes far past the toy noise budget
  request.spec.kind = CircuitKind::kMul;
  request.spec.width = 4;
  request.inputs = concat(encrypt_inputs(scheme, 9, 4), encrypt_inputs(scheme, 13, 4));
  const Response response = service.submit(session, std::move(request)).get();

  EXPECT_EQ(response.status, ResponseStatus::kRejectedByNoise);
  EXPECT_FALSE(response.error.empty());
  EXPECT_EQ(response.and_gates, 0u) << "the veto must fire before execution";

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.rejected_by_noise, 1u);
  EXPECT_EQ(stats.and_gates, 0u);
  EXPECT_EQ(stats.batches_submitted, 0u);
  EXPECT_EQ(service.tenant_stats(session).rejected_by_noise, 1u);

  // The same circuit against the deep budget sails through.
  Tenant deep = open_tenant(service, DghvParams::deep(), 5);
  Request retry;
  retry.spec.kind = CircuitKind::kMul;
  retry.spec.width = 4;
  retry.inputs = concat(encrypt_inputs(deep.scheme, 9, 4),
                        encrypt_inputs(deep.scheme, 13, 4));
  const Response ok = service.submit(deep.session, std::move(retry)).get();
  ASSERT_TRUE(ok.ok()) << ok.error;
  EXPECT_EQ(decrypt_response(deep.scheme, ok), 117u);
}

TEST(ServiceTest, MalformedPayloadsYieldBadRequestNotCrash) {
  Service service(ssa_options(1));
  Tenant tenant = open_tenant(service, DghvParams::toy(), 3);
  const SessionId session = tenant.session;
  fhe::Dghv& scheme = tenant.scheme;

  Request garbage;  // input bytes that are not ciphertext frames
  garbage.spec.kind = CircuitKind::kAnd;
  garbage.inputs = {0xDE, 0xAD, 0xBE, 0xEF};
  EXPECT_EQ(service.submit(session, std::move(garbage)).get().status,
            ResponseStatus::kBadRequest);

  Request count_mismatch;  // adder width 4 wants 8 ciphertexts, gets 2
  count_mismatch.spec.kind = CircuitKind::kAdder;
  count_mismatch.spec.width = 4;
  count_mismatch.inputs =
      concat(fhe::encode_ciphertexts(std::vector<Ciphertext>{scheme.encrypt(true)}),
             fhe::encode_ciphertexts(std::vector<Ciphertext>{scheme.encrypt(false)}));
  EXPECT_EQ(service.submit(session, std::move(count_mismatch)).get().status,
            ResponseStatus::kBadRequest);

  Request bad_width;
  bad_width.spec.kind = CircuitKind::kAdder;
  bad_width.spec.width = 99;
  EXPECT_EQ(service.submit(session, std::move(bad_width)).get().status,
            ResponseStatus::kBadRequest);

  Request bad_graph;
  bad_graph.spec.kind = CircuitKind::kGraph;
  bad_graph.graph = {1, 2, 3};
  EXPECT_EQ(service.submit(session, std::move(bad_graph)).get().status,
            ResponseStatus::kBadRequest);

  Request oversized;  // a "ciphertext" that is not reduced modulo x0 must
                      // be rejected at the trust boundary, not handed to
                      // a PE lane
  oversized.spec.kind = CircuitKind::kAnd;
  oversized.inputs = concat(
      fhe::encode_ciphertexts(
          std::vector<Ciphertext>{{scheme.public_key().x0 + bigint::BigUInt{1}, 1.0}}),
      fhe::encode_ciphertexts(std::vector<Ciphertext>{scheme.encrypt(true)}));
  EXPECT_EQ(service.submit(session, std::move(oversized)).get().status,
            ResponseStatus::kBadRequest);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.bad_requests, 5u);
  EXPECT_EQ(stats.completed, 0u);

  EXPECT_THROW((void)service.submit(999, Request{}), std::invalid_argument);
  EXPECT_THROW((void)service.tenant_stats(999), std::invalid_argument);
}

TEST(ServiceTest, LaneExceptionFailsOneRequestNotTheService) {
  // A backend that throws mid-execution must surface as kInternalError on
  // the offending request while the coordinator -- and other tenants --
  // keep serving.
  register_faulty_backend();

  ServiceOptions options;
  options.config.backend_name = "faulty";
  options.config.num_workers = 1;
  Service service(options);
  Tenant tenant = open_tenant(service, DghvParams::toy(), 55);
  const SessionId session = tenant.session;
  fhe::Dghv& scheme = tenant.scheme;

  Request doomed;
  doomed.spec.kind = CircuitKind::kAnd;
  doomed.inputs =
      concat(fhe::encode_ciphertexts(std::vector<Ciphertext>{scheme.encrypt(true)}),
             fhe::encode_ciphertexts(std::vector<Ciphertext>{scheme.encrypt(true)}));
  const Response response = service.submit(session, std::move(doomed)).get();
  EXPECT_EQ(response.status, ResponseStatus::kInternalError);
  EXPECT_NE(response.error.find("injected lane fault"), std::string::npos);
  EXPECT_EQ(service.stats().internal_errors, 1u);
  EXPECT_EQ(service.tenant_stats(session).internal_errors, 1u);

  // The service is still alive: a multiplication-free circuit completes.
  const Ciphertext ca = scheme.encrypt(true);
  const Ciphertext cb = scheme.encrypt(false);
  fhe::Graph probe(scheme);
  const std::vector<fhe::Wire> outs = {probe.gate_xor(probe.input(ca), probe.input(cb))};
  Request xor_only;
  xor_only.spec.kind = CircuitKind::kGraph;
  xor_only.graph = fhe::encode_graph(fhe::GraphTopology::capture(probe, outs));
  xor_only.inputs = fhe::encode_ciphertexts(std::vector<Ciphertext>{ca, cb});
  const Response alive = service.submit(session, std::move(xor_only)).get();
  ASSERT_TRUE(alive.ok()) << alive.error;
  const std::vector<Ciphertext> outputs = fhe::decode_ciphertexts(alive.outputs);
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_TRUE(scheme.decrypt(outputs[0]));
}

TEST(ServiceTest, LaneFaultFailsOnlyItsRequestWithinOneCoalescedRound) {
  // Two tenants share one round; the lane faults only on the deep tenant's
  // operands. The deep request fails, its toy neighbour in the same batch
  // completes.
  constexpr std::size_t kToyGammaBits = 4096;
  backend::Registry::instance().add("narrow", [] {
    return std::make_shared<backend::FunctionBackend>(
        [](const bigint::BigUInt& a, const bigint::BigUInt& b) -> bigint::BigUInt {
          if (a.bit_length() > kToyGammaBits || b.bit_length() > kToyGammaBits) {
            throw std::runtime_error("operand wider than the narrow lane");
          }
          return bigint::mul_karatsuba(a, b);
        },
        "narrow");
  });

  ServiceOptions options;
  options.config.backend_name = "narrow";
  options.config.num_workers = 1;
  options.admission_window_ms = 250.0;
  Service service(options);
  Tenant toy = open_tenant(service, DghvParams::toy(), 71);
  Tenant deep = open_tenant(service, DghvParams::deep(), 72);
  Request toy_and = and_request(toy.scheme, true, true);
  Request deep_and = and_request(deep.scheme, true, true);

  const ServiceStats before = service.stats();
  auto toy_future = service.submit(toy.session, std::move(toy_and));
  auto deep_future = service.submit(deep.session, std::move(deep_and));
  const Response toy_response = toy_future.get();
  const Response deep_response = deep_future.get();

  const ServiceStats after = service.stats();
  EXPECT_EQ(after.batches_submitted, before.batches_submitted + 1);
  EXPECT_EQ(after.coalesced_requests, before.coalesced_requests + 2);

  EXPECT_EQ(deep_response.status, ResponseStatus::kInternalError);
  EXPECT_NE(deep_response.error.find("operand wider than the narrow lane"), std::string::npos)
      << deep_response.error;
  ASSERT_TRUE(toy_response.ok()) << toy_response.error;
  const std::vector<Ciphertext> outputs = fhe::decode_ciphertexts(toy_response.outputs);
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_TRUE(toy.scheme.decrypt(outputs[0]));
  EXPECT_EQ(after.internal_errors, 1u);
  EXPECT_EQ(after.completed, 1u);
}

TEST(ServiceTest, EvaluatorOnFaultingLanesThrowsAndLeavesTheSchedulerUsable) {
  // In-process evaluation on scheduler lanes shares the Service's fault
  // path: the lane's message surfaces as an exception, and the scheduler
  // has no job left behind.
  register_faulty_backend();
  Config config;
  config.backend_name = "faulty";
  config.num_workers = 2;
  Scheduler scheduler(config);

  fhe::Dghv scheme(DghvParams::toy(), 73);
  fhe::Graph graph(scheme);
  const fhe::Wire a = graph.input(scheme.encrypt(true));
  const fhe::Wire b = graph.input(scheme.encrypt(true));
  const std::vector<fhe::Wire> outputs = {graph.gate_and(a, b), graph.gate_and(a, a)};

  fhe::Evaluator evaluator(scheduler);
  try {
    (void)evaluator.evaluate(graph, outputs);
    ADD_FAILURE() << "evaluation on faulting lanes must throw";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("injected lane fault"), std::string::npos) << e.what();
  }

  scheduler.wait_idle();
  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.completed, stats.submitted);
  const bigint::BigUInt constant =
      scheduler.submit([](backend::MultiplierBackend&) { return bigint::BigUInt(42); }).get();
  EXPECT_EQ(constant, bigint::BigUInt(42));
}

// --- concurrency (the TSan cell runs this suite) ---------------------------

TEST(ServiceTest, ConcurrentTenantsFromManyThreads) {
  Service service(ssa_options(2, /*window_ms=*/5.0));
  constexpr int kThreads = 4;
  constexpr int kPerThread = 3;

  std::vector<Tenant> tenants;
  for (int t = 0; t < kThreads; ++t) {
    tenants.push_back(open_tenant(service, DghvParams::toy(), 31 + static_cast<u64>(t)));
  }

  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&service, &tenants, &failures, t] {
      const SessionId session = tenants[static_cast<std::size_t>(t)].session;
      fhe::Dghv& scheme = tenants[static_cast<std::size_t>(t)].scheme;
      for (int i = 0; i < kPerThread; ++i) {
        const u64 x = static_cast<u64>(t + i) % 8;
        const u64 y = static_cast<u64>(t * 2 + i) % 8;
        Request request;
        request.spec.kind = CircuitKind::kAdder;
        request.spec.width = 3;
        request.inputs = concat(encrypt_inputs(scheme, x, 3), encrypt_inputs(scheme, y, 3));
        const Response response = service.submit(session, std::move(request)).get();
        if (!response.ok() || decrypt_response(scheme, response) != x + y) {
          ++failures[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[static_cast<std::size_t>(t)], 0) << t;

  service.wait_idle();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, static_cast<u64>(kThreads * kPerThread));
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.active_requests, 0u);
  EXPECT_EQ(stats.sessions, static_cast<std::size_t>(kThreads));

  u64 tenant_completed = 0;
  for (const Tenant& tenant : tenants) {
    tenant_completed += service.tenant_stats(tenant.session).completed;
  }
  EXPECT_EQ(tenant_completed, stats.completed);
}

TEST(ServiceTest, ResidentRoundsBeatTheEagerTransformTally) {
  // On "ssa" lanes a request is served through spectrum-resident rounds:
  // its wires stay in the NTT domain between wavefronts, so it runs fewer
  // transforms than the eager 3 per AND gate.
  Service service(ssa_options(2));
  Tenant tenant = open_tenant(service, DghvParams::toy(), 404);
  const SessionId session = tenant.session;
  fhe::Dghv& scheme = tenant.scheme;

  Request request;
  request.spec.kind = CircuitKind::kAdder;
  request.spec.width = 4;
  request.inputs = concat(encrypt_inputs(scheme, 9, 4), encrypt_inputs(scheme, 5, 4));
  const Response response = service.submit(session, std::move(request)).get();
  ASSERT_TRUE(response.ok()) << response.error;
  EXPECT_EQ(decrypt_response(scheme, response), 14u);

  // The resident protocol ran and beat the per-gate eager tally
  // (3 transforms per AND gate).
  EXPECT_GT(response.transforms_executed, 0u);
  EXPECT_GT(response.transforms_avoided, 0);
  EXPECT_LT(response.transforms_executed, 3u * response.and_gates);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.transforms_executed, response.transforms_executed);
  EXPECT_EQ(stats.transforms_avoided, response.transforms_avoided);
}

TEST(ServiceTest, DestructorDrainsOutstandingRequests) {
  std::future<Response> future;
  fhe::TenantKeys keys = fhe::tenant_keygen(DghvParams::toy(), 9);
  {
    Service service(ssa_options(1, /*window_ms=*/50.0));
    const SessionId session = service.create_session(keys.create);
    Request request;
    request.spec.kind = CircuitKind::kAdder;
    request.spec.width = 2;
    request.inputs =
        concat(encrypt_inputs(keys.scheme, 1, 2), encrypt_inputs(keys.scheme, 2, 2));
    future = service.submit(session, std::move(request));
    // Service destructs here with the request possibly still queued.
  }
  const Response response = future.get();
  ASSERT_TRUE(response.ok()) << response.error;
  EXPECT_EQ(decrypt_response(keys.scheme, response), 3u);
}

// --- drain mode (the daemon's SIGTERM path) ---------------------------------

TEST(ServiceTest, StopAcceptingDrainsButRefusesNewWork) {
  Service service(ssa_options(1, /*window_ms=*/50.0));
  Tenant tenant = open_tenant(service, DghvParams::toy(), 31);
  const SessionId session = tenant.session;
  fhe::Dghv& scheme = tenant.scheme;

  Request request;
  request.spec.kind = CircuitKind::kAdder;
  request.spec.width = 2;
  request.inputs = concat(encrypt_inputs(scheme, 1, 2), encrypt_inputs(scheme, 2, 2));
  std::future<Response> admitted = service.submit(session, std::move(request));

  EXPECT_TRUE(service.accepting());
  service.stop_accepting();
  EXPECT_FALSE(service.accepting());
  service.stop_accepting();  // idempotent

  // New sessions are refused with the typed exception...
  EXPECT_THROW((void)service.create_session(DghvParams::toy(), 32), ShuttingDown);

  // ...and new submits complete immediately as kUnavailable...
  Request late;
  late.spec.kind = CircuitKind::kAnd;
  late.inputs = concat(
      fhe::encode_ciphertexts(std::vector<Ciphertext>{scheme.encrypt(true)}),
      fhe::encode_ciphertexts(std::vector<Ciphertext>{scheme.encrypt(false)}));
  const Response refused = service.submit(session, std::move(late)).get();
  EXPECT_EQ(refused.status, ResponseStatus::kUnavailable);
  EXPECT_FALSE(refused.error.empty());

  // ...while work admitted before the drain still runs to completion.
  const Response response = admitted.get();
  ASSERT_TRUE(response.ok()) << response.error;
  EXPECT_EQ(decrypt_response(scheme, response), 3u);
  service.wait_idle();
}

// --- bounded admission queue ------------------------------------------------

TEST(ServiceTest, BoundedQueueShedsWithRetryHintAndNeverExceedsDepth) {
  // One queue slot and a long admission window: the first submit occupies
  // the slot, every later one must shed synchronously -- the queue depth
  // can never exceed the bound because refusals never enter the queue.
  ServiceOptions options = ssa_options(1, /*window_ms=*/150.0);
  options.max_queue_depth = 1;
  Service service(options);
  Tenant tenant = open_tenant(service, DghvParams::toy(), 41);
  const SessionId session = tenant.session;
  fhe::Dghv& scheme = tenant.scheme;

  auto make_request = [&] {
    Request request;
    request.spec.kind = CircuitKind::kAnd;
    request.inputs = concat(
        fhe::encode_ciphertexts(std::vector<Ciphertext>{scheme.encrypt(true)}),
        fhe::encode_ciphertexts(std::vector<Ciphertext>{scheme.encrypt(true)}));
    return request;
  };

  std::future<Response> first = service.submit(session, make_request());
  constexpr int kExtra = 4;
  for (int i = 0; i < kExtra; ++i) {
    const Response shed = service.submit(session, make_request()).get();
    ASSERT_EQ(shed.status, ResponseStatus::kOverloaded) << shed.error;
    EXPECT_GT(shed.retry_after_ms, 0.0);
    EXPECT_LE(service.stats().queue_depth, 1u);
  }

  const Response response = first.get();
  ASSERT_TRUE(response.ok()) << response.error;
  EXPECT_EQ(decrypt_response(scheme, response), 1u);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shed, static_cast<u64>(kExtra));
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(service.tenant_stats(session).shed, static_cast<u64>(kExtra));
  EXPECT_EQ(service.tenant_stats(session).submitted, 1u + kExtra);
}

TEST(ServiceTest, CompletionCallbackRunsExactlyOnceOnTheCoordinatorOrInsideSubmit) {
  // The callback is the Service's one completion path: an admitted request
  // completes on the coordinator thread, a shed one inside submit() itself,
  // and an unknown session throws without ever calling it.
  ServiceOptions options = ssa_options(1, /*window_ms=*/150.0);
  options.max_queue_depth = 1;
  Service service(options);
  Tenant tenant = open_tenant(service, DghvParams::toy(), 43);
  const SessionId session = tenant.session;
  fhe::Dghv& scheme = tenant.scheme;
  auto make_request = [&] {
    Request request;
    request.spec.kind = CircuitKind::kAnd;
    request.inputs = fhe::encode_ciphertexts(
        std::vector<Ciphertext>{scheme.encrypt(true), scheme.encrypt(true)});
    return request;
  };

  std::atomic<int> admitted_calls{0};
  std::promise<std::pair<std::thread::id, Response>> admitted;
  service.submit(session, make_request(), 0.0, [&](Response response) {
    if (admitted_calls++ == 0) {
      admitted.set_value({std::this_thread::get_id(), std::move(response)});
    }
  });

  int shed_calls = 0;
  std::thread::id shed_on;
  service.submit(session, make_request(), 0.0, [&](Response response) {
    ++shed_calls;
    shed_on = std::this_thread::get_id();
    EXPECT_EQ(response.status, ResponseStatus::kOverloaded) << response.error;
  });
  EXPECT_EQ(shed_calls, 1) << "the shed refusal completes before submit() returns";
  EXPECT_EQ(shed_on, std::this_thread::get_id());

  bool unknown_called = false;
  EXPECT_THROW(service.submit(999, Request{}, 0.0, [&](Response) { unknown_called = true; }),
               std::invalid_argument);
  EXPECT_FALSE(unknown_called);

  auto [thread, response] = admitted.get_future().get();
  EXPECT_NE(thread, std::this_thread::get_id());
  ASSERT_TRUE(response.ok()) << response.error;
  EXPECT_EQ(decrypt_response(scheme, response), 1u);
  service.wait_idle();
  EXPECT_EQ(admitted_calls.load(), 1);
  EXPECT_EQ(shed_calls, 1);
}

// --- LRU session eviction ---------------------------------------------------

TEST(ServiceTest, SessionTableEvictsLeastRecentlyUsedWhenFull) {
  ServiceOptions options = ssa_options(1);
  options.max_sessions = 2;
  Service service(options);

  Tenant a = open_tenant(service, DghvParams::toy(), 51);
  const SessionId b = service.create_session(DghvParams::toy(), 52);

  // Touch a so b becomes the least recently used...
  fhe::Dghv& scheme = a.scheme;
  Request request;
  request.spec.kind = CircuitKind::kAnd;
  request.inputs = concat(
      fhe::encode_ciphertexts(std::vector<Ciphertext>{scheme.encrypt(true)}),
      fhe::encode_ciphertexts(std::vector<Ciphertext>{scheme.encrypt(true)}));
  ASSERT_TRUE(service.submit(a.session, std::move(request)).get().ok());

  // ...then a third session must evict b, not a.
  const SessionId c = service.create_session(DghvParams::toy(), 53);
  EXPECT_NE(c, a.session);
  EXPECT_EQ(service.stats().sessions_evicted, 1u);
  EXPECT_EQ(service.stats().sessions, 2u);
  (void)service.tenant_stats(a.session);  // the touched session survived
  EXPECT_THROW((void)service.tenant_stats(b), std::invalid_argument);

  Request late;
  late.spec.kind = CircuitKind::kAnd;
  EXPECT_THROW((void)service.submit(b, std::move(late)), std::invalid_argument);
}

// --- reduction modulo x0 above the Barrett threshold -----------------------

/// Parameters whose x0 is one limb above bigint::kBarrettThresholdLimbs, so
/// every gate's `% x0` takes the cached Barrett branch (the built-in
/// parameter sets are either far below it or paper-size). Small tau and
/// eta keep keygen cheap.
DghvParams barrett_params() {
  DghvParams params;
  params.lambda = 16;
  params.rho = 16;
  params.eta = 1024;
  params.gamma = 64 * (bigint::kBarrettThresholdLimbs + 1);
  params.tau = 8;
  return params;
}

/// A graph request over inputs a, b, c with outputs g = a AND b,
/// g XOR c and g AND c (two levels: a reduced product feeds a product),
/// plus the same outputs computed gate by gate with Dghv::multiply/add.
struct BarrettCase {
  fhe::Graph graph;
  std::vector<fhe::Wire> outputs;
  std::vector<Ciphertext> expected;
  std::vector<bool> plain;
  Request request;

  BarrettCase(fhe::Dghv& scheme, bool a, bool b, bool c) : graph(scheme) {
    const Ciphertext ca = scheme.encrypt(a);
    const Ciphertext cb = scheme.encrypt(b);
    const Ciphertext cc = scheme.encrypt(c);
    const fhe::Wire wa = graph.input(ca);
    const fhe::Wire wb = graph.input(cb);
    const fhe::Wire wc = graph.input(cc);
    const fhe::Wire g = graph.gate_and(wa, wb);
    outputs = {g, graph.gate_xor(g, wc), graph.gate_and(g, wc)};
    const Ciphertext product = scheme.multiply(ca, cb);
    expected = {product, scheme.add(product, cc), scheme.multiply(product, cc)};
    plain = {a && b, (a && b) != c, a && b && c};
    request.spec.kind = CircuitKind::kGraph;
    request.graph = fhe::encode_graph(fhe::GraphTopology::capture(graph, outputs));
    request.inputs = fhe::encode_ciphertexts(std::vector<Ciphertext>{ca, cb, cc});
  }

  void check(const fhe::Dghv& scheme, const std::vector<Ciphertext>& got,
             const std::string& where) const {
    ASSERT_EQ(got.size(), expected.size()) << where;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(got[i].value, expected[i].value) << where << " output " << i;
      EXPECT_EQ(scheme.decrypt(got[i]), plain[i]) << where << " output " << i;
    }
  }
};

TEST(ServiceTest, AboveTheBarrettThresholdRoundsMatchDghvGateByGate) {
  Service service(ssa_options(2, /*window_ms=*/250.0));
  Tenant s1 = open_tenant(service, barrett_params(), 8101);
  Tenant s2 = open_tenant(service, barrett_params(), 8102);
  ASSERT_GE(s1.scheme.public_key().x0.limb_count(), bigint::kBarrettThresholdLimbs);
  BarrettCase case1(s1.scheme, true, true, false);
  BarrettCase case2(s2.scheme, true, false, true);

  const ServiceStats before = service.stats();
  const bigint::ReciprocalCacheStats cache_before = bigint::reciprocal_cache_stats();
  auto f1 = service.submit(s1.session, std::move(case1.request));
  auto f2 = service.submit(s2.session, std::move(case2.request));
  const Response r1 = f1.get();
  const Response r2 = f2.get();
  ASSERT_TRUE(r1.ok()) << r1.error;
  ASSERT_TRUE(r2.ok()) << r2.error;
  case1.check(s1.scheme, fhe::decode_ciphertexts(r1.outputs), "session 1");
  case2.check(s2.scheme, fhe::decode_ciphertexts(r2.outputs), "session 2");

  // Both requests shared each of the two level rounds.
  const ServiceStats after = service.stats();
  EXPECT_EQ(after.batches_submitted - before.batches_submitted, 2u);
  EXPECT_EQ(after.coalesced_requests - before.coalesced_requests, 4u);
  // The lanes reduced through the cache: both reducers already existed
  // (Dghv::multiply built them for the reference), so only hits.
  const bigint::ReciprocalCacheStats cache_after = bigint::reciprocal_cache_stats();
  EXPECT_EQ(cache_after.misses, cache_before.misses);
  EXPECT_GT(cache_after.hits, cache_before.hits);
}

TEST(ServiceTest, AboveTheBarrettThresholdInlineEvaluatorMatchesDghv) {
  fhe::Dghv scheme(barrett_params(), 8103);
  const BarrettCase reference(scheme, true, true, true);
  for (const char* name : {"auto", "ssa"}) {  // eager, then spectrum-resident
    fhe::Evaluator evaluator(backend::make_backend(name));
    fhe::EvalReport report;
    const std::vector<Ciphertext> got =
        evaluator.evaluate(reference.graph, reference.outputs, &report);
    EXPECT_EQ(report.spectrum_resident, std::string(name) == "ssa") << name;
    reference.check(scheme, got, name);
  }
}

/// Throws from bigint's multiplication hook whenever an operand is the
/// poisoned modulus -- i.e. inside that modulus's Barrett reduction, whose
/// first use on a lane builds the reducer and squares the modulus (reducing
/// then multiplies by its prepared spectrum, past this hook) -- and
/// delegates everything else to the hook it replaced.
std::atomic<const bigint::BigUInt*> g_poisoned_modulus{nullptr};
std::atomic<bigint::MulDispatchFn> g_fallback_dispatch{nullptr};

bigint::BigUInt poisoned_dispatch(const bigint::BigUInt& a, const bigint::BigUInt& b) {
  const bigint::BigUInt* poisoned = g_poisoned_modulus.load();
  if (poisoned != nullptr && (a == *poisoned || b == *poisoned)) {
    throw std::runtime_error("injected reduction fault");
  }
  return g_fallback_dispatch.load()(a, b);
}

TEST(ServiceTest, ReductionFaultOnALaneFailsOnlyItsRequest) {
  Service service(ssa_options(2, /*window_ms=*/250.0));
  Tenant healthy = open_tenant(service, barrett_params(), 8104);
  Tenant doomed = open_tenant(service, barrett_params(), 8105);
  Request healthy_and = and_request(healthy.scheme, true, true);
  Request doomed_and = and_request(doomed.scheme, true, true);

  const bigint::MulDispatchFn original = bigint::mul_dispatch();
  ASSERT_NE(original, nullptr);
  g_fallback_dispatch = original;
  g_poisoned_modulus = &doomed.scheme.public_key().x0;
  bigint::set_mul_dispatch(&poisoned_dispatch);
  struct Restore {
    bigint::MulDispatchFn hook;
    ~Restore() {
      bigint::set_mul_dispatch(hook);
      g_poisoned_modulus = nullptr;
    }
  } restore{original};

  const ServiceStats before = service.stats();
  auto healthy_future = service.submit(healthy.session, std::move(healthy_and));
  auto doomed_future = service.submit(doomed.session, std::move(doomed_and));
  const Response healthy_response = healthy_future.get();
  const Response doomed_response = doomed_future.get();
  const ServiceStats after = service.stats();
  EXPECT_EQ(after.batches_submitted, before.batches_submitted + 1);
  EXPECT_EQ(after.coalesced_requests, before.coalesced_requests + 2);

  EXPECT_EQ(doomed_response.status, ResponseStatus::kInternalError);
  EXPECT_NE(doomed_response.error.find("injected reduction fault"), std::string::npos)
      << doomed_response.error;
  ASSERT_TRUE(healthy_response.ok()) << healthy_response.error;
  const std::vector<Ciphertext> outputs = fhe::decode_ciphertexts(healthy_response.outputs);
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_TRUE(healthy.scheme.decrypt(outputs[0]));
  EXPECT_EQ(after.internal_errors, 1u);
  EXPECT_EQ(after.completed, 1u);
}

TEST(ServiceTest, CreateSessionRejectsMaterialThatFailsValidation) {
  // create_session is the one door into the session table, for the wire
  // and for in-process callers alike: material no keygen could produce
  // throws SerializeError and opens nothing.
  Service service(ssa_options(1));
  const fhe::SessionCreate good = fhe::tenant_keygen(DghvParams::toy(), 13).create;
  const auto expect_refused = [&](const fhe::SessionCreate& bad, const char* why) {
    EXPECT_THROW((void)service.create_session(bad), fhe::SerializeError) << why;
  };
  fhe::SessionCreate bad = good;
  bad.x0 = good.x0 - bigint::BigUInt{1};
  expect_refused(bad, "even x0");
  bad.x0 = bigint::BigUInt{};
  expect_refused(bad, "zero x0");
  bad.x0 = (good.x0 << 1) + bigint::BigUInt{1};
  expect_refused(bad, "x0 of gamma + 1 bits");
  bad.x0 = good.x0 >> 2;
  if (!bad.x0.is_odd()) bad.x0 += bigint::BigUInt{1};
  expect_refused(bad, "x0 of gamma - 2 or fewer bits");
  bad = good;
  bad.one.value = good.x0;
  expect_refused(bad, "constant >= x0");
  bad = good;
  bad.params.eta = bad.params.gamma;
  expect_refused(bad, "params that fail validate()");
  EXPECT_EQ(service.stats().sessions, 0u);

  const SessionId session = service.create_session(good);
  EXPECT_EQ(service.stats().sessions, 1u);
  EXPECT_EQ(service.tenant_stats(session).session, session);
}

}  // namespace
}  // namespace hemul::core
