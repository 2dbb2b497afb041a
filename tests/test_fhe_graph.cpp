#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "backend/hw_backend.hpp"
#include "backend/registry.hpp"
#include "core/scheduler.hpp"
#include "fhe/circuits.hpp"
#include "fhe/evaluator.hpp"
#include "fhe/graph.hpp"
#include "fp/fp64.hpp"
#include "ntt/plan.hpp"
#include "util/rng.hpp"

namespace hemul::fhe {
namespace {

/// An engine that counts (and can forbid) multiplications -- used to prove
/// dead-node elimination and the pre-execution noise veto really skip work.
std::shared_ptr<backend::FunctionBackend> counting_engine(std::atomic<u64>& count) {
  return std::make_shared<backend::FunctionBackend>(
      [&count](const bigint::BigUInt& a, const bigint::BigUInt& b) {
        count.fetch_add(1, std::memory_order_relaxed);
        return a * b;
      },
      "counting");
}

/// Gate-by-gate eager reference: the lowering templates run one ciphertext
/// gate at a time, XOR as Dghv::add and AND as one engine multiply reduced
/// modulo x0 -- the gates a wavefront evaluation must reproduce bit for bit.
struct EagerGates {
  using WireType = Ciphertext;
  const Dghv& scheme;
  backend::MultiplierBackend& engine;
  Ciphertext gate_xor(const Ciphertext& a, const Ciphertext& b) { return scheme.add(a, b); }
  Ciphertext gate_and(const Ciphertext& a, const Ciphertext& b) {
    return {engine.multiply(a.value, b.value) % scheme.public_key().x0,
            NoiseModel::after_mult(a.noise_bits, b.noise_bits)};
  }
};

/// Evaluates the requested wires of `graph` on the scheme's own engine.
std::vector<Ciphertext> run(const Graph& graph, std::span<const Wire> outputs) {
  return Evaluator().evaluate(graph, outputs);
}

class GraphTest : public ::testing::Test {
 protected:
  GraphTest() : scheme_(DghvParams::toy(), 77) {}

  Dghv scheme_;
};

// --- graph structure -------------------------------------------------------

TEST_F(GraphTest, RecordingIsLazy) {
  std::atomic<u64> mults{0};
  Dghv scheme(DghvParams::toy(), 7, counting_engine(mults));
  Graph graph(scheme);
  const Wire a = graph.input(scheme.encrypt(true));
  const Wire b = graph.input(scheme.encrypt(false));
  (void)graph.gate_and(graph.gate_or(a, b), graph.gate_xor(a, b));
  EXPECT_EQ(mults.load(), 0u) << "recording a graph must not multiply";
  EXPECT_EQ(graph.and_gates(), 2u);  // or + outer and
}

TEST_F(GraphTest, CommonSubexpressionsAreShared) {
  Graph graph(scheme_);
  const Wire a = graph.input(scheme_.encrypt(true));
  const Wire b = graph.input(scheme_.encrypt(true));
  const Wire c = graph.input(scheme_.encrypt(false));

  const Wire first = graph.gate_maj(a, b, c);
  const std::size_t nodes_after_first = graph.size();
  const u64 ands_after_first = graph.and_gates();
  EXPECT_EQ(ands_after_first, 3u);

  // The same majority again: every subterm hash-conses to existing nodes.
  const Wire second = graph.gate_maj(a, b, c);
  EXPECT_EQ(second, first);
  EXPECT_EQ(graph.size(), nodes_after_first);
  EXPECT_EQ(graph.and_gates(), ands_after_first);

  // Commutativity: and(b, a) is and(a, b).
  const Wire ab = graph.gate_and(a, b);
  const Wire ba = graph.gate_and(b, a);
  EXPECT_EQ(ab, ba);
}

TEST_F(GraphTest, LevelsFollowMultiplicativeDepth) {
  Graph graph(scheme_);
  const Wire a = graph.input(scheme_.encrypt(true));
  const Wire b = graph.input(scheme_.encrypt(false));
  EXPECT_EQ(graph.level(a), 0u);
  const Wire x = graph.gate_xor(a, b);
  EXPECT_EQ(graph.level(x), 0u);  // XOR does not deepen
  const Wire p = graph.gate_and(a, b);
  EXPECT_EQ(graph.level(p), 1u);
  const Wire q = graph.gate_and(p, x);
  EXPECT_EQ(graph.level(q), 2u);
  EXPECT_EQ(graph.level(graph.gate_xor(q, p)), 2u);
}

TEST_F(GraphTest, NoisePredictionMatchesModel) {
  Graph graph(scheme_);
  const Ciphertext ca = scheme_.encrypt(true);
  const Ciphertext cb = scheme_.encrypt(true);
  const Wire a = graph.input(ca);
  const Wire b = graph.input(cb);
  EXPECT_DOUBLE_EQ(graph.predicted_noise_bits(a), ca.noise_bits);
  const Wire p = graph.gate_and(a, b);
  EXPECT_DOUBLE_EQ(graph.predicted_noise_bits(p),
                   NoiseModel::after_mult(ca.noise_bits, cb.noise_bits));
  const Wire x = graph.gate_xor(a, b);
  EXPECT_DOUBLE_EQ(graph.predicted_noise_bits(x),
                   NoiseModel::after_add(ca.noise_bits, cb.noise_bits));
  EXPECT_TRUE(graph.predicted_decryptable(p));
}

// --- evaluator mechanics ---------------------------------------------------

TEST_F(GraphTest, DeadNodesAreNotExecuted) {
  std::atomic<u64> mults{0};
  Dghv scheme(DghvParams::toy(), 9, counting_engine(mults));
  Graph graph(scheme);
  const Wire a = graph.input(scheme.encrypt(true));
  const Wire b = graph.input(scheme.encrypt(false));
  const Wire live = graph.gate_and(a, b);
  (void)graph.gate_and(live, a);       // dead: never requested
  (void)graph.gate_or(b, live);        // dead
  const Wire outputs[] = {live};

  Evaluator evaluator;
  EvalReport report;
  const std::vector<Ciphertext> results = evaluator.evaluate(graph, outputs, &report);
  EXPECT_EQ(mults.load(), 1u) << "only the live AND gate may execute";
  EXPECT_EQ(report.and_gates, 1u);
  EXPECT_EQ(report.dead_nodes, 4u);  // dead and, dead or's and + two xors
  EXPECT_TRUE(scheme.decrypt(results[0]) == false);
}

TEST_F(GraphTest, WavefrontsBatchIndependentGates) {
  Dghv scheme(DghvParams::toy(), 11);
  Graph graph(scheme);
  EncryptedInt ca = encrypt_int(scheme, 11, 4);
  EncryptedInt cb = encrypt_int(scheme, 7, 4);
  const std::vector<Wire> a = graph.inputs(ca);
  const std::vector<Wire> b = graph.inputs(cb);
  Graph::AddResult sum = graph.add(a, b, graph.input(scheme.encrypt(false)));
  std::vector<Wire> outputs = sum.sum;
  outputs.push_back(sum.carry_out);

  Evaluator evaluator;
  EvalReport report;
  const std::vector<Ciphertext> results = evaluator.evaluate(graph, outputs, &report);

  // 4-bit ripple carry: 8 AND gates in 4 wavefronts -- all four and(a_i, b_i)
  // products plus the first carry step land at depth 1.
  EXPECT_EQ(report.and_gates, 8u);
  EXPECT_EQ(report.wavefront_count(), 4u);
  EXPECT_LT(report.wavefront_count(), report.and_gates);
  EXPECT_EQ(report.wavefronts[0].and_gates, 5u);
  EXPECT_EQ(report.wavefronts[1].and_gates, 1u);
  EXPECT_EQ(report.levels, 4u);
  for (std::size_t i = 1; i < report.wavefronts.size(); ++i) {
    EXPECT_GT(report.wavefronts[i].level, report.wavefronts[i - 1].level);
  }

  EncryptedInt enc_sum(results.begin(), results.begin() + 4);
  const u64 value =
      decrypt_int(scheme, enc_sum) | (scheme.decrypt(results[4]) ? 16u : 0u);
  EXPECT_EQ(value, 18u);
}

TEST_F(GraphTest, MuxSelectsAndLessThanCompares) {
  Dghv scheme(DghvParams::toy(), 13, backend::make_backend("classical"));
  const Ciphertext enc_zero = scheme.encrypt(false);
  const Ciphertext enc_one = scheme.encrypt(true);
  Evaluator evaluator;

  for (const auto& [x, y] : {std::pair{3u, 9u}, {9u, 3u}, {7u, 7u}, {0u, 15u}, {15u, 0u}}) {
    EncryptedInt cx = encrypt_int(scheme, x, 4);
    EncryptedInt cy = encrypt_int(scheme, y, 4);
    for (const bool sel : {false, true}) {
      Graph graph(scheme);
      const std::vector<Wire> a = graph.inputs(cx);
      const std::vector<Wire> b = graph.inputs(cy);
      const Wire select = graph.input(scheme.encrypt(sel));
      const std::vector<Wire> out = graph.mux(select, a, b);
      const std::vector<Ciphertext> bits = evaluator.evaluate(graph, out);
      EXPECT_EQ(decrypt_int(scheme, EncryptedInt(bits.begin(), bits.end())),
                sel ? x : y)
          << x << "," << y << "," << sel;
    }

    Graph graph(scheme);
    const std::vector<Wire> a = graph.inputs(cx);
    const std::vector<Wire> b = graph.inputs(cy);
    const Wire lt = graph.less_than(a, b, graph.input(enc_zero), graph.input(enc_one));
    const Wire outputs[] = {lt};
    const std::vector<Ciphertext> bit = evaluator.evaluate(graph, outputs);
    EXPECT_EQ(scheme.decrypt(bit[0]), x < y) << x << " < " << y;
  }
}

TEST_F(GraphTest, AllTwoInputGates) {
  for (const bool a : {false, true}) {
    for (const bool b : {false, true}) {
      Graph graph(scheme_);
      const Wire wa = graph.input(scheme_.encrypt(a));
      const Wire wb = graph.input(scheme_.encrypt(b));
      const Wire one = graph.input(scheme_.encrypt(true));
      const std::vector<Wire> outputs = {graph.gate_xor(wa, wb), graph.gate_and(wa, wb),
                                         graph.gate_or(wa, wb), graph.gate_not(wa, one)};
      const std::vector<Ciphertext> bits = run(graph, outputs);
      EXPECT_EQ(scheme_.decrypt(bits[0]), a != b) << a << b;
      EXPECT_EQ(scheme_.decrypt(bits[1]), a && b) << a << b;
      EXPECT_EQ(scheme_.decrypt(bits[2]), a || b) << a << b;
      EXPECT_EQ(scheme_.decrypt(bits[3]), !a) << a << b;
    }
  }
}

TEST_F(GraphTest, MajorityTruthTable) {
  for (int bits = 0; bits < 8; ++bits) {
    const bool a = bits & 1;
    const bool b = bits & 2;
    const bool c = bits & 4;
    Graph graph(scheme_);
    const Wire wa = graph.input(scheme_.encrypt(a));
    const Wire wb = graph.input(scheme_.encrypt(b));
    const Wire wc = graph.input(scheme_.encrypt(c));
    const Wire outputs[] = {graph.gate_maj(wa, wb, wc)};
    EXPECT_EQ(scheme_.decrypt(run(graph, outputs)[0]), (a + b + c) >= 2) << bits;
  }
}

TEST_F(GraphTest, EncryptDecryptIntRoundTrip) {
  for (const u64 v : {0ULL, 1ULL, 5ULL, 10ULL, 15ULL}) {
    EXPECT_EQ(decrypt_int(scheme_, encrypt_int(scheme_, v, 4)), v);
  }
  // Width truncates.
  EXPECT_EQ(decrypt_int(scheme_, encrypt_int(scheme_, 0xFF, 4)), 0xFu);
}

TEST_F(GraphTest, AdderAndComparatorOverWordPairs) {
  const Ciphertext zero = scheme_.encrypt(false);
  const Ciphertext one = scheme_.encrypt(true);
  for (auto [x, y] : {std::pair{3u, 2u}, {7u, 9u}, {15u, 15u}, {0u, 0u}, {8u, 8u}, {11u, 10u}}) {
    Graph graph(scheme_);
    const std::vector<Wire> a = graph.inputs(encrypt_int(scheme_, x, 4));
    const std::vector<Wire> b = graph.inputs(encrypt_int(scheme_, y, 4));
    Graph::AddResult sum = graph.add(a, b, graph.input(zero));
    std::vector<Wire> outputs = std::move(sum.sum);
    outputs.push_back(sum.carry_out);
    outputs.push_back(graph.equals(a, b, graph.input(one)));
    const std::vector<Ciphertext> bits = run(graph, outputs);
    EXPECT_EQ(decrypt_int(scheme_, EncryptedInt(bits.begin(), bits.end() - 1)), x + y)
        << x << "+" << y;
    EXPECT_EQ(scheme_.decrypt(bits.back()), x == y) << x << "==" << y;
  }
}

TEST_F(GraphTest, WidthMismatchRejected) {
  Graph graph(scheme_);
  const std::vector<Wire> a = graph.inputs(encrypt_int(scheme_, 1, 4));
  const std::vector<Wire> b = graph.inputs(encrypt_int(scheme_, 1, 3));
  const Wire zero = graph.input(scheme_.encrypt(false));
  const Wire one = graph.input(scheme_.encrypt(true));
  EXPECT_THROW((void)graph.add(a, b, zero), std::logic_error);
  EXPECT_THROW((void)graph.equals(a, b, one), std::logic_error);
}

TEST(GraphDeep, WordMultiplierDecrypts) {
  // The ripple multiplier stacks row adders, so its multiplicative depth
  // exceeds the toy noise budget; deep() has eta = 8192 bits of headroom.
  Dghv scheme(DghvParams::deep(), 88);
  const Ciphertext zero = scheme.encrypt(false);
  for (auto [x, y] : {std::pair{3u, 2u}, {3u, 3u}, {0u, 2u}, {1u, 3u}}) {
    Graph graph(scheme);
    const std::vector<Wire> a = graph.inputs(encrypt_int(scheme, x, 2));
    const std::vector<Wire> b = graph.inputs(encrypt_int(scheme, y, 2));
    const std::vector<Wire> product = graph.multiply(a, b, graph.input(zero));
    const std::vector<Ciphertext> bits = run(graph, product);
    EXPECT_EQ(decrypt_int(scheme, EncryptedInt(bits.begin(), bits.end())), x * y) << x << "*" << y;
  }
}

// --- parity: gate-by-gate eager reference vs wavefront evaluator ----------

/// The eager reference: adder + equality + majority (and, for fast engines,
/// the 2x2 word multiplier), one gate at a time on `engine`.
std::vector<Ciphertext> eager_reference(const Dghv& scheme, backend::MultiplierBackend& engine,
                                        const EncryptedInt& cx, const EncryptedInt& cy,
                                        const Ciphertext& zero, const Ciphertext& one,
                                        bool include_multiply) {
  EagerGates g{scheme, engine};
  const LoweringOptions ripple;
  lowering::AddOut<EagerGates> sum = lowering::lower_add<EagerGates>(g, cx, cy, zero, ripple);
  std::vector<Ciphertext> out = std::move(sum.sum);
  out.push_back(sum.carry_out);
  out.push_back(lowering::lower_equals<EagerGates>(g, cx, cy, one, ripple));
  out.push_back(lowering::majority<EagerGates>(g, cx[0], cy[0], cx[1]));
  if (include_multiply) {
    const std::span<const Ciphertext> mx(cx.data(), 2);
    const std::span<const Ciphertext> my(cy.data(), 2);
    const EncryptedInt prod = lowering::lower_multiply<EagerGates>(g, mx, my, zero, ripple);
    out.insert(out.end(), prod.begin(), prod.end());
  }
  return out;
}

/// The same computation recorded as one graph.
std::pair<Graph, std::vector<Wire>> graph_reference(const Dghv& scheme,
                                                    const EncryptedInt& cx,
                                                    const EncryptedInt& cy,
                                                    const Ciphertext& zero,
                                                    const Ciphertext& one,
                                                    bool include_multiply) {
  Graph graph(scheme);
  const std::vector<Wire> a = graph.inputs(cx);
  const std::vector<Wire> b = graph.inputs(cy);
  const Wire wzero = graph.input(zero);
  const Wire wone = graph.input(one);

  Graph::AddResult sum = graph.add(a, b, wzero);
  std::vector<Wire> outputs = std::move(sum.sum);
  outputs.push_back(sum.carry_out);
  outputs.push_back(graph.equals(a, b, wone));
  outputs.push_back(graph.gate_maj(a[0], b[0], a[1]));
  if (include_multiply) {
    const std::vector<Wire> ma(a.begin(), a.begin() + 2);
    const std::vector<Wire> mb(b.begin(), b.begin() + 2);
    const std::vector<Wire> prod = graph.multiply(ma, mb, wzero);
    outputs.insert(outputs.end(), prod.begin(), prod.end());
  }
  return {std::move(graph), std::move(outputs)};
}

void expect_bit_exact(const std::vector<Ciphertext>& got,
                      const std::vector<Ciphertext>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].value, want[i].value) << what << " output " << i;
    EXPECT_DOUBLE_EQ(got[i].noise_bits, want[i].noise_bits) << what << " output " << i;
  }
}

/// A downsized simulated accelerator (512-point pipeline, plan 8*8*8)
/// that multiplies the toy scheme's 4096-bit ciphertexts exactly: the "hw"
/// parity arms run the full circuit set in milliseconds instead of
/// simulating the 64K-point paper machine per gate (which blows the CI
/// per-test timeout under sanitizers).
hw::AcceleratorConfig small_hw_config() {
  hw::AcceleratorConfig config = hw::AcceleratorConfig::paper();
  config.ssa = ssa::SsaParams::for_bits(4096);
  config.ntt.plan = ntt::NttPlan::from_radices({8, 8, 8});  // N = 512
  return config;
}

TEST(GraphParity, EagerMatchesWavefrontAcrossBackendsAndWorkers) {
  Dghv scheme(DghvParams::toy(), 4242);
  const Ciphertext zero = scheme.encrypt(false);
  const Ciphertext one = scheme.encrypt(true);
  const EncryptedInt cx = encrypt_int(scheme, 11, 4);
  const EncryptedInt cy = encrypt_int(scheme, 6, 4);

  // The 2x2 multiplier exceeds the toy noise budget (eager semantics keep
  // computing; results are still deterministic and comparable bit for bit).
  const EvalOptions no_veto{.check_noise = false};

  const auto make_engine = [](const std::string& name) {
    return name == "hw"
               ? std::make_shared<backend::HwBackend>(small_hw_config())
               : backend::make_backend(name);
  };

  for (const std::string& name : backend::Registry::instance().names()) {
    // Eager arm.
    const auto engine = make_engine(name);
    const std::vector<Ciphertext> eager =
        eager_reference(scheme, *engine, cx, cy, zero, one, /*include_multiply=*/true);

    auto [graph, outputs] =
        graph_reference(scheme, cx, cy, zero, one, /*include_multiply=*/true);

    // Wavefront arm, engine path.
    {
      Evaluator evaluator(make_engine(name));
      EvalReport report;
      const std::vector<Ciphertext> wave =
          evaluator.evaluate(graph, outputs, &report, no_veto);
      expect_bit_exact(wave, eager, name + " engine path");
      EXPECT_LT(report.wavefront_count(), report.and_gates) << name;
    }

    // Wavefront arm, scheduler path across PE-lane counts.
    for (const unsigned workers : {1u, 4u}) {
      core::Config config;
      config.backend_name = name;
      config.num_workers = workers;
      if (name == "hw") config.hardware = small_hw_config();
      core::Scheduler scheduler(config);
      Evaluator evaluator(scheduler);
      EvalReport report;
      const std::vector<Ciphertext> wave =
          evaluator.evaluate(graph, outputs, &report, no_veto);
      expect_bit_exact(wave, eager, name + " scheduler x" + std::to_string(workers));
      // Spectrum residency engages exactly on "ssa" lanes and must never
      // change results (checked above) -- only the transform economy.
      EXPECT_EQ(report.spectrum_resident, name == "ssa")
          << name << " x" << workers;
    }
  }
}

// --- spectrum residency ----------------------------------------------------

TEST(GraphResidency, ResidentEvaluationSavesTransformsDeterministically) {
  Dghv scheme(DghvParams::toy(), 4242);
  const Ciphertext zero = scheme.encrypt(false);
  const Ciphertext one = scheme.encrypt(true);
  const EncryptedInt cx = encrypt_int(scheme, 11, 4);
  const EncryptedInt cy = encrypt_int(scheme, 6, 4);
  const EvalOptions no_veto{.check_noise = false};

  auto [graph, outputs] =
      graph_reference(scheme, cx, cy, zero, one, /*include_multiply=*/true);

  // Engine-path reference tally: the counters are coordinator-side facts of
  // the circuit, so every path and every lane count must reproduce them.
  EvalReport engine_report;
  {
    Evaluator evaluator(backend::make_backend("ssa"));
    (void)evaluator.evaluate(graph, outputs, &engine_report, no_veto);
  }
  ASSERT_TRUE(engine_report.spectrum_resident);
  const ResidencyStats& rs = engine_report.residency;
  EXPECT_GT(rs.forward_transforms, 0u);
  EXPECT_GT(rs.inverse_transforms, 0u);
  EXPECT_GT(rs.domain_additions, 0u) << "XOR folds must run in the domain";
  // Strictly cheaper than the per-gate eager protocol (2 forwards + 1
  // inverse per AND).
  EXPECT_LT(rs.transforms_executed(), 3 * engine_report.and_gates);
  // Every AND still costs exactly one pointwise product.
  EXPECT_EQ(rs.pointwise_products, engine_report.and_gates);
  // All resident entries are evicted by the end of the evaluation.
  EXPECT_GT(rs.spectra_evicted, 0u);
  EXPECT_EQ(rs.spectra_evicted, rs.forward_transforms + rs.pointwise_products +
                                    rs.domain_additions)
      << "one eviction per spectrum entered, produced, or folded";

  for (const unsigned workers : {1u, 4u}) {
    core::Config config;
    config.backend_name = "ssa";
    config.num_workers = workers;
    core::Scheduler scheduler(config);
    Evaluator evaluator(scheduler);
    EvalReport report;
    (void)evaluator.evaluate(graph, outputs, &report, no_veto);
    ASSERT_TRUE(report.spectrum_resident) << workers;
    EXPECT_EQ(report.residency.forward_transforms, rs.forward_transforms) << workers;
    EXPECT_EQ(report.residency.inverse_transforms, rs.inverse_transforms) << workers;
    EXPECT_EQ(report.residency.pointwise_products, rs.pointwise_products) << workers;
    EXPECT_EQ(report.residency.domain_additions, rs.domain_additions) << workers;
    u64 executed = 0;
    i64 avoided = 0;
    for (const WavefrontStats& wf : report.wavefronts) {
      executed += wf.spectra_cached + wf.inverses_paid;
      avoided += wf.transforms_avoided;
    }
    EXPECT_EQ(executed, rs.transforms_executed()) << workers;
    EXPECT_EQ(avoided, static_cast<i64>(3 * report.and_gates) -
                           static_cast<i64>(rs.transforms_executed()))
        << workers;
  }
}

TEST(GraphResidency, EverySpectrumPublishedIsEvictedByTheLastLevel) {
  // A resident evaluation keeps its wire spectra in its own EvalState.
  // Every spectrum it enters, produces or folds must be evicted by the
  // last level, and eviction after each consuming wavefront keeps the
  // high-water mark below the total published.
  Dghv scheme(DghvParams::toy(), 4242);
  const Ciphertext zero = scheme.encrypt(false);
  const EncryptedInt cx = encrypt_int(scheme, 11, 4);
  const EncryptedInt cy = encrypt_int(scheme, 6, 4);
  const EvalOptions no_veto{.check_noise = false};  // mul/4 exceeds the toy budget

  core::Config config;
  config.backend_name = "ssa";
  config.num_workers = 2;
  core::Scheduler scheduler(config);
  for (const bool multiply : {false, true}) {
    Graph graph(scheme);
    const std::vector<Wire> a = graph.inputs(cx);
    const std::vector<Wire> b = graph.inputs(cy);
    const Wire wzero = graph.input(zero);
    std::vector<Wire> outputs;
    if (multiply) {
      outputs = graph.multiply(a, b, wzero);
    } else {
      Graph::AddResult sum = graph.add(a, b, wzero);
      outputs = std::move(sum.sum);
      outputs.push_back(sum.carry_out);
    }
    const char* circuit = multiply ? "mul/4" : "adder/4";

    Evaluator evaluator(scheduler);
    EvalReport report;
    (void)evaluator.evaluate(graph, outputs, &report, no_veto);
    ASSERT_TRUE(report.spectrum_resident) << circuit;
    const ResidencyStats& rs = report.residency;
    const u64 published = rs.forward_transforms + rs.pointwise_products + rs.domain_additions;
    EXPECT_GT(published, 0u) << circuit;
    EXPECT_EQ(rs.spectra_evicted, published) << circuit;
    EXPECT_GT(rs.resident_peak, 0u) << circuit;
    EXPECT_LT(rs.resident_peak, published) << circuit;
  }
}

// --- resident geometry -----------------------------------------------------

/// The residency plan of `outputs`, made without executing anything.
EvalState planned(const Graph& graph, std::span<const Wire> outputs) {
  EvalState state(graph, outputs);
  state.enable_residency();
  return state;
}

/// True iff `products` product spectra of `params` sum below p.
bool admits(const ssa::SsaParams& params, u64 products) {
  const u128 max_coeff = (u128{1} << params.coeff_bits) - 1;
  return static_cast<u128>(products) * params.num_coeffs * max_coeff * max_coeff <
         u128{fp::kModulus};
}

void expect_paper_geometry(const ssa::SsaParams& params, const char* circuit) {
  const ssa::SsaParams paper = ssa::SsaParams::paper();
  EXPECT_EQ(params.transform_size, paper.transform_size) << circuit;
  EXPECT_EQ(params.coeff_bits, paper.coeff_bits) << circuit;
  EXPECT_EQ(params.num_coeffs, paper.num_coeffs) << circuit;
}

TEST(GraphResidency, PaperSizeGatesPlanThePapersTransform) {
  // A served paper-size AND, and the 1-bit multiplies beside it, sum at
  // most two products per fold, so they run at the paper's m = 24 and
  // 65,536 points, not at the 131,072 points the 6-bit fold headroom
  // would force at gamma = 786,432.
  Dghv scheme(DghvParams::small_paper(), 31);
  const Ciphertext ca = scheme.encrypt(true);
  const Ciphertext cb = scheme.encrypt(true);
  const Ciphertext zero = scheme.encrypt(false);
  const std::size_t bits = scheme.x0().bit_length();
  EXPECT_EQ(ssa::SsaParams::for_bits(bits, ssa::kResidentHeadroomBits).transform_size, 131072u);

  Graph and_graph(scheme);
  const std::vector<Wire> and_out = {and_graph.gate_and(and_graph.input(ca), and_graph.input(cb))};
  const EvalState and_plan = planned(and_graph, and_out);
  expect_paper_geometry(and_plan.spectrum_params(), "and");
  EXPECT_EQ(and_plan.residency_stats().max_fold_products, 1u);

  for (const LoweringStrategy strategy :
       {LoweringStrategy::kCarrySave, LoweringStrategy::kRippleCarry}) {
    Graph graph(scheme, LoweringOptions{strategy});
    const std::vector<Wire> a = graph.inputs(std::vector<Ciphertext>{ca});
    const std::vector<Wire> b = graph.inputs(std::vector<Ciphertext>{cb});
    const std::vector<Wire> product = graph.multiply(a, b, graph.input(zero));
    const EvalState plan = planned(graph, product);
    const std::string circuit = std::string("mul/1 ") + lowering_strategy_name(strategy).data();
    expect_paper_geometry(plan.spectrum_params(), circuit.c_str());
    EXPECT_LE(plan.residency_stats().max_fold_products, 2u) << circuit;
    EXPECT_EQ(plan.residency_stats().bound_flushes, 0u) << circuit;
  }

  // The AND runs there, on a 1-lane ssa scheduler, bit-exact against the
  // scheme's own product.
  core::Config config;
  config.backend_name = "ssa";
  config.num_workers = 1;
  core::Scheduler scheduler(config);
  EvalReport report;
  const std::vector<Ciphertext> got = Evaluator(scheduler).evaluate(and_graph, and_out, &report);
  ASSERT_TRUE(report.spectrum_resident);
  EXPECT_EQ(report.residency.transform_size, 65536u);
  EXPECT_EQ(report.residency.coeff_bits, 24u);
  EXPECT_EQ(report.residency.transforms_executed(), 3u);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].value, scheme.multiply(ca, cb).value);
  EXPECT_TRUE(scheme.decrypt(got[0]));
}

TEST(GraphResidency, CircuitMixKeepsItsTransformLength) {
  // The service's deep carry-save circuits (fleetbench circuit_mix) fold a
  // few products each; their fitted geometry widens m but keeps the
  // 4,096 points of the headroom geometry.
  Dghv scheme(DghvParams::deep(), 61);
  const LoweringOptions carry_save{LoweringStrategy::kCarrySave};
  const Ciphertext zero = scheme.encrypt(false);
  const Ciphertext one = scheme.encrypt(true);
  const EncryptedInt x8 = encrypt_int(scheme, 0xA7, 8);
  const EncryptedInt y8 = encrypt_int(scheme, 0x5C, 8);
  const EncryptedInt x16 = encrypt_int(scheme, 0xBEEF, 16);
  const EncryptedInt y16 = encrypt_int(scheme, 0x1234, 16);
  const std::size_t bits = scheme.x0().bit_length();
  const ssa::SsaParams headroom = ssa::SsaParams::for_bits(bits, ssa::kResidentHeadroomBits);

  for (const std::string circuit : {"mul/8", "adder/16", "lt/16", "equals/16", "mux/16"}) {
    Graph g(scheme, carry_save);
    const bool narrow = circuit == "mul/8";
    const std::vector<Wire> a = g.inputs(narrow ? x8 : x16);
    const std::vector<Wire> b = g.inputs(narrow ? y8 : y16);
    std::vector<Wire> outputs;
    if (circuit == "mul/8") {
      outputs = g.multiply(a, b, g.input(zero));
    } else if (circuit == "adder/16") {
      Graph::AddResult sum = g.add(a, b, g.input(zero));
      outputs = std::move(sum.sum);
      outputs.push_back(sum.carry_out);
    } else if (circuit == "lt/16") {
      outputs = {g.less_than(a, b, g.input(zero), g.input(one))};
    } else if (circuit == "equals/16") {
      outputs = {g.equals(a, b, g.input(one))};
    } else {
      outputs = g.mux(g.input(one), a, b);
    }
    const EvalState plan = planned(g, outputs);
    EXPECT_EQ(plan.spectrum_params().transform_size, 4096u) << circuit;
    EXPECT_EQ(plan.spectrum_params().transform_size, headroom.transform_size) << circuit;
    EXPECT_TRUE(admits(plan.spectrum_params(), plan.residency_stats().max_fold_products))
        << circuit;
  }
}

/// A seeded random circuit in `rounds` rounds over 8 fresh encryptions.
/// Each round ANDs random pairs of any earlier wires, then XORs random
/// pairs drawn from the round's recent gates, so XOR chains over AND
/// products stay foldable and pile up many products: some folds pass the
/// cap. Outputs: the last three wires and two earlier gates.
std::pair<Graph, std::vector<Wire>> random_circuit(Dghv& scheme, u64 seed, unsigned rounds) {
  util::Rng rng(seed);
  Graph graph(scheme);
  std::vector<Wire> wires;
  for (unsigned i = 0; i < 8; ++i) wires.push_back(graph.input(scheme.encrypt(rng.flip())));
  const auto pick_two = [&](std::size_t from) {
    const u64 span = wires.size() - from;
    const Wire a = wires[from + rng.below(span)];
    Wire b = a;
    while (b.id == a.id) b = wires[from + rng.below(span)];
    return std::pair{a, b};
  };
  for (unsigned round = 0; round < rounds; ++round) {
    const std::size_t start = wires.size();
    for (unsigned i = 0; i < 6; ++i) {
      const auto [a, b] = pick_two(0);
      wires.push_back(graph.gate_and(a, b));
    }
    for (unsigned i = 0; i < 24; ++i) {
      const auto [a, b] = pick_two(std::max(start, wires.size() - 6));
      wires.push_back(graph.gate_xor(a, b));
    }
  }
  std::vector<Wire> outputs(wires.end() - 3, wires.end());
  for (int i = 0; i < 2; ++i) outputs.push_back(wires[8 + rng.below(wires.size() - 11)]);
  return {std::move(graph), std::move(outputs)};
}

TEST(GraphResidency, FittedGeometryMatchesTheHeadroomPlanOnRandomCircuits) {
  // The fitted geometry changes transform lengths only: against the same
  // circuit planned at for_bits(bits, kResidentHeadroomBits), the fold
  // set (bound_flushes) and every transform count are identical, and the
  // outputs equal the eager inline evaluation bit for bit.
  const EvalOptions no_veto{.check_noise = false};
  std::atomic<u64> eager_products{0};
  const auto eager_engine = counting_engine(eager_products);
  u64 flushes = 0;
  u64 widest_fold = 0;
  for (const auto& [params, seeds, rounds] :
       {std::tuple{DghvParams::toy(), 8u, 4u}, std::tuple{DghvParams::deep(), 3u, 3u}}) {
    Dghv scheme(params, 5150);
    const std::size_t bits = scheme.x0().bit_length();
    const ssa::SsaParams headroom = ssa::SsaParams::for_bits(bits, ssa::kResidentHeadroomBits);
    for (u64 seed = 1; seed <= seeds; ++seed) {
      const auto [graph, outputs] = random_circuit(scheme, seed * 7919 + params.gamma, rounds);
      const std::string what = std::to_string(params.gamma) + " bits, seed " + std::to_string(seed);

      const std::vector<Ciphertext> eager =
          Evaluator(eager_engine).evaluate(graph, outputs, nullptr, no_veto);

      EvalReport report;
      const std::vector<Ciphertext> fitted =
          Evaluator(backend::make_backend("ssa")).evaluate(graph, outputs, &report, no_veto);
      ASSERT_TRUE(report.spectrum_resident) << what;
      expect_bit_exact(fitted, eager, what + " fitted");

      // The shortest exact geometry for the plan's largest fold.
      const ResidencyStats& fit = report.residency;
      const ssa::SsaParams chosen = ssa::SsaParams::for_products(bits, fit.max_fold_products);
      EXPECT_EQ(fit.transform_size, chosen.transform_size) << what;
      EXPECT_EQ(fit.coeff_bits, chosen.coeff_bits) << what;
      EXPECT_TRUE(admits(chosen, fit.max_fold_products)) << what;
      if (chosen.coeff_bits < 26) {
        ssa::SsaParams wider = chosen;
        wider.coeff_bits += 1;
        wider.num_coeffs = (bits + wider.coeff_bits - 1) / wider.coeff_bits;
        EXPECT_FALSE(admits(wider, fit.max_fold_products)) << what;
      }
      EXPECT_LE(fit.transform_size, headroom.transform_size) << what;

      // The same circuit planned at the headroom geometry.
      EvalState state(graph, outputs);
      state.enable_residency(headroom);
      const Lanes lanes(backend::make_backend("ssa"));
      for (unsigned level = 1; level <= state.max_level(); ++level) {
        LevelStep step{&state, level, {}};
        (void)step_levels({&step, 1}, lanes);
        ASSERT_FALSE(step.fault) << what;
      }
      expect_bit_exact(state.outputs(), eager, what + " headroom");
      const ResidencyStats& old = state.residency_stats();
      EXPECT_EQ(old.transform_size, headroom.transform_size) << what;
      EXPECT_EQ(fit.bound_flushes, old.bound_flushes) << what;
      EXPECT_EQ(fit.max_fold_products, old.max_fold_products) << what;
      EXPECT_EQ(fit.forward_transforms, old.forward_transforms) << what;
      EXPECT_EQ(fit.inverse_transforms, old.inverse_transforms) << what;
      EXPECT_EQ(fit.pointwise_products, old.pointwise_products) << what;
      EXPECT_EQ(fit.domain_additions, old.domain_additions) << what;
      flushes += fit.bound_flushes;
      widest_fold = std::max(widest_fold, fit.max_fold_products);
    }
  }
  // The sweep reaches the cap and folds more than one product.
  EXPECT_GT(flushes, 0u);
  EXPECT_GT(widest_fold, 1u);
}

// --- noise model tightness -------------------------------------------------

TEST(GraphNoise, MaxMultDepthIsTightAndVetoedBeforeExecution) {
  const DghvParams params = DghvParams::toy();
  Dghv scheme(params, 20260727);
  const unsigned depth = NoiseModel::max_mult_depth(params);
  ASSERT_GE(depth, 1u);

  // 1) At the model's predicted depth, a chain of squarings still decrypts.
  Ciphertext c = scheme.encrypt(true);
  for (unsigned d = 1; d <= depth; ++d) {
    c = scheme.multiply(c, c);
    EXPECT_TRUE(NoiseModel::decryptable(params, c.noise_bits)) << "depth " << d;
    EXPECT_TRUE(scheme.decrypt(c)) << "1^2 must stay 1 at depth " << d;
  }

  // 2) The model flags depth+1 as non-decryptable...
  const double next = NoiseModel::after_mult(c.noise_bits, c.noise_bits);
  EXPECT_FALSE(NoiseModel::decryptable(params, next));

  // ...and the evaluator vetoes the over-deep circuit BEFORE spending any
  // multiplication on it.
  std::atomic<u64> mults{0};
  Dghv counted(params, 20260727, counting_engine(mults));
  Graph graph(counted);
  Wire w = graph.input(counted.encrypt(true));
  for (unsigned d = 0; d <= depth; ++d) w = graph.gate_and(w, w);
  EXPECT_FALSE(graph.predicted_decryptable(w));
  const Wire outputs[] = {w};
  Evaluator evaluator;
  EXPECT_THROW(
      {
        try {
          (void)evaluator.evaluate(graph, outputs);
        } catch (const NoiseBudgetError& e) {
          EXPECT_EQ(e.level, depth + 1);
          EXPECT_GT(e.noise_bits, e.budget_bits);
          throw;
        }
      },
      NoiseBudgetError);
  EXPECT_EQ(mults.load(), 0u) << "the veto must fire before execution";

  // 3) Cross-check against reality: keep squaring past the budget and the
  // decryption does fail, at a depth the model predicted as unsafe (the
  // model is conservative: it never flags a depth that was still safe).
  unsigned failure_depth = depth;
  Ciphertext probe = c;
  for (unsigned d = depth + 1; d <= depth + 16; ++d) {
    probe = scheme.multiply(probe, probe);
    if (!scheme.decrypt(probe)) {
      failure_depth = d;
      break;
    }
  }
  EXPECT_GT(failure_depth, depth) << "an actual failure must not precede the model's bound";
  EXPECT_LE(failure_depth, depth + 16) << "squarings past the budget must eventually fail";
}

// --- integration with the core layer ----------------------------------------

TEST(GraphWavefronts, SchedulerLanesEvaluateAnAdder) {
  Dghv scheme(DghvParams::toy(), 5150);
  Graph graph(scheme);
  EncryptedInt ca = encrypt_int(scheme, 9, 4);
  EncryptedInt cb = encrypt_int(scheme, 5, 4);
  Graph::AddResult sum =
      graph.add(graph.inputs(ca), graph.inputs(cb), graph.input(scheme.encrypt(false)));
  std::vector<Wire> outputs = std::move(sum.sum);
  outputs.push_back(sum.carry_out);

  core::Config config;
  config.backend_name = "ssa";
  config.num_workers = 2;
  core::Scheduler scheduler(config);
  Evaluator evaluator(scheduler);
  EvalReport report;
  const std::vector<Ciphertext> results = evaluator.evaluate(graph, outputs, &report);

  EXPECT_EQ(report.and_gates, 8u);
  EXPECT_EQ(report.wavefront_count(), 4u);
  EXPECT_TRUE(report.decryptable);
  EncryptedInt enc_sum(results.begin(), results.begin() + 4);
  EXPECT_EQ(decrypt_int(scheme, enc_sum) | (scheme.decrypt(results[4]) ? 16u : 0u), 14u);
}

}  // namespace
}  // namespace hemul::fhe
