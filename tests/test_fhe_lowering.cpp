// The carry-save lowering API: the shared gate-builder templates, the
// ripple/carry-save strategy dispatch, the depth predictor's agreement
// with the recorded graph, and cross-strategy parity all the way down to
// decrypted plaintexts on every registered backend.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "backend/hw_backend.hpp"
#include "backend/registry.hpp"
#include "core/scheduler.hpp"
#include "fhe/circuits.hpp"
#include "fhe/evaluator.hpp"
#include "fhe/graph.hpp"
#include "fhe/lowering.hpp"
#include "fhe/noise.hpp"
#include "ntt/plan.hpp"

namespace hemul::fhe {
namespace {

constexpr LoweringOptions kRipple{LoweringStrategy::kRippleCarry};
constexpr LoweringOptions kCarrySave{LoweringStrategy::kCarrySave};

/// Plaintext instantiation of the gate-builder concept. Wires are 0/1
/// bytes (vector<bool>'s packed specialization cannot back a std::span);
/// running the very same lowering templates over them gives the ground
/// truth every ciphertext evaluation must reproduce.
using PlainWire = unsigned char;

struct PlainBuilder {
  using WireType = PlainWire;
  PlainWire gate_xor(PlainWire a, PlainWire b) {
    return static_cast<PlainWire>(a ^ b);
  }
  PlainWire gate_and(PlainWire a, PlainWire b) {
    return static_cast<PlainWire>(a & b);
  }
};

std::vector<PlainWire> to_bits(u64 value, unsigned width) {
  std::vector<PlainWire> bits(width);
  for (unsigned i = 0; i < width; ++i) {
    bits[i] = static_cast<PlainWire>((value >> i) & 1);
  }
  return bits;
}

u64 from_bits(const std::vector<PlainWire>& bits) {
  u64 value = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) value |= u64{1} << i;
  }
  return value;
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

u64 mask_of(unsigned width) { return width >= 64 ? ~u64{0} : (u64{1} << width) - 1; }

// --- primitive builders: exhaustive truth tables ---------------------------

TEST(LoweringPrimitives, Compressor32TruthTable) {
  PlainBuilder g;
  for (int bits = 0; bits < 8; ++bits) {
    const PlainWire a = bits & 1, b = (bits >> 1) & 1, c = (bits >> 2) & 1;
    const int total = a + b + c;
    const lowering::Compressed<PlainBuilder> r = lowering::compress_3_2(g, a, b, c);
    EXPECT_EQ(r.sum, total & 1) << "abc=" << bits;
    EXPECT_EQ(r.carry, total >= 2 ? 1 : 0) << "abc=" << bits;
  }
}

TEST(LoweringPrimitives, Compressor22TruthTable) {
  PlainBuilder g;
  for (int bits = 0; bits < 4; ++bits) {
    const PlainWire a = bits & 1, b = (bits >> 1) & 1;
    const lowering::Compressed<PlainBuilder> r = lowering::compress_2_2(g, a, b);
    EXPECT_EQ(r.sum, a ^ b) << "ab=" << bits;
    EXPECT_EQ(r.carry, a & b) << "ab=" << bits;
  }
}

TEST(LoweringPrimitives, MajorityTruthTable) {
  PlainBuilder g;
  for (int bits = 0; bits < 8; ++bits) {
    const PlainWire a = bits & 1, b = (bits >> 1) & 1, c = (bits >> 2) & 1;
    EXPECT_EQ(lowering::majority(g, a, b, c), a + b + c >= 2 ? 1 : 0)
        << "abc=" << bits;
  }
}

// --- cross-strategy functional equivalence over plaintext wires ------------

class PlainLoweringTest : public ::testing::TestWithParam<unsigned> {
 protected:
  /// Operand pairs for the parameterized width: exhaustive when the space
  /// is small, otherwise edge values plus a deterministic LCG sample.
  static std::vector<std::pair<u64, u64>> operand_pairs(unsigned width) {
    const u64 mask = mask_of(width);
    std::vector<std::pair<u64, u64>> pairs;
    if (width <= 4) {
      for (u64 x = 0; x <= mask; ++x) {
        for (u64 y = 0; y <= mask; ++y) pairs.emplace_back(x, y);
      }
      return pairs;
    }
    for (const u64 x : {u64{0}, u64{1}, mask, mask - 1, mask >> 1}) {
      for (const u64 y : {u64{0}, u64{1}, mask, mask - 1, mask >> 1}) {
        pairs.emplace_back(x, y);
      }
    }
    u64 state = 0x9E3779B97F4A7C15ull + width;
    for (int i = 0; i < 40; ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      const u64 x = (state >> 17) & mask;
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      const u64 y = (state >> 17) & mask;
      pairs.emplace_back(x, y);
    }
    return pairs;
  }
};

TEST_P(PlainLoweringTest, BothStrategiesComputeWordOpsExactly) {
  const unsigned width = GetParam();
  PlainBuilder g;
  constexpr PlainWire kZero = 0, kOne = 1;
  for (const auto& [x, y] : operand_pairs(width)) {
    const std::vector<PlainWire> a = to_bits(x, width);
    const std::vector<PlainWire> b = to_bits(y, width);
    const std::span<const PlainWire> sa(a), sb(b);
    for (const LoweringOptions options : {kRipple, kCarrySave}) {
      const lowering::AddOut<PlainBuilder> sum =
          lowering::lower_add(g, sa, sb, kZero, options);
      EXPECT_EQ(from_bits(sum.sum) | (u64{sum.carry_out} << width),
                (x + y) & mask_of(width + 1))
          << x << "+" << y << " w=" << width << " "
          << lowering_strategy_name(options.strategy);

      const std::vector<PlainWire> product =
          lowering::lower_multiply(g, sa, sb, kZero, options);
      EXPECT_EQ(from_bits(product), (x * y) & mask_of(2 * width))
          << x << "*" << y << " w=" << width << " "
          << lowering_strategy_name(options.strategy);

      EXPECT_EQ(lowering::lower_equals(g, sa, sb, kOne, options), x == y ? 1 : 0)
          << x << "==" << y << " w=" << width << " "
          << lowering_strategy_name(options.strategy);

      EXPECT_EQ(lowering::lower_less_than(g, sa, sb, kZero, kOne, options),
                x < y ? 1 : 0)
          << x << "<" << y << " w=" << width << " "
          << lowering_strategy_name(options.strategy);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, PlainLoweringTest,
                         ::testing::Values(1u, 2u, 7u, 8u, 16u));

// --- the depth predictor vs the recorded graph -----------------------------

TEST(LoweringDepth, PredictorMatchesRecordedGraphLevels) {
  Dghv scheme(DghvParams::toy(), 99);
  for (const unsigned width : {1u, 2u, 7u, 8u, 16u}) {
    for (const LoweringOptions options : {kRipple, kCarrySave}) {
      for (const WordOp op :
           {WordOp::kAdd, WordOp::kEquals, WordOp::kMultiply, WordOp::kMux,
            WordOp::kLessThan}) {
        Graph graph(scheme, options);
        std::vector<Wire> a, b;
        for (unsigned i = 0; i < width; ++i) {
          a.push_back(graph.input(scheme.encrypt(true)));
          b.push_back(graph.input(scheme.encrypt(false)));
        }
        const Wire zero = graph.input(scheme.encrypt(false));
        const Wire one = graph.input(scheme.encrypt(true));

        std::vector<Wire> outputs;
        switch (op) {
          case WordOp::kAdd: {
            Graph::AddResult r = graph.add(a, b, zero);
            outputs = std::move(r.sum);
            outputs.push_back(r.carry_out);
            break;
          }
          case WordOp::kEquals:
            outputs.push_back(graph.equals(a, b, one));
            break;
          case WordOp::kMultiply:
            outputs = graph.multiply(a, b, zero);
            break;
          case WordOp::kMux:
            outputs = graph.mux(one, a, b);
            break;
          case WordOp::kLessThan:
            outputs.push_back(graph.less_than(a, b, zero, one));
            break;
          case WordOp::kAnd:
            break;
        }

        unsigned recorded = 0;
        for (const Wire w : outputs) recorded = std::max(recorded, graph.level(w));
        EXPECT_EQ(NoiseModel::predicted_depth(op, width, options), recorded)
            << "op=" << static_cast<int>(op) << " w=" << width << " "
            << lowering_strategy_name(options.strategy);
      }
    }
  }
}

TEST(LoweringDepth, CarrySaveIsLogarithmicRippleIsLinear) {
  // The acceptance fact: at 16 bits the carry-save multiplier's AND-depth
  // is at most half the ripple multiplier's.
  const unsigned ripple = NoiseModel::predicted_depth(WordOp::kMultiply, 16, kRipple);
  const unsigned cs = NoiseModel::predicted_depth(WordOp::kMultiply, 16, kCarrySave);
  EXPECT_LE(2 * cs, ripple) << "carry-save " << cs << " vs ripple " << ripple;

  // Scaling shape: doubling the width adds a constant number of levels to
  // carry-save (one Wallace layer + one prefix round) but a linear number
  // to ripple.
  const unsigned cs8 = NoiseModel::predicted_depth(WordOp::kMultiply, 8, kCarrySave);
  const unsigned ripple8 = NoiseModel::predicted_depth(WordOp::kMultiply, 8, kRipple);
  EXPECT_LE(cs, cs8 + 4);
  EXPECT_GE(ripple, ripple8 + 8);
}

TEST(LoweringDepth, PredictedNoiseIsFiniteAndOrdered) {
  const DghvParams params = DghvParams::toy();
  for (const unsigned width : {4u, 8u}) {
    const double ripple =
        NoiseModel::predicted_noise_bits(WordOp::kMultiply, width, params, kRipple);
    const double cs =
        NoiseModel::predicted_noise_bits(WordOp::kMultiply, width, params, kCarrySave);
    EXPECT_GT(ripple, 0.0);
    EXPECT_GT(cs, 0.0);
    // Shallower circuits accumulate less noise.
    EXPECT_LT(cs, ripple) << "w=" << width;
  }
}

// --- ciphertext parity: eager vs wavefront, ripple vs carry-save -----------

/// Mid-size parameters (as in the wavefront bench): roomy enough that a
/// 4-bit adder/comparator stays decryptable under either lowering, small
/// enough that every AND is fast.
DghvParams parity_params() {
  DghvParams p;
  p.lambda = 8;
  p.rho = 8;
  p.eta = 512;
  p.gamma = 8192;
  p.tau = 16;
  return p;
}

/// The engine a parity arm runs on. "hw" is a downsized simulated
/// accelerator (1024-point pipeline, plan 16*8*8) that multiplies
/// parity_params()'s 8192-bit ciphertexts exactly, so the arm takes
/// milliseconds instead of simulating the 64K-point paper machine per gate
/// (HwAccelerator.PaperMultiplicationBitExact covers that machine).
std::shared_ptr<backend::MultiplierBackend> parity_engine(const std::string& name) {
  if (name != "hw") return backend::make_backend(name);
  hw::AcceleratorConfig config = hw::AcceleratorConfig::paper();
  config.ssa = ssa::SsaParams::for_bits(parity_params().gamma);
  config.ntt.plan = ntt::NttPlan::from_radices({16, 8, 8});  // N = 1024
  return std::make_shared<backend::HwBackend>(config);
}

TEST(LoweringParity, EagerAndWavefrontAreBitExactUnderBothStrategies) {
  const DghvParams params = parity_params();
  Dghv scheme(params, 0x10E1);
  const Ciphertext enc_zero = scheme.encrypt(false);
  const Ciphertext enc_one = scheme.encrypt(true);

  core::Config config;
  config.backend_name = "ssa";
  config.num_workers = 2;
  core::Scheduler scheduler(config);

  const unsigned width = 4;
  const u64 x = 0xB, y = 0x6;
  for (const LoweringOptions options : {kRipple, kCarrySave}) {
    const EncryptedInt cx = encrypt_int(scheme, x, width);
    const EncryptedInt cy = encrypt_int(scheme, y, width);

    // Gate-by-gate on the scheme's own engine.
    EagerGates eager{scheme, *scheme.engine()};
    lowering::AddOut<EagerGates> eager_sum =
        lowering::lower_add<EagerGates>(eager, cx, cy, enc_zero, options);
    std::vector<Ciphertext> eager_out = std::move(eager_sum.sum);
    eager_out.push_back(eager_sum.carry_out);
    eager_out.push_back(
        lowering::lower_less_than<EagerGates>(eager, cx, cy, enc_zero, enc_one, options));

    // Graph + wavefront evaluator over the scheduler.
    Graph graph(scheme, options);
    const std::vector<Wire> wx = graph.inputs(cx);
    const std::vector<Wire> wy = graph.inputs(cy);
    const Wire zero = graph.input(enc_zero);
    const Wire one = graph.input(enc_one);
    Graph::AddResult g_sum = graph.add(wx, wy, zero);
    std::vector<Wire> outputs = std::move(g_sum.sum);
    outputs.push_back(g_sum.carry_out);
    outputs.push_back(graph.less_than(wx, wy, zero, one));

    Evaluator evaluator(scheduler);
    const std::vector<Ciphertext> wave = evaluator.evaluate(graph, outputs);

    ASSERT_EQ(wave.size(), eager_out.size());
    for (std::size_t i = 0; i < wave.size(); ++i) {
      EXPECT_EQ(wave[i].value, eager_out[i].value)
          << "output " << i << " " << lowering_strategy_name(options.strategy);
    }
  }
}

TEST(LoweringParity, StrategiesDecryptIdenticallyOnEveryBackend) {
  const DghvParams params = parity_params();
  const unsigned width = 4;
  const u64 x = 0xD, y = 0x5;
  // A 2-bit word multiply stays inside the noise budget under both
  // lowerings (a 3-bit ripple multiply would not).
  const u64 mx = 0x3, my = 0x2;

  for (const std::string& name : backend::Registry::instance().names()) {
    const std::shared_ptr<backend::MultiplierBackend> engine = parity_engine(name);
    const backend::BackendLimits limits = engine->limits();
    if (limits.max_operand_bits != 0 && limits.max_operand_bits < params.gamma) {
      continue;  // engine cannot hold a gamma-bit ciphertext
    }
    Dghv scheme(params, 0xBAC0);
    const Ciphertext enc_zero = scheme.encrypt(false);
    const Ciphertext enc_one = scheme.encrypt(true);
    const EncryptedInt cx = encrypt_int(scheme, x, width);
    const EncryptedInt cy = encrypt_int(scheme, y, width);
    const EncryptedInt cmx = encrypt_int(scheme, mx, 2);
    const EncryptedInt cmy = encrypt_int(scheme, my, 2);

    u64 sums[2] = {0, 0};
    bool lts[2] = {false, false};
    u64 products[2] = {0, 0};
    int slot = 0;
    for (const LoweringOptions options : {kRipple, kCarrySave}) {
      Graph graph(scheme, options);
      const std::vector<Wire> wx = graph.inputs(cx);
      const std::vector<Wire> wy = graph.inputs(cy);
      const Wire zero = graph.input(enc_zero);
      Graph::AddResult sum = graph.add(wx, wy, zero);
      std::vector<Wire> outputs = std::move(sum.sum);
      outputs.push_back(sum.carry_out);
      outputs.push_back(graph.less_than(wx, wy, zero, graph.input(enc_one)));
      const std::vector<Wire> product = graph.multiply(graph.inputs(cmx), graph.inputs(cmy), zero);
      outputs.insert(outputs.end(), product.begin(), product.end());

      const std::vector<Ciphertext> wave = Evaluator(engine).evaluate(graph, outputs);
      sums[slot] = decrypt_int(scheme, EncryptedInt(wave.begin(), wave.begin() + width + 1));
      lts[slot] = scheme.decrypt(wave[width + 1]);
      products[slot] = decrypt_int(scheme, EncryptedInt(wave.begin() + width + 2, wave.end()));
      ++slot;
    }
    EXPECT_EQ(sums[0], sums[1]) << "backend " << name;
    EXPECT_EQ(sums[0], x + y) << "backend " << name;
    EXPECT_EQ(lts[0], lts[1]) << "backend " << name;
    EXPECT_EQ(lts[0], x < y) << "backend " << name;
    EXPECT_EQ(products[0], products[1]) << "backend " << name;
    EXPECT_EQ(products[0], mx * my) << "backend " << name;
  }
}

TEST(LoweringParity, StrategiesDecryptIdenticallyAcrossWorkerCounts) {
  const unsigned width = 4;
  const u64 x = 0x9, y = 0xE;

  // Size the noise budget off the predictor itself: the deeper ripple
  // multiplier dictates eta, with margin, so BOTH strategies decrypt.
  DghvParams params = parity_params();
  const double worst = std::max(
      NoiseModel::predicted_noise_bits(WordOp::kMultiply, width, params, kRipple),
      NoiseModel::predicted_noise_bits(WordOp::kMultiply, width, params, kCarrySave));
  params.eta = static_cast<std::size_t>(worst) + 32;
  params.gamma = std::max<std::size_t>(params.gamma, 4 * params.eta);

  // Resident ("ssa") and eager ("classical") lanes, each against a
  // gate-by-gate reference on a classical engine.
  const auto reference_engine = backend::make_backend("classical");
  for (const std::string lanes : {"ssa", "classical"}) {
    for (const unsigned workers : {1u, 4u}) {
      core::Config config;
      config.backend_name = lanes;
      config.num_workers = workers;
      core::Scheduler scheduler(config);

      Dghv scheme(params, 0x60D0 + workers);
      const Ciphertext enc_zero = scheme.encrypt(false);
      const EncryptedInt cx = encrypt_int(scheme, x, width);
      const EncryptedInt cy = encrypt_int(scheme, y, width);
      u64 products[2] = {0, 0};
      int slot = 0;
      for (const LoweringOptions options : {kRipple, kCarrySave}) {
        const std::string arm = lanes + " x" + std::to_string(workers) + " " +
                                std::string(lowering_strategy_name(options.strategy));
        Graph graph(scheme, options);
        const std::vector<Wire> outputs =
            graph.multiply(graph.inputs(cx), graph.inputs(cy), graph.input(enc_zero));

        Evaluator evaluator(scheduler);
        const std::vector<Ciphertext> wave = evaluator.evaluate(graph, outputs);
        products[slot++] = decrypt_int(scheme, EncryptedInt(wave.begin(), wave.end()));

        EagerGates eager{scheme, *reference_engine};
        const EncryptedInt expected =
            lowering::lower_multiply<EagerGates>(eager, cx, cy, enc_zero, options);
        ASSERT_EQ(wave.size(), expected.size()) << arm;
        for (std::size_t i = 0; i < wave.size(); ++i) {
          EXPECT_EQ(wave[i].value, expected[i].value) << arm << " bit " << i;
        }
      }
      EXPECT_EQ(products[0], products[1]) << lanes << " x" << workers;
      EXPECT_EQ(products[0], x * y) << lanes << " x" << workers;
    }
  }
}

// --- per-call overrides and graph defaults ---------------------------------

TEST(LoweringOptionsApi, PerCallOverrideBeatsGraphDefault) {
  Dghv scheme(DghvParams::toy(), 55);
  Graph graph(scheme, kRipple);
  EXPECT_EQ(graph.lowering(), kRipple);

  std::vector<Wire> a, b;
  for (unsigned i = 0; i < 4; ++i) {
    a.push_back(graph.input(scheme.encrypt(true)));
    b.push_back(graph.input(scheme.encrypt(false)));
  }
  const Wire zero = graph.input(scheme.encrypt(false));

  // Default lowering: ripple depth for a 4-bit add is 4 levels.
  Graph::AddResult ripple_sum = graph.add(a, b, zero);
  unsigned ripple_depth = 0;
  for (const Wire w : ripple_sum.sum) ripple_depth = std::max(ripple_depth, graph.level(w));
  ripple_depth = std::max(ripple_depth, graph.level(ripple_sum.carry_out));
  EXPECT_EQ(ripple_depth, NoiseModel::predicted_depth(WordOp::kAdd, 4, kRipple));

  // Same graph, per-call carry-save: shallower, without touching the default.
  Graph::AddResult cs_sum = graph.add(a, b, zero, kCarrySave);
  unsigned cs_depth = 0;
  for (const Wire w : cs_sum.sum) cs_depth = std::max(cs_depth, graph.level(w));
  cs_depth = std::max(cs_depth, graph.level(cs_sum.carry_out));
  EXPECT_EQ(cs_depth, NoiseModel::predicted_depth(WordOp::kAdd, 4, kCarrySave));
  EXPECT_LT(cs_depth, ripple_depth);
  EXPECT_EQ(graph.lowering(), kRipple) << "per-call override must not stick";

  graph.set_lowering(kCarrySave);
  EXPECT_EQ(graph.lowering(), kCarrySave);
}

TEST(LoweringOptionsApi, StrategyNamesRoundTrip) {
  EXPECT_EQ(lowering_strategy_name(LoweringStrategy::kRippleCarry), "ripple");
  EXPECT_EQ(lowering_strategy_name(LoweringStrategy::kCarrySave), "carry-save");
  EXPECT_EQ(lowering_strategy_from_name("ripple"), LoweringStrategy::kRippleCarry);
  EXPECT_EQ(lowering_strategy_from_name("carry-save"), LoweringStrategy::kCarrySave);
  EXPECT_THROW((void)lowering_strategy_from_name("dadda"), std::invalid_argument);
}

}  // namespace
}  // namespace hemul::fhe
