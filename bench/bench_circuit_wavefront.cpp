// Experiment C1: eager gate-at-a-time vs lazy wavefront circuit evaluation,
// under both word-op lowering strategies.
//
// The eager arm evaluates a homomorphic circuit gate by gate: the lowering
// templates run over ciphertexts, every AND gate is one engine invocation
// issued the moment the circuit code reaches it, so the ripple-carry chain
// serializes the whole computation. The circuit-graph
// IR (fhe::Graph + fhe::Evaluator) records the same circuit first, levels it
// by multiplicative depth, and issues each level -- a wavefront of mutually
// independent AND gates -- as ONE batch across the scheduler's PE lanes,
// with spectrum-resident rounds amortizing repeated operands (every a[i]
// and b[j] of a partial-product matrix enters the NTT domain once, not w
// times).
//
// Measured circuits (the acceptance workload): the 8-bit adder and the
// 4-bit schoolbook multiplier, each lowered both ways -- ripple-carry
// (serial chains) and carry-save (Wallace reduction + Sklansky resolve).
// Every arm is checked bit-for-bit: the wavefront evaluation must reproduce
// the eager ciphertexts exactly, and the wavefront count must be strictly
// below the AND-gate count (real cross-gate batching, not one batch per
// gate). Each circuit also reports its predicted AND-depth (the NoiseModel
// runs the same lowering templates, so prediction == recorded depth) and
// its wavefront width (peak gates per level, the batch-parallelism the
// lowering exposes). The summary block additionally records the predicted
// 16-bit multiply depth of both strategies: carry-save must reach at most
// half of ripple's depth (hard-gated by bench_compare.py).
//
//   bench_circuit_wavefront [--workers N] [--json FILE]
//     defaults: 2 PE lanes
//
// Exit code 0 iff every circuit matches bit-for-bit and batches gates.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "backend/ssa_backend.hpp"
#include "core/scheduler.hpp"
#include "fhe/circuits.hpp"
#include "fhe/dghv.hpp"
#include "fhe/evaluator.hpp"
#include "fhe/graph.hpp"
#include "fhe/lowering.hpp"
#include "fhe/noise.hpp"

namespace {

using namespace hemul;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Mid-size noise budget: deep enough that the 8-bit adder stays
/// decryptable (the toy budget is marginal at 8 bits), small enough that
/// every AND is a fast 8192-bit product.
fhe::DghvParams bench_params() {
  fhe::DghvParams p;
  p.lambda = 8;
  p.rho = 8;
  p.eta = 512;
  p.gamma = 8192;
  p.tau = 16;
  return p;
}

/// The eager arm: the lowering templates run one ciphertext gate at a time,
/// XOR as Dghv::add and AND as one engine multiply reduced modulo x0.
struct EagerGates {
  using WireType = fhe::Ciphertext;
  const fhe::Dghv& scheme;
  backend::MultiplierBackend& engine;
  u64 and_gates = 0;
  fhe::Ciphertext gate_xor(const fhe::Ciphertext& a, const fhe::Ciphertext& b) {
    return scheme.add(a, b);
  }
  fhe::Ciphertext gate_and(const fhe::Ciphertext& a, const fhe::Ciphertext& b) {
    ++and_gates;
    return {engine.multiply(a.value, b.value) % scheme.public_key().x0,
            fhe::NoiseModel::after_mult(a.noise_bits, b.noise_bits)};
  }
};

struct CircuitResult {
  std::string name;
  u64 and_gates = 0;       ///< executed by the wavefront evaluator
  u64 eager_and_gates = 0; ///< executed by the eager arm
  std::size_t wavefronts = 0;
  std::size_t dead_nodes = 0;
  unsigned predicted_depth = 0;  ///< NoiseModel prediction for this lowering
  double eager_ms = 0.0;
  double wavefront_ms = 0.0;
  bool match = false;       ///< wavefront ciphertexts == eager ciphertexts
  bool decrypt_ok = false;  ///< wavefront decryption == eager decryption
  fhe::EvalReport report;

  [[nodiscard]] double speedup() const {
    return wavefront_ms > 0.0 ? eager_ms / wavefront_ms : 0.0;
  }
  [[nodiscard]] bool batched() const { return wavefronts < and_gates; }

  /// Peak AND gates in one wavefront: the batch parallelism this lowering
  /// exposes to the PE lanes (carry-save trades depth for width here).
  [[nodiscard]] u64 wavefront_width() const {
    u64 width = 0;
    for (const fhe::WavefrontStats& wf : report.wavefronts) {
      width = std::max(width, wf.and_gates);
    }
    return width;
  }

  /// The predictor must agree with the recorded circuit: both run the very
  /// same lowering templates.
  [[nodiscard]] bool depth_consistent() const {
    return predicted_depth == report.levels;
  }

  /// NTT executions (forward + inverse) the per-gate eager arm actually
  /// performed, read off its engine's counters. Both tallies are
  /// deterministic functions of the circuit, so the reduction gate is
  /// machine-independent.
  u64 eager_transforms = 0;
  [[nodiscard]] u64 transforms_executed() const {
    return report.residency.transforms_executed();
  }
  [[nodiscard]] i64 transforms_avoided() const {
    return static_cast<i64>(eager_transforms) - static_cast<i64>(transforms_executed());
  }
  [[nodiscard]] double transform_reduction() const {
    return transforms_executed() > 0
               ? static_cast<double>(eager_transforms) /
                     static_cast<double>(transforms_executed())
               : 0.0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  unsigned workers = 2;
  std::string json_path;
  bool usage_error = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else {
      usage_error = true;
    }
  }
  if (usage_error || workers == 0) {
    std::fprintf(stderr, "usage: bench_circuit_wavefront [--workers N] [--json FILE]\n");
    return 2;
  }

  const fhe::DghvParams params = bench_params();
  fhe::Dghv scheme(params, 0xBE9C);

  core::Config config;
  config.backend_name = "ssa";
  config.num_workers = workers;
  core::Scheduler scheduler(config);

  std::printf("== circuit wavefront evaluation: eager vs graph IR ==\n");
  std::printf("   params: eta=%zu gamma=%zu, engine \"ssa\", %u PE lane(s)\n\n",
              params.eta, params.gamma, scheduler.num_workers());

  const fhe::Ciphertext enc_zero = scheme.encrypt(false);
  constexpr fhe::LoweringOptions kRipple{fhe::LoweringStrategy::kRippleCarry};
  constexpr fhe::LoweringOptions kCarrySave{fhe::LoweringStrategy::kCarrySave};
  std::vector<CircuitResult> results;

  // --- 8-bit adder, both lowerings ----------------------------------------
  const auto run_adder = [&](const char* name, fhe::LoweringOptions lowering) {
    CircuitResult r;
    r.name = name;
    r.predicted_depth = fhe::NoiseModel::predicted_depth(fhe::WordOp::kAdd, 8, lowering);
    const u64 x = 0xB5, y = 0x6E;
    fhe::EncryptedInt cx = fhe::encrypt_int(scheme, x, 8);
    fhe::EncryptedInt cy = fhe::encrypt_int(scheme, y, 8);

    // Eager arm: gate at a time.
    backend::SsaBackend eager_engine;
    EagerGates eager{scheme, eager_engine};
    const auto t0 = Clock::now();
    const fhe::lowering::AddOut<EagerGates> eager_sum =
        fhe::lowering::lower_add<EagerGates>(eager, cx, cy, enc_zero, lowering);
    r.eager_ms = ms_since(t0);
    r.eager_and_gates = eager.and_gates;
    r.eager_transforms = eager_engine.stats().transform_count;

    // Wavefront arm: record, level, batch.
    fhe::Graph graph(scheme, lowering);
    const std::vector<fhe::Wire> wx = graph.inputs(cx);
    const std::vector<fhe::Wire> wy = graph.inputs(cy);
    fhe::Graph::AddResult g_sum = graph.add(wx, wy, graph.input(enc_zero));
    std::vector<fhe::Wire> outputs = std::move(g_sum.sum);
    outputs.push_back(g_sum.carry_out);

    fhe::Evaluator evaluator(scheduler);
    const auto t1 = Clock::now();
    const std::vector<fhe::Ciphertext> wave =
        evaluator.evaluate(graph, outputs, &r.report);
    r.wavefront_ms = ms_since(t1);
    r.and_gates = r.report.and_gates;
    r.wavefronts = r.report.wavefront_count();
    r.dead_nodes = r.report.dead_nodes;

    std::vector<fhe::Ciphertext> eager_out = eager_sum.sum;
    eager_out.push_back(eager_sum.carry_out);
    r.match = wave.size() == eager_out.size();
    for (std::size_t i = 0; r.match && i < wave.size(); ++i) {
      r.match = wave[i].value == eager_out[i].value;
    }
    r.decrypt_ok = r.match;
    for (std::size_t i = 0; r.decrypt_ok && i < wave.size(); ++i) {
      r.decrypt_ok = scheme.decrypt(wave[i]) == scheme.decrypt(eager_out[i]);
    }
    results.push_back(std::move(r));
  };
  run_adder("adder8", kRipple);
  run_adder("adder8_cs", kCarrySave);

  // --- 4-bit schoolbook multiplier, both lowerings ------------------------
  const auto run_mul = [&](const char* name, fhe::LoweringOptions lowering) {
    CircuitResult r;
    r.name = name;
    r.predicted_depth = fhe::NoiseModel::predicted_depth(fhe::WordOp::kMultiply, 4, lowering);
    const u64 x = 0xB, y = 0x6;
    fhe::EncryptedInt cx = fhe::encrypt_int(scheme, x, 4);
    fhe::EncryptedInt cy = fhe::encrypt_int(scheme, y, 4);

    backend::SsaBackend eager_engine;
    EagerGates eager{scheme, eager_engine};
    const auto t0 = Clock::now();
    const fhe::EncryptedInt eager_prod =
        fhe::lowering::lower_multiply<EagerGates>(eager, cx, cy, enc_zero, lowering);
    r.eager_ms = ms_since(t0);
    r.eager_and_gates = eager.and_gates;
    r.eager_transforms = eager_engine.stats().transform_count;

    fhe::Graph graph(scheme, lowering);
    const std::vector<fhe::Wire> wx = graph.inputs(cx);
    const std::vector<fhe::Wire> wy = graph.inputs(cy);
    const std::vector<fhe::Wire> outputs =
        graph.multiply(wx, wy, graph.input(enc_zero));

    fhe::Evaluator evaluator(scheduler);
    fhe::EvalOptions options;
    // The stacked adders of the 4x4 product exceed any practical noise
    // budget; this bench checks bit-for-bit parity, so run past the veto
    // the way the eager arm does.
    options.check_noise = false;
    const auto t1 = Clock::now();
    const std::vector<fhe::Ciphertext> wave =
        evaluator.evaluate(graph, outputs, &r.report, options);
    r.wavefront_ms = ms_since(t1);
    r.and_gates = r.report.and_gates;
    r.wavefronts = r.report.wavefront_count();
    r.dead_nodes = r.report.dead_nodes;

    r.match = wave.size() == eager_prod.size();
    for (std::size_t i = 0; r.match && i < wave.size(); ++i) {
      r.match = wave[i].value == eager_prod[i].value;
    }
    r.decrypt_ok = r.match;
    for (std::size_t i = 0; r.decrypt_ok && i < wave.size(); ++i) {
      r.decrypt_ok = scheme.decrypt(wave[i]) == scheme.decrypt(eager_prod[i]);
    }
    results.push_back(std::move(r));
  };
  run_mul("mul4", kRipple);
  run_mul("mul4_cs", kCarrySave);

  bool ok = true;
  for (const CircuitResult& r : results) {
    std::printf("-- %s --\n", r.name.c_str());
    std::printf("  AND gates    : %llu wavefront (%llu eager, %zu dead nodes eliminated)\n",
                static_cast<unsigned long long>(r.and_gates),
                static_cast<unsigned long long>(r.eager_and_gates), r.dead_nodes);
    std::printf("  wavefronts   : %zu (%s: %zu < %llu gates), width %llu\n", r.wavefronts,
                r.batched() ? "cross-gate batching" : "NO BATCHING", r.wavefronts,
                static_cast<unsigned long long>(r.and_gates),
                static_cast<unsigned long long>(r.wavefront_width()));
    std::printf("  pred. depth  : %u (%s recorded levels)\n", r.predicted_depth,
                r.depth_consistent() ? "==" : "DISAGREES WITH");
    std::printf("  eager        : %8.1f ms\n", r.eager_ms);
    std::printf("  wavefront    : %8.1f ms  (%.2fx)\n", r.wavefront_ms, r.speedup());
    std::printf("  bit-exact    : %s (decryptions %s)\n", r.match ? "yes" : "NO",
                r.decrypt_ok ? "match" : "DIFFER");
    if (r.report.spectrum_resident) {
      std::printf("  transforms   : %llu executed vs %llu eager (%lld avoided, %.2fx fewer)\n",
                  static_cast<unsigned long long>(r.transforms_executed()),
                  static_cast<unsigned long long>(r.eager_transforms),
                  static_cast<long long>(r.transforms_avoided()), r.transform_reduction());
    }
    for (const fhe::WavefrontStats& wf : r.report.wavefronts) {
      std::printf("    wave %-4u : %3llu gates, %u lane(s), %.1f ms\n", wf.level,
                  static_cast<unsigned long long>(wf.and_gates), wf.lanes_used, wf.wall_ms);
      if (r.report.spectrum_resident) {
        std::printf("                %llu spectra in, %llu inverses out, %llu folds, "
                    "%lld transforms avoided\n",
                    static_cast<unsigned long long>(wf.spectra_cached),
                    static_cast<unsigned long long>(wf.inverses_paid),
                    static_cast<unsigned long long>(wf.folds),
                    static_cast<long long>(wf.transforms_avoided));
      }
    }
    ok = ok && r.match && r.decrypt_ok && r.batched() && r.depth_consistent();
  }

  // The headline depth claim at acceptance width: a 16-bit carry-save
  // multiply must come in at no more than half the ripple depth.
  const unsigned depth16_ripple =
      fhe::NoiseModel::predicted_depth(fhe::WordOp::kMultiply, 16, kRipple);
  const unsigned depth16_cs =
      fhe::NoiseModel::predicted_depth(fhe::WordOp::kMultiply, 16, kCarrySave);
  const bool depth16_halved = 2 * depth16_cs <= depth16_ripple;
  std::printf("-- mul16 predicted depth --\n");
  std::printf("  ripple       : %u AND levels\n", depth16_ripple);
  std::printf("  carry-save   : %u AND levels (%s half of ripple)\n", depth16_cs,
              depth16_halved ? "<=" : "EXCEEDS");
  ok = ok && depth16_halved;

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out,
                 "{\n  \"bench\": \"circuit_wavefront\",\n  \"backend\": \"ssa\",\n"
                 "  \"workers\": %u,\n  \"eta\": %zu,\n  \"gamma\": %zu,\n"
                 "  \"depth16_ripple\": %u,\n  \"depth16_carry_save\": %u,\n"
                 "  \"depth16_halved\": %s,\n"
                 "  \"circuits\": [\n",
                 scheduler.num_workers(), params.eta, params.gamma, depth16_ripple,
                 depth16_cs, depth16_halved ? "true" : "false");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const CircuitResult& r = results[i];
      std::fprintf(out,
                   "    {\"name\": \"%s\", \"and_gates\": %llu, \"wavefronts\": %zu,\n"
                   "     \"predicted_depth\": %u, \"wavefront_width\": %llu,\n"
                   "     \"depth_consistent\": %s,\n"
                   "     \"dead_nodes\": %zu, \"eager_ms\": %.3f, \"wavefront_ms\": %.3f,\n"
                   "     \"speedup\": %.3f, \"bit_exact\": %s, \"batched\": %s,\n"
                   "     \"spectrum_resident\": %s, \"eager_transforms\": %llu,\n"
                   "     \"transforms_executed\": %llu, \"transforms_avoided\": %lld,\n"
                   "     \"transform_reduction\": %.3f,\n"
                   "     \"levels\": [\n",
                   r.name.c_str(), static_cast<unsigned long long>(r.and_gates),
                   r.wavefronts, r.predicted_depth,
                   static_cast<unsigned long long>(r.wavefront_width()),
                   r.depth_consistent() ? "true" : "false", r.dead_nodes, r.eager_ms,
                   r.wavefront_ms, r.speedup(), r.match ? "true" : "false",
                   r.batched() ? "true" : "false",
                   r.report.spectrum_resident ? "true" : "false",
                   static_cast<unsigned long long>(r.eager_transforms),
                   static_cast<unsigned long long>(r.transforms_executed()),
                   static_cast<long long>(r.transforms_avoided()), r.transform_reduction());
      for (std::size_t w = 0; w < r.report.wavefronts.size(); ++w) {
        const fhe::WavefrontStats& wf = r.report.wavefronts[w];
        std::fprintf(out,
                     "       {\"level\": %u, \"gates\": %llu, \"lanes_used\": %u, "
                     "\"wall_ms\": %.3f,\n"
                     "        \"spectra_cached\": %llu, \"inverses_paid\": %llu, "
                     "\"folds\": %llu, \"transforms_avoided\": %lld}%s\n",
                     wf.level, static_cast<unsigned long long>(wf.and_gates), wf.lanes_used,
                     wf.wall_ms, static_cast<unsigned long long>(wf.spectra_cached),
                     static_cast<unsigned long long>(wf.inverses_paid),
                     static_cast<unsigned long long>(wf.folds),
                     static_cast<long long>(wf.transforms_avoided),
                     w + 1 < r.report.wavefronts.size() ? "," : "");
      }
      std::fprintf(out, "     ]}%s\n", i + 1 < results.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("\n  json         : %s\n", json_path.c_str());
  }

  return ok ? 0 : 1;
}
