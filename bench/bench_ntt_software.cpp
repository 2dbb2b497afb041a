// Experiment E8 (supporting): software NTT throughput and operation
// counts. Establishes the software baseline the simulated accelerator is
// compared against, shows the relative cost of the paper's mixed-radix
// staging vs. the four-step vector-parallel engine every SSA product runs
// on, and verifies the two transforms bit-exactly against each other on
// every run.
//
// Three classes of output feed the CI bench-regression gate:
//   * deterministic op counts (shift vs. DSP multiplications per plan) --
//     exact facts of the decomposition, hard-gated;
//   * the four-step headline: the balanced 64K convolve must stay >= 1.3x
//     faster than the same engine split 2 x 32K, whose 32K-point
//     sub-transforms run only two lanes wide -- the scalar monolithic sweep
//     four-step replaced (hard-gated bool, one lane);
//   * wall-clock figures (sweep timings, per-call multiply cost) -- runner
//     dependent, warn-only.
//
//   bench_ntt_software [--quick] [--json FILE]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bigint/mul.hpp"
#include "ntt/four_step.hpp"
#include "ntt/mixed_radix.hpp"
#include "ssa/multiply.hpp"
#include "util/rng.hpp"

namespace {

using namespace hemul;
using Clock = std::chrono::steady_clock;

fp::FpVec random_vec(std::size_t n) {
  util::Rng rng(n);
  fp::FpVec v(n);
  for (auto& x : v) x = fp::Fp{rng.next()};
  return v;
}

template <typename F>
double time_ms(int iters, F&& f) {
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) f();
  const auto t1 = Clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count() / iters;
}

/// One size of the 2 x n/2 vs balanced four-step serial sweep.
struct SweepPoint {
  u64 n = 0;
  double split_ms = 0.0;
  double four_step_ms = 0.0;
  double speedup = 0.0;
  bool bit_exact = false;
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_ntt_software [--quick] [--json FILE]\n");
      return 2;
    }
  }

  std::printf("== software NTT: op counts, parity, throughput%s ==\n\n",
              quick ? " (quick)" : "");

  // --- deterministic op counts of the paper's 64K plan (hard-gated) ------
  const ntt::MixedRadixNtt& paper = ntt::shared_mixed_radix(ntt::NttPlan::paper_64k());
  const fp::FpVec data64k = random_vec(65536);
  ntt::NttOpCounts counts;
  const fp::FpVec out64k = paper.forward(data64k, &counts);
  std::printf("paper plan 64*64*16 forward: %llu shift muls, %llu DSP muls, %llu adds\n",
              static_cast<unsigned long long>(counts.shift_muls),
              static_cast<unsigned long long>(counts.generic_muls),
              static_cast<unsigned long long>(counts.additions));

  // --- parity: the natural-order 64K forwards of the two transforms ------
  // The paper plan and the four-step engine SSA runs on must agree on the
  // same data.
  fp::FpVec via_four_step = data64k;
  fp::FpVec four_step_scratch;
  ntt::shared_four_step(65536).forward(via_four_step, four_step_scratch);
  bool bit_exact = out64k == via_four_step;

  // ... and end to end: ssa::multiply against Karatsuba.
  const std::size_t mul_bits = quick ? 49152 : 196608;
  util::Rng rng(0xE8);
  const bigint::BigUInt a = bigint::BigUInt::random_bits(rng, mul_bits);
  const bigint::BigUInt b = bigint::BigUInt::random_bits(rng, mul_bits);
  const ssa::SsaParams mul_params = ssa::SsaParams::for_bits(mul_bits);
  bit_exact = bit_exact && ssa::multiply(a, b, mul_params) == bigint::mul_karatsuba(a, b);
  std::printf("parity (paper plan vs four-step forward; ssa vs karatsuba): %s\n\n",
              bit_exact ? "bit-exact" : "MISMATCH");

  // --- throughput (warn-only; already warm from the parity section) ------
  const int iters_small = quick ? 40 : 400;
  const int iters_large = quick ? 3 : 30;

  fp::FpVec spec64k;
  const double mixed_forward_ms =
      time_ms(iters_large, [&] { spec64k = paper.forward(data64k); });

  ssa::Workspace& ws = ssa::thread_workspace();
  bigint::BigUInt product;
  const double multiply_ms = time_ms(iters_small, [&] {
    ssa::multiply_into(product, a, b, mul_params, ws);
  });

  std::printf("mixed-radix forward 64K       : %8.3f ms\n", mixed_forward_ms);
  std::printf("ssa multiply (%zu bits)     : %8.3f ms\n\n", mul_bits, multiply_ms);

  // --- four-step scaling sweep: 4K -> 64K, serial, one lane --------------
  // Headline gate: the balanced 64K cyclic convolution (the paper's
  // workload shape) must stay >= 1.3x faster than the 2 x 32K split, whose
  // two-lane-wide 32K-point sub-transforms are the monolithic sweep.
  std::printf("balanced four-step vs 2 x n/2 split convolve (serial):\n");
  std::vector<SweepPoint> sweep;
  for (const u64 n : {u64{4096}, u64{8192}, u64{16384}, u64{32768}, u64{65536}}) {
    const ntt::FourStepNtt split(2, n / 2);
    const ntt::FourStepNtt& fs = ntt::shared_four_step(n);
    const fp::FpVec base_a = random_vec(n);
    fp::FpVec base_b = random_vec(n + 1);
    base_b.pop_back();
    const int iters =
        static_cast<int>(std::max<u64>(2, (quick ? u64{131072} : u64{1048576}) / n));

    SweepPoint point;
    point.n = n;
    fp::FpVec va;
    fp::FpVec vb;
    fp::FpVec scratch;
    point.split_ms = time_ms(iters, [&] {
      va = base_a;
      vb = base_b;
      split.convolve_into(va, vb, scratch);
    });
    const fp::FpVec reference = va;
    point.four_step_ms = time_ms(iters, [&] {
      va = base_a;
      vb = base_b;
      fs.convolve_into(va, vb, scratch);
    });
    point.speedup = point.split_ms / point.four_step_ms;
    point.bit_exact = va == reference;
    bit_exact = bit_exact && point.bit_exact;
    std::printf("  n=%6llu: 2 x n/2 %8.3f ms  balanced %8.3f ms  speedup %5.2fx  %s\n",
                static_cast<unsigned long long>(n), point.split_ms, point.four_step_ms,
                point.speedup, point.bit_exact ? "bit-exact" : "MISMATCH");
    sweep.push_back(point);
  }
  const SweepPoint& head = sweep.back();
  const bool speedup_64k_ok = head.speedup >= 1.3;
  double min_sweep_speedup = sweep.front().speedup;
  for (const SweepPoint& point : sweep) {
    min_sweep_speedup = std::min(min_sweep_speedup, point.speedup);
  }
  std::printf("headline 64K speedup: %.2fx (gate >= 1.30x: %s)\n\n", head.speedup,
              speedup_64k_ok ? "pass" : "FAIL");

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(
        out,
        "{\n  \"bench\": \"ntt_software\",\n  \"quick\": %s,\n  \"bit_exact\": %s,\n"
        "  \"paper_plan\": {\"shift_muls\": %llu, \"generic_muls\": %llu, "
        "\"additions\": %llu},\n"
        "  \"mixed\": {\"forward_64k_ms\": %.3f},\n"
        "  \"multiply\": {\"bits\": %zu, \"per_call_ms\": %.3f},\n",
        quick ? "true" : "false", bit_exact ? "true" : "false",
        static_cast<unsigned long long>(counts.shift_muls),
        static_cast<unsigned long long>(counts.generic_muls),
        static_cast<unsigned long long>(counts.additions), mixed_forward_ms, mul_bits,
        multiply_ms);
    std::fprintf(out, "  \"four_step\": {\n    \"sweep\": {\n");
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const SweepPoint& point = sweep[i];
      std::fprintf(out,
                   "      \"n%llu\": {\"split_ms\": %.3f, \"four_step_ms\": %.3f, "
                   "\"speedup\": %.3f}%s\n",
                   static_cast<unsigned long long>(point.n), point.split_ms,
                   point.four_step_ms, point.speedup, i + 1 < sweep.size() ? "," : "");
    }
    std::fprintf(out,
                 "    },\n    \"convolve_64k_ms\": %.3f,\n    \"split_speedup_64k\": %.3f,\n"
                 "    \"split_speedup_64k_ge_1_3\": %s,\n    \"min_sweep_speedup\": %.3f\n  }\n}\n",
                 head.four_step_ms, head.speedup, speedup_64k_ok ? "true" : "false",
                 min_sweep_speedup);
    std::fclose(out);
    std::printf("json: %s\n", json_path.c_str());
  }

  return bit_exact ? 0 : 1;
}
