// Experiment E8 (supporting): software NTT throughput and operation
// counts. Establishes the software baseline the simulated accelerator is
// compared against, shows the relative cost of the paper's mixed-radix
// staging vs. the four-step vector-parallel engine every SSA product runs
// on, and verifies the two transforms bit-exactly against each other on
// every run.
//
// Three classes of output feed the CI bench-regression gate:
//   * deterministic op counts (shift vs. DSP multiplications per plan) and
//     intra-op tile counts (groups / tiles per scheduler multiply) --
//     exact facts of the decomposition and the tiling geometry, hard-gated;
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
#include <future>
#include <string>
#include <vector>

#include "bigint/mul.hpp"
#include "core/scheduler.hpp"
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

/// One worker-count arm of the intra-op lane-scaling section. The tile
/// counts are deterministic in (transform shape, worker count, multiply
/// count); the fanout flag and timings depend on the host.
struct LaneArm {
  unsigned workers = 0;
  u64 tile_groups = 0;
  u64 tiles = 0;
  u64 tiles_per_multiply = 0;
  unsigned lanes_with_tiles = 0;
  double ms_per_multiply = 0.0;
  bool serial_match = false;
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
    fp::FpVec tile_scratch;
    point.split_ms = time_ms(iters, [&] {
      va = base_a;
      vb = base_b;
      split.convolve_into(va, vb, tile_scratch);
    });
    const fp::FpVec reference = va;
    point.four_step_ms = time_ms(iters, [&] {
      va = base_a;
      vb = base_b;
      fs.convolve_into(va, vb, tile_scratch);
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

  // --- intra-op lane scaling: one multiply fanned across PE lanes --------
  // Each arm drives `arm_multiplies` paper-size products through a
  // scheduler with w workers. Tile accounting is deterministic: a lane's
  // four-step multiply (convolve_into) dispatches 10 tile groups
  // (2 forwards x 3 passes + pointwise + 3 inverse passes), each split into
  // FourStepNtt::tiles_per_pass(256, w) tiles at the 64K shape. The lane
  // distribution is timing-dependent; running several multiplies per arm
  // keeps the w=2 fanout flag robust even on a single-CPU host.
  const unsigned arm_workers[] = {1, 2, 4};
  const int arm_multiplies = 8;
  const std::size_t arm_bits = 786432;  // the paper's operand size
  std::printf("intra-op lane scaling (%d x %zu-bit multiplies per arm):\n", arm_multiplies,
              arm_bits);
  std::vector<LaneArm> arms;
  ssa::Workspace serial_ws;  // no tile executor: the serial reference path
  for (const unsigned workers : arm_workers) {
    core::Config config;
    config.backend_name = "ssa";
    config.num_workers = workers;
    config.intra_op_tiling = true;
    core::Scheduler scheduler(config);

    LaneArm arm;
    arm.workers = workers;
    arm.serial_match = true;
    util::Rng arm_rng(0x4F'00 + workers);
    const auto t0 = Clock::now();
    for (int i = 0; i < arm_multiplies; ++i) {
      const bigint::BigUInt ma = bigint::BigUInt::random_bits(arm_rng, arm_bits);
      const bigint::BigUInt mb = bigint::BigUInt::random_bits(arm_rng, arm_bits);
      const bigint::BigUInt tiled = scheduler.submit_multiply(ma, mb).get();
      bigint::BigUInt serial;
      ssa::multiply_into(serial, ma, mb, ssa::SsaParams::for_bits(arm_bits), serial_ws);
      arm.serial_match = arm.serial_match && tiled == serial;
    }
    const auto t1 = Clock::now();
    arm.ms_per_multiply =
        std::chrono::duration<double, std::milli>(t1 - t0).count() / arm_multiplies;

    const core::SchedulerStats stats = scheduler.stats();
    arm.tile_groups = stats.tile_groups;
    arm.tiles = stats.tiles_executed;
    arm.tiles_per_multiply = stats.tiles_executed / arm_multiplies;
    for (const core::LaneStats& lane : stats.lanes) {
      if (lane.tiles > 0) ++arm.lanes_with_tiles;
    }
    bit_exact = bit_exact && arm.serial_match;
    std::printf(
        "  w=%u: %3llu groups, %4llu tiles (%llu/multiply), %u lane(s) ran tiles, "
        "%7.2f ms/multiply, %s\n",
        workers, static_cast<unsigned long long>(arm.tile_groups),
        static_cast<unsigned long long>(arm.tiles),
        static_cast<unsigned long long>(arm.tiles_per_multiply), arm.lanes_with_tiles,
        arm.ms_per_multiply, arm.serial_match ? "bit-exact" : "MISMATCH");
    arms.push_back(arm);
  }
  const u64 groups_per_multiply = arms.front().tile_groups / arm_multiplies;
  const bool multi_lane_fanout = arms[1].lanes_with_tiles >= 2;
  std::printf("multi-lane fanout at w=2: %s\n", multi_lane_fanout ? "yes" : "NO");

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
                 "    \"split_speedup_64k_ge_1_3\": %s,\n    \"min_sweep_speedup\": %.3f\n  },\n",
                 head.four_step_ms, head.speedup, speedup_64k_ok ? "true" : "false",
                 min_sweep_speedup);
    std::fprintf(out,
                 "  \"intra_op\": {\n    \"multiplies_per_arm\": %d,\n"
                 "    \"operand_bits\": %zu,\n    \"tile_groups_per_multiply\": %llu,\n"
                 "    \"arms\": {\n",
                 arm_multiplies, arm_bits,
                 static_cast<unsigned long long>(groups_per_multiply));
    for (std::size_t i = 0; i < arms.size(); ++i) {
      const LaneArm& arm = arms[i];
      std::fprintf(out,
                   "      \"w%u\": {\"workers\": %u, \"tile_groups\": %llu, "
                   "\"tiles\": %llu, \"tiles_per_multiply\": %llu, "
                   "\"lanes_with_tiles\": %u, \"ms_per_multiply\": %.3f}%s\n",
                   arm.workers, arm.workers, static_cast<unsigned long long>(arm.tile_groups),
                   static_cast<unsigned long long>(arm.tiles),
                   static_cast<unsigned long long>(arm.tiles_per_multiply),
                   arm.lanes_with_tiles, arm.ms_per_multiply,
                   i + 1 < arms.size() ? "," : "");
    }
    std::fprintf(out, "    },\n    \"multi_lane_fanout\": %s\n  }\n}\n",
                 multi_lane_fanout ? "true" : "false");
    std::fclose(out);
    std::printf("json: %s\n", json_path.c_str());
  }

  return bit_exact ? 0 : 1;
}
