// Experiment E4: software multiplier crossover study (paper Section III:
// the Schonhage-Strassen algorithm "is advantageous for operands of at
// least 100,000 bits"). Times schoolbook, Karatsuba, Toom-3 and SSA across
// operand sizes and reports where SSA takes the lead; then short x long
// products (the classical dispatcher's blocks) and `x % x0` by Knuth vs a
// Barrett reducer at the DGHV moduli. backend::kSsaDispatchBits,
// bigint::kKaratsubaThresholdLimbs and bigint::kBarrettThresholdLimbs cite
// these tables.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "backend/registry.hpp"
#include "bigint/barrett.hpp"
#include "bigint/div.hpp"
#include "bigint/mul.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace hemul;
using bigint::BigUInt;
using Clock = std::chrono::steady_clock;

using Contestant = std::function<BigUInt()>;

/// Mean ms per call over `reps` back-to-back calls.
double sample_ms(const Contestant& fn, int reps) {
  const auto start = Clock::now();
  for (int i = 0; i < reps; ++i) {
    const BigUInt r = fn();
    if (r.is_zero()) std::abort();  // defeat dead-code elimination
  }
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count() / reps;
}

/// Times the contestants of one table row, interleaved: each of 31 rounds
/// runs every contestant once in turn, and each keeps its fastest round.
/// Interference on a shared host only ever adds time, and alternating
/// spreads it over all contestants instead of whichever ran during it. A
/// round repeats a call until it spans ~0.5 ms (one call sets the count).
std::vector<double> time_interleaved(const std::vector<Contestant>& fns) {
  constexpr int kRounds = 31;
  std::vector<int> reps;
  for (const Contestant& fn : fns) {
    const double once = std::max(sample_ms(fn, 1), 1e-6);
    reps.push_back(std::clamp(static_cast<int>(0.5 / once), 1, 4096));
  }
  std::vector<double> best(fns.size(), std::numeric_limits<double>::infinity());
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < fns.size(); ++i) {
      best[i] = std::min(best[i], sample_ms(fns[i], reps[i]));
    }
  }
  return best;
}

/// The DGHV parameter set (fhe::DghvParams) whose x0 has `bits` bits.
std::string dghv_set(std::size_t bits) {
  switch (bits) {
    case 4096: return "toy ";
    case 32768: return "deep ";
    case 65536: return "medium ";
    case 786432: return "paper ";
    default: return "";
  }
}

}  // namespace

int main() {
  std::printf("E4: multiplication algorithm crossover (software, single thread)\n");
  std::printf("Paper Section III: SSA \"is advantageous for operands of at least\n");
  std::printf("100,000 bits\".\n\n");

  util::Rng rng(4);
  util::Table t({"bits", "schoolbook", "Karatsuba", "Toom-3", "SSA (NTT)", "fastest"});

  // Every contestant is pulled from the backend registry: the bench is a
  // head-to-head of the same engines the FHE stack dispatches through.
  const auto school_be = backend::make_backend("schoolbook");
  const auto karat_be = backend::make_backend("karatsuba");
  const auto toom_be = backend::make_backend("toom3");
  const auto ssa_be = backend::make_backend("ssa");
  const auto classical_be = backend::make_backend("classical");

  std::size_t ssa_crossover = 0;
  for (const std::size_t bits : {1024u, 2048u, 4096u, 5120u, 8192u, 12288u, 16384u, 24576u, 32768u,
                                 65536u, 131072u, 262144u, 524288u, 786432u, 1048576u}) {
    const BigUInt a = BigUInt::random_bits(rng, bits);
    const BigUInt b = BigUInt::random_bits(rng, bits);

    std::vector<Contestant> fns = {[&] { return karat_be->multiply(a, b); },
                                   [&] { return toom_be->multiply(a, b); },
                                   [&] { return ssa_be->multiply(a, b); }};
    if (bits <= 131072) fns.push_back([&] { return school_be->multiply(a, b); });
    const std::vector<double> ms = time_interleaved(fns);
    const double karat = ms[0];
    const double toom = ms[1];
    const double ssa_ms = ms[2];
    const double school = bits <= 131072 ? ms[3] : -1.0;

    const char* fastest = "SSA";
    double best = ssa_ms;
    if (toom < best) {
      best = toom;
      fastest = "Toom-3";
    }
    if (karat < best) {
      best = karat;
      fastest = "Karatsuba";
    }
    if (school >= 0 && school < best) {
      best = school;
      fastest = "schoolbook";
    }
    if (ssa_crossover == 0 && ssa_ms <= std::min(karat, toom)) ssa_crossover = bits;

    t.add_row({util::with_commas(bits),
               school >= 0 ? util::format_fixed(school, 4) + " ms" : "--",
               util::format_fixed(karat, 4) + " ms", util::format_fixed(toom, 4) + " ms",
               util::format_fixed(ssa_ms, 4) + " ms", fastest});
  }
  std::printf("%s\n", t.render().c_str());

  if (ssa_crossover != 0) {
    std::printf("SSA overtakes the classical algorithms at ~%s bits\n",
                util::with_commas(ssa_crossover).c_str());
    std::printf("(paper's claim: advantageous from ~100,000 bits -- shape reproduced;\n");
    std::printf("the exact point depends on implementation constants).\n");
  } else {
    std::printf("SSA did not overtake in the measured range.\n");
  }
  std::printf("Dispatch point in use: kSsaDispatchBits = %s bits (both operands).\n\n",
              util::with_commas(backend::kSsaDispatchBits).c_str());

  // Short x long: Karatsuba and Toom-3 split by the longer operand, the
  // classical dispatcher cuts it into blocks as long as the shorter one.
  std::printf("Short x long products (limbs)\n");
  util::Table u({"shape", "schoolbook", "Karatsuba", "Toom-3", "classical", "SSA (NTT)"});
  for (const std::size_t long_limbs : {512u, 1600u, 12264u}) {
    for (const std::size_t short_limbs : {1u, 4u, 16u, 25u, 41u, 64u, 80u}) {
      const BigUInt a = BigUInt::random_bits(rng, 64 * short_limbs);
      const BigUInt b = BigUInt::random_bits(rng, 64 * long_limbs);
      const std::vector<double> ms = time_interleaved(
          {[&] { return school_be->multiply(a, b); }, [&] { return karat_be->multiply(a, b); },
           [&] { return toom_be->multiply(a, b); }, [&] { return classical_be->multiply(a, b); },
           [&] { return ssa_be->multiply(a, b); }});
      std::vector<std::string> row = {std::to_string(short_limbs) + " x " +
                                      util::with_commas(long_limbs)};
      for (const double v : ms) row.push_back(util::format_fixed(v, 4) + " ms");
      u.add_row(row);
    }
  }
  std::printf("%s\n", u.render().c_str());

  // x % x0 for a gate product: Knuth Algorithm D vs a Barrett reducer built
  // beforehand (what the division cache serves), at the DGHV moduli and
  // around bigint::kBarrettThresholdLimbs.
  std::printf("x %% x0 for a gate product x < x0^2 (reducer built beforehand)\n");
  util::Table r({"x0", "limbs", "Knuth", "Barrett", "reducer build", "dispatch"});
  for (const std::size_t bits : {4096u, 8192u, 12288u, 16384u, 24576u, 32768u, 65536u, 786432u}) {
    BigUInt x0 = BigUInt::random_bits(rng, bits);
    if (!x0.is_odd()) x0 += BigUInt{1};
    const BigUInt x = BigUInt::random_below(rng, x0) * BigUInt::random_below(rng, x0);
    const auto build_start = Clock::now();
    const bigint::BarrettReducer reducer(x0);
    const double build_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - build_start).count();
    // + 1: a zero result is rejected.
    const std::vector<double> ms =
        time_interleaved({[&] { return bigint::divmod_knuth(x, x0).remainder + BigUInt{1}; },
                          [&] { return reducer.reduce(x) + BigUInt{1}; }});
    const double knuth = ms[0];
    const double barrett = ms[1];
    if (reducer.reduce(x) != bigint::divmod_knuth(x, x0).remainder) {
      std::printf("Barrett and Knuth differ at %zu bits\n", bits);
      return 1;
    }
    const std::size_t limbs = x0.limb_count();
    r.add_row({dghv_set(bits) + util::with_commas(bits) + " bits", util::with_commas(limbs),
               util::format_fixed(knuth, 3) + " ms", util::format_fixed(barrett, 3) + " ms",
               util::format_fixed(build_ms, 1) + " ms",
               limbs >= bigint::kBarrettThresholdLimbs ? "Barrett" : "Knuth"});
  }
  std::printf("%s\n", r.render().c_str());
  std::printf("Dispatch point in use: kBarrettThresholdLimbs = %s limbs.\n",
              util::with_commas(bigint::kBarrettThresholdLimbs).c_str());
  return 0;
}
