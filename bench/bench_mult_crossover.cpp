// Experiment E4: software multiplier crossover study (paper Section III:
// the Schonhage-Strassen algorithm "is advantageous for operands of at
// least 100,000 bits"). Times schoolbook, Karatsuba, Toom-3 and SSA across
// operand sizes and reports where SSA takes the lead; then short x long
// products (the classical dispatcher's blocks) and `x % x0` by Knuth vs a
// Barrett reducer at the DGHV moduli. backend::kSsaDispatchBits and
// bigint::kBarrettThresholdLimbs cite these tables.

#include <chrono>
#include <cstdio>
#include <functional>
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

double time_one(const std::function<BigUInt()>& fn) {
  // Adaptive repetitions: aim for ~100 ms of total work, at least one run.
  int reps = 1;
  double total_ms = 0;
  for (;;) {
    const auto start = Clock::now();
    for (int i = 0; i < reps; ++i) {
      const BigUInt r = fn();
      if (r.is_zero()) std::abort();  // defeat dead-code elimination
    }
    total_ms = std::chrono::duration<double, std::milli>(Clock::now() - start).count();
    if (total_ms > 50.0 || reps >= 64) break;
    reps *= 4;
  }
  return total_ms / reps;
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
  for (const std::size_t bits : {1024u, 4096u, 8192u, 12288u, 16384u, 24576u, 32768u, 65536u,
                                 131072u, 262144u, 524288u, 786432u, 1048576u}) {
    const BigUInt a = BigUInt::random_bits(rng, bits);
    const BigUInt b = BigUInt::random_bits(rng, bits);

    const double school =
        bits <= 131072 ? time_one([&] { return school_be->multiply(a, b); }) : -1.0;
    const double karat = time_one([&] { return karat_be->multiply(a, b); });
    const double toom = time_one([&] { return toom_be->multiply(a, b); });
    const double ssa_ms = time_one([&] { return ssa_be->multiply(a, b); });

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
               school >= 0 ? util::format_fixed(school, 3) + " ms" : "--",
               util::format_fixed(karat, 3) + " ms", util::format_fixed(toom, 3) + " ms",
               util::format_fixed(ssa_ms, 3) + " ms", fastest});
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
    for (const std::size_t short_limbs : {1u, 4u, 16u, 25u, 64u}) {
      const BigUInt a = BigUInt::random_bits(rng, 64 * short_limbs);
      const BigUInt b = BigUInt::random_bits(rng, 64 * long_limbs);
      const auto ms = [&](const std::shared_ptr<backend::MultiplierBackend>& be) {
        return util::format_fixed(time_one([&] { return be->multiply(a, b); }), 4) + " ms";
      };
      u.add_row({std::to_string(short_limbs) + " x " + util::with_commas(long_limbs),
                 ms(school_be), ms(karat_be), ms(toom_be), ms(classical_be), ms(ssa_be)});
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
    // + 1: time_one rejects a zero result.
    const double knuth =
        time_one([&] { return bigint::divmod_knuth(x, x0).remainder + BigUInt{1}; });
    const double barrett = time_one([&] { return reducer.reduce(x) + BigUInt{1}; });
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
