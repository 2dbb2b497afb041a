// ntt_explorer: a tour of the number theory that makes the accelerator
// work -- the Solinas prime, the shift-only twiddles (Eq. 3), the aligned
// root hierarchy, and the Eq. 4 normalizer. Useful as a worked companion
// to Section III of the paper.

#include <cstdio>

#include "fp/normalize.hpp"
#include "fp/roots.hpp"
#include "ntt/mixed_radix.hpp"
#include "util/format.hpp"

int main() {
  using namespace hemul;
  using fp::Fp;

  std::printf("== the arithmetic behind the accelerator ==\n\n");

  std::printf("prime p = 2^64 - 2^32 + 1 = 0x%s\n", util::hex64(fp::kModulus).c_str());
  std::printf("  2^32  mod p = 0x%s\n", util::hex64(fp::kTwo.pow(32).value()).c_str());
  std::printf("  2^64  mod p = 0x%s   (= 2^32 - 1: the Eq. 4 fold)\n",
              util::hex64(fp::kTwo.pow(64).value()).c_str());
  std::printf("  2^96  mod p = 0x%s   (= -1)\n",
              util::hex64(fp::kTwo.pow(96).value()).c_str());
  std::printf("  2^192 mod p = 0x%s   (= 1: values live in 192 bits)\n\n",
              util::hex64(fp::kTwo.pow(192).value()).c_str());

  std::printf("the 64th root of unity is 8 (Eq. 3), so radix-64 butterflies are\n");
  std::printf("shifts: 8^(i*k) = 2^(3*i*k). first few powers of 8:\n  ");
  Fp w = fp::kOne;
  for (int i = 0; i < 5; ++i) {
    std::printf("8^%d=2^%-3d ", i, 3 * i);
    w *= fp::kOmega64;
  }
  std::printf("... 8^32 = 2^96 = -1, 8^64 = 1\n\n");

  std::printf("aligned root hierarchy for the 64K-point transform:\n");
  const Fp root = fp::aligned_root(65536);
  std::printf("  w = primitive 65536th root with w^1024 = 8 exactly\n");
  std::printf("  w           = 0x%s\n", util::hex64(root.value()).c_str());
  std::printf("  w^1024      = 0x%s (= 8)\n", util::hex64(root.pow(1024).value()).c_str());
  std::printf("  w^4096      = 0x%s (= 2^12, the radix-16 root)\n",
              util::hex64(root.pow(4096).value()).c_str());
  std::printf("  w^(65536/2) = 0x%s (= -1)\n\n",
              util::hex64(root.pow(32768).value()).c_str());

  std::printf("Eq. 4 normalizer on x = a*2^96 + b*2^64 + c*2^32 + d:\n");
  const u128 sample = (u128{0x0123456789abcdefULL} << 64) | 0xfedcba9876543210ULL;
  const i128 eq4 = fp::normalize_eq4(sample);
  std::printf("  x            = 0x%s%s\n", util::hex64(0x0123456789abcdefULL).c_str(),
              util::hex64(0xfedcba9876543210ULL).c_str());
  std::printf("  2^32(b+c)-a-b+d needs one conditional +/-p -> 0x%s\n",
              util::hex64(fp::addmod(eq4).value()).c_str());
  std::printf("  check vs 128-bit reduction: 0x%s\n\n",
              util::hex64(fp::reduce128(sample)).c_str());

  std::printf("operation mix of one 64K-point transform (plan 64*64*16):\n");
  const ntt::MixedRadixNtt& engine = ntt::shared_mixed_radix(ntt::NttPlan::paper_64k());
  fp::FpVec data(65536, fp::kOne);
  ntt::NttOpCounts counts;
  (void)engine.forward(data, &counts);
  std::printf("  butterfly multiplications (all shifts): %s\n",
              util::with_commas(counts.shift_muls).c_str());
  std::printf("  inter-stage twiddles (DSP multipliers): %s\n",
              util::with_commas(counts.generic_muls).c_str());
  std::printf("  -> %.1f%% of multiplications cost zero DSP blocks\n",
              100.0 * static_cast<double>(counts.shift_muls) /
                  static_cast<double>(counts.shift_muls + counts.generic_muls));
  return 0;
}
