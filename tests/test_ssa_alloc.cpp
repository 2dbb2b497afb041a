// Allocation audit of the SSA hot path: after warm-up, multiply_into /
// square_into must perform ZERO heap allocations -- the software
// equivalent of the paper's claim that the accelerator runs from
// pre-resident twiddle ROMs and statically managed buffers with no
// per-operation setup.
//
// The audit counts every route into the heap by overriding the global
// operator new/delete for this test binary (std::vector, BigUInt limbs and
// all library transients funnel through them).

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "backend/ssa_backend.hpp"
#include "bigint/mul.hpp"
#include "core/scheduler.hpp"
#include "ssa/batch.hpp"
#include "ssa/multiply.hpp"
#include "ssa/pack.hpp"
#include "ssa/resident.hpp"
#include "util/rng.hpp"

namespace {

thread_local hemul::u64 g_allocations = 0;

}  // namespace

// Counting allocator: every form of operator new funnels through malloc and
// bumps the thread-local counter. (Sized/aligned deletes forward to free.)
void* operator new(std::size_t size) {
  ++g_allocations;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace hemul::ssa {
namespace {

using bigint::BigUInt;

class SsaAllocationAudit : public ::testing::Test {
 protected:
  /// Allocations performed by `fn` on this thread.
  template <typename Fn>
  static u64 allocations_in(Fn&& fn) {
    const u64 before = g_allocations;
    fn();
    return g_allocations - before;
  }
};

TEST_F(SsaAllocationAudit, SteadyStateMultiplyIntoIsAllocationFree) {
  util::Rng rng(1);
  const std::size_t bits = 20000;
  const BigUInt a = BigUInt::random_bits(rng, bits);
  const BigUInt b = BigUInt::random_bits(rng, bits);
  const SsaParams params = SsaParams::for_bits(bits);

  Workspace workspace;
  BigUInt product;
  // Warm-up: builds the shared engine, sizes the workspace and the
  // product's limb storage.
  multiply_into(product, a, b, params, workspace);
  multiply_into(product, a, b, params, workspace);
  const BigUInt expected = product;

  for (int round = 0; round < 5; ++round) {
    const u64 allocs = allocations_in([&] {
      multiply_into(product, a, b, params, workspace);
    });
    EXPECT_EQ(allocs, 0u) << "round " << round;
  }
  EXPECT_EQ(product, expected);
  EXPECT_EQ(product, bigint::mul_karatsuba(a, b));
}

TEST_F(SsaAllocationAudit, SteadyStateSquareIntoIsAllocationFree) {
  util::Rng rng(2);
  const BigUInt a = BigUInt::random_bits(rng, 15000);
  const SsaParams params = SsaParams::for_bits(15000);

  Workspace workspace;
  BigUInt product;
  square_into(product, a, params, workspace);
  square_into(product, a, params, workspace);

  for (int round = 0; round < 5; ++round) {
    const u64 allocs = allocations_in([&] { square_into(product, a, params, workspace); });
    EXPECT_EQ(allocs, 0u) << "round " << round;
  }
  EXPECT_EQ(product, bigint::mul_karatsuba(a, a));
}

TEST_F(SsaAllocationAudit, TinyOperandsAreAllocationFree) {
  // 1..417-bit operands run the four-step transform at 4-64 points, all
  // scratch (including the corner-turn buffer) inside the Workspace: the
  // smallest geometries must be as allocation-free as the paper-size one,
  // for multiply, square and the spectrum-resident primitives alike.
  for (const std::size_t bits : {1u, 26u, 27u, 100u, 416u, 417u}) {
    util::Rng rng(5 + bits);
    const BigUInt a = BigUInt::random_bits(rng, bits);
    const BigUInt b = BigUInt::random_bits(rng, bits);
    const SsaParams params = SsaParams::for_bits(bits, kResidentHeadroomBits);

    Workspace workspace;
    BigUInt product;
    multiply_into(product, a, b, params, workspace);
    multiply_into(product, a, b, params, workspace);
    for (int round = 0; round < 3; ++round) {
      const u64 allocs = allocations_in([&] {
        multiply_into(product, a, b, params, workspace);
      });
      EXPECT_EQ(allocs, 0u) << bits << " bits, round " << round;
    }
    EXPECT_EQ(product, bigint::mul_schoolbook(a, b)) << bits;

    square_into(product, a, params, workspace);
    for (int round = 0; round < 3; ++round) {
      const u64 allocs = allocations_in([&] { square_into(product, a, params, workspace); });
      EXPECT_EQ(allocs, 0u) << bits << " bits, square round " << round;
    }
    EXPECT_EQ(product, bigint::mul_schoolbook(a, a)) << bits;

    const SpectrumDomain domain(params, workspace);
    Spectrum sa, sb, spectrum, acc;
    const auto run = [&] {
      acc.reset();
      domain.enter(sa, a);
      domain.enter(sb, b);
      domain.multiply(spectrum, sa, sb);
      domain.accumulate(acc, spectrum);
      domain.leave(product, acc);
    };
    run();
    run();
    for (int round = 0; round < 3; ++round) {
      EXPECT_EQ(allocations_in(run), 0u) << bits << " bits, resident round " << round;
    }
    EXPECT_EQ(product, bigint::mul_schoolbook(a, b)) << bits;
  }
}

TEST_F(SsaAllocationAudit, SpectrumDomainSteadyStateIsAllocationFree) {
  // The spectrum-resident protocol's primitives (enter / multiply /
  // accumulate / leave) into warmed Spectrum buffers must be
  // allocation-free, or keeping wires in the domain across wavefronts
  // would trade transforms for heap churn.
  util::Rng rng(6);
  const std::size_t bits = 20000;
  const BigUInt a = BigUInt::random_bits(rng, bits);
  const BigUInt b = BigUInt::random_bits(rng, bits);
  const SsaParams params = SsaParams::for_bits(bits, kResidentHeadroomBits);

  Workspace workspace;
  const SpectrumDomain domain(params, workspace);
  Spectrum sa, sb, product, acc;
  BigUInt out;
  const auto run = [&] {
    acc.reset();
    domain.enter(sa, a);
    domain.enter(sb, b);
    domain.multiply(product, sa, sb);
    domain.accumulate(acc, product);
    domain.accumulate(acc, product);
    domain.leave(out, acc);
  };
  run();
  run();
  const BigUInt expected = out;

  for (int round = 0; round < 3; ++round) {
    const u64 allocs = allocations_in(run);
    EXPECT_EQ(allocs, 0u) << "round " << round;
  }
  EXPECT_EQ(out, expected);
  const BigUInt ab = bigint::mul_karatsuba(a, b);
  EXPECT_EQ(out, ab + ab) << "acc held ab + ab";
}

TEST_F(SsaAllocationAudit, AllocatingWrapperOnlyPaysForTheProduct) {
  // ssa::multiply returns a fresh BigUInt; everything else must come from
  // the thread workspace. One limb-vector allocation is the expected cost.
  util::Rng rng(4);
  const std::size_t bits = 20000;
  const BigUInt a = BigUInt::random_bits(rng, bits);
  const BigUInt b = BigUInt::random_bits(rng, bits);
  const SsaParams params = SsaParams::for_bits(bits);

  (void)multiply(a, b, params);
  (void)multiply(a, b, params);
  const u64 allocs = allocations_in([&] { (void)multiply(a, b, params); });
  EXPECT_EQ(allocs, 1u);
}

TEST_F(SsaAllocationAudit, BackendWithItsOwnWorkspaceOnlyAllocatesTheProduct) {
  // An SsaBackend holding its own workspace -- a scheduler lane's engine --
  // pays one allocation per call in steady state, the product it returns,
  // for multiply and square alike, on operands it has not seen before (as
  // a lane sees them). Checked on a standalone instance and on a lane of a
  // one- and a two-worker default scheduler.
  util::Rng rng(8);
  const std::size_t bits = 20000;
  std::vector<BigUInt> operands;
  for (int k = 0; k < 6; ++k) operands.push_back(BigUInt::random_bits(rng, bits));
  using Allocs = std::pair<u64, u64>;  // multiply, square

  const auto audit = [&](backend::MultiplierBackend& engine, const BigUInt& a,
                         const BigUInt& b, const BigUInt& c) {
    BigUInt product = engine.multiply(a, a);  // warm-up: workspace and engine
    product = engine.square(a);
    const u64 multiply_allocs = allocations_in([&] { product = engine.multiply(b, c); });
    EXPECT_EQ(product, bigint::mul_karatsuba(b, c));
    const u64 square_allocs = allocations_in([&] { product = engine.square(c); });
    EXPECT_EQ(product, bigint::mul_karatsuba(c, c));
    return Allocs{multiply_allocs, square_allocs};
  };

  backend::SsaBackend standalone;
  standalone.set_workspace(std::make_shared<Workspace>());
  EXPECT_EQ(audit(standalone, operands[0], operands[1], operands[2]), (Allocs{1, 1}));

  for (const unsigned workers : {1u, 2u}) {
    core::Config config;
    config.backend_name = "ssa";
    config.num_workers = workers;
    core::Scheduler scheduler(config);
    Allocs lane_allocs;
    scheduler
        .submit([&](backend::MultiplierBackend& lane) {
          lane_allocs = audit(lane, operands[3], operands[4], operands[5]);
          return BigUInt{};
        })
        .get();
    EXPECT_EQ(lane_allocs, (Allocs{1, 1})) << workers << " worker(s)";
  }
}

TEST_F(SsaAllocationAudit, ShiftsAllocateOnlyTheirResult) {
  // divmod_knuth normalizes its dividend with x << shift, so every
  // paper-size % x0 on the Knuth branch shifts a 12,288-limb value, and
  // every Barrett reduction starts with x >> L: each result must be built
  // in exactly one allocation.
  util::Rng rng(7);
  const BigUInt x = BigUInt::random_bits(rng, 12288 * 64);
  BigUInt shifted;
  BigUInt back;
  for (const std::size_t s : {1u, 37u, 63u, 64u, 100u}) {
    EXPECT_EQ(allocations_in([&] { shifted = x << s; }), 1u) << "shift " << s;
    EXPECT_EQ(allocations_in([&] { back = shifted >> s; }), 1u) << "shift " << s;
    EXPECT_EQ(back, x) << "shift " << s;
  }
}

TEST_F(SsaAllocationAudit, SumsAndDifferencesAllocateOnlyTheirResult) {
  // Barrett's r = x - m*q and every Dghv::add run a + b / a - b on
  // 12,288-limb values: the by-value left operand becomes the result, so
  // each builds it in exactly one allocation (no carry grows the top limb).
  util::Rng rng(8);
  const BigUInt x = BigUInt::random_bits(rng, 12288 * 64 - 1);
  const BigUInt y = BigUInt::random_bits(rng, 12288 * 64 - 2);
  BigUInt sum;
  BigUInt difference;
  EXPECT_EQ(allocations_in([&] { sum = x + y; }), 1u);
  EXPECT_EQ(allocations_in([&] { difference = sum - y; }), 1u);
  EXPECT_EQ(difference, x);
}

TEST_F(SsaAllocationAudit, ProductByAPreparedOperandRunsTwoTransformsAllocationFree) {
  // A prepared operand keeps its forward spectrum: a product by it runs one
  // forward and one inverse, and once the workspace and the product are
  // warm it allocates nothing; the allocating wrapper only pays for the
  // product it returns.
  util::Rng rng(6);
  const std::size_t bits = 20000;
  const BigUInt a = BigUInt::random_bits(rng, bits);
  const BigUInt b = BigUInt::random_bits(rng, bits);
  const SsaParams params = SsaParams::for_bits(bits);
  const PreparedSpectrum prepared(a, params);
  const BigUInt expected = bigint::mul_schoolbook(a, b);

  Workspace workspace;
  BigUInt product;
  SsaStats stats;
  prepared.multiply_into(product, b, workspace, &stats);  // warm-up
  EXPECT_EQ(product, expected);
  EXPECT_EQ(stats.transform_count, 2u);
  EXPECT_EQ(stats.pointwise_muls, params.transform_size);

  stats = {};
  const u64 allocs = allocations_in([&] { prepared.multiply_into(product, b, workspace, &stats); });
  EXPECT_EQ(product, expected);
  EXPECT_EQ(stats.transform_count, 2u);
  EXPECT_EQ(allocs, 0u);

  (void)prepared.multiply(b);  // warms this thread's workspace
  BigUInt returned;
  const u64 wrapper_allocs = allocations_in([&] { returned = prepared.multiply(b); });
  EXPECT_EQ(returned, expected);
  EXPECT_LE(wrapper_allocs, 1u);
}

}  // namespace
}  // namespace hemul::ssa
