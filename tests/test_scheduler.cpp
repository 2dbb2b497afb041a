#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "backend/registry.hpp"
#include "bigint/mul.hpp"
#include "core/accelerator.hpp"
#include "core/scheduler.hpp"
#include "util/rng.hpp"

namespace hemul::core {
namespace {

using bigint::BigUInt;

Config config_for(std::string backend_name, unsigned workers) {
  Config config;
  config.backend_name = std::move(backend_name);
  config.num_workers = workers;
  return config;
}

std::vector<backend::MulJob> shared_operand_jobs(util::Rng& rng, std::size_t n,
                                                 std::size_t bits) {
  const BigUInt a = BigUInt::random_bits(rng, bits);
  std::vector<backend::MulJob> jobs;
  jobs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    jobs.emplace_back(a, BigUInt::random_bits(rng, bits));
  }
  return jobs;
}

TEST(Scheduler, MatchesSerialExecutionAcrossRegisteredBackends) {
  util::Rng rng(0x5EDC);
  for (const std::string& name : backend::Registry::instance().names()) {
    // The simulated accelerator runs the full 64K-point pipeline per
    // product, so it gets a smaller batch.
    const std::size_t jobs_n = name == "hw" ? 2 : 6;
    const std::size_t bits = name == "hw" ? 30000 : 2500;

    std::vector<backend::MulJob> jobs;
    for (std::size_t i = 0; i < jobs_n; ++i) {
      jobs.emplace_back(BigUInt::random_bits(rng, bits), BigUInt::random_bits(rng, bits));
    }

    Scheduler scheduler(config_for(name, 3));
    EXPECT_EQ(scheduler.num_workers(), 3u) << name;
    std::vector<std::future<BigUInt>> futures = scheduler.submit_batch(jobs);

    const auto serial = backend::make_backend(name);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(futures[i].get(), serial->multiply(jobs[i].first, jobs[i].second))
          << name << " job " << i;
    }
  }
}

TEST(Scheduler, DeterministicAcrossWorkerCounts) {
  util::Rng rng(0xDE7E);
  const std::vector<backend::MulJob> jobs = shared_operand_jobs(rng, 8, 4000);
  std::vector<BigUInt> expected;
  for (const auto& [a, b] : jobs) expected.push_back(bigint::mul_schoolbook(a, b));

  const unsigned hc = std::max(1u, std::thread::hardware_concurrency());
  for (const unsigned workers : {1u, 4u, hc}) {
    Scheduler scheduler(config_for("ssa", workers));
    std::vector<std::future<BigUInt>> futures = scheduler.submit_batch(jobs);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(futures[i].get(), expected[i]) << workers << " workers, job " << i;
    }
  }
}

TEST(Scheduler, SquareAndGenericJobsRunOnLaneBackends) {
  util::Rng rng(0x50AE);
  const BigUInt a = BigUInt::random_bits(rng, 3000);
  const BigUInt b = BigUInt::random_bits(rng, 3000);

  Scheduler scheduler(config_for("ssa", 2));
  std::future<BigUInt> square = scheduler.submit_square(a);
  // A "circuit" job: two dependent products evaluated inside one job.
  std::future<BigUInt> chained = scheduler.submit([a, b](backend::MultiplierBackend& lane) {
    return lane.multiply(lane.multiply(a, b), b);
  });

  EXPECT_EQ(square.get(), bigint::mul_schoolbook(a, a));
  EXPECT_EQ(chained.get(),
            bigint::mul_schoolbook(bigint::mul_schoolbook(a, b), b));
}

TEST(Scheduler, StressManySmallJobsAcrossAllLanes) {
  util::Rng rng(0x57E5);
  constexpr std::size_t kJobs = 64;
  std::vector<backend::MulJob> jobs;
  for (std::size_t i = 0; i < kJobs; ++i) {
    jobs.emplace_back(BigUInt::random_bits(rng, 1500), BigUInt::random_bits(rng, 1500));
  }

  Scheduler scheduler(config_for("ssa", 0));  // one lane per hardware thread
  EXPECT_GE(scheduler.num_workers(), 1u);
  std::vector<std::future<BigUInt>> futures = scheduler.submit_batch(jobs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(futures[i].get(), bigint::mul_schoolbook(jobs[i].first, jobs[i].second))
        << "job " << i;
  }
  scheduler.wait_idle();

  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, kJobs);
  EXPECT_EQ(stats.completed, kJobs);
  u64 lane_jobs = 0;
  for (const LaneStats& lane : stats.lanes) lane_jobs += lane.jobs;
  EXPECT_EQ(lane_jobs, kJobs);
  EXPECT_EQ(stats.lanes.size(), scheduler.num_workers());
}

TEST(Scheduler, JobExceptionPropagatesThroughFutureAndLanesSurvive) {
  Scheduler scheduler(config_for("classical", 2));
  std::future<BigUInt> failing = scheduler.submit(
      [](backend::MultiplierBackend&) -> BigUInt { throw std::runtime_error("boom"); });
  EXPECT_THROW((void)failing.get(), std::runtime_error);

  // The lane that ran the throwing job keeps serving.
  std::future<BigUInt> ok = scheduler.submit_multiply(BigUInt{6}, BigUInt{7});
  EXPECT_EQ(ok.get(), BigUInt{42});
}

TEST(Scheduler, HwLanesAccumulateModeledCycles) {
  util::Rng rng(0x4A1C);
  const BigUInt a = BigUInt::random_bits(rng, 20000);
  const BigUInt b = BigUInt::random_bits(rng, 20000);

  Scheduler scheduler(config_for("hw", 2));
  EXPECT_EQ(scheduler.submit_multiply(a, b).get(), bigint::mul_karatsuba(a, b));
  scheduler.wait_idle();

  u64 cycles = 0;
  for (const LaneStats& lane : scheduler.stats().lanes) cycles += lane.hw_cycles;
  EXPECT_GT(cycles, 0u);

  // A job that never touches the backend must not re-book the previous
  // report's cycles.
  (void)scheduler.submit([](backend::MultiplierBackend&) { return BigUInt{1}; }).get();
  scheduler.wait_idle();
  u64 cycles_after = 0;
  for (const LaneStats& lane : scheduler.stats().lanes) cycles_after += lane.hw_cycles;
  EXPECT_EQ(cycles_after, cycles);
}

TEST(Config, NumWorkersResolution) {
  Config config;
  EXPECT_GE(config.resolved_num_workers(), 1u);
  config.num_workers = 5;
  EXPECT_EQ(config.resolved_num_workers(), 5u);
}

TEST(Accelerator, SynchronousMultiplyMatchesSchedulerLanes) {
  util::Rng rng(0xACCE);
  const Config config = config_for("ssa", 2);
  Accelerator accel(config);
  Scheduler scheduler(config);

  const BigUInt a = BigUInt::random_bits(rng, 4000);
  const BigUInt b = BigUInt::random_bits(rng, 4000);
  std::future<BigUInt> async_product = scheduler.submit_multiply(a, b);
  EXPECT_EQ(async_product.get(), accel.multiply(a, b).product);
}

}  // namespace
}  // namespace hemul::core
