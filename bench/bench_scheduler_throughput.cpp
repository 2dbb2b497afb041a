// Experiment S1: batch-multiply throughput of the multi-PE scheduler.
//
// The paper's accelerator owes its throughput to an array of processing
// elements working on independent products concurrently; core::Scheduler
// reproduces that sharding in software with one backend instance per worker
// thread. This bench sweeps the lane count over a fixed batch of
// independent products on the software "ssa" backend and reports wall-clock
// jobs/sec, the speedup over one lane, and the effective parallelism
// (aggregate lane-busy time / wall time — the latter stays meaningful even
// when the host has fewer cores than lanes).
//
//   bench_scheduler_throughput [jobs] [bits] [--workers w1,w2,...] [--json FILE]
//     defaults: 32 jobs, 98304 bits, workers 1,2,4,8
//
// Exit code 0 iff every product is bit-exact against the classical
// reference.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bigint/mul.hpp"
#include "core/scheduler.hpp"
#include "util/rng.hpp"

namespace {

using namespace hemul;
using Clock = std::chrono::steady_clock;

struct Sample {
  unsigned workers = 0;
  double wall_ms = 0.0;
  double jobs_per_sec = 0.0;
  double speedup = 0.0;  ///< vs the measured 1-worker run (or the smallest
                         ///< swept lane count when 1 isn't in the sweep)
  double parallelism = 0.0;  ///< aggregate lane-busy time / wall time
};

std::vector<unsigned> parse_workers(const char* text) {
  std::vector<unsigned> workers;
  for (const char* p = text; *p != '\0';) {
    char* end = nullptr;
    const unsigned long value = std::strtoul(p, &end, 10);
    if (end == p) break;
    if (value > 0) workers.push_back(static_cast<unsigned>(value));
    p = *end == ',' ? end + 1 : end;
  }
  return workers;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t jobs_n = 32;
  std::size_t bits = 98304;
  std::vector<unsigned> worker_counts = {1, 2, 4, 8};
  std::string json_path;

  std::size_t positional = 0;
  bool usage_error = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 < argc) {
        json_path = argv[++i];
      } else {
        usage_error = true;
      }
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      if (i + 1 < argc) {
        worker_counts = parse_workers(argv[++i]);
      } else {
        usage_error = true;
      }
    } else if (positional == 0) {
      jobs_n = std::strtoull(argv[i], nullptr, 10);
      ++positional;
    } else if (positional == 1) {
      bits = std::strtoull(argv[i], nullptr, 10);
      ++positional;
    } else {
      usage_error = true;
    }
  }
  if (usage_error || jobs_n == 0 || bits == 0 || worker_counts.empty()) {
    std::fprintf(stderr,
                 "usage: bench_scheduler_throughput [jobs] [bits] "
                 "[--workers w1,w2,...] [--json FILE]\n");
    return 2;
  }

  util::Rng rng(0x5C4D);
  std::vector<backend::MulJob> jobs;
  jobs.reserve(jobs_n);
  for (std::size_t i = 0; i < jobs_n; ++i) {
    jobs.emplace_back(bigint::BigUInt::random_bits(rng, bits),
                      bigint::BigUInt::random_bits(rng, bits));
  }
  std::vector<bigint::BigUInt> expected;
  expected.reserve(jobs_n);
  for (const auto& [a, b] : jobs) expected.push_back(bigint::mul_auto_classical(a, b));

  std::printf("== scheduler throughput: %zu independent %zu-bit products, \"ssa\" lanes ==\n",
              jobs_n, bits);
  std::printf("   host hardware threads: %u\n\n", std::thread::hardware_concurrency());

  bool exact = true;
  std::vector<Sample> samples;
  for (const unsigned workers : worker_counts) {
    core::Config config;
    config.backend_name = "ssa";
    config.num_workers = workers;
    core::Scheduler scheduler(config);

    // Warm the shared four-step twiddle tables outside the timed region so
    // the first lane count doesn't pay the one-time setup.
    scheduler.submit_multiply(jobs[0].first, jobs[0].second).get();
    scheduler.wait_idle();
    double warmup_busy_ms = 0.0;
    for (const core::LaneStats& lane : scheduler.stats().lanes) warmup_busy_ms += lane.busy_ms;

    const auto t0 = Clock::now();
    std::vector<std::future<bigint::BigUInt>> futures = scheduler.submit_batch(jobs);
    std::vector<bigint::BigUInt> products;
    products.reserve(jobs_n);
    for (auto& future : futures) products.push_back(future.get());
    const auto t1 = Clock::now();
    // Lane stats are booked after each future is satisfied; drain them
    // before reading, or the last job per lane can be missing.
    scheduler.wait_idle();

    for (std::size_t i = 0; i < jobs_n; ++i) exact = exact && products[i] == expected[i];

    Sample sample;
    sample.workers = workers;
    sample.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    sample.jobs_per_sec =
        sample.wall_ms > 0.0 ? 1000.0 * static_cast<double>(jobs_n) / sample.wall_ms : 0.0;

    double busy_ms = -warmup_busy_ms;
    for (const core::LaneStats& lane : scheduler.stats().lanes) busy_ms += lane.busy_ms;
    sample.parallelism = sample.wall_ms > 0.0 ? busy_ms / sample.wall_ms : 0.0;
    samples.push_back(sample);
  }

  // Speedup baseline: the measured 1-worker run, falling back to the
  // smallest swept lane count when the sweep doesn't include 1.
  const Sample* baseline = &samples.front();
  for (const Sample& s : samples) {
    if (s.workers < baseline->workers) baseline = &s;
  }
  for (Sample& s : samples) {
    s.speedup = s.wall_ms > 0.0 ? baseline->wall_ms / s.wall_ms : 0.0;
  }

  for (const Sample& s : samples) {
    std::printf(
        "  workers %-3u : %8.1f ms  %8.1f jobs/s  speedup %5.2fx (vs %u)  parallelism %4.2fx\n",
        s.workers, s.wall_ms, s.jobs_per_sec, s.speedup, baseline->workers, s.parallelism);
  }
  std::printf("\n  bit-exact   : %s\n", exact ? "yes" : "NO");

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out,
                 "{\n  \"bench\": \"scheduler_throughput\",\n  \"backend\": \"ssa\",\n"
                 "  \"jobs\": %zu,\n  \"bits\": %zu,\n  \"hardware_concurrency\": %u,\n"
                 "  \"speedup_baseline_workers\": %u,\n"
                 "  \"bit_exact\": %s,\n  \"results\": [\n",
                 jobs_n, bits, std::thread::hardware_concurrency(), baseline->workers,
                 exact ? "true" : "false");
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const Sample& s = samples[i];
      std::fprintf(out,
                   "    {\"workers\": %u, \"wall_ms\": %.3f, \"jobs_per_sec\": %.3f, "
                   "\"speedup\": %.3f, \"parallelism\": %.3f}%s\n",
                   s.workers, s.wall_ms, s.jobs_per_sec, s.speedup, s.parallelism,
                   i + 1 < samples.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("  json        : %s\n", json_path.c_str());
  }

  return exact ? 0 : 1;
}
