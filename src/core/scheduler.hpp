#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "backend/backend.hpp"
#include "core/config.hpp"

namespace hemul::core {

/// Execution statistics of one PE lane (a worker thread owning one backend
/// instance).
struct LaneStats {
  unsigned lane = 0;
  u64 jobs = 0;        ///< jobs this lane executed
  u64 hw_cycles = 0;   ///< modeled cycles this lane's jobs cost
                       ///< (simulated-hw lanes only)
  double busy_ms = 0.0;  ///< wall-clock spent executing jobs
};

/// Snapshot of the scheduler's execution state.
struct SchedulerStats {
  std::vector<LaneStats> lanes;
  u64 submitted = 0;  ///< jobs accepted by submit()
  u64 completed = 0;  ///< jobs whose future is (or is about to be) ready
};

/// Concurrent multi-PE execution layer: N worker threads, each owning one
/// backend::MultiplierBackend instance ("PE lane", mirroring the paper's
/// array of processing elements), fed from one work queue via an async
/// submit()/future API.
///
/// Lane engines follow Config::backend_name:
///   - "hw"  -> one simulated accelerator per lane, built from
///              config.hardware (per-lane cycle accounting in LaneStats);
///   - "ssa" -> the adaptive software SSA engine per lane, each with its
///              own workspace (allocation-free products in steady state;
///              each product runs serially on the lane that owns it);
///   - any other registry name -> one fresh instance per lane.
///
/// Results are bit-exact and deterministic regardless of num_workers: jobs
/// are pure functions of their operands, so only completion *order* varies,
/// never the products.
///
/// Typical use:
///   core::Config config;
///   config.backend_name = "ssa";
///   config.num_workers = 8;
///   core::Scheduler scheduler(config);
///   auto f = scheduler.submit_multiply(a, b);
///   f.get();  // the exact product a*b
class Scheduler {
 public:
  /// A unit of work: runs on a worker thread against that lane's backend.
  using Job = std::function<bigint::BigUInt(backend::MultiplierBackend&)>;

  explicit Scheduler(Config config = Config::paper());

  /// Drains the queue (every accepted job completes), then joins the lanes.
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Enqueues an arbitrary job (e.g. a circuit step needing several backend
  /// calls). An exception thrown by the job propagates through the future.
  /// Jobs must not block on futures of other jobs in the same scheduler
  /// (lanes are a fixed pool; waiting inside a lane can deadlock it).
  std::future<bigint::BigUInt> submit(Job job);

  /// Enqueues one product a*b.
  std::future<bigint::BigUInt> submit_multiply(bigint::BigUInt a, bigint::BigUInt b);

  /// Enqueues one squaring (NTT lanes take the 2-transform fast path).
  std::future<bigint::BigUInt> submit_square(bigint::BigUInt a);

  /// Enqueues every job of the batch; futures are in job order.
  std::vector<std::future<bigint::BigUInt>> submit_batch(std::span<const backend::MulJob> jobs);

  /// True iff every lane runs the software SSA engine (the only backend
  /// that speaks spectrum handles). fhe::Lanes reads it to decide whether
  /// circuits evaluated on these lanes stay spectrum-resident; the
  /// resident lane jobs themselves are plain submit() jobs.
  [[nodiscard]] bool lanes_support_spectra() const;

  /// Blocks until the queue is empty and every lane is idle.
  void wait_idle();

  [[nodiscard]] unsigned num_workers() const noexcept {
    return static_cast<unsigned>(threads_.size());
  }

  [[nodiscard]] SchedulerStats stats() const;

  [[nodiscard]] const Config& config() const noexcept { return config_; }

 private:
  /// Type-erased unit of work. The runner owns its promise (shared_ptr,
  /// since std::function requires copyable closures) and reports results /
  /// exceptions through it.
  using Task = std::function<void(backend::MultiplierBackend&)>;

  [[nodiscard]] std::shared_ptr<backend::MultiplierBackend> make_lane_backend();
  void worker_loop(unsigned lane);

  Config config_;
  std::vector<std::shared_ptr<backend::MultiplierBackend>> lane_backends_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<Task> queue_;
  bool stop_ = false;
  unsigned active_ = 0;
  u64 submitted_ = 0;
  u64 completed_ = 0;
  std::vector<LaneStats> lane_stats_;

  std::vector<std::thread> threads_;  ///< last member: joins before teardown
};

}  // namespace hemul::core
