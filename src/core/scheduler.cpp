#include "core/scheduler.hpp"

#include <chrono>
#include <utility>

#include "backend/hw_backend.hpp"
#include "backend/registry.hpp"
#include "backend/ssa_backend.hpp"
#include "util/check.hpp"

namespace hemul::core {

using bigint::BigUInt;

namespace {

/// Identity of the lane thread currently executing, so run_tiles can
/// attribute tiles the calling/helping thread executed to its LaneStats.
/// (A thread belongs to at most one scheduler for its lifetime.)
struct LaneMark {
  const void* owner = nullptr;
  unsigned lane = 0;
};
thread_local LaneMark t_lane;

}  // namespace

/// One run_tiles invocation: a claim counter (`next`) the caller and the
/// helper tasks drain cooperatively, and a completion counter
/// (`remaining`) the caller waits on. The group is shared_ptr-owned by the
/// helpers; `tile` points at the caller's callable, which outlives every
/// live tile because run_tiles returns only after remaining == 0 (helpers
/// that wake later claim nothing and never dereference it).
struct Scheduler::TileGroup {
  const std::function<void(u64)>* tile = nullptr;
  u64 count = 0;
  std::atomic<u64> next{0};
  std::atomic<u64> remaining{0};
  std::mutex mutex;
  std::condition_variable done_cv;
  std::exception_ptr error;  ///< first tile exception (guarded by mutex)
};

Scheduler::Scheduler(Config config) : config_(std::move(config)) {
  config_.validate();

  const unsigned workers = config_.resolved_num_workers();
  lane_backends_.reserve(workers);
  for (unsigned lane = 0; lane < workers; ++lane) {
    lane_backends_.push_back(make_lane_backend());
  }
  lane_stats_.resize(workers);
  for (unsigned lane = 0; lane < workers; ++lane) lane_stats_[lane].lane = lane;

  threads_.reserve(workers);
  for (unsigned lane = 0; lane < workers; ++lane) {
    threads_.emplace_back(&Scheduler::worker_loop, this, lane);
  }
}

Scheduler::~Scheduler() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

std::shared_ptr<backend::MultiplierBackend> Scheduler::make_lane_backend() {
  const std::string& name = config_.backend_name;
  if (name == "hw") {
    // One simulated accelerator per lane, built with this scheduler's
    // hardware configuration (the paper's PE-array sharding).
    return std::make_shared<backend::HwBackend>(config_.hardware);
  }
  if (name == "ssa") {
    // Adaptive software SSA per lane (the registry engine's semantics).
    // Each lane owns a private buffer arena (the software mirror of a PE's
    // banked SRAM): steady-state jobs reuse it instead of allocating, and
    // lanes never contend on buffers.
    auto ssa = std::make_shared<backend::SsaBackend>();
    auto workspace = std::make_shared<ssa::Workspace>();
    // Intra-op tiling: the lane's four-step transforms hand their passes
    // to run_tiles, so a lone large multiply fans across idle lanes.
    if (config_.intra_op_tiling) workspace->tile_executor = &tile_exec_;
    ssa->set_workspace(std::move(workspace));
    return ssa;
  }
  return backend::make_backend(name);
}

void Scheduler::worker_loop(unsigned lane) {
  using Clock = std::chrono::steady_clock;
  backend::MultiplierBackend& backend = *lane_backends_[lane];
  auto* hw = dynamic_cast<backend::HwBackend*>(&backend);
  t_lane = LaneMark{this, lane};

  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stop_ set and the queue is drained

    Task task = std::move(queue_.front());
    queue_.pop_front();
    ++active_;
    lock.unlock();

    const u64 cycles_before = hw != nullptr ? hw->accumulated_cycles() : 0;
    const auto start = Clock::now();
    task.run(backend);  // runners catch internally and report via promise
    const double busy_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start).count();

    lock.lock();
    LaneStats& stats = lane_stats_[lane];
    // Tile-helper tasks count toward busy time (they are real lane work)
    // but not toward job counters: submitted/completed/jobs describe the
    // caller-visible workload, and tiles are tallied separately.
    if (!task.internal) {
      ++stats.jobs;
      ++completed_;
    }
    stats.busy_ms += busy_ms;
    if (hw != nullptr) stats.hw_cycles += hw->accumulated_cycles() - cycles_before;
    --active_;
    if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
  }
}

void Scheduler::enqueue(std::function<void(backend::MultiplierBackend&)> run, bool internal) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    // Internal helpers may be spawned by a job still draining during
    // shutdown; they are claim-only and safe to discard unexecuted.
    HEMUL_CHECK_MSG(internal || !stop_, "Scheduler::submit: scheduler is shutting down");
    queue_.push_back(Task{std::move(run), internal});
    if (!internal) ++submitted_;
  }
  work_cv_.notify_one();
}

u64 Scheduler::drain_tiles(TileGroup& group) {
  u64 ran = 0;
  for (;;) {
    const u64 index = group.next.fetch_add(1, std::memory_order_relaxed);
    if (index >= group.count) return ran;
    try {
      (*group.tile)(index);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(group.mutex);
      if (group.error == nullptr) group.error = std::current_exception();
    }
    ++ran;
    // acq_rel keeps every fetch_sub in one release sequence, so the
    // caller's acquire load of 0 synchronizes with ALL tile executions,
    // not just the last one.
    if (group.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      const std::lock_guard<std::mutex> lock(group.mutex);
      group.done_cv.notify_all();
    }
  }
}

void Scheduler::run_tiles(u64 count, const std::function<void(u64)>& tile) {
  if (count == 0) return;

  auto group = std::make_shared<TileGroup>();
  group->tile = &tile;
  group->count = count;
  group->remaining.store(count, std::memory_order_relaxed);

  // Helper tasks let idle lanes steal tiles. The caller participates
  // below, never blocking while work is claimable, so the helpers are an
  // optimization, not a dependency: a 1-lane scheduler (or a pool whose
  // every lane is busy) completes the group on the calling thread alone.
  const u64 helpers = std::min<u64>(count - 1, num_workers());
  for (u64 h = 0; h < helpers; ++h) {
    enqueue(
        [this, group](backend::MultiplierBackend&) {
          const u64 ran = drain_tiles(*group);
          if (ran > 0) {
            const std::lock_guard<std::mutex> lock(mutex_);
            if (t_lane.owner == this) lane_stats_[t_lane.lane].tiles += ran;
          }
        },
        /*internal=*/true);
  }

  const u64 ran = drain_tiles(*group);
  if (group->remaining.load(std::memory_order_acquire) != 0) {
    std::unique_lock<std::mutex> lock(group->mutex);
    group->done_cv.wait(lock, [&group] {
      return group->remaining.load(std::memory_order_acquire) == 0;
    });
  }

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++tile_groups_;
    tiles_executed_ += count;
    // Tiles the caller ran count toward its lane when the caller is a lane
    // of this scheduler (external callers' tiles appear only in the
    // group totals).
    if (ran > 0 && t_lane.owner == this) lane_stats_[t_lane.lane].tiles += ran;
  }
  if (group->error != nullptr) std::rethrow_exception(group->error);
}

std::future<BigUInt> Scheduler::submit(Job job) {
  HEMUL_CHECK_MSG(job != nullptr, "Scheduler::submit: empty job");
  auto promise = std::make_shared<std::promise<BigUInt>>();
  std::future<BigUInt> future = promise->get_future();
  enqueue([job = std::move(job), promise](backend::MultiplierBackend& backend) {
    try {
      promise->set_value(job(backend));
    } catch (...) {
      promise->set_exception(std::current_exception());
    }
  });
  return future;
}

bool Scheduler::lanes_support_spectra() const {
  return config_.backend_name == "ssa";
}

std::future<BigUInt> Scheduler::submit_multiply(BigUInt a, BigUInt b) {
  return submit([a = std::move(a), b = std::move(b)](backend::MultiplierBackend& backend) {
    return backend.multiply(a, b);
  });
}

std::future<BigUInt> Scheduler::submit_square(BigUInt a) {
  return submit([a = std::move(a)](backend::MultiplierBackend& backend) {
    return backend.square(a);
  });
}

std::vector<std::future<BigUInt>> Scheduler::submit_batch(
    std::span<const backend::MulJob> jobs) {
  std::vector<std::future<BigUInt>> futures;
  futures.reserve(jobs.size());
  for (const backend::MulJob& job : jobs) {
    futures.push_back(submit_multiply(job.first, job.second));
  }
  return futures;
}

void Scheduler::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

SchedulerStats Scheduler::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  SchedulerStats snapshot;
  snapshot.lanes = lane_stats_;
  snapshot.submitted = submitted_;
  snapshot.completed = completed_;
  snapshot.tile_groups = tile_groups_;
  snapshot.tiles_executed = tiles_executed_;
  return snapshot;
}

}  // namespace hemul::core
