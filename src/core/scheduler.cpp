#include "core/scheduler.hpp"

#include <chrono>
#include <utility>

#include "backend/hw_backend.hpp"
#include "backend/registry.hpp"
#include "backend/ssa_backend.hpp"
#include "util/check.hpp"

namespace hemul::core {

using bigint::BigUInt;

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
    ssa->set_workspace(std::make_shared<ssa::Workspace>());
    return ssa;
  }
  return backend::make_backend(name);
}

void Scheduler::worker_loop(unsigned lane) {
  using Clock = std::chrono::steady_clock;
  backend::MultiplierBackend& backend = *lane_backends_[lane];
  auto* hw = dynamic_cast<backend::HwBackend*>(&backend);

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
    task(backend);  // runners catch internally and report via promise
    const double busy_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start).count();

    lock.lock();
    LaneStats& stats = lane_stats_[lane];
    ++stats.jobs;
    ++completed_;
    stats.busy_ms += busy_ms;
    if (hw != nullptr) stats.hw_cycles += hw->accumulated_cycles() - cycles_before;
    --active_;
    if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
  }
}

std::future<BigUInt> Scheduler::submit(Job job) {
  HEMUL_CHECK_MSG(job != nullptr, "Scheduler::submit: empty job");
  auto promise = std::make_shared<std::promise<BigUInt>>();
  std::future<BigUInt> future = promise->get_future();
  Task task = [job = std::move(job), promise](backend::MultiplierBackend& backend) {
    try {
      promise->set_value(job(backend));
    } catch (...) {
      promise->set_exception(std::current_exception());
    }
  };
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    HEMUL_CHECK_MSG(!stop_, "Scheduler::submit: scheduler is shutting down");
    queue_.push_back(std::move(task));
    ++submitted_;
  }
  work_cv_.notify_one();
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
  return snapshot;
}

}  // namespace hemul::core
