// Result of one benchmark run and the order statistics it is built from.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "fleet.hpp"

namespace fleetbench {

/// Quantile q in [0, 1] of a sample, interpolating linearly between order
/// statistics (0 for an empty sample).
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< observations the value was computed from
};

struct RunOptions {
  u64 seed = 1;
  double seconds = 10.0;
  bool inject_flip = false;
};

struct Report {
  u64 attempted = 0;
  u64 failed = 0;
  /// False on any failed request or failed cross-check.
  bool correct = true;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;
  /// Deterministic counts of the traced run's replayed requests, as a JSON
  /// object; identical for identical seeds.
  std::string ledger_json;
  u64 checks_failed = 0;

  void add(std::string name, double value, std::string unit, std::size_t samples) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  void fail(std::string why) {
    correct = false;
    ++checks_failed;
    if (failures.size() < 16) failures.push_back(std::move(why));
  }
  /// Books a closed-loop phase's requests and failures.
  void count(const LoopStats& loop) {
    attempted += loop.attempted;
    failed += loop.attempted - loop.verified;
    if (loop.attempted != loop.verified) correct = false;
    for (const std::string& why : loop.failures) {
      if (failures.size() < 16) failures.push_back(why);
    }
  }
};

/// The end-to-end run: repeated set-ups, then one timed closed-loop phase.
Report run_end_to_end(const WorkloadConfig& config, const RunOptions& options);

/// The traced run: interleaved untraced and traced closed-loop windows,
/// then sampled requests replayed down the stack, timed at each layer's
/// public API.
Report run_traced(const WorkloadConfig& config, const RunOptions& options);

}  // namespace fleetbench
