#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "backend/backend.hpp"

namespace hemul::backend {

/// Operand size (bits) from which the auto policy runs a product on the
/// SSA/NTT path instead of the classical dispatcher. Both operands must
/// reach it: with a shorter operand below it, the classical dispatcher's
/// blocked products are cheaper. Bench E4 (bench_mult_crossover) measures
/// the crossover on x86-64 (AVX-512, Release): the best classical product
/// vs SSA is 0.016 vs 0.021 ms at 8,192 bits, 0.033 vs 0.021 ms at 12,288
/// and 0.052 vs 0.045 ms at 16,384 -- far below the paper's ~10^5 bits.
/// 16,000 keeps both Barrett products on SSA from
/// bigint::kBarrettThresholdLimbs up.
inline constexpr std::size_t kSsaDispatchBits = 16'000;

/// String-keyed factory registry of multiplier backends.
///
/// Built-ins registered at construction: "schoolbook", "karatsuba",
/// "toom3", "classical" (size-adaptive classical), "ssa" (software
/// SSA/NTT, adaptive parameters), "hw" (simulated accelerator, paper
/// configuration) and "auto" (SSA when both operands reach
/// kSsaDispatchBits, classical otherwise). Constructing the registry also
/// installs the auto policy as bigint's multiplication and prepare hooks,
/// so BigUInt::operator* and bigint::prepare_operand route through the
/// backend layer from then on. Thread-safe.
class Registry {
 public:
  using Factory = std::function<std::shared_ptr<MultiplierBackend>()>;

  static Registry& instance();

  /// Registers (or replaces) a factory under `name`.
  void add(std::string name, Factory factory);

  [[nodiscard]] bool contains(std::string_view name) const;

  /// A fresh instance; throws std::invalid_argument for unknown names
  /// (the message lists the registered ones).
  [[nodiscard]] std::shared_ptr<MultiplierBackend> create(std::string_view name) const;

  /// A process-wide shared instance (created on first request).
  [[nodiscard]] std::shared_ptr<MultiplierBackend> shared(std::string_view name);

  /// Registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  Registry();

  mutable std::mutex mutex_;
  std::map<std::string, Factory, std::less<>> factories_;
  std::map<std::string, std::shared_ptr<MultiplierBackend>, std::less<>> shared_;
};

/// Convenience: Registry::instance().create(name).
[[nodiscard]] std::shared_ptr<MultiplierBackend> make_backend(std::string_view name);

/// The shared size-adaptive policy backend ("auto"): SSA/NTT when both
/// operands reach kSsaDispatchBits, classical algorithms otherwise,
/// spectrum-caching batches.
[[nodiscard]] std::shared_ptr<MultiplierBackend> auto_backend();

}  // namespace hemul::backend
