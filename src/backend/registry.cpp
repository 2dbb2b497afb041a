#include "backend/registry.hpp"

#include <algorithm>
#include <sstream>

#include "backend/classical.hpp"
#include "backend/hw_backend.hpp"
#include "backend/ssa_backend.hpp"
#include "bigint/div.hpp"
#include "bigint/mul.hpp"
#include "ssa/multiply.hpp"

namespace hemul::backend {

using bigint::BigUInt;

namespace {

/// The "auto" policy: classical dispatch below the SSA advantage point,
/// NTT above it. Batches route through whichever engine fits the largest
/// operand, so FHE-scale batches get spectrum caching.
class AutoBackend final : public MultiplierBackend {
 public:
  [[nodiscard]] std::string name() const override { return "auto"; }

  [[nodiscard]] BackendLimits limits() const override {
    BackendLimits limits;
    limits.caches_spectra = true;
    return limits;
  }

  [[nodiscard]] BigUInt multiply(const BigUInt& a, const BigUInt& b) override {
    return std::max(a.bit_length(), b.bit_length()) >= kSsaDispatchBits
               ? ssa_.multiply(a, b)
               : classical_.multiply(a, b);
  }

  [[nodiscard]] BigUInt square(const BigUInt& a) override {
    return a.bit_length() >= kSsaDispatchBits ? ssa_.square(a) : classical_.multiply(a, a);
  }

  std::vector<BigUInt> multiply_batch(std::span<const MulJob> jobs,
                                      BatchStats* stats) override {
    std::size_t max_bits = 0;
    for (const MulJob& job : jobs) {
      max_bits = std::max({max_bits, job.first.bit_length(), job.second.bit_length()});
    }
    if (max_bits >= kSsaDispatchBits) return ssa_.multiply_batch(jobs, stats);
    return classical_.multiply_batch(jobs, stats);
  }

 private:
  ClassicalBackend classical_;
  SsaBackend ssa_;
};

// Division's Barrett branch (bigint/div.hpp) starts where both of its
// reduction products, q * mu and q * m, are wide enough for the SSA path.
static_assert(64 * (bigint::kBarrettThresholdLimbs - 1) >= kSsaDispatchBits);

/// bigint dispatch hook: the function-pointer seam cannot capture state, so
/// it re-implements the auto policy with the registry's building blocks.
BigUInt auto_dispatch(const BigUInt& a, const BigUInt& b) {
  if (std::max(a.bit_length(), b.bit_length()) >= kSsaDispatchBits) {
    return ssa::mul_ssa(a, b);
  }
  return bigint::mul_auto_classical(a, b);
}

/// Forces registry construction (and thus hook installation) during static
/// initialization of any binary that links the backend layer.
const struct DispatchHookInit {
  DispatchHookInit() { (void)Registry::instance(); }
} kDispatchHookInit;

}  // namespace

Registry::Registry() {
  factories_["schoolbook"] = [] {
    return std::make_shared<ClassicalBackend>(ClassicalBackend::Algorithm::kSchoolbook);
  };
  factories_["karatsuba"] = [] {
    return std::make_shared<ClassicalBackend>(ClassicalBackend::Algorithm::kKaratsuba);
  };
  factories_["toom3"] = [] {
    return std::make_shared<ClassicalBackend>(ClassicalBackend::Algorithm::kToom3);
  };
  factories_["classical"] = [] {
    return std::make_shared<ClassicalBackend>(ClassicalBackend::Algorithm::kAuto);
  };
  factories_["ssa"] = [] { return std::make_shared<SsaBackend>(); };
  factories_["hw"] = [] { return std::make_shared<HwBackend>(); };
  factories_["auto"] = [] { return std::make_shared<AutoBackend>(); };

  bigint::set_mul_dispatch(&auto_dispatch);
}

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

void Registry::add(std::string name, Factory factory) {
  const std::lock_guard lock(mutex_);
  shared_.erase(name);
  factories_[std::move(name)] = std::move(factory);
}

bool Registry::contains(std::string_view name) const {
  const std::lock_guard lock(mutex_);
  return factories_.find(name) != factories_.end();
}

std::shared_ptr<MultiplierBackend> Registry::create(std::string_view name) const {
  Factory factory;
  {
    const std::lock_guard lock(mutex_);
    const auto it = factories_.find(name);
    if (it != factories_.end()) factory = it->second;
  }
  if (!factory) {
    std::ostringstream msg;
    msg << "unknown multiplier backend '" << name << "'; registered:";
    for (const std::string& known : names()) msg << ' ' << known;
    throw std::invalid_argument(msg.str());
  }
  return factory();
}

std::shared_ptr<MultiplierBackend> Registry::shared(std::string_view name) {
  {
    const std::lock_guard lock(mutex_);
    const auto it = shared_.find(name);
    if (it != shared_.end()) return it->second;
  }
  std::shared_ptr<MultiplierBackend> instance = create(name);
  const std::lock_guard lock(mutex_);
  return shared_.emplace(std::string(name), std::move(instance)).first->second;
}

std::vector<std::string> Registry::names() const {
  const std::lock_guard lock(mutex_);
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) out.push_back(name);
  return out;
}

std::shared_ptr<MultiplierBackend> make_backend(std::string_view name) {
  return Registry::instance().create(name);
}

std::shared_ptr<MultiplierBackend> auto_backend() {
  return Registry::instance().shared("auto");
}

}  // namespace hemul::backend
