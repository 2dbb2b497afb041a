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

/// The one size rule of the auto policy: SSA when the shorter operand
/// reaches the crossover too.
bool ssa_pays(std::size_t a_bits, std::size_t b_bits) {
  return std::min(a_bits, b_bits) >= kSsaDispatchBits;
}

/// The "auto" policy: classical dispatch below the SSA advantage point,
/// NTT above it. A batch routes through SSA when any of its jobs would, so
/// FHE-scale batches get spectrum caching.
class AutoBackend final : public MultiplierBackend {
 public:
  [[nodiscard]] std::string name() const override { return "auto"; }

  [[nodiscard]] BackendLimits limits() const override {
    BackendLimits limits;
    limits.caches_spectra = true;
    return limits;
  }

  [[nodiscard]] BigUInt multiply(const BigUInt& a, const BigUInt& b) override {
    return ssa_pays(a.bit_length(), b.bit_length()) ? ssa_.multiply(a, b)
                                                    : classical_.multiply(a, b);
  }

  [[nodiscard]] BigUInt square(const BigUInt& a) override {
    return ssa_pays(a.bit_length(), a.bit_length()) ? ssa_.square(a)
                                                    : classical_.multiply(a, a);
  }

  std::vector<BigUInt> multiply_batch(std::span<const MulJob> jobs,
                                      BatchStats* stats) override {
    const bool ssa = std::any_of(jobs.begin(), jobs.end(), [](const MulJob& job) {
      return ssa_pays(job.first.bit_length(), job.second.bit_length());
    });
    if (ssa) return ssa_.multiply_batch(jobs, stats);
    return classical_.multiply_batch(jobs, stats);
  }

 private:
  ClassicalBackend classical_;
  SsaBackend ssa_;
};

// Division's Barrett branch (bigint/div.hpp) starts where both operands of
// both reduction products, q * mu_lo and q * m, have at least
// 64 * (kBarrettThresholdLimbs - 1) + 1 bits: wide enough for the SSA path.
static_assert(64 * (bigint::kBarrettThresholdLimbs - 1) >= kSsaDispatchBits);

/// bigint dispatch hooks: the function-pointer seam cannot capture state,
/// so they re-implement the auto policy with the registry's building
/// blocks.
BigUInt auto_dispatch(const BigUInt& a, const BigUInt& b) {
  if (ssa_pays(a.bit_length(), b.bit_length())) return ssa::mul_ssa(a, b);
  return bigint::mul_auto_classical(a, b);
}

/// A spectrum at the geometry both operands fit, when their product would
/// run on SSA; a plain prepared operand otherwise.
std::unique_ptr<const bigint::PreparedOperand> auto_prepare(BigUInt operand,
                                                            std::size_t other_bits) {
  const std::size_t bits = operand.bit_length();
  if (!ssa_pays(bits, other_bits)) {
    return std::make_unique<const bigint::PreparedOperand>(std::move(operand));
  }
  const ssa::SsaParams params = ssa::SsaParams::for_bits(std::max(bits, other_bits));
  return std::make_unique<const ssa::PreparedSpectrum>(std::move(operand), params);
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
  bigint::set_prepare_dispatch(&auto_prepare);
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
