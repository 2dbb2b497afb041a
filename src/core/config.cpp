#include "core/config.hpp"

#include <thread>

namespace hemul::core {

Config Config::paper() { return Config{}; }

unsigned Config::resolved_num_workers() const noexcept {
  if (num_workers > 0) return num_workers;
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

void Config::validate() const {
  hardware.ssa.validate();
  if (hardware.ssa.transform_size != hardware.ntt.plan.size) {
    throw std::invalid_argument("Config: SSA transform size must match the NTT plan");
  }
}

}  // namespace hemul::core
