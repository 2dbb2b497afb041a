#pragma once

#include <string>

#include "hw/accel/accelerator.hpp"
#include "ssa/params.hpp"

namespace hemul::core {

/// Top-level configuration of the public accelerator API.
struct Config {
  /// Registry key of the multiplier engine ("hw", "ssa", "classical",
  /// "auto", ...). The "hw" and "ssa" engines are instantiated with this
  /// config's `hardware` parameters; other names come from the
  /// backend::Registry as-is.
  std::string backend_name = "hw";
  hw::AcceleratorConfig hardware = hw::AcceleratorConfig::paper();
  /// PE lanes of the core::Scheduler: worker threads, one backend instance
  /// each, mirroring the paper's array of processing elements. 0 selects
  /// one lane per hardware thread.
  unsigned num_workers = 0;

  /// The paper's prototype: 4 PEs, 200 MHz, 64*64*16 plan, 786,432-bit
  /// operands.
  static Config paper();

  /// num_workers, or the hardware thread count when 0 (at least 1).
  [[nodiscard]] unsigned resolved_num_workers() const noexcept;

  /// Checks internal consistency (delegates to the hardware/SSA layers).
  void validate() const;
};

}  // namespace hemul::core
