#include "ssa/workspace.hpp"

#include "ssa/params.hpp"

namespace hemul::ssa {

void Workspace::reserve(const SsaParams& params) {
  const std::size_t n = params.transform_size;
  pack_a.reserve(n);
  pack_b.reserve(n);
  spec_a.reserve(n);
  spec_b.reserve(n);
  ntt_scratch.reserve(n);
}

Workspace& thread_workspace() {
  thread_local Workspace workspace;
  return workspace;
}

}  // namespace hemul::ssa
