// Workload definitions of the fleet benchmark: per-workload deployment
// shape, the deterministic request generator, encryption of a generated
// request and decrypt-verification of its response.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "fhe/circuits.hpp"
#include "fhe/graph.hpp"
#include "fhe/params.hpp"
#include "service/request.hpp"
#include "util/rng.hpp"

namespace fleetbench {

using namespace hemul;

enum class Kind { kPaperGates, kCircuitMix, kSessionChurn };

/// Deployment shape and load of one workload.
struct WorkloadConfig {
  Kind kind = Kind::kPaperGates;
  std::string name;
  fhe::DghvParams params;
  unsigned shards = 2;
  unsigned lanes = 1;              ///< "ssa" PE lanes per shard
  unsigned clients = 2;            ///< load-generator threads, one router connection each
  std::size_t max_sessions = 0;    ///< per-shard LRU bound (0 = unbounded)
  double window_ms = 2.0;          ///< admission window (the shard daemon's default)
  unsigned setups = 3;             ///< set-ups per run; setup_s is their median
  unsigned replay_tenants = 1;     ///< tenants whose requests the traced run replays
  unsigned replay_per_tenant = 2;  ///< sampled requests replayed per tenant when traced
  /// Encrypt a client's next input while its current request is served.
  /// Needed where encryption is a large share of a request and each shard
  /// has one client, so the shard would otherwise idle while it encrypts.
  bool overlap_encryption = false;
  /// When > 0, a new tenant joins every this many ms of the timed phase
  /// (through client 0's connection), so session creation is measured on
  /// the serving fleet rather than only at set-up.
  double join_interval_ms = 0.0;

  /// True when every iteration opens (and abandons) a fresh session.
  [[nodiscard]] bool churn() const noexcept { return kind == Kind::kSessionChurn; }
};

/// The named workload at full size, or at a tiny size for the self-test.
/// Throws std::invalid_argument for an unknown name.
WorkloadConfig make_config(const std::string& name, bool smoke);

/// splitmix64 combination of two words: deterministic per-client seeds.
u64 mix(u64 a, u64 b) noexcept;

/// Plaintext side of one generated request.
struct Job {
  core::CircuitSpec spec;
  u64 a = 0;
  u64 b = 0;               ///< the tenant constant when constant_b
  bool select = false;     ///< mux select bit
  bool constant_b = false; ///< operand b reuses the tenant's constant ciphertext word
  u64 expected = 0;        ///< the plaintext answer
};

/// Deterministic request stream of one client: request i depends only on
/// (workload, seed, client, i). Circuit kinds come in blocks that hold the
/// workload's mix exactly, shuffled per block, so every seed sends the same
/// proportions and only the order and the operands change.
class JobStream {
 public:
  JobStream(const WorkloadConfig& config, u64 seed, unsigned client, u64 tenant_constant);
  Job next();
  /// One request of every circuit shape in the mix (the warm-up set).
  std::vector<Job> one_of_each();

 private:
  Job make(const core::CircuitSpec& spec);

  const WorkloadConfig* config_;
  util::Rng rng_;
  u64 constant_;
  std::vector<core::CircuitSpec> mix_;    ///< one block of the mix
  std::vector<core::CircuitSpec> block_;  ///< what is left of the current block
};

/// Width of the per-tenant constant word (circuit_mix's repeated operand).
inline constexpr unsigned kConstantWidth = 16;

/// The per-tenant constant plaintext word.
u64 tenant_constant(u64 seed, unsigned client) noexcept;

/// Encrypts a job's inputs with the tenant's key. `constant` holds the
/// tenant's encrypted constant word (kConstantWidth bits; may be empty when
/// no job of the workload uses it).
core::Request encrypt_job(fhe::Dghv& scheme, const Job& job,
                          std::span<const fhe::Ciphertext> constant);

/// Decrypts a response and compares it with the job's plaintext answer.
/// Returns an empty string on success, else what went wrong.
std::string verify(const fhe::Dghv& scheme, const Job& job, const core::Response& response);

/// Records a builtin circuit on `graph` exactly as the service's admission
/// does (same input order, same constant wires), returning its outputs.
std::vector<fhe::Wire> record_builtin(fhe::Graph& graph, const core::CircuitSpec& spec,
                                      std::span<const fhe::Ciphertext> inputs,
                                      const fhe::Ciphertext& zero, const fhe::Ciphertext& one);

}  // namespace fleetbench
