#include "workload.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <stdexcept>

#include "fhe/dghv.hpp"
#include "fhe/evaluator.hpp"
#include "fhe/serialize.hpp"

namespace fleetbench {

WorkloadConfig make_config(const std::string& name, bool smoke) {
  WorkloadConfig c;
  c.name = name;
  if (name == "paper_gates") {
    // Two tenants at the paper's operand size, one per shard, one client each.
    c.kind = Kind::kPaperGates;
    c.params = smoke ? fhe::DghvParams::toy() : fhe::DghvParams::small_paper();
    c.clients = 2;
    c.setups = smoke ? 2 : 3;
    c.overlap_encryption = true;  // ~80 ms per input bit at this size
    c.replay_tenants = 1;
    c.replay_per_tenant = smoke ? 2 : 3;
  } else if (name == "circuit_mix") {
    // Four tenants with deep-circuit parameters, two per shard.
    c.kind = Kind::kCircuitMix;
    c.params = fhe::DghvParams::deep();
    c.clients = 4;
    c.setups = smoke ? 2 : 9;
    c.join_interval_ms = 100.0;  // ~4 ms of keygen each: 4% of one CPU
    // Joined tenants are never used again, so the LRU bound evicts them
    // while the two tenants of each shard, used every few tens of ms, stay.
    c.max_sessions = 8;
    c.replay_tenants = smoke ? 2 : 4;
    c.replay_per_tenant = smoke ? 3 : 5;
  } else if (name == "session_churn") {
    // Two clients opening, using and abandoning sessions against a small
    // per-shard session table: the LRU bound evicts continuously. The bound
    // leaves room for several abandoned sessions per live one, so LRU order
    // evicts abandoned sessions, never one a client is about to use. Two
    // clients keep keygen, the clients and the shards within the CPUs.
    c.kind = Kind::kSessionChurn;
    c.params = smoke ? fhe::DghvParams::toy() : fhe::DghvParams::medium();
    c.clients = 2;
    c.max_sessions = 8;
    c.setups = smoke ? 2 : 5;
    c.replay_tenants = smoke ? 2 : 8;  // each replays one fresh session
    c.replay_per_tenant = 2;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (expected paper_gates, circuit_mix or session_churn)");
  }
  return c;
}

u64 mix(u64 a, u64 b) noexcept {
  u64 z = a ^ (b + 0x9E3779B97F4A7C15ull + (a << 6) + (a >> 2));
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

u64 tenant_constant(u64 seed, unsigned client) noexcept {
  return mix(mix(seed, 0xC0457A47ull), client) & ((1ull << kConstantWidth) - 1);
}

namespace {

core::CircuitSpec carry_save(core::CircuitKind kind, unsigned width) {
  core::CircuitSpec spec;
  spec.kind = kind;
  spec.width = width;
  spec.lowering.strategy = fhe::LoweringStrategy::kCarrySave;
  return spec;
}

u64 low_bits(u64 value, unsigned width) noexcept {
  return width >= 64 ? value : value & ((1ull << width) - 1);
}

/// One block of a workload's request mix.
std::vector<core::CircuitSpec> mix_block(Kind kind) {
  using core::CircuitKind;
  switch (kind) {
    case Kind::kPaperGates:
      // Three single ANDs to one carry-save 1-bit multiply (2 gates, 2 levels).
      return {carry_save(CircuitKind::kAnd, 1), carry_save(CircuitKind::kAnd, 1),
              carry_save(CircuitKind::kAnd, 1), carry_save(CircuitKind::kMul, 1)};
    case Kind::kCircuitMix:
      return {carry_save(CircuitKind::kMul, 8), carry_save(CircuitKind::kAdder, 16),
              carry_save(CircuitKind::kLessThan, 16), carry_save(CircuitKind::kEquals, 16),
              carry_save(CircuitKind::kMux, 16)};
    case Kind::kSessionChurn: break;
  }
  return {carry_save(CircuitKind::kAnd, 1)};
}

}  // namespace

JobStream::JobStream(const WorkloadConfig& config, u64 seed, unsigned client,
                     u64 tenant_constant)
    : config_(&config),
      rng_(mix(mix(seed, 0x5EED5742ull), client)),
      constant_(tenant_constant),
      mix_(mix_block(config.kind)) {}

Job JobStream::next() {
  if (block_.empty()) {
    block_ = mix_;
    for (std::size_t i = block_.size(); i > 1; --i) std::swap(block_[i - 1], block_[rng_.below(i)]);
  }
  const core::CircuitSpec spec = block_.back();
  block_.pop_back();
  return make(spec);
}

std::vector<Job> JobStream::one_of_each() {
  std::vector<Job> jobs;
  for (const core::CircuitSpec& spec : mix_) {
    const bool seen = std::any_of(jobs.begin(), jobs.end(),
                                  [&](const Job& job) { return job.spec == spec; });
    if (!seen) jobs.push_back(make(spec));
  }
  return jobs;
}

Job JobStream::make(const core::CircuitSpec& spec) {
  using core::CircuitKind;
  const unsigned w = spec.width;
  Job job;
  job.spec = spec;
  // circuit_mix's operand b is the tenant's constant word (a threshold or a
  // weight); equality against it holds for about one request in four.
  job.constant_b = config_->kind == Kind::kCircuitMix;
  job.b = job.constant_b ? low_bits(constant_, w) : low_bits(rng_.next(), w);
  job.a = spec.kind == CircuitKind::kEquals && rng_.below(4) == 0 ? job.b
                                                                 : low_bits(rng_.next(), w);
  job.select = rng_.below(2) == 1;
  switch (spec.kind) {
    case CircuitKind::kAnd: job.expected = job.a & job.b; break;
    case CircuitKind::kAdder: job.expected = job.a + job.b; break;
    case CircuitKind::kEquals: job.expected = job.a == job.b ? 1 : 0; break;
    case CircuitKind::kMul: job.expected = low_bits(job.a * job.b, 2 * w); break;
    case CircuitKind::kMux: job.expected = job.select ? job.a : job.b; break;
    case CircuitKind::kLessThan: job.expected = job.a < job.b ? 1 : 0; break;
    case CircuitKind::kGraph: break;
  }
  return job;
}

core::Request encrypt_job(fhe::Dghv& scheme, const Job& job,
                          std::span<const fhe::Ciphertext> constant) {
  const unsigned w = job.spec.width;
  std::vector<fhe::Ciphertext> inputs;
  inputs.reserve(job.spec.input_count());
  const auto push_word = [&](u64 value) {
    for (fhe::Ciphertext& c : fhe::encrypt_int(scheme, value, w)) inputs.push_back(std::move(c));
  };
  const auto push_b = [&] {
    if (!job.constant_b) return push_word(job.b);
    if (constant.size() < w) throw std::logic_error("tenant constant word is too narrow");
    inputs.insert(inputs.end(), constant.begin(), constant.begin() + w);
  };
  if (job.spec.kind == core::CircuitKind::kMux) inputs.push_back(scheme.encrypt(job.select));
  push_word(job.a);
  push_b();

  core::Request request;
  request.spec = job.spec;
  request.inputs = fhe::encode_ciphertexts(inputs);
  return request;
}

namespace {

std::size_t output_count(const core::CircuitSpec& spec) noexcept {
  switch (spec.kind) {
    case core::CircuitKind::kAdder: return spec.width + 1;
    case core::CircuitKind::kMul: return 2 * spec.width;
    case core::CircuitKind::kMux: return spec.width;
    default: return 1;
  }
}

/// Gate structure of a builtin circuit: live AND gates and AND depth.
struct CircuitShape {
  u64 and_gates = 0;
  unsigned levels = 0;
};

CircuitShape circuit_shape(const core::CircuitSpec& spec) {
  static std::mutex mutex;
  static std::map<std::string, CircuitShape> shapes;
  const std::string key = spec.describe();
  const std::lock_guard<std::mutex> lock(mutex);
  if (const auto it = shapes.find(key); it != shapes.end()) return it->second;

  // The gate structure does not depend on the key or the ciphertext values:
  // record the circuit over toy encryptions and level it.
  static fhe::Dghv toy(fhe::DghvParams::toy(), 0x5AA9E);
  std::vector<fhe::Ciphertext> inputs;
  for (std::size_t i = 0; i < spec.input_count(); ++i) inputs.push_back(toy.encrypt(i % 2 == 1));
  const fhe::Ciphertext zero = toy.encrypt(false);
  const fhe::Ciphertext one = toy.encrypt(true);
  fhe::Graph graph(toy);
  const std::vector<fhe::Wire> outputs = record_builtin(graph, spec, inputs, zero, one);
  const fhe::EvalState state(graph, outputs);
  CircuitShape shape;
  shape.levels = state.max_level();
  for (unsigned level = 1; level <= state.max_level(); ++level) {
    shape.and_gates += state.wavefront(level).size();
  }
  return shapes.emplace(key, shape).first->second;
}

}  // namespace

std::string verify(const fhe::Dghv& scheme, const Job& job, const core::Response& response) {
  const std::string what = job.spec.describe();
  if (!response.ok()) {
    return what + ": status " + std::to_string(static_cast<int>(response.status)) + " (" +
           response.error + ")";
  }
  std::vector<fhe::Ciphertext> outputs;
  try {
    outputs = fhe::decode_ciphertexts(response.outputs);
  } catch (const std::exception& e) {
    return what + ": undecodable outputs (" + e.what() + ")";
  }
  if (outputs.size() != output_count(job.spec)) {
    return what + ": " + std::to_string(outputs.size()) + " output ciphertexts";
  }
  const u64 got = fhe::decrypt_int(scheme, outputs);
  if (got != job.expected) {
    return what + ": decrypted " + std::to_string(got) + ", expected " +
           std::to_string(job.expected);
  }
  const CircuitShape shape = circuit_shape(job.spec);
  if (response.and_gates != shape.and_gates || response.levels != shape.levels) {
    return what + ": executed " + std::to_string(response.and_gates) + " gates in " +
           std::to_string(response.levels) + " levels, the circuit has " +
           std::to_string(shape.and_gates) + " in " + std::to_string(shape.levels);
  }
  return {};
}

std::vector<fhe::Wire> record_builtin(fhe::Graph& g, const core::CircuitSpec& spec,
                                      std::span<const fhe::Ciphertext> inputs,
                                      const fhe::Ciphertext& zero, const fhe::Ciphertext& one) {
  using core::CircuitKind;
  spec.validate();
  if (inputs.size() != spec.input_count()) {
    throw std::invalid_argument(spec.describe() + ": wrong input count");
  }
  g.set_lowering(spec.lowering);
  const unsigned w = spec.width;
  const std::vector<fhe::Wire> wires = g.inputs(inputs);
  const std::span<const fhe::Wire> all(wires);
  switch (spec.kind) {
    case CircuitKind::kAnd: return {g.gate_and(wires[0], wires[1])};
    case CircuitKind::kAdder: {
      fhe::Graph::AddResult r = g.add(all.first(w), all.subspan(w, w), g.input(zero));
      std::vector<fhe::Wire> out = std::move(r.sum);
      out.push_back(r.carry_out);
      return out;
    }
    case CircuitKind::kEquals: return {g.equals(all.first(w), all.subspan(w, w), g.input(one))};
    case CircuitKind::kMul: return g.multiply(all.first(w), all.subspan(w, w), g.input(zero));
    case CircuitKind::kMux: return g.mux(wires[0], all.subspan(1, w), all.subspan(1 + w, w));
    case CircuitKind::kLessThan:
      return {g.less_than(all.first(w), all.subspan(w, w), g.input(zero), g.input(one))};
    case CircuitKind::kGraph: break;
  }
  throw std::invalid_argument("record_builtin: graph requests are not generated");
}

}  // namespace fleetbench
