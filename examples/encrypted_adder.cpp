// encrypted_adder: word-level homomorphic computation with the lazy
// circuit-graph IR -- a ripple-carry adder and an equality check over
// encrypted 4-bit integers are *recorded* as one fhe::Graph, audited for
// noise before anything runs, then wavefront-evaluated by an
// fhe::Evaluator across a core::Scheduler's PE lanes, counting how many
// accelerator multiplications the server spends (the paper's cost unit:
// one AND = one 786,432-bit product).

#include <cstdio>

#include "core/accelerator.hpp"
#include "core/scheduler.hpp"
#include "fhe/circuits.hpp"
#include "fhe/evaluator.hpp"
#include "fhe/graph.hpp"

int main() {
  using namespace hemul;

  std::printf("== encrypted 4-bit adder (circuit-graph IR) ==\n\n");

  fhe::Dghv scheme(fhe::DghvParams::toy(), 31337);

  const unsigned x = 11;
  const unsigned y = 7;
  std::printf("client encrypts x = %u, y = %u (4 bits each)\n", x, y);
  fhe::EncryptedInt cx = fhe::encrypt_int(scheme, x, 4);
  fhe::EncryptedInt cy = fhe::encrypt_int(scheme, y, 4);
  const fhe::EncryptedInt eleven = fhe::encrypt_int(scheme, 11, 4);

  // Server: record the whole computation first -- nothing executes yet.
  fhe::Graph graph(scheme);
  const std::vector<fhe::Wire> wx = graph.inputs(cx);
  const std::vector<fhe::Wire> wy = graph.inputs(cy);
  const fhe::Wire zero = graph.input(scheme.encrypt(false));
  const fhe::Wire one = graph.input(scheme.encrypt(true));

  fhe::Graph::AddResult sum = graph.add(wx, wy, zero);
  const fhe::Wire is_eleven = graph.equals(wx, graph.inputs(eleven), one);

  std::vector<fhe::Wire> outputs = sum.sum;
  outputs.push_back(sum.carry_out);
  outputs.push_back(is_eleven);

  std::printf("server records the circuit: %zu nodes, %llu AND gates, depth %u,\n",
              graph.size(), static_cast<unsigned long long>(graph.and_gates()),
              graph.level(sum.carry_out));
  std::printf("predicted noise at the deepest wire: %.1f bits (decryptable: %s)\n\n",
              graph.predicted_noise_bits(sum.carry_out),
              graph.predicted_decryptable(sum.carry_out) ? "yes" : "no");

  // Server: wavefront evaluation -- every level of independent AND gates
  // goes out as one batch across the scheduler's PE lanes.
  core::Config config;
  config.backend_name = "ssa";
  config.num_workers = 2;
  core::Scheduler scheduler(config);
  fhe::Evaluator evaluator(scheduler);
  fhe::EvalReport report;
  const std::vector<fhe::Ciphertext> results = evaluator.evaluate(graph, outputs, &report);

  const fhe::EncryptedInt enc_sum(results.begin(), results.begin() + 4);
  const u64 decrypted =
      fhe::decrypt_int(scheme, enc_sum) | (scheme.decrypt(results[4]) ? 16u : 0u);
  std::printf("server computes x + y homomorphically -> client decrypts %llu (expect %u)\n",
              static_cast<unsigned long long>(decrypted), x + y);
  std::printf("server tests x == 11 homomorphically -> %s\n",
              scheme.decrypt(results[5]) ? "true" : "false");

  std::printf("\nAND gates executed: %llu in %zu wavefronts (%llu recorded)\n",
              static_cast<unsigned long long>(report.and_gates), report.wavefront_count(),
              static_cast<unsigned long long>(graph.and_gates()));
  for (const fhe::WavefrontStats& wf : report.wavefronts) {
    std::printf("  wave %-2u : %llu gates, %u lane(s), %llu forward + %llu inverse transforms\n",
                wf.level, static_cast<unsigned long long>(wf.and_gates), wf.lanes_used,
                static_cast<unsigned long long>(wf.spectra_cached),
                static_cast<unsigned long long>(wf.inverses_paid));
  }

  // What that costs on the accelerator at the paper's operating point.
  const double per_mult_us = core::Accelerator().performance().mult_us();
  std::printf("\nat gamma = 786,432 bits each AND is one accelerator multiplication\n");
  std::printf("(~%.2f us): total modeled hardware time %.2f us\n", per_mult_us,
              per_mult_us * static_cast<double>(report.and_gates));

  return decrypted == x + y && scheme.decrypt(results[5]) ? 0 : 1;
}
