// hemul_cli: command-line front end to the accelerator model.
//
//   hemul_cli [--backend <name>] mul <hexA> <hexB>   multiply two hex integers
//   hemul_cli [--backend <name>] random <bits>       multiply two random operands
//   hemul_cli [--backend <name>] batch <n> <bits>    stream n products of one
//                                                    shared operand, report the
//                                                    spectrum-cache amortization
//   hemul_cli [--workers N] throughput <n> <bits>    drive n products through the
//                                                    multi-PE scheduler, report
//                                                    jobs/sec and per-lane stats
//   hemul_cli [--workers N] circuit <kind> [width]   record a homomorphic circuit
//                                                    as an fhe::Graph and wavefront-
//                                                    evaluate it: levels, gate
//                                                    counts, predicted depth for
//                                                    BOTH lowering strategies,
//                                                    predicted noise, lane
//                                                    utilization (kind: adder,
//                                                    equals, mul, mux, lt)
//   hemul_cli [--workers N] serve [FILE]             play a request stream (below)
//                                                    from FILE or stdin against
//                                                    one core::Service; decrypt-
//                                                    verify every response and
//                                                    print coalescing stats
//   hemul_cli [--workers N] service <tenants> <reqs> serve a generated stream:
//                                                    one toy session per tenant,
//                                                    single-AND requests
//   hemul_cli backends                               list registered backends
//   hemul_cli table1                                 print the Table I comparison
//   hemul_cli perf [P]                               Section V performance model
//
// --backend selects any engine registered in backend::Registry ("hw", "ssa",
// "classical", "karatsuba", ...; default "hw" — except for `throughput`,
// `circuit`, `serve` and `service`, which default to the software "ssa"
// engine). --workers sets the scheduler's PE-lane count (default: one lane
// per hardware thread).
// --lowering <ripple|carry-save> picks the word-op lowering strategy for
// `circuit`, `serve` and `service` (default: ripple).
//
// Request stream grammar (one command per line, '#' starts a comment; a
// request line may end with a lowering name overriding --lowering):
//   session <name> <toy|medium|deep> <seed>
//   request <name> and <x> <y>                 x, y in {0, 1}
//   request <name> adder <width> <x> <y> [ripple|carry-save]
//   request <name> equals <width> <x> <y> [...]
//   request <name> mul <width> <x> <y> [...]
//   request <name> mux <width> <sel> <x> <y> [...]
//   request <name> lt <width> <x> <y> [...]
//
// Exit code 0 on success; 1 on a wrong result; 2 on usage errors (and
// malformed streams); 3 when `circuit` finds the recorded circuit
// undecryptable at every built-in parameter set (the result cannot be
// verified).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "backend/registry.hpp"
#include "bigint/mul.hpp"
#include "core/accelerator.hpp"
#include "core/scheduler.hpp"
#include "fhe/circuits.hpp"
#include "fhe/evaluator.hpp"
#include "fhe/graph.hpp"
#include "fhe/lowering.hpp"
#include "fhe/noise.hpp"
#include "fhe/serialize.hpp"
#include "fhe/session.hpp"
#include "net/client.hpp"
#include "service/service.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"

namespace {

using namespace hemul;

int usage() {
  std::fprintf(stderr,
               "usage: hemul_cli [--backend <name>] [--workers N]\n"
               "                 [--lowering <ripple|carry-save>]\n"
               "                 [--deadline-ms MS] [--retries N]\n"
               "                 mul <hexA> <hexB> |\n"
               "                 random <bits> | batch <n> <bits> | throughput <n> <bits> |\n"
               "                 circuit <adder|equals|mul|mux|lt> [width] |\n"
               "                 serve [FILE] | service <tenants> <requests-per-tenant> |\n"
               "                 fleet <host:port> <tenants> <requests-per-tenant> |\n"
               "                 backends | table1 | perf [P]\n"
               "  --deadline-ms MS  fleet: per-request budget; overdue futures\n"
               "                    complete with kTimeout/kExpired (0 = off)\n"
               "  --retries N       fleet: resubmits of kOverloaded sheds, paced\n"
               "                    by the server's retry-after hint (default 2)\n");
  return 2;
}

u64 mask_of(unsigned width) { return width >= 64 ? ~0ULL : (1ULL << width) - 1; }

core::Accelerator make_accelerator(const std::string& backend_name) {
  core::Config config;
  if (!backend_name.empty()) config.backend_name = backend_name;
  return core::Accelerator(config);
}

void print_report(const core::MultiplyResult& result) {
  std::printf("product bits : %zu\n", result.product.bit_length());
  if (result.hw_report.has_value()) {
    std::printf("cycles       : %llu\n",
                static_cast<unsigned long long>(result.hw_report->total_cycles));
    std::printf("modeled time : %s\n",
                util::format_time_ns(result.hw_report->total_time_us() * 1000.0).c_str());
  }
}

int cmd_backends() {
  std::printf("%-12s %-14s %s\n", "name", "max operand", "capabilities");
  for (const std::string& name : backend::Registry::instance().names()) {
    const auto b = backend::make_backend(name);
    const backend::BackendLimits limits = b->limits();
    std::string caps;
    if (limits.caches_spectra) caps += "spectrum-cache ";
    if (limits.reports_hw_cycles) caps += "cycle-reports";
    std::printf("%-12s %-14s %s\n", name.c_str(),
                limits.max_operand_bits == 0
                    ? "unlimited"
                    : (std::to_string(limits.max_operand_bits) + " bits").c_str(),
                caps.c_str());
  }
  return 0;
}

int cmd_mul(const std::string& backend_name, const std::string& a_hex,
            const std::string& b_hex) {
  const auto a = bigint::BigUInt::from_hex(a_hex);
  const auto b = bigint::BigUInt::from_hex(b_hex);
  core::Accelerator accel = make_accelerator(backend_name);
  const auto result = accel.multiply(a, b);
  std::printf("backend      : %s\n", accel.backend().name().c_str());
  std::printf("%s\n", result.product.to_hex().c_str());
  print_report(result);
  const bool ok = result.product == bigint::mul_schoolbook(a, b);
  std::printf("verified     : %s\n", ok ? "yes" : "NO");
  return ok ? 0 : 1;
}

int cmd_random(const std::string& backend_name, std::size_t bits) {
  util::Rng rng(0xC11);
  const auto a = bigint::BigUInt::random_bits(rng, bits);
  const auto b = bigint::BigUInt::random_bits(rng, bits);
  core::Accelerator accel = make_accelerator(backend_name);
  const auto result = accel.multiply(a, b);
  std::printf("backend      : %s\n", accel.backend().name().c_str());
  print_report(result);
  const bool ok = result.product == bigint::mul_auto_classical(a, b);
  std::printf("verified     : %s\n", ok ? "yes" : "NO");
  return ok ? 0 : 1;
}

int cmd_batch(const std::string& backend_name, std::size_t n, std::size_t bits) {
  // One shared operand against n others: the repeated-operand pattern whose
  // forward spectrum the caching backends compute once instead of n times.
  util::Rng rng(0xBA7C);
  const auto a = bigint::BigUInt::random_bits(rng, bits);
  std::vector<backend::MulJob> jobs;
  jobs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    jobs.emplace_back(a, bigint::BigUInt::random_bits(rng, bits));
  }

  core::Accelerator accel = make_accelerator(backend_name);
  const core::BatchResult result = accel.multiply_batch(jobs);
  std::printf("backend      : %s\n", accel.backend().name().c_str());
  std::printf("products     : %zu\n", result.products.size());
  std::printf("fwd NTTs     : %llu (%llu cache hits)\n",
              static_cast<unsigned long long>(result.stats.forward_transforms),
              static_cast<unsigned long long>(result.stats.spectrum_cache_hits));
  if (result.stats.total_cycles > 0) {
    std::printf("total cycles : %llu (%s)\n",
                static_cast<unsigned long long>(result.stats.total_cycles),
                util::format_time_ns(result.stats.total_time_us() * 1000.0).c_str());
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (result.products[i] != bigint::mul_auto_classical(jobs[i].first, jobs[i].second)) {
      std::printf("verified     : NO (job %zu)\n", i);
      return 1;
    }
  }
  std::printf("verified     : yes\n");
  return 0;
}

int cmd_throughput(const std::string& backend_name, unsigned workers, std::size_t n,
                   std::size_t bits) {
  using Clock = std::chrono::steady_clock;

  core::Config config;
  // Wall-clock throughput is the point here, so default to the software
  // SSA engine rather than the simulated accelerator.
  config.backend_name = backend_name.empty() ? "ssa" : backend_name;
  config.num_workers = workers;
  core::Scheduler scheduler(config);

  util::Rng rng(0x7412);
  std::vector<backend::MulJob> jobs;
  jobs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    jobs.emplace_back(bigint::BigUInt::random_bits(rng, bits),
                      bigint::BigUInt::random_bits(rng, bits));
  }

  const auto t0 = Clock::now();
  std::vector<std::future<bigint::BigUInt>> futures = scheduler.submit_batch(jobs);
  std::vector<bigint::BigUInt> products;
  products.reserve(n);
  for (auto& future : futures) products.push_back(future.get());
  const double wall_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

  // Lane stats are booked after each future is satisfied; drain them
  // before reading, or the last job per lane can be missing.
  scheduler.wait_idle();
  const core::SchedulerStats stats = scheduler.stats();
  std::printf("backend      : %s\n", config.backend_name.c_str());
  std::printf("workers      : %u\n", scheduler.num_workers());
  std::printf("jobs         : %zu x %zu bits\n", n, bits);
  std::printf("wall time    : %.1f ms\n", wall_ms);
  std::printf("throughput   : %.1f jobs/s\n",
              wall_ms > 0.0 ? 1000.0 * static_cast<double>(n) / wall_ms : 0.0);
  double busy_ms = 0.0;
  for (const core::LaneStats& lane : stats.lanes) {
    busy_ms += lane.busy_ms;
    std::printf("  lane %-2u    : %llu jobs, %.1f ms busy (%.0f%% of wall)", lane.lane,
                static_cast<unsigned long long>(lane.jobs), lane.busy_ms,
                wall_ms > 0.0 ? 100.0 * lane.busy_ms / wall_ms : 0.0);
    if (lane.hw_cycles > 0) {
      std::printf(", %llu modeled cycles", static_cast<unsigned long long>(lane.hw_cycles));
    }
    std::printf("\n");
  }
  if (wall_ms > 0.0) std::printf("parallelism  : %.2fx (lane-busy/wall)\n", busy_ms / wall_ms);

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (products[i] != bigint::mul_auto_classical(jobs[i].first, jobs[i].second)) {
      std::printf("verified     : NO (job %zu)\n", i);
      return 1;
    }
  }
  std::printf("verified     : yes\n");
  return 0;
}

int cmd_circuit(const std::string& backend_name, unsigned workers, const std::string& kind,
                unsigned width, fhe::LoweringOptions lowering) {
  if (width == 0 || width > 16) {
    std::fprintf(stderr, "error: circuit width must be in [1, 16]\n");
    return 2;
  }
  fhe::WordOp word_op = fhe::WordOp::kAdd;
  if (kind == "adder") {
    word_op = fhe::WordOp::kAdd;
  } else if (kind == "equals") {
    word_op = fhe::WordOp::kEquals;
  } else if (kind == "mul") {
    word_op = fhe::WordOp::kMultiply;
  } else if (kind == "mux") {
    word_op = fhe::WordOp::kMux;
  } else if (kind == "lt") {
    word_op = fhe::WordOp::kLessThan;
  } else {
    return usage();
  }

  // Deterministic operands derived from the width.
  const u64 x = 0xB5A3C96Du & mask_of(width);
  const u64 y = 0x6D2E84B7u & mask_of(width);

  u64 expected = 0;
  if (kind == "adder") {
    expected = (x + y) & mask_of(width + 1);
  } else if (kind == "equals") {
    expected = x == y ? 1 : 0;
  } else if (kind == "mul") {
    expected = (x * y) & mask_of(2 * width);
  } else if (kind == "mux") {
    expected = x;
  } else if (kind == "lt") {
    expected = x < y ? 1 : 0;
  } else {
    return usage();
  }

  // Record the circuit lazily against a scheme: nothing is multiplied yet.
  const auto record = [&](fhe::Dghv& scheme, fhe::Graph& graph) {
    fhe::EncryptedInt cx = fhe::encrypt_int(scheme, x, width);
    fhe::EncryptedInt cy = fhe::encrypt_int(scheme, y, width);
    const std::vector<fhe::Wire> wa = graph.inputs(cx);
    const std::vector<fhe::Wire> wb = graph.inputs(cy);
    const fhe::Wire zero = graph.input(scheme.encrypt(false));
    const fhe::Wire one = graph.input(scheme.encrypt(true));

    std::vector<fhe::Wire> outputs;
    if (kind == "adder") {
      fhe::Graph::AddResult r = graph.add(wa, wb, zero);
      outputs = std::move(r.sum);
      outputs.push_back(r.carry_out);
    } else if (kind == "equals") {
      outputs.push_back(graph.equals(wa, wb, one));
    } else if (kind == "mul") {
      outputs = graph.multiply(wa, wb, zero);
    } else if (kind == "mux") {
      outputs = graph.mux(one, wa, wb);  // select = Enc(1) -> x
    } else {
      outputs.push_back(graph.less_than(wa, wb, zero, one));
    }
    return outputs;
  };

  // The pre-execution noise audit picks the parameter set: record against
  // the fast toy scheme first, and if the analytic model says the result
  // would not decrypt, escalate to the deep noise budget *before* any
  // multiplication is spent (the word multiplier goes deep immediately --
  // its stacked adders never fit the toy budget).
  fhe::DghvParams params = kind == "mul" ? fhe::DghvParams::deep() : fhe::DghvParams::toy();
  auto scheme = std::make_unique<fhe::Dghv>(params, 0xC14C);
  auto graph = std::make_unique<fhe::Graph>(*scheme, lowering);
  std::vector<fhe::Wire> outputs = record(*scheme, *graph);
  const auto fits = [&] {
    for (const fhe::Wire w : outputs) {
      if (!graph->predicted_decryptable(w)) return false;
    }
    return true;
  };
  if (!fits() && kind != "mul") {
    std::printf("note         : predicted noise exceeds the toy budget; "
                "escalating to deep parameters\n");
    params = fhe::DghvParams::deep();
    scheme = std::make_unique<fhe::Dghv>(params, 0xC14C);
    graph = std::make_unique<fhe::Graph>(*scheme, lowering);
    outputs = record(*scheme, *graph);
  }

  // Execute wavefront by wavefront across the scheduler's PE lanes.
  core::Config config;
  config.backend_name = backend_name.empty() ? "ssa" : backend_name;
  config.num_workers = workers;
  core::Scheduler scheduler(config);
  fhe::Evaluator evaluator(scheduler);
  fhe::EvalReport report;
  fhe::EvalOptions options;
  options.check_noise = false;  // report the verdict instead of refusing
  const std::vector<fhe::Ciphertext> results =
      evaluator.evaluate(*graph, outputs, &report, options);

  const double budget = fhe::NoiseModel::budget_bits(params);
  std::printf("circuit      : %s, %u bit(s), params %s (eta=%zu, gamma=%zu)\n",
              kind.c_str(), width, params.eta == fhe::DghvParams::deep().eta ? "deep" : "toy",
              params.eta, params.gamma);
  // Predicted AND-depth under BOTH lowerings, against what the parameter
  // set supports: the caller sees the headroom each strategy would leave
  // before picking one.
  const unsigned depth_ripple = fhe::NoiseModel::predicted_depth(
      word_op, width, {fhe::LoweringStrategy::kRippleCarry});
  const unsigned depth_cs = fhe::NoiseModel::predicted_depth(
      word_op, width, {fhe::LoweringStrategy::kCarrySave});
  const unsigned max_depth = fhe::NoiseModel::max_mult_depth(params);
  std::printf("lowering     : %s\n", fhe::lowering_strategy_name(lowering.strategy).data());
  std::printf("pred. depth  : ripple %u, carry-save %u (params support max_mult_depth %u)\n",
              depth_ripple, depth_cs, max_depth);
  std::printf("backend      : %s, %u PE lane(s)\n", config.backend_name.c_str(),
              scheduler.num_workers());
  std::printf("nodes        : %zu recorded, %zu live, %zu dead (eliminated)\n",
              report.nodes, report.live_nodes, report.dead_nodes);
  std::printf("gates        : %llu AND (multiplications), %llu XOR (additions)\n",
              static_cast<unsigned long long>(report.and_gates),
              static_cast<unsigned long long>(report.xor_gates));
  std::printf("levels       : %u wavefront(s) for %llu AND gates\n", report.levels,
              static_cast<unsigned long long>(report.and_gates));
  std::printf("pred. noise  : %.1f bits (budget %.1f) -> %s\n", report.max_noise_bits,
              budget, report.decryptable ? "decryptable" : "NOT decryptable");
  for (const fhe::WavefrontStats& wf : report.wavefronts) {
    std::printf("  wave %-4u  : %3llu gates, %u lane(s), %.1f ms", wf.level,
                static_cast<unsigned long long>(wf.and_gates), wf.lanes_used, wf.wall_ms);
    if (wf.batch.total_cycles > 0) {
      std::printf(", %llu modeled cycles", static_cast<unsigned long long>(wf.batch.total_cycles));
    }
    std::printf("\n");
    if (report.spectrum_resident) {
      std::printf("               %llu spectra cached, %llu inverses paid, %llu folds, "
                  "%lld transforms avoided\n",
                  static_cast<unsigned long long>(wf.spectra_cached),
                  static_cast<unsigned long long>(wf.inverses_paid),
                  static_cast<unsigned long long>(wf.folds),
                  static_cast<long long>(wf.transforms_avoided));
    }
  }
  if (report.spectrum_resident) {
    const fhe::ResidencyStats& rs = report.residency;
    std::printf("residency    : %llu transforms executed (%llu fwd + %llu inv) vs %llu "
                "eager, %llu folds, %llu spectra evicted\n",
                static_cast<unsigned long long>(rs.transforms_executed()),
                static_cast<unsigned long long>(rs.forward_transforms),
                static_cast<unsigned long long>(rs.inverse_transforms),
                static_cast<unsigned long long>(3 * report.and_gates),
                static_cast<unsigned long long>(rs.domain_additions),
                static_cast<unsigned long long>(rs.spectra_evicted));
    std::printf("geometry     : %s points, m = %llu, largest fold %llu product(s)\n",
                util::with_commas(rs.transform_size).c_str(),
                static_cast<unsigned long long>(rs.coeff_bits),
                static_cast<unsigned long long>(rs.max_fold_products));
  }

  scheduler.wait_idle();
  const core::SchedulerStats stats = scheduler.stats();
  double busy_ms = 0.0;
  for (const core::LaneStats& lane : stats.lanes) busy_ms += lane.busy_ms;
  for (const core::LaneStats& lane : stats.lanes) {
    std::printf("  lane %-2u    : %llu jobs, %.1f ms busy (%.0f%% of lane-busy total)\n",
                lane.lane, static_cast<unsigned long long>(lane.jobs), lane.busy_ms,
                busy_ms > 0.0 ? 100.0 * lane.busy_ms / busy_ms : 0.0);
  }

  fhe::EncryptedInt out_int(results.begin(), results.end());
  const u64 decrypted = fhe::decrypt_int(*scheme, out_int);
  if (!report.decryptable) {
    // Nothing was verified, so don't report success: exit 3 keeps CI smoke
    // steps honest if a circuit builder or the noise model regresses.
    std::printf("result       : skipped (predicted noise exceeds even the deep budget;\n"
                "               the pre-execution check would veto this circuit) -> exit 3\n");
    return 3;
  }
  std::printf("result       : %llu (expect %llu) -> %s\n",
              static_cast<unsigned long long>(decrypted),
              static_cast<unsigned long long>(expected),
              decrypted == expected ? "OK" : "WRONG");
  return decrypted == expected ? 0 : 1;
}

fhe::DghvParams params_by_name(const std::string& name) {
  if (name == "toy") return fhe::DghvParams::toy();
  if (name == "medium") return fhe::DghvParams::medium();
  if (name == "deep") return fhe::DghvParams::deep();
  throw std::invalid_argument("unknown parameter set: " + name +
                              " (expected toy|medium|deep)");
}

void print_stats_json(const core::ServiceStats& stats) {
  std::printf("{\n"
              "  \"sessions\": %zu,\n"
              "  \"submitted\": %llu,\n"
              "  \"completed\": %llu,\n"
              "  \"rejected_by_noise\": %llu,\n"
              "  \"bad_requests\": %llu,\n"
              "  \"and_gates\": %llu,\n"
              "  \"wavefronts\": %llu,\n"
              "  \"batches_submitted\": %llu,\n"
              "  \"coalescing\": %.3f,\n"
              "  \"lanes\": [\n",
              stats.sessions, static_cast<unsigned long long>(stats.submitted),
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.rejected_by_noise),
              static_cast<unsigned long long>(stats.bad_requests),
              static_cast<unsigned long long>(stats.and_gates),
              static_cast<unsigned long long>(stats.wavefronts),
              static_cast<unsigned long long>(stats.batches_submitted), stats.coalescing());
  for (std::size_t i = 0; i < stats.lanes.size(); ++i) {
    const core::LaneStats& lane = stats.lanes[i];
    std::printf("    {\"lane\": %u, \"jobs\": %llu, \"busy_ms\": %.3f}%s\n", lane.lane,
                static_cast<unsigned long long>(lane.jobs), lane.busy_ms,
                i + 1 < stats.lanes.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
}

// Plays a request stream against one core::Service: parse, submit every
// request asynchronously in stream order (so independent tenants'
// wavefronts coalesce into shared scheduler batches exactly as they would
// behind a socket transport), collect, decrypt-verify against the
// plaintext result, report stats. Every request is encrypted under its
// session's keys and round-tripped through the framed wire encoding
// (core::encode_request), so the lowering-strategy byte really crosses the
// wire. Exit 0 iff every completed request verifies (noise-rejected
// requests report but do not fail); 1 on a wrong result; 2 on a malformed
// stream.
int run_stream(std::istream& in, const std::string& backend_name, unsigned workers,
               fhe::LoweringOptions lowering) {
  using Clock = std::chrono::steady_clock;

  core::ServiceOptions options;
  options.config.backend_name = backend_name.empty() ? "ssa" : backend_name;
  options.config.num_workers = workers;
  // Linger briefly at admission so the stream's requests coalesce the way
  // concurrent remote tenants would.
  options.admission_window_ms = 2.0;
  core::Service service(options);

  struct Pending {
    std::string session;
    core::CircuitSpec spec;
    u64 expected = 0;
    std::size_t line = 0;
    std::future<core::Response> future;
  };
  struct Tenant {
    core::SessionId id = 0;
    fhe::Dghv scheme;  ///< the tenant's keys; the service holds none
  };
  std::map<std::string, Tenant> sessions;
  std::vector<Pending> pending;
  std::optional<Clock::time_point> t0;  // first submission
  std::string line;
  std::size_t line_no = 0;
  try {
    while (std::getline(in, line)) {
      ++line_no;
      const std::size_t hash = line.find('#');
      if (hash != std::string::npos) line.resize(hash);
      std::istringstream words(line);
      std::string command;
      if (!(words >> command)) continue;  // blank line

      if (command == "session") {
        std::string name, params;
        u64 seed = 0;
        if (!(words >> name >> params >> seed)) {
          std::fprintf(stderr, "error: line %zu: session <name> <params> <seed>\n", line_no);
          return 2;
        }
        fhe::TenantKeys keys = fhe::tenant_keygen(params_by_name(params), seed);
        const core::SessionId id = service.create_session(std::move(keys.create));
        sessions.insert_or_assign(name, Tenant{id, std::move(keys.scheme)});
        std::printf("session %-10s : %s params, id %llu\n", name.c_str(), params.c_str(),
                    static_cast<unsigned long long>(id));
        continue;
      }
      if (command != "request") {
        std::fprintf(stderr, "error: line %zu: unknown command '%s'\n", line_no,
                     command.c_str());
        return 2;
      }

      std::string name, circuit;
      if (!(words >> name >> circuit)) {
        std::fprintf(stderr, "error: line %zu: request <session> <circuit> ...\n", line_no);
        return 2;
      }
      const auto session_it = sessions.find(name);
      if (session_it == sessions.end()) {
        std::fprintf(stderr, "error: line %zu: unknown session '%s'\n", line_no, name.c_str());
        return 2;
      }
      fhe::Dghv& scheme = session_it->second.scheme;
      const auto encode_bits = [&scheme](u64 value, unsigned width) {
        return fhe::encode_ciphertexts(fhe::encrypt_int(scheme, value, width));
      };

      Pending record;
      record.session = name;
      record.line = line_no;
      const core::CircuitKind kind = core::circuit_kind_from_name(circuit);
      if (kind == core::CircuitKind::kGraph) {
        std::fprintf(stderr,
                     "error: line %zu: 'graph' requests carry a recorded topology and are "
                     "not expressible in stream mode (use the core::Service API)\n",
                     line_no);
        return 2;
      }
      core::Request request;

      u64 x = 0, y = 0, sel = 0;
      unsigned width = 1;
      if (kind == core::CircuitKind::kAnd) {
        if (!(words >> x >> y) || x > 1 || y > 1) {
          std::fprintf(stderr, "error: line %zu: request <s> and <0|1> <0|1>\n", line_no);
          return 2;
        }
        record.expected = x & y;
        request.inputs = encode_bits(x, 1);
        const fhe::Bytes rhs = encode_bits(y, 1);
        request.inputs.insert(request.inputs.end(), rhs.begin(), rhs.end());
      } else {
        if (!(words >> width) || width == 0 || width > core::kMaxCircuitWidth) {
          std::fprintf(stderr, "error: line %zu: width must be in [1, %u]\n", line_no,
                       core::kMaxCircuitWidth);
          return 2;
        }
        if (kind == core::CircuitKind::kMux) {
          if (!(words >> sel >> x >> y) || sel > 1) {
            std::fprintf(stderr, "error: line %zu: request <s> mux <w> <sel> <x> <y>\n",
                         line_no);
            return 2;
          }
        } else if (!(words >> x >> y)) {
          std::fprintf(stderr, "error: line %zu: request <s> %s <w> <x> <y>\n", line_no,
                       circuit.c_str());
          return 2;
        }
        x &= mask_of(width);
        y &= mask_of(width);
        switch (kind) {
          case core::CircuitKind::kAdder:
            record.expected = (x + y) & mask_of(width + 1);
            break;
          case core::CircuitKind::kEquals:
            record.expected = x == y ? 1 : 0;
            break;
          case core::CircuitKind::kMul:
            record.expected = (x * y) & mask_of(2 * width);
            break;
          case core::CircuitKind::kMux:
            record.expected = sel != 0 ? x : y;
            break;
          case core::CircuitKind::kLessThan:
            record.expected = x < y ? 1 : 0;
            break;
          default:
            return usage();
        }
        if (kind == core::CircuitKind::kMux) request.inputs = encode_bits(sel, 1);
        fhe::Bytes bits = encode_bits(x, width);
        request.inputs.insert(request.inputs.end(), bits.begin(), bits.end());
        bits = encode_bits(y, width);
        request.inputs.insert(request.inputs.end(), bits.begin(), bits.end());
      }

      // One parse/validate path for kind + width + lowering: the spec. An
      // optional trailing token on the request line overrides --lowering.
      std::string per_request(fhe::lowering_strategy_name(lowering.strategy));
      if (std::string token; words >> token) per_request = token;
      record.spec = core::CircuitSpec::parse(circuit, width, per_request);
      request.spec = record.spec;

      if (!t0) t0 = Clock::now();
      record.future = service.submit(session_it->second.id,
                                     core::decode_request(core::encode_request(request)));
      pending.push_back(std::move(record));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: line %zu: %s\n", line_no, e.what());
    return 1;
  }

  bool verified = true;
  for (Pending& record : pending) {
    const core::Response response = record.future.get();
    const std::string kind = record.spec.describe();
    if (response.status == core::ResponseStatus::kRejectedByNoise) {
      std::printf("line %-4zu %-10s %-20s: rejected by noise (%s)\n", record.line,
                  record.session.c_str(), kind.c_str(), response.error.c_str());
      continue;
    }
    if (!response.ok()) {
      std::printf("line %-4zu %-10s %-20s: BAD REQUEST (%s)\n", record.line,
                  record.session.c_str(), kind.c_str(), response.error.c_str());
      verified = false;
      continue;
    }
    const fhe::Dghv& scheme = sessions.at(record.session).scheme;
    const std::vector<fhe::Ciphertext> outputs = fhe::decode_ciphertexts(response.outputs);
    const u64 value = fhe::decrypt_int(scheme, outputs);
    const bool ok = value == record.expected;
    verified = verified && ok;
    std::printf(
        "line %-4zu %-10s %-20s: %llu (expect %llu) %s  [%llu gates, %u levels, %llu shared "
        "batches, %.1f ms]\n",
        record.line, record.session.c_str(), kind.c_str(), static_cast<unsigned long long>(value),
        static_cast<unsigned long long>(record.expected), ok ? "OK" : "WRONG",
        static_cast<unsigned long long>(response.and_gates), response.levels,
        static_cast<unsigned long long>(response.shared_batches),
        response.queue_ms + response.exec_ms);
  }
  const double wall_ms =
      t0 ? std::chrono::duration<double, std::milli>(Clock::now() - *t0).count() : 0.0;
  service.wait_idle();

  const core::ServiceStats stats = service.stats();
  std::printf("\n-- service stats --\n");
  print_stats_json(stats);
  const u64 requests = stats.submitted;
  std::printf("backend      : %s, %u PE lane(s)\n", options.config.backend_name.c_str(),
              service.scheduler().num_workers());
  std::printf("wall time    : %.1f ms (%.1f requests/s)\n", wall_ms,
              wall_ms > 0.0 ? 1000.0 * static_cast<double>(requests) / wall_ms : 0.0);
  std::printf("batches      : %llu scheduler batch(es) for %llu requests -> %s\n",
              static_cast<unsigned long long>(stats.batches_submitted),
              static_cast<unsigned long long>(requests),
              stats.batches_submitted < requests ? "coalesced across tenants"
                                                 : "no cross-request sharing");
  for (const auto& [name, session] : sessions) {
    const core::TenantStats tenant = service.tenant_stats(session.id);
    std::printf("  session %-10s: %llu completed, %llu gates, %llu B in / %llu B out\n",
                name.c_str(), static_cast<unsigned long long>(tenant.completed),
                static_cast<unsigned long long>(tenant.and_gates),
                static_cast<unsigned long long>(tenant.bytes_in),
                static_cast<unsigned long long>(tenant.bytes_out));
  }
  std::printf("verified     : %s\n", verified ? "yes" : "NO");
  return verified ? 0 : 1;
}

int cmd_serve(const std::string& path, const std::string& backend_name, unsigned workers,
              fhe::LoweringOptions lowering) {
  if (path.empty()) return run_stream(std::cin, backend_name, workers, lowering);
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return 1;
  }
  return run_stream(file, backend_name, workers, lowering);
}

// A synthetic multi-tenant load as a generated stream: one toy session per
// tenant, then single-AND requests (the accelerator's unit of work)
// round-robin across tenants.
int cmd_service(const std::string& backend_name, unsigned workers, unsigned tenants,
                unsigned requests_per_tenant, fhe::LoweringOptions lowering) {
  if (tenants == 0 || requests_per_tenant == 0) {
    std::fprintf(stderr, "error: tenants and requests-per-tenant must be >= 1\n");
    return 2;
  }
  std::ostringstream stream;
  for (unsigned t = 0; t < tenants; ++t) {
    stream << "session t" << t << " toy " << 0x5E55 + t << '\n';
  }
  for (unsigned r = 0; r < requests_per_tenant; ++r) {
    for (unsigned t = 0; t < tenants; ++t) {
      stream << "request t" << t << " and " << ((t + r) % 2 == 0) << ' '
             << ((t * 3 + r) % 3 != 0) << '\n';
    }
  }
  std::istringstream in(stream.str());
  return run_stream(in, backend_name, workers, lowering);
}

// Drives a remote fleet (a hemul_router or a single hemul_shard -- both
// speak the same envelope protocol) with multiply traffic, verifying every
// decrypted product against the plaintext result. The tenant-side key
// contexts are rebuilt from the key material the service ships back, so
// this exercises the full remote path: create-session RPC, serialized
// requests, and responses decrypted with nothing but wire bytes.
int cmd_fleet(const std::string& address, unsigned tenants, unsigned requests_per_tenant,
              fhe::LoweringOptions lowering, bool require_coalescing, double deadline_ms,
              unsigned retries) {
  using Clock = std::chrono::steady_clock;
  if (tenants == 0 || requests_per_tenant == 0) {
    std::fprintf(stderr, "error: tenants and requests-per-tenant must be >= 1\n");
    return 2;
  }
  constexpr unsigned kWidth = 2;  // 2x2 multiply: fits the toy noise budget

  net::ShardClient::Options client_options;
  client_options.deadline_ms = deadline_ms;
  net::ShardClient client(address, client_options);

  struct Tenant {
    core::SessionId session = 0;
    std::optional<fhe::Dghv> scheme;
  };
  std::vector<Tenant> fleet_tenants(tenants);
  for (unsigned t = 0; t < tenants; ++t) {
    net::ShardClient::SessionKeys keys =
        client.create_session(fhe::DghvParams::toy(), 0x5E55 + t);
    fleet_tenants[t].session = keys.session;
    fleet_tenants[t].scheme.emplace(std::move(keys.public_key), std::move(keys.secret_key),
                                    /*seed=*/0xC11E00 + t);
  }

  struct Issued {
    unsigned tenant = 0;
    u64 expected = 0;
    fhe::Bytes encoded;  ///< the request frame, kept for overload resubmits
    std::future<core::Response> future;
  };
  std::vector<Issued> issued;
  issued.reserve(static_cast<std::size_t>(tenants) * requests_per_tenant);

  const auto t0 = Clock::now();
  for (unsigned r = 0; r < requests_per_tenant; ++r) {
    for (unsigned t = 0; t < tenants; ++t) {
      fhe::Dghv& scheme = *fleet_tenants[t].scheme;
      const u64 x = (t + r) % (1u << kWidth);
      const u64 y = (t * 3 + r * 5) % (1u << kWidth);
      core::Request request;
      request.spec = core::CircuitSpec{core::CircuitKind::kMul, kWidth, lowering};
      std::vector<fhe::Ciphertext> inputs = fhe::encrypt_int(scheme, x, kWidth);
      const std::vector<fhe::Ciphertext> ys = fhe::encrypt_int(scheme, y, kWidth);
      inputs.insert(inputs.end(), ys.begin(), ys.end());
      request.inputs = fhe::encode_ciphertexts(inputs);
      fhe::Bytes encoded = core::encode_request(request);
      Issued item;
      item.tenant = t;
      item.expected = x * y;
      item.future = client.submit_raw(fleet_tenants[t].session, encoded);
      item.encoded = std::move(encoded);
      issued.push_back(std::move(item));
    }
  }

  bool verified = true;
  u64 resubmitted = 0;
  u64 timed_out = 0;
  for (Issued& item : issued) {
    core::Response response = item.future.get();
    // Overload sheds are explicitly safe to resubmit (the request never
    // entered the queue) -- and so is everything else in THIS command's
    // traffic: the multiplies are pure and the client holds the keys, so a
    // duplicate execution after a timeout or failover blip changes nothing
    // a tenant can observe. Pace the replays by the server's own hint.
    const auto retryable = [](core::ResponseStatus status) {
      return status == core::ResponseStatus::kOverloaded ||
             status == core::ResponseStatus::kUnavailable ||
             status == core::ResponseStatus::kTimeout ||
             status == core::ResponseStatus::kExpired;
    };
    for (unsigned attempt = 0; attempt < retries && retryable(response.status);
         ++attempt) {
      if (response.status == core::ResponseStatus::kTimeout ||
          response.status == core::ResponseStatus::kExpired) {
        ++timed_out;
      }
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          std::max(response.retry_after_ms, 1.0)));
      ++resubmitted;
      response = client.submit_raw(fleet_tenants[item.tenant].session, item.encoded).get();
    }
    if (response.status == core::ResponseStatus::kTimeout ||
        response.status == core::ResponseStatus::kExpired) {
      ++timed_out;
    }
    if (!response.ok()) {
      std::fprintf(stderr, "request failed (%u): %s\n",
                   static_cast<unsigned>(response.status), response.error.c_str());
      verified = false;
      continue;
    }
    const fhe::Dghv& scheme = *fleet_tenants[item.tenant].scheme;
    const std::vector<fhe::Ciphertext> outputs = fhe::decode_ciphertexts(response.outputs);
    if (outputs.size() != 2 * kWidth ||
        fhe::decrypt_int(scheme, outputs) != item.expected) {
      verified = false;
    }
  }
  const double wall_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

  const net::FleetStats fleet = client.stats();
  const core::ServiceStats total = fleet.aggregate();
  std::printf("fleet        : %s, %zu shard(s)\n", address.c_str(), fleet.shards.size());
  std::printf("tenants      : %u x %u %u-bit multiply request(s), %s lowering\n", tenants,
              requests_per_tenant, kWidth,
              std::string(fhe::lowering_strategy_name(lowering.strategy)).c_str());
  std::printf("wall time    : %.1f ms (%.1f requests/s)\n", wall_ms,
              wall_ms > 0.0 ? 1000.0 * static_cast<double>(issued.size()) / wall_ms : 0.0);
  std::printf("coalescing   : %.2f requests/batch mean (%llu batches)\n", total.coalescing(),
              static_cast<unsigned long long>(total.batches_submitted));
  std::printf("shed         : %llu request(s), %llu resubmitted, %llu overdue\n",
              static_cast<unsigned long long>(total.shed),
              static_cast<unsigned long long>(resubmitted),
              static_cast<unsigned long long>(timed_out));
  std::printf("failover     : %llu session(s) re-homed, %llu router retries, %llu probes\n",
              static_cast<unsigned long long>(fleet.sessions_rehomed),
              static_cast<unsigned long long>(fleet.retries),
              static_cast<unsigned long long>(fleet.probes_sent));
  for (const net::ShardStats& shard : fleet.shards) {
    std::printf("  shard %-21s: %s, %llu completed, %llu gates, %zu session(s)\n",
                shard.address.c_str(),
                std::string(net::shard_state_name(shard.state)).c_str(),
                static_cast<unsigned long long>(shard.service.completed),
                static_cast<unsigned long long>(shard.service.and_gates),
                shard.service.sessions);
  }
  std::printf("verified     : %s\n", verified ? "yes" : "NO");
  if (require_coalescing && !(total.coalescing() > 1.0)) {
    std::fprintf(stderr, "error: --require-coalescing set but coalescing %.2f <= 1.0\n",
                 total.coalescing());
    return 1;
  }
  return verified ? 0 : 1;
}

int cmd_table1() {
  std::printf("%s", hw::ResourceComparison::paper().render_table().c_str());
  return 0;
}

int cmd_perf(unsigned pes) {
  hw::PerfParams params = hw::PerfParams::paper();
  params.num_pes = pes;
  const hw::PerfBreakdown b = hw::evaluate_perf(params);
  std::printf("P = %u, plan %s, T_C = %.1f ns\n", pes, params.plan.describe().c_str(),
              params.clock_ns);
  std::printf("T_FFT     = %.2f us\n", b.fft_us());
  std::printf("T_DOTPROD = %.2f us\n", b.dotprod_us());
  std::printf("T_CARRY   = %.2f us\n", b.carry_us());
  std::printf("T_MULT    = %.2f us\n", b.mult_us());
  std::printf("streamed  = %.1f products/s\n", b.mults_per_second());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);

  std::string backend_name;  // empty = config default ("hw")
  unsigned workers = 0;      // 0 = one scheduler lane per hardware thread
  bool require_coalescing = false;  // fleet: fail unless batches were shared
  bool lowering_given = false;
  double deadline_ms = 0.0;  // fleet: per-request budget (0 = none)
  unsigned retries = 2;      // fleet: resubmits of kOverloaded sheds
  hemul::fhe::LoweringOptions lowering;  // default: ripple-carry
  for (std::size_t i = 0; i < args.size();) {
    if (args[i] == "--require-coalescing") {
      require_coalescing = true;
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (args[i] == "--backend" && i + 1 < args.size()) {
      backend_name = args[i + 1];
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
    } else if (args[i] == "--workers" && i + 1 < args.size()) {
      workers = static_cast<unsigned>(std::strtoul(args[i + 1].c_str(), nullptr, 10));
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
    } else if (args[i] == "--deadline-ms" && i + 1 < args.size()) {
      deadline_ms = std::strtod(args[i + 1].c_str(), nullptr);
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
    } else if (args[i] == "--retries" && i + 1 < args.size()) {
      retries = static_cast<unsigned>(std::strtoul(args[i + 1].c_str(), nullptr, 10));
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
    } else if (args[i] == "--lowering" && i + 1 < args.size()) {
      try {
        lowering.strategy = hemul::fhe::lowering_strategy_from_name(args[i + 1]);
        lowering_given = true;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
      }
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
    } else {
      ++i;
    }
  }
  if (args.empty()) return usage();

  const std::string cmd = args[0];
  try {
    if (cmd == "backends" && args.size() == 1) return cmd_backends();
    if (cmd == "mul" && args.size() == 3) return cmd_mul(backend_name, args[1], args[2]);
    if (cmd == "random" && args.size() == 2) {
      return cmd_random(backend_name, std::strtoull(args[1].c_str(), nullptr, 10));
    }
    if (cmd == "batch" && args.size() == 3) {
      return cmd_batch(backend_name, std::strtoull(args[1].c_str(), nullptr, 10),
                       std::strtoull(args[2].c_str(), nullptr, 10));
    }
    if (cmd == "throughput" && args.size() == 3) {
      return cmd_throughput(backend_name, workers, std::strtoull(args[1].c_str(), nullptr, 10),
                            std::strtoull(args[2].c_str(), nullptr, 10));
    }
    if (cmd == "circuit" && (args.size() == 2 || args.size() == 3)) {
      const unsigned width = args.size() == 3
                                 ? static_cast<unsigned>(std::strtoul(args[2].c_str(), nullptr, 10))
                                 : 4;
      return cmd_circuit(backend_name, workers, args[1], width, lowering);
    }
    if (cmd == "serve" && (args.size() == 1 || (args.size() == 2 && args[1][0] != '-'))) {
      return cmd_serve(args.size() == 2 ? args[1] : "", backend_name, workers, lowering);
    }
    if (cmd == "service" && args.size() == 3) {
      return cmd_service(backend_name, workers,
                         static_cast<unsigned>(std::strtoul(args[1].c_str(), nullptr, 10)),
                         static_cast<unsigned>(std::strtoul(args[2].c_str(), nullptr, 10)),
                         lowering);
    }
    if (cmd == "fleet" && args.size() == 4) {
      // fleet defaults to carry-save: a ripple-lowered 2-bit multiply is
      // deeper than the toy noise budget allows, carry-save fits.
      if (!lowering_given) {
        lowering.strategy = hemul::fhe::LoweringStrategy::kCarrySave;
      }
      return cmd_fleet(args[1], static_cast<unsigned>(std::strtoul(args[2].c_str(), nullptr, 10)),
                       static_cast<unsigned>(std::strtoul(args[3].c_str(), nullptr, 10)),
                       lowering, require_coalescing, deadline_ms, retries);
    }
    if (cmd == "table1" && args.size() == 1) return cmd_table1();
    if (cmd == "perf") {
      return cmd_perf(args.size() >= 2 ? static_cast<unsigned>(std::atoi(args[1].c_str())) : 4);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
