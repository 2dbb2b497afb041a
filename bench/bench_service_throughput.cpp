// Experiment SV1: multi-tenant serving throughput and cross-request
// wavefront coalescing.
//
// The serving layer only earns its keep if independent tenants' requests
// share the accelerator instead of queueing behind one another. This bench
// sweeps tenant count x PE-lane count over a synthetic workload (each
// tenant submits single-multiply requests through the full wire path:
// encrypt -> serialize -> Service -> deserialize -> decrypt) and reports
// requests/sec plus the headline coalescing ratio: scheduler batches
// submitted vs requests served. It also proves the wire path is lossless:
// for every registered backend, a served request's output ciphertexts are
// compared bit for bit against in-process evaluation of the same graph.
//
//   bench_service_throughput [--tenants t1,t2,...] [--requests N]
//                            [--workers w1,w2,...] [--json FILE]
//     defaults: tenants 1,2,4,8; 2 requests per tenant; workers 1,2
//
// Exit code 0 iff every decrypted result matches the plaintext
// computation AND the per-backend parity check is bit-exact.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "backend/registry.hpp"
#include "fhe/circuits.hpp"
#include "fhe/evaluator.hpp"
#include "fhe/serialize.hpp"
#include "fhe/session.hpp"
#include "service/service.hpp"

namespace {

using namespace hemul;
using Clock = std::chrono::steady_clock;

struct Sample {
  unsigned workers = 0;
  unsigned tenants = 0;
  u64 requests = 0;
  double wall_ms = 0.0;
  double requests_per_sec = 0.0;
  u64 batches_submitted = 0;
  double coalescing = 0.0;  ///< mean requests sharing one scheduler batch
  bool coalesced = false;   ///< batches_submitted < requests
  /// NTT executions the spectrum-resident rounds spent / saved. Both are
  /// deterministic functions of the workload (counted on the coordinator,
  /// never from lane timing).
  u64 transforms_executed = 0;
  i64 transforms_avoided = 0;
};

std::vector<unsigned> parse_list(const char* text) {
  std::vector<unsigned> values;
  for (const char* p = text; *p != '\0';) {
    char* end = nullptr;
    const unsigned long value = std::strtoul(p, &end, 10);
    if (end == p) break;
    if (value > 0) values.push_back(static_cast<unsigned>(value));
    p = *end == ',' ? end + 1 : end;
  }
  return values;
}

/// One sweep cell: `tenants` sessions each submitting `requests_per_tenant`
/// single-multiply (AND) requests through the serialized path.
Sample run_cell(unsigned workers, unsigned tenants, unsigned requests_per_tenant,
                bool* verified, double window_ms = 2.0) {
  core::ServiceOptions options;
  options.config.backend_name = "ssa";
  options.config.num_workers = workers;
  options.admission_window_ms = window_ms;
  core::Service service(options);

  // Each tenant keeps its keys; the service gets only the evaluation
  // material.
  std::vector<core::SessionId> sessions;
  std::vector<fhe::Dghv> schemes;
  sessions.reserve(tenants);
  schemes.reserve(tenants);
  for (unsigned t = 0; t < tenants; ++t) {
    fhe::TenantKeys keys = fhe::tenant_keygen(fhe::DghvParams::toy(), 0xBE7C + t);
    sessions.push_back(service.create_session(std::move(keys.create)));
    schemes.push_back(std::move(keys.scheme));
  }

  // Encrypt and serialize outside the timed region: the bench measures the
  // serving layer, not the clients' key setup.
  struct Prepared {
    unsigned tenant;
    bool expected;
    core::Request request;
  };
  std::vector<Prepared> prepared;
  prepared.reserve(static_cast<std::size_t>(tenants) * requests_per_tenant);
  for (unsigned r = 0; r < requests_per_tenant; ++r) {
    for (unsigned t = 0; t < tenants; ++t) {
      fhe::Dghv& scheme = schemes[t];
      const bool x = (t + r) % 2 == 0;
      const bool y = (t + 2 * r) % 3 != 0;
      core::Request request;
      request.spec.kind = core::CircuitKind::kAnd;
      request.inputs = fhe::encode_ciphertexts(
          std::vector<fhe::Ciphertext>{scheme.encrypt(x), scheme.encrypt(y)});
      prepared.push_back({t, x && y, std::move(request)});
    }
  }

  const auto t0 = Clock::now();
  std::vector<std::future<core::Response>> futures;
  futures.reserve(prepared.size());
  for (Prepared& p : prepared) {
    futures.push_back(service.submit(sessions[p.tenant], std::move(p.request)));
  }
  std::vector<core::Response> responses;
  responses.reserve(futures.size());
  for (auto& future : futures) responses.push_back(future.get());
  const double wall_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

  for (std::size_t i = 0; i < responses.size(); ++i) {
    const core::Response& response = responses[i];
    if (!response.ok()) {
      *verified = false;
      continue;
    }
    const std::vector<fhe::Ciphertext> outputs = fhe::decode_ciphertexts(response.outputs);
    const fhe::Dghv& scheme = schemes[prepared[i].tenant];
    if (outputs.size() != 1 || scheme.decrypt(outputs[0]) != prepared[i].expected) {
      *verified = false;
    }
  }

  const core::ServiceStats stats = service.stats();
  Sample sample;
  sample.workers = service.scheduler().num_workers();
  sample.tenants = tenants;
  sample.requests = stats.submitted;
  sample.wall_ms = wall_ms;
  sample.requests_per_sec =
      wall_ms > 0.0 ? 1000.0 * static_cast<double>(stats.submitted) / wall_ms : 0.0;
  sample.batches_submitted = stats.batches_submitted;
  sample.coalescing = stats.coalescing();
  sample.coalesced = stats.batches_submitted < stats.submitted;
  sample.transforms_executed = stats.transforms_executed;
  sample.transforms_avoided = stats.transforms_avoided;
  return sample;
}

/// Wire-path parity: serialize -> evaluate -> deserialize through a Service
/// whose lanes run `name` must be bit-exact against in-process evaluation
/// of the same graph on a fresh `name` engine.
bool backend_parity(const std::string& name) {
  core::ServiceOptions options;
  options.config.backend_name = name;
  options.config.num_workers = 1;
  core::Service service(options);
  fhe::TenantKeys keys = fhe::tenant_keygen(fhe::DghvParams::toy(), 0xAB);
  const core::SessionId session = service.create_session(keys.create);
  fhe::Dghv& scheme = keys.scheme;

  fhe::Graph graph(scheme);
  const fhe::Ciphertext ca = scheme.encrypt(true);
  const fhe::Ciphertext cb = scheme.encrypt(true);
  const fhe::Ciphertext cc = scheme.encrypt(false);
  const fhe::Wire a = graph.input(ca);
  const fhe::Wire b = graph.input(cb);
  const fhe::Wire c = graph.input(cc);
  const std::vector<fhe::Wire> outputs = {graph.gate_and(graph.gate_and(a, b),
                                                         graph.gate_xor(b, c))};

  core::Request request;
  request.spec.kind = core::CircuitKind::kGraph;
  request.graph = fhe::encode_graph(fhe::GraphTopology::capture(graph, outputs));
  request.inputs = fhe::encode_ciphertexts(std::vector<fhe::Ciphertext>{ca, cb, cc});
  const core::Response response = service.submit(session, std::move(request)).get();
  if (!response.ok()) return false;

  fhe::Evaluator evaluator(backend::make_backend(name));
  const std::vector<fhe::Ciphertext> direct = evaluator.evaluate(graph, outputs);
  const std::vector<fhe::Ciphertext> remote = fhe::decode_ciphertexts(response.outputs);
  return remote.size() == direct.size() && remote[0].value == direct[0].value;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<unsigned> tenant_counts = {1, 2, 4, 8};
  std::vector<unsigned> worker_counts = {1, 2};
  unsigned requests_per_tenant = 2;
  std::string json_path;

  bool usage_error = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--tenants") == 0 && i + 1 < argc) {
      tenant_counts = parse_list(argv[++i]);
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      worker_counts = parse_list(argv[++i]);
    } else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      requests_per_tenant = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else {
      usage_error = true;
    }
  }
  if (usage_error || tenant_counts.empty() || worker_counts.empty() ||
      requests_per_tenant == 0) {
    std::fprintf(stderr,
                 "usage: bench_service_throughput [--tenants t1,t2,...] [--requests N] "
                 "[--workers w1,w2,...] [--json FILE]\n");
    return 2;
  }

  std::printf("== service throughput: single-multiply tenants through the wire path ==\n");
  std::printf("   host hardware threads: %u\n\n", std::thread::hardware_concurrency());

  bool verified = true;
  std::vector<Sample> samples;
  for (const unsigned workers : worker_counts) {
    for (const unsigned tenants : tenant_counts) {
      const Sample s = run_cell(workers, tenants, requests_per_tenant, &verified);
      std::printf(
          "  workers %-2u tenants %-3u : %4llu requests  %8.1f ms  %8.1f req/s  "
          "%3llu batches (%.2f req/batch)%s\n",
          s.workers, s.tenants, static_cast<unsigned long long>(s.requests), s.wall_ms,
          s.requests_per_sec, static_cast<unsigned long long>(s.batches_submitted),
          s.coalescing, s.coalesced ? "  [coalesced]" : "");
      samples.push_back(s);
    }
  }

  // The acceptance bar rides on the 8-tenant single-request case: more
  // requests than scheduler batches proves cross-request sharing. This
  // cell feeds a hard CI metric, so its admission window is generous: the
  // 8 submits take microseconds, and 50 ms absorbs any scheduling hiccup
  // a loaded runner throws at the submitting thread.
  bool verified_solo = true;
  const Sample headline =
      run_cell(worker_counts.back(), 8, 1, &verified_solo, /*window_ms=*/50.0);
  verified = verified && verified_solo;
  std::printf("\n  headline (8 tenants x 1 multiply, %u lanes): %llu batches for %llu "
              "requests -> %s\n",
              headline.workers, static_cast<unsigned long long>(headline.batches_submitted),
              static_cast<unsigned long long>(headline.requests),
              headline.coalesced ? "coalesced" : "NOT coalesced");
  std::printf("  headline transforms: %llu executed, %lld avoided (spectrum-resident rounds)\n",
              static_cast<unsigned long long>(headline.transforms_executed),
              static_cast<long long>(headline.transforms_avoided));

  std::printf("\n  wire-path parity vs in-process evaluation:\n");
  bool parity = true;
  std::vector<std::pair<std::string, bool>> parity_results;
  for (const std::string& name : backend::Registry::instance().names()) {
    const bool ok = backend_parity(name);
    parity = parity && ok;
    parity_results.emplace_back(name, ok);
    std::printf("    %-12s: %s\n", name.c_str(), ok ? "bit-exact" : "MISMATCH");
  }
  std::printf("\n  verified    : %s\n", verified && parity ? "yes" : "NO");

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out,
                 "{\n  \"bench\": \"service_throughput\",\n  \"backend\": \"ssa\",\n"
                 "  \"requests_per_tenant\": %u,\n  \"hardware_concurrency\": %u,\n"
                 "  \"bit_exact\": %s,\n"
                 "  \"headline_requests\": %llu,\n  \"headline_batches\": %llu,\n"
                 "  \"headline_coalesced\": %s,\n"
                 "  \"headline_transforms_executed\": %llu,\n"
                 "  \"headline_transforms_avoided\": %lld,\n  \"parity\": {",
                 requests_per_tenant, std::thread::hardware_concurrency(),
                 verified ? "true" : "false",
                 static_cast<unsigned long long>(headline.requests),
                 static_cast<unsigned long long>(headline.batches_submitted),
                 headline.coalesced ? "true" : "false",
                 static_cast<unsigned long long>(headline.transforms_executed),
                 static_cast<long long>(headline.transforms_avoided));
    for (std::size_t i = 0; i < parity_results.size(); ++i) {
      std::fprintf(out, "%s\"%s\": %s", i == 0 ? "" : ", ", parity_results[i].first.c_str(),
                   parity_results[i].second ? "true" : "false");
    }
    std::fprintf(out, "},\n  \"results\": [\n");
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const Sample& s = samples[i];
      std::fprintf(out,
                   "    {\"workers\": %u, \"tenants\": %u, \"requests\": %llu, "
                   "\"wall_ms\": %.3f, \"requests_per_sec\": %.3f, \"batches\": %llu, "
                   "\"coalescing\": %.3f, \"transforms_executed\": %llu, "
                   "\"transforms_avoided\": %lld}%s\n",
                   s.workers, s.tenants, static_cast<unsigned long long>(s.requests),
                   s.wall_ms, s.requests_per_sec,
                   static_cast<unsigned long long>(s.batches_submitted), s.coalescing,
                   static_cast<unsigned long long>(s.transforms_executed),
                   static_cast<long long>(s.transforms_avoided),
                   i + 1 < samples.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("  json        : %s\n", json_path.c_str());
  }

  return verified && parity ? 0 : 1;
}
