// The traced run: per-layer costs measured from outside the program by
// timing calls into each layer's public API. Sampled requests are replayed
// through successively lower entry points -- router, direct shard,
// in-process Service, Evaluator -- so adjacent paths give a layer's self
// time, and every path's output must match bit for bit.

#include <map>

#include "backend/ssa_backend.hpp"
#include "fhe/evaluator.hpp"
#include "fhe/noise.hpp"
#include "fhe/serialize.hpp"
#include "hw/perf/perf_model.hpp"
#include "ntt/four_step.hpp"
#include "report.hpp"
#include "ssa/params.hpp"
#include "ssa/resident.hpp"

namespace fleetbench {

namespace {

template <typename Fn>
double time_ms(Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return ms_since(start);
}

fhe::WordOp word_op(core::CircuitKind kind) {
  switch (kind) {
    case core::CircuitKind::kAdder: return fhe::WordOp::kAdd;
    case core::CircuitKind::kEquals: return fhe::WordOp::kEquals;
    case core::CircuitKind::kMul: return fhe::WordOp::kMultiply;
    case core::CircuitKind::kMux: return fhe::WordOp::kMux;
    case core::CircuitKind::kLessThan: return fhe::WordOp::kLessThan;
    default: return fhe::WordOp::kAnd;
  }
}

/// Σ LaneStats::busy_ms over every shard, and the lane count.
std::pair<double, std::size_t> lane_busy_ms(Fleet& fleet) {
  double busy = 0.0;
  std::size_t lanes = 0;
  for (std::size_t s = 0; s < fleet.shard_count(); ++s) {
    for (const core::LaneStats& lane : fleet.service(s).stats().lanes) {
      busy += lane.busy_ms;
      ++lanes;
    }
  }
  return {busy, lanes};
}

/// Deterministic counts of the replayed requests: they repeat exactly for a
/// given seed, and the fingerprint covers every request frame and every
/// response's output ciphertexts.
struct Ledger {
  u64 requests = 0;
  u64 and_gates = 0;
  u64 levels = 0;
  u64 transforms_executed = 0;
  i64 transforms_avoided = 0;
  u64 request_bytes = 0;
  u64 response_bytes = 0;
  u64 key_bytes = 0;
  u64 fingerprint = 0xCBF29CE484222325ull;  // FNV-1a

  void hash(const fhe::Bytes& bytes) {
    for (const u8 b : bytes) fingerprint = (fingerprint ^ b) * 0x100000001B3ull;
  }

  [[nodiscard]] std::string json() const {
    char fp[24];
    std::snprintf(fp, sizeof fp, "%016llx", static_cast<unsigned long long>(fingerprint));
    return "{\"requests\": " + std::to_string(requests) +
           ", \"and_gates\": " + std::to_string(and_gates) +
           ", \"levels\": " + std::to_string(levels) +
           ", \"transforms_executed\": " + std::to_string(transforms_executed) +
           ", \"transforms_avoided\": " + std::to_string(transforms_avoided) +
           ", \"request_bytes\": " + std::to_string(request_bytes) +
           ", \"response_bytes\": " + std::to_string(response_bytes) +
           ", \"key_bytes\": " + std::to_string(key_bytes) + ", \"fingerprint\": \"" + fp +
           "\"}";
  }
};

using Samples = std::map<std::string, std::vector<double>>;

/// Times the layers under one homomorphic AND on a request's first two
/// input ciphertexts: Dghv::multiply, and below it the SSA product, the
/// reduction modulo x0, the spectrum phases and one NTT.
void time_gate(const fhe::Dghv& scheme, backend::SsaBackend& engine, const fhe::Ciphertext& a,
               const fhe::Ciphertext& b, Samples& samples, Report& report) {
  const bigint::BigUInt& x0 = scheme.public_key().x0;
  fhe::Ciphertext gate;
  samples["fhe.gate_ms"].push_back(time_ms([&] { gate = scheme.multiply(a, b); }));
  bigint::BigUInt product;
  bigint::BigUInt reduced;
  samples["ssa.multiply_ms"].push_back(
      time_ms([&] { product = engine.multiply(a.value, b.value); }));
  const double reduce_ms = time_ms([&] { reduced = product % x0; });
  samples["bigint.reduce_ms"].push_back(reduce_ms);
  // The share from back-to-back calls, so host speed drift between samples
  // does not enter the ratio.
  samples["bigint.reduce_share"].push_back(reduce_ms / samples["fhe.gate_ms"].back());
  if (reduced != gate.value) report.fail("Dghv::multiply differs from the SSA product mod x0");

  // The service's spectrum-resident parameters for this modulus.
  const ssa::SsaParams params =
      ssa::SsaParams::for_bits(x0.bit_length(), ssa::kResidentHeadroomBits);
  ssa::SpectrumHandle fa;
  samples["ssa.forward_ms"].push_back(
      time_ms([&] { fa = engine.forward_spectrum(a.value, params); }));
  const ssa::SpectrumHandle fb = engine.forward_spectrum(b.value, params);
  const ssa::SpectrumHandle fab = engine.multiply_spectra(fa, fb, params);
  bigint::BigUInt materialized;
  samples["ssa.materialize_ms"].push_back(
      time_ms([&] { materialized = engine.materialize_spectrum(*fab, params); }));
  if (materialized != product) report.fail("materialized spectrum differs from the product");

  // The engine-order forward transform the SSA path runs, at this length.
  const ntt::FourStepNtt ntt(params.transform_size);
  fp::FpVec data(params.transform_size);
  fp::FpVec scratch;
  util::Rng rng(params.transform_size);
  for (fp::Fp& x : data) x = fp::Fp(rng.next());
  samples["ntt.forward_ms"].push_back(time_ms([&] { ntt.forward_spectrum(data, scratch); }));
}

/// Replays sampled requests of the workload down the stack.
void replay(Deployment& d, const RunOptions& options, Samples& samples, Ledger& ledger,
            Report& report) {
  const WorkloadConfig& config = d.config;
  core::Service local(service_options(config));  // the in-process reference
  auto engine = std::make_shared<backend::SsaBackend>();

  for (unsigned j = 0; j < config.replay_tenants; ++j) {
    Client& client = d.clients[j % d.clients.size()];
    // Through the router: the client's own tenant, or a fresh churned session.
    Tenant churned;
    const Tenant* tenant = &client.tenant;
    if (config.churn()) {
      double create_ms = 0.0;
      churned = open_tenant(*client.connection, config, mix(mix(options.seed, 0xC4E9ull), j),
                            d.fleet->shard_count(), &create_ms);
      tenant = &churned;
    }
    const u64 key_seed = tenant->key_seed;

    // The same session (same seed, so the same keys) on the owning shard
    // directly, on the in-process service, and as a bare key context.
    net::ShardClient direct(d.fleet->shard_address(tenant->shard),
                            net::ShardClient::Options{kCallDeadlineMs});
    net::ShardClient::SessionKeys direct_keys;
    const double direct_create_ms =
        time_ms([&] { direct_keys = direct.create_session(config.params, key_seed); });
    core::SessionId local_session = 0;
    const double local_create_ms =
        time_ms([&] { local_session = local.create_session(config.params, key_seed); });
    samples["net.create_ms"].push_back(direct_create_ms - local_create_ms);
    std::unique_ptr<fhe::Dghv> ref;
    samples["fhe.keygen_ms"].push_back(time_ms(
        [&] { ref = std::make_unique<fhe::Dghv>(config.params, key_seed, engine); }));
    // The session's constant wires, drawn in the order the service draws them.
    const fhe::Ciphertext zero = ref->encrypt(false);
    const fhe::Ciphertext one = ref->encrypt(true);
    if (ref->public_key().x0 != tenant->scheme->public_key().x0 ||
        direct_keys.public_key.x0 != ref->public_key().x0) {
      report.fail("session keys differ between the router, the shard and keygen");
    }
    direct_keys.public_key = {};
    ledger.key_bytes += fhe::encode_public_key(ref->public_key()).size() +
                        fhe::encode_secret_key(ref->secret_key()).size();

    const u64 constant_value = tenant_constant(options.seed, j);
    std::vector<fhe::Ciphertext> constant;
    if (config.kind == Kind::kCircuitMix) {
      constant = fhe::encrypt_int(*ref, constant_value, kConstantWidth);
    }
    JobStream stream(config, mix(options.seed, 0x4E91A7ull), j, constant_value);

    for (unsigned r = 0; r < config.replay_per_tenant; ++r) {
      const Job job = stream.next();
      const u64 checks_failed_before = report.checks_failed;
      const core::Request request = encrypt_job(*ref, job, constant);
      const std::string what = job.spec.describe();

      fhe::Bytes frame;
      std::vector<fhe::Ciphertext> inputs;
      double codec_ms = time_ms([&] {
        frame = core::encode_request(request);
        inputs = fhe::decode_ciphertexts(core::decode_request(frame).inputs);
      });

      core::Response via_router;
      core::Response via_shard;
      core::Response via_service;
      // Alternate which of the two network paths runs first, so neither
      // always meets the shard in the state the other left it in.
      double router_ms = 0.0;
      double shard_ms = 0.0;
      const auto run_router = [&] {
        router_ms = time_ms(
            [&] { via_router = client.connection->submit(tenant->session, request).get(); });
      };
      const auto run_shard = [&] {
        shard_ms = time_ms([&] { via_shard = direct.submit(direct_keys.session, request).get(); });
      };
      if (r % 2 == 0) {
        run_router();
        run_shard();
      } else {
        run_shard();
        run_router();
      }
      const double service_ms =
          time_ms([&] { via_service = local.submit(local_session, request).get(); });

      fhe::Graph graph(*ref);
      std::vector<fhe::Wire> outputs;
      samples["fhe.lower_ms"].push_back(time_ms([&] {
        outputs = record_builtin(graph, job.spec, inputs, zero, one);
        (void)fhe::NoiseModel::predicted_noise_bits(word_op(job.spec.kind), job.spec.width,
                                                   config.params, job.spec.lowering);
      }));
      fhe::EvalReport eval;
      std::vector<fhe::Ciphertext> evaluated;
      const double evaluate_ms = time_ms([&] {
        evaluated = fhe::Evaluator(local.scheduler()).evaluate(graph, outputs, &eval);
      });
      fhe::Bytes evaluated_bytes;
      fhe::Bytes response_frame;
      codec_ms += time_ms([&] {
        evaluated_bytes = fhe::encode_ciphertexts(evaluated);
        response_frame = core::encode_response(via_service);
        (void)core::decode_response(response_frame);
      });

      if (const std::string why = verify(*ref, job, via_router); !why.empty()) {
        report.fail("replay: " + why);
      }
      if (via_shard.outputs != via_router.outputs || via_service.outputs != via_router.outputs ||
          evaluated_bytes != via_router.outputs) {
        report.fail(what + ": outputs differ across router, shard, service and evaluator");
      }
      for (const core::Response* other : {&via_shard, &via_service}) {
        if (other->and_gates != via_router.and_gates || other->levels != via_router.levels ||
            other->transforms_executed != via_router.transforms_executed ||
            other->transforms_avoided != via_router.transforms_avoided) {
          report.fail(what + ": execution counts differ between paths");
        }
      }
      if (eval.and_gates != via_router.and_gates || eval.levels != via_router.levels) {
        report.fail(what + ": the evaluator's gate counts differ from the service's");
      }

      ++ledger.requests;
      ledger.and_gates += eval.and_gates;
      ledger.levels += eval.levels;
      ledger.transforms_executed += via_service.transforms_executed;
      ledger.transforms_avoided += via_service.transforms_avoided;
      ledger.request_bytes += frame.size();
      ledger.response_bytes += response_frame.size();
      ledger.hash(frame);
      ledger.hash(via_service.outputs);  // the frame also carries timings

      samples["net.router_hop_ms"].push_back(router_ms - shard_ms);
      samples["net.transport_ms"].push_back(shard_ms - service_ms);
      samples["service.overhead_ms"].push_back(service_ms - evaluate_ms);
      samples["fhe.evaluate_ms"].push_back(evaluate_ms);
      samples["fhe.codec_ms"].push_back(codec_ms);

      // One wavefront's jobs through the scheduler's batch API.
      const fhe::EvalState state(graph, outputs);
      std::vector<backend::MulJob> jobs;
      for (const u32 id : state.wavefront(1)) jobs.push_back(state.gate_job(id));
      samples["core.batch_ms"].push_back(time_ms([&] {
        for (auto& product : local.scheduler().submit_batch(jobs)) (void)product.get();
      }));

      time_gate(*ref, *engine, inputs[0], inputs[1], samples, report);
      report.attempted += 1;
      if (report.checks_failed != checks_failed_before) report.failed += 1;
    }
  }
}

}  // namespace

Report run_traced(const WorkloadConfig& config, const RunOptions& options) {
  Report report;
  std::unique_ptr<Deployment> d = deploy(config, options.seed);

  // The closed loop in four windows on one fleet, untraced-traced-traced-
  // untraced, so a steady drift in host speed weighs on both arms alike.
  // The traced windows keep every request's queue and exec times and the
  // lanes' busy time -- the in-loop instrument behind service.queue_ms,
  // service.exec_ms and core.lane_utilization; the untraced windows only
  // count requests.
  LoopStats untraced;
  LoopStats loop;  // the traced windows
  double busy_ms = 0.0;
  std::size_t lanes = 0;
  for (const bool traced : {false, true, true, false}) {
    LoopOptions window;
    window.seconds = options.seconds / 4.0;
    window.inject_flip = options.inject_flip && untraced.attempted == 0;
    window.record = traced;
    const auto [busy_before, lane_count] = lane_busy_ms(*d->fleet);
    const LoopStats stats = run_loop(*d, window);
    report.count(stats);
    LoopStats& arm = traced ? loop : untraced;
    arm.verified += stats.verified;
    arm.attempted += stats.attempted;
    arm.wall_s += stats.wall_s;
    if (traced) {
      busy_ms += lane_busy_ms(*d->fleet).first - busy_before;
      lanes = lane_count;
      loop.queue_ms.insert(loop.queue_ms.end(), stats.queue_ms.begin(), stats.queue_ms.end());
      loop.exec_ms.insert(loop.exec_ms.end(), stats.exec_ms.begin(), stats.exec_ms.end());
    }
  }

  const net::FleetStats fleet = d->clients[0].connection->stats();
  const core::ServiceStats service = fleet.aggregate();

  Samples samples;
  Ledger ledger;
  replay(*d, options, samples, ledger, report);
  report.ledger_json = ledger.json();

  const auto med = [&](const char* name, const char* unit) {
    const std::vector<double>& v = samples[name];
    report.add(name, median(v), unit, v.size());
  };
  const auto count = [&](const char* name, double value) { report.add(name, value, "count", 1); };
  const double untraced_rps = static_cast<double>(untraced.verified) / untraced.wall_s;
  const double traced_rps = static_cast<double>(loop.verified) / loop.wall_s;

  med("net.router_hop_ms", "ms");
  med("net.transport_ms", "ms");
  med("net.create_ms", "ms");
  count("net.request_bytes", static_cast<double>(ledger.request_bytes));
  count("net.response_bytes", static_cast<double>(ledger.response_bytes));
  count("net.key_bytes", static_cast<double>(ledger.key_bytes));
  count("net.retries", static_cast<double>(fleet.retries));
  count("net.failed", static_cast<double>(fleet.failed));
  report.add("service.queue_ms", median(loop.queue_ms), "ms", loop.queue_ms.size());
  report.add("service.exec_ms", median(loop.exec_ms), "ms", loop.exec_ms.size());
  med("service.overhead_ms", "ms");
  report.add("service.coalescing", service.coalescing(), "ratio", service.batches_submitted);
  count("service.sessions_evicted", static_cast<double>(service.sessions_evicted));
  count("service.shed", static_cast<double>(service.shed));
  count("service.expired", static_cast<double>(service.expired));
  count("service.transforms_executed", static_cast<double>(ledger.transforms_executed));
  count("service.transforms_avoided", static_cast<double>(ledger.transforms_avoided));
  med("fhe.keygen_ms", "ms");
  med("fhe.lower_ms", "ms");
  med("fhe.evaluate_ms", "ms");
  med("fhe.codec_ms", "ms");
  med("fhe.gate_ms", "ms");
  med("core.batch_ms", "ms");
  report.add("core.lane_utilization", busy_ms / (static_cast<double>(lanes) * loop.wall_s * 1e3),
             "ratio", lanes);
  med("ssa.multiply_ms", "ms");
  med("ssa.forward_ms", "ms");
  med("ssa.materialize_ms", "ms");
  med("ntt.forward_ms", "ms");
  med("bigint.reduce_ms", "ms");
  med("bigint.reduce_share", "ratio");
  report.add("hw.model_mult_us", hw::evaluate_perf(hw::PerfParams::paper()).mult_us(), "us", 1);
  report.add("trace.overhead_ratio", traced_rps / untraced_rps, "ratio", loop.verified);
  count("det.requests", static_cast<double>(ledger.requests));
  count("det.and_gates", static_cast<double>(ledger.and_gates));
  count("det.levels", static_cast<double>(ledger.levels));
  return report;
}

}  // namespace fleetbench
