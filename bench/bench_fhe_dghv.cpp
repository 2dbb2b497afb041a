// Experiment E7: the end-to-end homomorphic-encryption workload the paper
// motivates (Section I/III): DGHV over the integers with the ciphertext
// multiplication mapped onto the accelerator. Reports software wall-clock
// per primitive plus the modeled accelerator time for the gamma-bit
// ciphertext product.
//
// Each setting has two encryption rows. The secret-key row is the
// tenant's path: keygen draws p, q0 and x0 only, and Dghv::encrypt is
// c = q*p + 2r + m with no reduction; every one of its ciphertexts must be
// below x0 and decrypt. The public-key row is the path of a party without
// p: keygen plus the on-request build of the tau encryptions of zero
// (Dghv::build_public_key), then fhe::encrypt_public, timed next to the
// loop it replaced (each subset-sum term a shifted copy of x_i, added by
// the former carry loop) from a mirror of its rng: every trial's
// ciphertexts must be equal bit for bit, and the speedup is the ratio of
// the medians. Encrypt times are medians of 9 trials. hom-mult is the
// median of 9 repeat products after a warm-up product, which also builds
// the modulus's Barrett reducer (one Knuth division); the software SSA
// line times the raw gamma-bit product the same way.
//
// The served-AND row evaluates one paper-size AND the way the service
// does, through fhe::Evaluator on a 1-lane "ssa" scheduler with the wires
// resident in the spectrum domain, next to Dghv::multiply (both medians of
// 9 after a warm-up). Its resident transform length is a deterministic
// fact of the residency plan (hard-gated at 65,536 points, the paper's
// transform); its result must equal Dghv::multiply's.
//
// The keygen lines give the paper-size medians of kKeygenTrials tenant
// keygens and element builds, and a mirror of the element build on the
// same seeds that times the tau q_i * p products apart from the rest; its
// elements must equal the scheme's. The figures are printed and written
// to the JSON, not gated.
//
//   bench_fhe_dghv [--json FILE]
//
// Exit 0 iff every decryption checks, every secret-key ciphertext is below
// x0, every public-key encryption is bit-exact, the mirrored build
// reproduces the scheme's public elements and the served AND equals
// Dghv::multiply.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/accelerator.hpp"
#include "core/scheduler.hpp"
#include "fhe/dghv.hpp"
#include "fhe/evaluator.hpp"
#include "fhe/graph.hpp"
#include "ssa/multiply.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

namespace {

using namespace hemul;
using bigint::BigUInt;
using Clock = std::chrono::steady_clock;

constexpr int kTrials = 9;
constexpr int kKeygenTrials = 3;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

/// Median wall-clock of kTrials calls of fn, after one untimed warm-up call.
template <typename Fn>
double median_ms(Fn&& fn) {
  fn();
  std::vector<double> ms;
  for (int trial = 0; trial < kTrials; ++trial) {
    const Clock::time_point start = Clock::now();
    fn();
    ms.push_back(ms_since(start));
  }
  return median(std::move(ms));
}

/// BigUInt::operator+= as it was before it ran through bigint::add_into: a
/// bounds test and two compares per limb.
void former_add(std::vector<u64>& acc, std::span<const u64> rhs) {
  const std::size_t n = std::max(acc.size(), rhs.size());
  acc.resize(n, 0);
  u64 carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const u64 r = i < rhs.size() ? rhs[i] : 0;
    const u64 s1 = acc[i] + r;
    const u64 c1 = s1 < acc[i] ? 1u : 0u;
    const u64 s2 = s1 + carry;
    const u64 c2 = s2 < s1 ? 1u : 0u;
    acc[i] = s2;
    carry = c1 | c2;
  }
  if (carry != 0) acc.push_back(carry);
}

/// The encryption loop Dghv::encrypt replaced, as it ran: c = m + 2r, then
/// c += x_i << 1 for each flipped x_i on the former carry loop, then c mod x0.
BigUInt reference_encrypt(const fhe::PublicKey& pk, util::Rng& rng, bool message) {
  std::vector<u64> c;
  if (message) c.push_back(1);
  former_add(c, (BigUInt::random_bits(rng, pk.params.rho) << 1).limbs());
  for (const BigUInt& xi : pk.x) {
    if (rng.flip()) former_add(c, (xi << 1).limbs());
  }
  return BigUInt::from_limbs(std::move(c)) % pk.x0;
}

/// The seed of the public elements (build_public_key) and of the
/// encryptors' rngs: the public encryptor and the former loop draw from one
/// seed each, mirrored.
constexpr u64 kElementSeed = 13;
constexpr u64 kEncryptSeed = 11;

/// Paper-size keygen: the medians over kKeygenTrials of the tenant keygen
/// and of the element build, and one mirrored build split into the q_i * p
/// products and everything else.
struct KeygenSplit {
  double median_ms = 0.0;        ///< Dghv(params, seed): p, q0, x0
  double build_median_ms = 0.0;  ///< build_public_key: the tau elements
  double mirror_ms = 0.0;        ///< the mirrored build, end to end
  double products_ms = 0.0;      ///< its tau q_i * p products
  bool bit_exact = true;         ///< the mirror's elements equal the scheme's

  [[nodiscard]] double products_share() const {
    return mirror_ms > 0.0 ? products_ms / mirror_ms : 0.0;
  }
};

/// Keygen's draws and build_public_key's loop, written out on the same
/// seeds, with the q_i * p products timed on their own.
KeygenSplit time_keygen(const fhe::DghvParams& params, u64 seed) {
  KeygenSplit split;
  std::vector<double> ms;
  std::optional<fhe::Dghv> scheme;
  for (int trial = 0; trial < kKeygenTrials; ++trial) {
    const Clock::time_point start = Clock::now();
    scheme.emplace(params, seed);
    ms.push_back(ms_since(start));
  }
  split.median_ms = median(std::move(ms));
  fhe::PublicKey pk;
  std::vector<double> build_ms;
  for (int trial = 0; trial < kKeygenTrials; ++trial) {
    const Clock::time_point start = Clock::now();
    pk = scheme->build_public_key(kElementSeed);
    build_ms.push_back(ms_since(start));
  }
  split.build_median_ms = median(std::move(build_ms));

  util::Rng rng(seed);
  BigUInt p = BigUInt::random_bits(rng, params.eta);
  if (!p.is_odd()) p += BigUInt{1};
  BigUInt q0 = BigUInt::random_bits(rng, params.gamma - params.eta);
  if (!q0.is_odd()) q0 += BigUInt{1};
  const BigUInt x0 = q0 * p;
  split.bit_exact = x0 == pk.x0 && p == scheme->secret_key() && pk.x.size() == params.tau;

  const Clock::time_point start = Clock::now();
  util::Rng element_rng(kElementSeed);
  for (unsigned i = 0; i < params.tau && split.bit_exact; ++i) {
    const BigUInt qi = BigUInt::random_below(element_rng, q0);
    const BigUInt ri = BigUInt::random_bits(element_rng, params.rho);
    const Clock::time_point product_start = Clock::now();
    BigUInt qip = qi * p;
    split.products_ms += ms_since(product_start);
    const BigUInt xi = (qip + (ri << 1)) % x0;
    split.bit_exact = xi == pk.x[i];
  }
  split.mirror_ms = ms_since(start);
  return split;
}

/// One paper-size AND served through the evaluator, next to the scheme's
/// own product.
struct ServedAnd {
  u64 transform_size = 0;    ///< points of the resident transforms
  u64 coeff_bits = 0;        ///< m of the resident geometry
  double served_ms = 0.0;    ///< Evaluator on a 1-lane ssa scheduler, median
  double multiply_ms = 0.0;  ///< Dghv::multiply, median
  bool bit_exact = false;    ///< the two products are equal
};

ServedAnd time_served_and(fhe::Dghv& scheme, const fhe::Ciphertext& ca, const fhe::Ciphertext& cb) {
  ServedAnd result;
  fhe::Graph graph(scheme);
  const std::vector<fhe::Wire> outputs = {graph.gate_and(graph.input(ca), graph.input(cb))};
  core::Config config;
  config.backend_name = "ssa";
  config.num_workers = 1;
  core::Scheduler scheduler(config);
  fhe::Evaluator evaluator(scheduler);
  fhe::EvalReport report;
  std::vector<fhe::Ciphertext> served;
  result.served_ms = median_ms([&] { served = evaluator.evaluate(graph, outputs, &report); });
  fhe::Ciphertext product;
  result.multiply_ms = median_ms([&] { product = scheme.multiply(ca, cb); });
  result.transform_size = report.residency.transform_size;
  result.coeff_bits = report.residency.coeff_bits;
  result.bit_exact = report.spectrum_resident && served.size() == 1 &&
                     served[0].value == product.value;
  return result;
}

struct SettingResult {
  const char* name;
  std::size_t gamma;
  double keygen_ms;     // secret-key row: p, q0, x0
  double encrypt_ms;    // secret-key row: Dghv::encrypt, median
  double build_ms;      // public-key row: build_public_key
  double public_ms;     // public-key row: encrypt_public, median
  double reference_ms;  // public-key row: the former loop, median
  double decrypt_ms;
  bool bit_exact;  // encrypt_public equals the former loop on every trial
  bool secret_ok;  // every secret-key ciphertext is below x0 and decrypts
  bool ok;

  [[nodiscard]] double speedup() const {
    return public_ms > 0.0 ? reference_ms / public_ms : 0.0;
  }
};

SettingResult run_setting(const char* name, const fhe::DghvParams& params, util::Table& table,
                          util::Table& ops) {
  SettingResult result{name, params.gamma, 0, 0, 0, 0, 0, 0, true, true, true};
  auto t0 = Clock::now();
  fhe::Dghv scheme(params, 7);
  result.keygen_ms = ms_since(t0);

  std::vector<double> secret_ms;
  for (int trial = -1; trial < kTrials; ++trial) {  // trial -1 warms up
    const bool m = trial % 2 == 0;
    t0 = Clock::now();
    const fhe::Ciphertext c = scheme.encrypt(m);
    const double ms = ms_since(t0);
    result.secret_ok = result.secret_ok && c.value < scheme.x0() && scheme.decrypt(c) == m;
    if (trial >= 0) secret_ms.push_back(ms);
  }
  result.encrypt_ms = median(std::move(secret_ms));

  t0 = Clock::now();
  const fhe::PublicKey pk = scheme.build_public_key(kElementSeed);
  result.build_ms = ms_since(t0);

  // The public encryptor and the reference loop each draw from their own
  // rng on one seed.
  util::Rng public_rng(kEncryptSeed);
  util::Rng reference_rng(kEncryptSeed);
  std::vector<double> public_ms;
  std::vector<double> reference_ms;
  for (int trial = -1; trial < kTrials; ++trial) {  // trial -1 warms up
    const bool m = trial % 2 == 0;
    t0 = Clock::now();
    const fhe::Ciphertext c = fhe::encrypt_public(pk, public_rng, m);
    const double fast = ms_since(t0);
    t0 = Clock::now();
    const BigUInt expected = reference_encrypt(pk, reference_rng, m);
    const double reference = ms_since(t0);
    result.bit_exact = result.bit_exact && c.value == expected;
    result.ok = result.ok && scheme.decrypt(c) == m;
    if (trial >= 0) {
      public_ms.push_back(fast);
      reference_ms.push_back(reference);
    }
  }
  result.public_ms = median(std::move(public_ms));
  result.reference_ms = median(std::move(reference_ms));

  const fhe::Ciphertext c1 = scheme.encrypt(true);
  const fhe::Ciphertext c2 = scheme.encrypt(false);

  t0 = Clock::now();
  const fhe::Ciphertext cx = scheme.add(c1, c2);
  const double add_ms = ms_since(t0);

  fhe::Ciphertext cm;
  const double mult_ms = median_ms([&] { cm = scheme.multiply(c1, c2); });

  t0 = Clock::now();
  const bool d1 = scheme.decrypt(cm);
  result.decrypt_ms = ms_since(t0);

  result.ok = result.ok && scheme.decrypt(c1) && !scheme.decrypt(c2) && scheme.decrypt(cx) && !d1;

  const std::string gamma = util::with_commas(params.gamma);
  table.add_row({name, gamma, "secret key", util::format_fixed(result.keygen_ms, 2) + " ms",
                 util::format_fixed(result.encrypt_ms, 4) + " ms", "", "",
                 result.secret_ok ? "ok" : "FAIL"});
  table.add_row({name, gamma, "public key",
                 util::format_fixed(result.keygen_ms + result.build_ms, 2) + " ms",
                 util::format_fixed(result.public_ms, 3) + " ms",
                 util::format_fixed(result.reference_ms, 2) + " ms",
                 util::format_fixed(result.speedup(), 1) + "x",
                 result.bit_exact ? "ok" : "FAIL"});
  ops.add_row({name, gamma, util::format_fixed(add_ms, 3) + " ms",
               util::format_fixed(mult_ms, 1) + " ms",
               util::format_fixed(result.decrypt_ms, 2) + " ms", result.ok ? "ok" : "FAIL"});
  return result;
}

bool write_json(const std::string& path, const std::vector<SettingResult>& results,
                const KeygenSplit& keygen, const ServedAnd& served, bool bit_exact,
                bool secret_ok) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  const SettingResult& paper = results.back();  // the headline row
  std::fprintf(out, "{\n  \"bench\": \"fhe_dghv\",\n");
  std::fprintf(out, "  \"encrypt\": {\"bit_exact\": %s, \"speedup\": %.3f, \"secret_ok\": %s},\n",
               bit_exact ? "true" : "false", paper.speedup(), secret_ok ? "true" : "false");
  std::fprintf(out,
               "  \"keygen\": {\"paper_median_ms\": %.3f, \"build_median_ms\": %.3f, "
               "\"mirror_ms\": %.3f, \"products_ms\": %.3f, \"products_share\": %.4f, "
               "\"bit_exact\": %s},\n",
               keygen.median_ms, keygen.build_median_ms, keygen.mirror_ms, keygen.products_ms,
               keygen.products_share(), keygen.bit_exact ? "true" : "false");
  std::fprintf(out,
               "  \"resident\": {\"paper_and_transform_size\": %llu, "
               "\"paper_and_coeff_bits\": %llu, \"paper_and_ms\": %.3f, "
               "\"paper_multiply_ms\": %.3f, \"paper_and_bit_exact\": %s},\n",
               static_cast<unsigned long long>(served.transform_size),
               static_cast<unsigned long long>(served.coeff_bits), served.served_ms,
               served.multiply_ms, served.bit_exact ? "true" : "false");
  std::fprintf(out, "  \"settings\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SettingResult& r = results[i];
    std::fprintf(out, "    {\"name\": \"%s\", \"gamma\": %zu, ", r.name, r.gamma);
    std::fprintf(out, "\"secret_keygen_ms\": %.4f, \"secret_encrypt_ms\": %.4f, ", r.keygen_ms,
                 r.encrypt_ms);
    std::fprintf(out, "\"secret_ok\": %s, ", r.secret_ok ? "true" : "false");
    std::fprintf(out, "\"keygen_ms\": %.3f, ", r.keygen_ms + r.build_ms);
    std::fprintf(out, "\"encrypt_ms\": %.4f, \"reference_encrypt_ms\": %.4f, ", r.public_ms,
                 r.reference_ms);
    std::fprintf(out, "\"decrypt_ms\": %.4f, ", r.decrypt_ms);
    std::fprintf(out, "\"speedup\": %.3f, \"bit_exact\": %s}%s\n", r.speedup(),
                 r.bit_exact ? "true" : "false", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  if (argc == 3 && std::strcmp(argv[1], "--json") == 0) {
    json_path = argv[2];
  } else if (argc != 1) {
    std::fprintf(stderr, "usage: bench_fhe_dghv [--json FILE]\n");
    return 2;
  }

  std::printf("E7: DGHV somewhat-homomorphic encryption on top of the multiplier\n");
  std::printf("(secret key = the tenant's keygen and Dghv::encrypt; public key = keygen plus the\n"
              " tau elements, encrypt_public, and the former loop c += x_i << 1; encrypt =\n"
              " median of %d trials; hom-mult = median of %d repeat gamma-bit products with\n"
              " their reduction; software wall-clock, this host)\n\n",
              kTrials, kTrials);

  util::Table t({"setting", "gamma (bits)", "path", "keygen", "encrypt", "former loop",
                 "speedup", "check"});
  util::Table ops({"setting", "gamma (bits)", "hom-add", "hom-mult", "decrypt", "check"});
  std::vector<SettingResult> results;
  results.push_back(run_setting("toy", fhe::DghvParams::toy(), t, ops));
  results.push_back(run_setting("medium", fhe::DghvParams::medium(), t, ops));
  results.push_back(run_setting("small (paper)", fhe::DghvParams::small_paper(), t, ops));
  std::printf("%s\n%s\n", t.render().c_str(), ops.render().c_str());

  bool bit_exact = true;
  bool secret_ok = true;
  bool ok = true;
  for (const SettingResult& r : results) {
    bit_exact = bit_exact && r.bit_exact;
    secret_ok = secret_ok && r.secret_ok;
    ok = ok && r.ok;
  }
  std::printf("secret-key ciphertexts < x0 and decrypt : %s\n", secret_ok ? "yes" : "NO");
  std::printf("public encrypt bit-exact vs reference   : %s\n", bit_exact ? "yes" : "NO");
  const SettingResult& paper = results.back();
  std::printf("paper-size secret-key encrypt           : %.3f ms per bit\n", paper.encrypt_ms);
  std::printf("paper-size public encrypt speedup       : %.1fx (%.2f ms -> %.2f ms)\n",
              paper.speedup(), paper.reference_ms, paper.public_ms);

  // The tenant's keygen is the client-side cost of a session; the element
  // build is paid only by a party that wants the public key.
  const KeygenSplit keygen = time_keygen(fhe::DghvParams::small_paper(), 7);
  ok = ok && keygen.bit_exact;
  std::printf("paper-size keygen (tenant)              : %.2f ms (median of %d)\n",
              keygen.median_ms, kKeygenTrials);
  std::printf("paper-size public elements (on request) : %.1f ms (median of %d)\n",
              keygen.build_median_ms, kKeygenTrials);
  std::printf("  q_i * p products                      : %.1f ms of a %.1f ms mirrored build "
              "(%.0f%%), elements %s\n\n",
              keygen.products_ms, keygen.mirror_ms, 100.0 * keygen.products_share(),
              keygen.bit_exact ? "bit-exact" : "DIFFER");

  // The accelerator view of one paper-scale homomorphic multiplication.
  core::Accelerator accel;
  const hw::PerfBreakdown perf = accel.performance();
  std::printf("Modeled accelerator time for one 786,432-bit ciphertext product:\n");
  std::printf("  %s (3 FFTs %s + dot product %s + carry recovery %s)\n",
              util::format_time_ns(perf.mult_us() * 1000).c_str(),
              util::format_time_ns(3 * perf.fft_us() * 1000).c_str(),
              util::format_time_ns(perf.dotprod_us() * 1000).c_str(),
              util::format_time_ns(perf.carry_us() * 1000).c_str());

  fhe::Dghv scheme(fhe::DghvParams::small_paper(), 11);
  const auto ca = scheme.encrypt(true);
  const auto cb = scheme.encrypt(true);
  BigUInt raw;
  const double sw_ms = median_ms([&] { raw = ssa::mul_ssa(ca.value, cb.value); });
  const fhe::Ciphertext product = scheme.multiply(ca, cb);
  const bool decrypts = scheme.decrypt(product);
  const bool matches = raw % scheme.public_key().x0 == product.value;
  ok = ok && decrypts && matches;
  std::printf("Software SSA time for the same product on this host: %s (median of %d, no "
              "reduction)\n",
              util::format_time_ns(sw_ms * 1e6).c_str(), kTrials);
  std::printf("Decrypt(Enc(1) AND Enc(1)) = %d (expect 1); SSA product mod x0 %s\n",
              decrypts ? 1 : 0, matches ? "matches" : "DIFFERS");
  std::printf("\nModeled accelerator speedup over this host's software SSA: %.1fx\n",
              sw_ms * 1000.0 / perf.mult_us());

  // The same AND as the service runs it: wires resident in the spectrum
  // domain, at the geometry the residency plan fits to the circuit.
  const ServedAnd served = time_served_and(scheme, ca, cb);
  ok = ok && served.bit_exact;
  const auto geometry = [](u64 points, u64 coeff_bits) {
    return util::with_commas(points) + " points, m = " + std::to_string(coeff_bits);
  };
  const ssa::SsaParams eager = ssa::SsaParams::for_bits(scheme.x0().bit_length());
  util::Table served_table({"setting", "path", "transform", "hom-mult", "check"});
  served_table.add_row({"small (paper)", "Dghv::multiply (eager)",
                        geometry(eager.transform_size, eager.coeff_bits),
                        util::format_fixed(served.multiply_ms, 2) + " ms", ""});
  served_table.add_row({"small (paper)", "Evaluator, 1-lane ssa (resident)",
                        geometry(served.transform_size, served.coeff_bits),
                        util::format_fixed(served.served_ms, 2) + " ms",
                        served.bit_exact ? "bit-exact" : "DIFFERS"});
  std::printf("\nServed AND (median of %d, with its reduction):\n%s\n", kTrials,
              served_table.render().c_str());

  if (!json_path.empty()) {
    if (!write_json(json_path, results, keygen, served, bit_exact, secret_ok)) return 1;
    std::printf("json : %s\n", json_path.c_str());
  }
  return ok && bit_exact && secret_ok ? 0 : 1;
}
