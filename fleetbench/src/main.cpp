// Fleet benchmark: stands up a router in front of two shard servers in one
// process, drives one workload closed-loop through net::ShardClient,
// decrypt-verifies every answer and prints its metrics as one JSON line.
//
//   fleetbench --workload paper_gates|circuit_mix|session_churn --seed N
//              --seconds S --trace 0|1 [--smoke] [--inject-flip]
//
//   --trace 0   end-to-end metrics (set-up, throughput, latency, success)
//   --trace 1   per-layer metrics from timed calls into each layer's API
//   --smoke     tiny operand sizes, for the self-test
//   --inject-flip  flip one output bit per client (must be caught)
//
// The last line of standard output is the result object. Exit code 0 iff
// every request verified and every cross-check held; 1 when a check
// failed (the result is still printed); 2 on a usage or set-up error (no
// result is printed).

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "report.hpp"

#ifndef FLEETBENCH_BUILD_TYPE
#define FLEETBENCH_BUILD_TYPE "unknown"
#endif
#ifndef FLEETBENCH_NATIVE
#define FLEETBENCH_NATIVE 0
#endif

namespace fleetbench {

Report run_end_to_end(const WorkloadConfig& config, const RunOptions& options) {
  Report report;
  std::vector<double> setup_s;
  std::vector<double> setup_create_ms;
  std::unique_ptr<Deployment> d;
  for (unsigned k = 0; k < config.setups; ++k) {
    d.reset();  // one fleet at a time
    d = deploy(config, options.seed);
    setup_s.push_back(d->setup_s);
    setup_create_ms.insert(setup_create_ms.end(), d->create_ms.begin(), d->create_ms.end());
  }

  LoopOptions loop_options;
  loop_options.seconds = options.seconds;
  loop_options.inject_flip = options.inject_flip;
  const LoopStats loop = run_loop(*d, loop_options);
  report.count(loop);

  // Creations in the timed phase (churned or joining tenants) where the
  // workload has them. paper_gates creates only at set-up: its few set-up
  // creations support a median but not a p90, so there both percentiles
  // report their median.
  const bool setup_creates = loop.create_ms.empty();
  const std::vector<double>& creates = setup_creates ? setup_create_ms : loop.create_ms;
  const double wall = loop.wall_s > 0.0 ? loop.wall_s : 1.0;
  const auto verified = static_cast<double>(loop.verified);
  const std::size_t n = loop.latency_ms.size();
  report.add("setup_s", median(setup_s), "s", setup_s.size());
  report.add("throughput_rps", verified / wall, "1/s", loop.verified);
  report.add("gates_per_s", static_cast<double>(loop.and_gates) / wall, "1/s", loop.verified);
  report.add("latency_p50_ms", quantile(loop.latency_ms, 0.5), "ms", n);
  report.add("latency_p90_ms", quantile(loop.latency_ms, 0.9), "ms", n);
  report.add("session_create_p50_ms", quantile(creates, 0.5), "ms", creates.size());
  report.add("session_create_p90_ms", quantile(creates, setup_creates ? 0.5 : 0.9), "ms",
             creates.size());
  report.add("success_rate", loop.attempted > 0 ? verified / static_cast<double>(loop.attempted) : 0.0,
             "ratio", loop.attempted);
  report.add("peak_rss_mb", peak_rss_mb(), "MiB", 1);
  return report;
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += ch;
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof regs);
    brand = brand.c_str();  // stop at the terminator
    const auto first = brand.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : brand.substr(first);
  }
#endif
  return "unknown";
}

std::string meta_json(const WorkloadConfig& c, const RunOptions& o, bool traced, bool smoke) {
  std::string s = "{";
  s += "\"workload\": " + json_string(c.name);
  s += ", \"seed\": " + std::to_string(o.seed);
  s += ", \"seconds\": " + json_number(o.seconds);
  s += ", \"trace\": " + std::to_string(traced ? 1 : 0);
  s += ", \"smoke\": " + std::string(smoke ? "true" : "false");
  s += ", \"nproc\": " + std::to_string(usable_cpus());
  s += ", \"cpu_model\": " + json_string(cpu_model());
  s += ", \"build_type\": " + json_string(FLEETBENCH_BUILD_TYPE);
  s += ", \"hemul_native\": " + std::string(FLEETBENCH_NATIVE ? "true" : "false");
  s += ", \"shards\": " + std::to_string(c.shards);
  s += ", \"lanes_per_shard\": " + std::to_string(c.lanes);
  s += ", \"clients\": " + std::to_string(c.clients);
  s += ", \"max_sessions\": " + std::to_string(c.max_sessions);
  s += ", \"admission_window_ms\": " + json_number(c.window_ms);
  s += ", \"setups\": " + std::to_string(c.setups);
  s += ", \"gamma\": " + std::to_string(c.params.gamma);
  return s + "}";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: fleetbench --workload paper_gates|circuit_mix|session_churn "
               "--seed N --seconds S --trace 0|1 [--smoke] [--inject-flip]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace fleetbench

int main(int argc, char** argv) {
  using namespace fleetbench;
  std::string workload;
  RunOptions options;
  int trace = 0;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--inject-flip") {
      options.inject_flip = true;
    } else {
      return usage(("unexpected argument '" + arg + "'").c_str());
    }
  }
  if (workload.empty()) return usage("--workload is required");
  if (!(options.seconds > 0.0) || options.seconds > 600.0) return usage("bad --seconds");
  if (trace != 0 && trace != 1) return usage("--trace must be 0 or 1");

  Report report;
  WorkloadConfig config;
  try {
    config = make_config(workload, smoke);
    report = trace == 1 ? run_traced(config, options) : run_end_to_end(config, options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleetbench: %s\n", e.what());
    return 2;
  }

  for (const Metric& m : report.metrics) {
    std::fprintf(stderr, "  %-28s %14.4f %-6s (n=%zu)\n", m.name.c_str(), m.value,
                 m.unit.c_str(), m.samples);
  }
  for (const std::string& why : report.failures) std::fprintf(stderr, "  FAILED: %s\n", why.c_str());

  // Run metadata, per-metric sample counts and the deterministic ledger.
  std::string info = "{\"meta\": " + meta_json(config, options, trace == 1, smoke);
  info += ", \"samples\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    info += (i ? ", " : "") + json_string(report.metrics[i].name) + ": " +
            std::to_string(report.metrics[i].samples);
  }
  info += "}, \"ledger\": " + (report.ledger_json.empty() ? "null" : report.ledger_json);
  info += ", \"failures\": [";
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    info += (i ? ", " : "") + json_string(report.failures[i]);
  }
  std::printf("%s]}\n", info.c_str());

  std::string result = "{\"correct\": " + std::string(report.correct ? "true" : "false");
  result += ", \"attempted\": " + std::to_string(report.attempted);
  result += ", \"failed\": " + std::to_string(report.failed);
  result += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    result += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " + json_number(m.value) +
              ", \"unit\": " + json_string(m.unit) + "}";
  }
  std::printf("%s}}\n", result.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
