// hemul_shard: one core::Service behind the envelope TCP protocol -- the
// fleet's unit of scale-out. Typically several shards run behind one
// hemul_router (see docs/operations.md for the runbook).
//
//   hemul_shard [--port N] [--workers N] [--backend NAME] [--window MS]
//               [--max-sessions N] [--max-queue N] [--deadline-ms MS]
//               [--fault-plan SPEC]
//
// --window MS bounds the admission linger: the coordinator holds a round
// open for other tenants at most MS, and closes it early once every open
// session has a request waiting (an idle session keeps it open).
// --deadline-ms sets the default per-request budget: requests whose budget
// elapses in the admission queue complete with kExpired instead of
// executing (a request-borne deadline overrides it).
// --fault-plan installs a deterministic network fault injector, e.g.
// "seed=7,drop=0.02,delay=0.05:3,corrupt=0.01" -- fault drills only.
//
// --port 0 (the default) binds an ephemeral port; the daemon prints
//   hemul_shard listening on port <N>
// to stdout (flushed) so a launcher can parse where to connect.
//
// Shutdown: SIGTERM/SIGINT (or a kShutdown request over the wire) puts the
// service in drain mode -- new sessions are refused with a clean
// kShuttingDown error, queued work still completes -- then the daemon waits
// for idle and exits 0.

#include <csignal>
#include <cstdio>
#include <cstring>
#include <condition_variable>
#include <mutex>
#include <string>

#include "net/fault.hpp"
#include "net/server.hpp"
#include "service/service.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: hemul_shard [--port N] [--workers N] [--backend NAME]\n"
               "                   [--window MS] [--max-sessions N] [--max-queue N]\n"
               "                   [--deadline-ms MS] [--fault-plan SPEC]\n"
               "  --window MS        longest admission linger (default 2); a round\n"
               "                     starts early once every open session has a\n"
               "                     request waiting, an idle session keeps it open\n"
               "  --deadline-ms MS   default per-request budget; overdue queued\n"
               "                     requests expire instead of executing (0 = off)\n"
               "  --fault-plan SPEC  deterministic fault injection, e.g.\n"
               "                     seed=7,drop=0.02,delay=0.05:3,corrupt=0.01\n");
  return 2;
}

std::mutex g_mutex;
std::condition_variable g_cv;
bool g_shutdown = false;

void request_shutdown() {
  {
    std::lock_guard lock(g_mutex);
    g_shutdown = true;
  }
  g_cv.notify_all();
}

extern "C" void handle_signal(int) { request_shutdown(); }

}  // namespace

int main(int argc, char** argv) {
  using namespace hemul;

  int port = 0;
  unsigned workers = 0;
  std::string backend_name = "ssa";
  double window_ms = 2.0;
  std::size_t max_sessions = 0;
  std::size_t max_queue = 0;
  double deadline_ms = 0.0;
  std::string fault_plan;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--port" && i + 1 < argc) {
      port = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (arg == "--workers" && i + 1 < argc) {
      workers = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--backend" && i + 1 < argc) {
      backend_name = argv[++i];
    } else if (arg == "--window" && i + 1 < argc) {
      window_ms = std::strtod(argv[++i], nullptr);
    } else if (arg == "--max-sessions" && i + 1 < argc) {
      max_sessions = std::strtoul(argv[++i], nullptr, 10);
    } else if (arg == "--max-queue" && i + 1 < argc) {
      max_queue = std::strtoul(argv[++i], nullptr, 10);
    } else if (arg == "--deadline-ms" && i + 1 < argc) {
      deadline_ms = std::strtod(argv[++i], nullptr);
    } else if (arg == "--fault-plan" && i + 1 < argc) {
      fault_plan = argv[++i];
    } else {
      return usage();
    }
  }

  core::ServiceOptions options;
  options.config.backend_name = backend_name;
  options.config.num_workers = workers;
  options.admission_window_ms = window_ms;
  options.max_sessions = max_sessions;
  options.max_queue_depth = max_queue;
  options.default_deadline_ms = deadline_ms;

  try {
    if (!fault_plan.empty()) {
      const net::FaultPlan plan = net::FaultPlan::parse(fault_plan);
      net::install_fault_injector(std::make_shared<net::FaultInjector>(plan));
      std::fprintf(stderr, "hemul_shard: fault injection armed (%s)\n",
                   fault_plan.c_str());
    }
    core::Service service(options);
    net::ShardServer::Options server_options;
    server_options.port = port;
    server_options.on_shutdown = request_shutdown;
    net::ShardServer server(service, server_options);

    // The launcher contract: port on stdout, flushed, before any traffic.
    std::printf("hemul_shard listening on port %d\n", server.port());
    std::fflush(stdout);

    std::signal(SIGTERM, handle_signal);
    std::signal(SIGINT, handle_signal);

    {
      std::unique_lock lock(g_mutex);
      g_cv.wait(lock, [] { return g_shutdown; });
    }

    // Drain: refuse new work, finish what was admitted, then tear down.
    service.stop_accepting();
    service.wait_idle();
    server.stop();
    if (const auto injector = net::fault_injector()) {
      std::fprintf(stderr, "hemul_shard: %s\n", injector->summary().c_str());
    }
    std::fprintf(stderr, "hemul_shard: drained, exiting\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hemul_shard: fatal: %s\n", e.what());
    return 1;
  }
}
