// stripack_served — the solver service over TCP.
//
//   $ ./stripack_served [--host H] [--port P] [--workers N] [--cold]
//                       [--node-budget N] [--degraded-budget N]
//                       [--backlog N] [--cache-capacity N]
//                       [--cache-staleness N] [--time-limit SEC]
//                       [--max-request-bytes N] [--read-deadline SEC]
//                       [--write-deadline SEC] [--solve-deadline SEC]
//                       [--drain-seconds SEC] [--max-connections N]
//                       [--degrade-backlog N] [--shed-backlog N]
//
// Binds host:port (port 0 = kernel-assigned; the bound port is printed as
// `listening <host> <port>` on stdout so scripts can connect) and serves
// length-prefixed `stripack-instance v1` request frames through a warm
// `service::SolverService` (see src/service/net/server.hpp for the state
// machine, deadlines, backpressure ladder and drain semantics).
//
// SIGTERM / SIGINT request a graceful drain: the listener closes,
// in-flight solves finish and flush within --drain-seconds, and the
// process exits 0 iff no connection had to be force-closed.
#include <csignal>
#include <iostream>
#include <string>

#include "service/net/server.hpp"
#include "util/assert.hpp"
#include "util/parse_num.hpp"

namespace {

using namespace stripack;

service::net::StripackServer* g_server = nullptr;

extern "C" void handle_drain_signal(int) {
  // request_drain is async-signal-safe: an atomic store + eventfd write.
  if (g_server != nullptr) g_server->request_drain();
}

int usage() {
  std::cerr
      << "usage: stripack_served [--host H] [--port P] [--workers N]\n"
         "  [--cold] [--node-budget N] [--degraded-budget N] [--backlog N]\n"
         "  [--cache-capacity N] [--cache-staleness N] [--time-limit SEC]\n"
         "  [--max-request-bytes N] [--read-deadline SEC]\n"
         "  [--write-deadline SEC] [--solve-deadline SEC]\n"
         "  [--drain-seconds SEC] [--max-connections N]\n"
         "  [--degrade-backlog N] [--shed-backlog N]\n"
         "serves stripack-instance v1 request frames over TCP (frame =\n"
         "\"SPK1\" + u32 big-endian length + document); prints\n"
         "`listening <host> <port>` on stdout once bound; SIGTERM/SIGINT\n"
         "drain gracefully (exit 0 iff the drain completed in budget)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  service::net::ServerOptions options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      auto next = [&]() -> std::string {
        STRIPACK_ASSERT(i + 1 < argc, "missing value after " + flag);
        return argv[++i];
      };
      // Checked parses, like stripack_serve: malformed numeric flags end
      // in a usage error, never an uncaught exception.
      auto next_count = [&](long long& out) {
        const std::string text = next();
        if (util::parse_long_long(text, out) && out >= 0) return true;
        std::cerr << "bad count for " << flag << ": '" << text << "'\n";
        return false;
      };
      auto next_seconds = [&](double& out) {
        const std::string text = next();
        if (util::parse_double(text, out) && out >= 0.0) return true;
        std::cerr << "bad number for " << flag << ": '" << text << "'\n";
        return false;
      };
      long long count = 0;
      if (flag == "--host") {
        options.host = next();
      } else if (flag == "--port") {
        if (!next_count(count) || count > 65535) return usage();
        options.port = static_cast<std::uint16_t>(count);
      } else if (flag == "--workers") {
        const std::string text = next();
        if (!util::parse_int(text, options.service.workers) ||
            options.service.workers < 1) {
          std::cerr << "bad count for " << flag << ": '" << text << "'\n";
          return usage();
        }
      } else if (flag == "--cold") {
        options.service.warm_pool = false;
      } else if (flag == "--node-budget") {
        if (!next_count(count)) return usage();
        options.service.node_budget = static_cast<std::size_t>(count);
      } else if (flag == "--degraded-budget") {
        if (!next_count(count)) return usage();
        options.service.degraded_node_budget =
            static_cast<std::size_t>(count);
      } else if (flag == "--backlog") {
        if (!next_count(count)) return usage();
        options.service.backlog_threshold = static_cast<std::size_t>(count);
      } else if (flag == "--cache-capacity") {
        if (!next_count(count)) return usage();
        options.service.cache_capacity = static_cast<std::size_t>(count);
      } else if (flag == "--cache-staleness") {
        if (!next_count(count)) return usage();
        options.service.cache_staleness = static_cast<std::size_t>(count);
      } else if (flag == "--time-limit") {
        if (!next_seconds(options.service.request_time_limit)) {
          return usage();
        }
      } else if (flag == "--max-request-bytes") {
        if (!next_count(count) || count < 1) return usage();
        options.max_request_bytes = static_cast<std::size_t>(count);
      } else if (flag == "--read-deadline") {
        if (!next_seconds(options.read_deadline_seconds)) return usage();
      } else if (flag == "--write-deadline") {
        if (!next_seconds(options.write_deadline_seconds)) return usage();
      } else if (flag == "--solve-deadline") {
        if (!next_seconds(options.solve_deadline_seconds)) return usage();
      } else if (flag == "--drain-seconds") {
        if (!next_seconds(options.drain_seconds)) return usage();
      } else if (flag == "--max-connections") {
        if (!next_count(count) || count < 1) return usage();
        options.max_connections = static_cast<std::size_t>(count);
      } else if (flag == "--degrade-backlog") {
        if (!next_count(count)) return usage();
        options.degrade_backlog = static_cast<std::size_t>(count);
      } else if (flag == "--shed-backlog") {
        if (!next_count(count)) return usage();
        options.shed_backlog = static_cast<std::size_t>(count);
      } else {
        return usage();
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return usage();
  }

  try {
    service::net::StripackServer server(options);
    const std::uint16_t port = server.start();
    g_server = &server;
    std::signal(SIGTERM, handle_drain_signal);
    std::signal(SIGINT, handle_drain_signal);
    std::cout << "listening " << options.host << " " << port << std::endl;

    const bool clean = server.run();
    g_server = nullptr;

    const service::net::ServerStats stats = server.stats();
    std::cerr << "served " << stats.responses << " response(s) over "
              << stats.accepted << " connection(s): "
              << stats.protocol_errors << " protocol error(s), "
              << stats.deadline_expiries << " deadline expir(ies), "
              << stats.overload_sheds << " shed, " << stats.degraded
              << " degraded, " << stats.connection_drops
              << " dropped connection(s), " << stats.dropped_results
              << " orphaned result(s); drain "
              << (clean ? "clean" : "forced") << "\n";
    return clean ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
