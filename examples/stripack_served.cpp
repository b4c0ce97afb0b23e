// stripack_served — the solver service, over TCP or on stdin.
//
//   $ ./stripack_served [--stdin] [--host H] [--port P] [--workers N]
//                       [--node-budget N] [--degraded-budget N]
//                       [--backlog N] [--cache-capacity N] [--time-limit SEC]
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
//
// `--stdin` serves a concatenated stream of `stripack-instance v1`
// documents from stdin instead (`SolverService::serve_stream`) and writes
// one `stripack-response v1` document per request to stdout, in request
// order. With the default time limit of 0 the response stream is bitwise
// identical at any --workers value. The TCP-only flags (--host, --port,
// --max-request-bytes, the deadline and drain flags, --max-connections
// and the backlog ladder) are a usage error in this mode. The exit
// status is 0 iff every request was answered without error and every
// response reached stdout.
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
      << "usage: stripack_served [--stdin] [--host H] [--port P]\n"
         "  [--workers N] [--node-budget N] [--degraded-budget N]\n"
         "  [--backlog N] [--cache-capacity N] [--time-limit SEC]\n"
         "  [--max-request-bytes N] [--read-deadline SEC]\n"
         "  [--write-deadline SEC] [--solve-deadline SEC]\n"
         "  [--drain-seconds SEC] [--max-connections N]\n"
         "  [--degrade-backlog N] [--shed-backlog N]\n"
         "serves stripack-instance v1 request frames over TCP (frame =\n"
         "\"SPK1\" + u32 big-endian length + document); prints\n"
         "`listening <host> <port>` on stdout once bound; SIGTERM/SIGINT\n"
         "drain gracefully (exit 0 iff the drain completed in budget).\n"
         "--stdin reads concatenated documents from stdin and writes one\n"
         "stripack-response v1 document per request to stdout; the TCP\n"
         "flags (--host, --port, --max-request-bytes, the deadline and\n"
         "drain flags, --max-connections, the backlog ladder) are then\n"
         "rejected. --time-limit > 0 bounds each request's wall clock\n"
         "(trading the bitwise --workers replay guarantee for tail\n"
         "latency)\n";
  return 2;
}

// Flags only the TCP server reads; --stdin rejects them.
bool is_tcp_flag(const std::string& flag) {
  return flag == "--host" || flag == "--port" ||
         flag == "--max-request-bytes" || flag == "--read-deadline" ||
         flag == "--write-deadline" || flag == "--solve-deadline" ||
         flag == "--drain-seconds" || flag == "--max-connections" ||
         flag == "--degrade-backlog" || flag == "--shed-backlog";
}

// --stdin: one serve_stream pass. Exit 1 on any error response or when a
// response could not be written (serve_stream counts only the responses
// that reached the sink).
int serve_stdin(const service::ServiceOptions& options) {
  service::SolverService service(options);
  const std::size_t served = service.serve_stream(std::cin, std::cout);
  const service::ServiceStats stats = service.stats();
  std::cerr << "served " << served << " request(s) across " << stats.classes
            << " class(es): " << stats.cache_hits << " cache hit(s), "
            << stats.warm_roots << " warm root(s), " << stats.degraded
            << " degraded, " << stats.errors << " error(s)\n";
  return stats.errors == 0 && served == stats.requests ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  service::net::ServerOptions options;
  bool stdin_mode = false;
  bool tcp_flag = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      auto next = [&]() -> std::string {
        STRIPACK_ASSERT(i + 1 < argc, "missing value after " + flag);
        return argv[++i];
      };
      // Checked parses, like stripack_solve: malformed numeric flags end
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
      if (is_tcp_flag(flag)) tcp_flag = true;
      if (flag == "--stdin") {
        stdin_mode = true;
      } else if (flag == "--host") {
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
  if (stdin_mode && tcp_flag) {
    std::cerr << "--stdin takes no TCP server flags\n";
    return usage();
  }

  try {
    if (stdin_mode) return serve_stdin(options.service);
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
