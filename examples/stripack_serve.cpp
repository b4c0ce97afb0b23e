// stripack_serve — the solver-as-a-service front end.
//
//   $ ./stripack_serve [requests.txt] [--workers N] [--cold]
//                      [--node-budget N] [--degraded-budget N]
//                      [--backlog N] [--cache-capacity N]
//                      [--cache-staleness N] [--time-limit SEC]
//
// Reads a concatenated stream of `stripack-instance v1` documents from
// the given file (or stdin when omitted or "-"), solves every request
// through the warm-pooled service::SolverService, and writes one
// `stripack-response v1` document per request to stdout in request
// order. Requests sharing a width/release class reuse one persistent
// warm branch-and-price master; identical (or permuted / width-rescaled)
// requests hit the per-class result cache. With the default time limit
// of 0 the response stream is bitwise identical at any --workers value.
//
// `--cold` disables the warm pool (every request cold-solves) — the
// baseline arm of `BM_ServiceThroughput`, exposed here for A/B runs.
#include <fstream>
#include <iostream>
#include <string>

#include "service/solver_service.hpp"
#include "util/assert.hpp"
#include "util/parse_num.hpp"

namespace {

using namespace stripack;

int usage() {
  std::cerr
      << "usage: stripack_serve [requests.txt|-] [--workers N] [--cold]\n"
         "                      [--node-budget N] [--degraded-budget N]\n"
         "                      [--backlog N] [--cache-capacity N]\n"
         "                      [--cache-staleness N] [--time-limit SEC]\n"
         "reads concatenated stripack-instance v1 documents (stdin when\n"
         "no file is given), writes one stripack-response v1 document per\n"
         "request to stdout; --cold disables the warm master pool;\n"
         "--time-limit > 0 bounds each request's wall clock (trading the\n"
         "bitwise --workers replay guarantee for tail latency)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string input = "-";
  service::ServiceOptions options;
  long long node_budget = -1;
  long long degraded_budget = -1;
  long long backlog = -1;
  long long cache_capacity = -1;
  long long cache_staleness = -1;
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
      if (flag == "--workers") {
        const std::string text = next();
        if (!util::parse_int(text, options.workers) || options.workers < 1) {
          std::cerr << "bad count for " << flag << ": '" << text << "'\n";
          return usage();
        }
      } else if (flag == "--cold") {
        options.warm_pool = false;
      } else if (flag == "--node-budget") {
        if (!next_count(node_budget)) return usage();
      } else if (flag == "--degraded-budget") {
        if (!next_count(degraded_budget)) return usage();
      } else if (flag == "--backlog") {
        if (!next_count(backlog)) return usage();
      } else if (flag == "--cache-capacity") {
        if (!next_count(cache_capacity)) return usage();
      } else if (flag == "--cache-staleness") {
        if (!next_count(cache_staleness)) return usage();
      } else if (flag == "--time-limit") {
        const std::string text = next();
        if (!util::parse_double(text, options.request_time_limit) ||
            options.request_time_limit < 0.0) {
          std::cerr << "bad number for " << flag << ": '" << text << "'\n";
          return usage();
        }
      } else if (!flag.empty() && flag[0] == '-' && flag != "-") {
        return usage();
      } else if (input == "-") {
        input = flag;
      } else {
        return usage();
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return usage();
  }
  if (node_budget >= 0) {
    options.node_budget = static_cast<std::size_t>(node_budget);
  }
  if (degraded_budget >= 0) {
    options.degraded_node_budget = static_cast<std::size_t>(degraded_budget);
  }
  if (backlog >= 0) {
    options.backlog_threshold = static_cast<std::size_t>(backlog);
  }
  if (cache_capacity >= 0) {
    options.cache_capacity = static_cast<std::size_t>(cache_capacity);
  }
  if (cache_staleness >= 0) {
    options.cache_staleness = static_cast<std::size_t>(cache_staleness);
  }

  try {
    service::SolverService service(options);
    std::size_t served = 0;
    if (input == "-") {
      served = service.serve_stream(std::cin, std::cout);
    } else {
      std::ifstream in(input);
      if (!in) {
        std::cerr << "error: cannot open " << input << "\n";
        return 1;
      }
      served = service.serve_stream(in, std::cout);
    }
    const service::ServiceStats& stats = service.stats();
    std::cerr << "served " << served << " request(s) across "
              << stats.classes << " class(es): " << stats.cache_hits
              << " cache hit(s), " << stats.warm_roots << " warm root(s), "
              << stats.degraded << " degraded, " << stats.errors
              << " error(s)\n";
    return stats.errors == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
