// stripack_e2e: the repository's end-to-end benchmark.
//
//   stripack_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--trace-out <spans.jsonl>] [--commit <id>]
//
// --trace 0 measures the named workload untraced and prints its
// end-to-end metrics. --trace 1 runs a traced arm of every workload (each
// layer's metrics come from the workload that exercises it) and a short
// untraced arm of the named workload, and prints the per-layer metrics,
// the layer table and the tracing overhead. The last line of
// standard output is always one JSON object: correct, attempted, failed,
// metrics. Exit status 0 only when every answer passed the checker.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"
#include "util/parse_num.hpp"
#include "workloads.hpp"

#ifndef STRIPACK_E2E_BUILD_TYPE
#define STRIPACK_E2E_BUILD_TYPE "unknown"
#endif

namespace {

using e2e::ArmConfig;
using e2e::ArmResult;

/// Set-ups per plain run; setup_s is their median.
constexpr int kSetups = 7;
/// Solves per instance in a plain solve_* run: as many as --seconds holds
/// (see ArmConfig::passes).
constexpr int kPasses = 0;
/// Concurrent copies of a plain solve_deep run's passes (see
/// ArmConfig::trials): one per CPU of a 4-core machine.
constexpr int kTrials = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string commit = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "stripack_e2e: " << why
            << "\nusage: stripack_e2e --workload <served_mix|service_classes|"
               "solve_deep|solve_parallel> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <path>] [--commit <id>]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    long long seed = 0;
    int trace = 0;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      if (!stripack::util::parse_long_long(value, seed) || seed < 0) {
        usage("--seed needs a non-negative integer");
      }
      a.seed = static_cast<std::uint64_t>(seed);
    } else if (flag == "--seconds") {
      if (!stripack::util::parse_double(value, a.seconds)) {
        usage("--seconds needs a number");
      }
    } else if (flag == "--trace") {
      if (!stripack::util::parse_int(value, trace) ||
          (trace != 0 && trace != 1)) {
        usage("--trace needs 0 or 1");
      }
      a.trace = trace == 1;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else if (flag == "--commit") {
      a.commit = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  bool known = false;
  for (const std::string& w : e2e::workload_names()) {
    known = known || w == a.workload;
  }
  if (!known) usage("unknown workload '" + a.workload + "'");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string number(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string result_json(bool correct, const e2e::Tally& tally,
                        const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << tally.attempted << ", \"failed\": "
     << tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) os << ", ";
    os << '"' << metrics[i].name << "\": {\"value\": "
       << number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
       << "\"}";
  }
  os << "}}";
  return os.str();
}

void print_failures(const e2e::Tally& tally) {
  for (const std::string& f : tally.failures) {
    std::cout << "FAILED: " << f << '\n';
  }
}

/// The eight end-to-end metrics of one arm, with two of them in their
/// never-zero form (success_share = 1 - failed_share, height_ratio =
/// 1 + height_gap).
std::vector<Metric> end_to_end(const ArmResult& r) {
  const e2e::Tally& t = r.tally;
  const double answers =
      static_cast<double>(std::max<std::size_t>(1, t.answers));
  if (r.window_tail.empty()) {
    const e2e::TailPercentile tail = e2e::tail_percentile(r.tail_samples());
    std::cout << "samples " << r.tail_samples().size() << ", tail percentile p"
              << tail.percentile << " with " << tail.beyond
              << " samples beyond it\n";
  } else {
    std::cout << "samples " << r.latency_ms.size() << ", tail per window:";
    for (const e2e::TailPercentile& w : r.window_tail) {
      std::cout << " p" << w.percentile << '=' << w.value << " (" << w.beyond
                << " beyond)";
    }
    std::cout << '\n';
  }
  std::cout << "latency ms:";
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    std::cout << " p" << p << ' ' << e2e::percentile(r.latency_ms, p);
  }
  std::cout << ", max " << e2e::percentile(r.latency_ms, 100.0) << '\n';
  if (!r.window_rps.empty()) {
    std::cout << "throughput per window:";
    for (const double w : r.window_rps) std::cout << ' ' << w;
    std::cout << '\n';
  }
  std::cout << "failed_share "
            << static_cast<double>(t.failed) / static_cast<double>(t.attempted)
            << ", height_gap " << t.ratio_sum / answers - 1.0 << '\n';
  return {
      {"throughput_rps", r.throughput(), "1/s"},
      {"latency_p50_ms", r.latency_p50_ms(), "ms"},
      {"latency_tail_ms", r.latency_tail_ms(), "ms"},
      {"success_share",
       static_cast<double>(t.attempted - t.failed) /
           static_cast<double>(t.attempted),
       "share"},
      {"certified_share", static_cast<double>(t.certified) / answers, "share"},
      {"height_ratio", t.ratio_sum / answers, "ratio"},
      {"setup_s", e2e::quantile(r.setup_s, 0.5), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

std::string unit_of(const std::string& name) {
  const bool micros = name.ends_with("_us") || name.ends_with(".us") ||
                      name == "bnp.us_per_node";
  if (micros) return "us";
  if (name.find("share") != std::string::npos) return "share";
  if (name.find("speedup") != std::string::npos ||
      name.find("inflation") != std::string::npos) {
    return "ratio";
  }
  if (name == "integralize.excess") return "height";
  return "count";
}

int run_plain(const Args& a) {
  const ArmResult r =
      e2e::run_arm(a.workload, ArmConfig{.seed = a.seed,
                                         .seconds = a.seconds,
                                         .setups = kSetups,
                                         .passes = kPasses,
                                         .trials = kTrials});
  const bool correct = r.tally.failed == 0 && r.tally.attempted > 0;
  print_failures(r.tally);
  const std::vector<Metric> metrics = end_to_end(r);
  for (const Metric& m : metrics) {
    std::cout << a.workload << ' ' << m.name << ' ' << number(m.value) << ' '
              << m.unit << '\n';
  }
  std::cout << result_json(correct, r.tally, metrics) << std::endl;
  return correct ? 0 : 1;
}

int run_traced(const Args& a) {
  // Four traced arms and one plain arm share the run's time. The named
  // workload goes last, its plain arm right before its traced one, so the
  // overhead comparison sees neither the process's cold start nor much
  // drift of the machine between the two.
  const double arm_seconds = a.seconds / 4.0;
  std::vector<std::string> order;
  for (const std::string& w : e2e::workload_names()) {
    if (w != a.workload) order.push_back(w);
  }
  order.push_back(a.workload);

  e2e::Tally all;
  std::vector<e2e::Span> spans;
  std::map<std::string, double> layer;
  double plain_throughput = 0.0;
  double traced_throughput = 0.0;
  for (const std::string& w : order) {
    if (w == a.workload) {
      const ArmResult plain =
          e2e::run_arm(w, ArmConfig{.seed = a.seed, .seconds = arm_seconds});
      all.merge(plain.tally);
      plain_throughput = plain.throughput();
    }
    e2e::set_tracing(true);
    e2e::clear_spans();
    const ArmResult r =
        e2e::run_arm(w, ArmConfig{.seed = a.seed,
                                  .seconds = arm_seconds,
                                  .probes = true});
    e2e::set_tracing(false);
    const std::vector<e2e::Span> arm_spans = e2e::collect();
    spans.insert(spans.end(), arm_spans.begin(), arm_spans.end());
    layer.insert(r.layer.begin(), r.layer.end());
    all.merge(r.tally);
    if (w == a.workload) traced_throughput = r.throughput();
    std::cout << "traced arm " << w << ": " << r.completed << " answers, "
              << r.throughput() << " per second\n";
  }
  layer["trace.overhead_share"] =
      1.0 - traced_throughput / plain_throughput;

  std::cout << "layer table (self time = span minus its children):\n";
  std::printf("  %-28s %9s %14s %14s %11s\n", "span", "count", "total_us",
              "self_us", "self_mean");
  for (const e2e::LayerRow& row : e2e::layer_table(spans)) {
    std::printf("  %-28s %9zu %14.1f %14.1f %11.2f\n", row.name.c_str(),
                row.count, row.total_us, row.self_us,
                row.self_us / static_cast<double>(row.count));
  }
  std::cout << "tracing overhead on " << a.workload << ": plain "
            << plain_throughput << "/s, traced " << traced_throughput
            << "/s\n";
  if (!a.trace_out.empty() && !e2e::write_jsonl(a.trace_out, spans)) {
    std::cerr << "stripack_e2e: cannot write " << a.trace_out << '\n';
    return 1;
  }

  std::vector<Metric> metrics;
  for (const auto& [name, value] : layer) {
    metrics.push_back({name, value, unit_of(name)});
    std::cout << name << ' ' << number(value) << ' ' << unit_of(name) << '\n';
  }
  print_failures(all);
  const bool correct = all.failed == 0 && all.attempted > 0;
  std::cout << result_json(correct, all, metrics) << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  if (std::string(STRIPACK_E2E_BUILD_TYPE) != "Release") {
    std::cerr << "stripack_e2e: refusing to measure a '"
              << STRIPACK_E2E_BUILD_TYPE << "' build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }
  std::cout << "num_cpus " << std::thread::hardware_concurrency()
            << ", build " << STRIPACK_E2E_BUILD_TYPE << ", commit " << a.commit
            << ", workload " << a.workload << ", seed " << a.seed
            << ", seconds " << a.seconds << ", trace " << a.trace << '\n';
  try {
    return a.trace ? run_traced(a) : run_plain(a);
  } catch (const std::exception& e) {
    std::cerr << "stripack_e2e: " << e.what() << '\n';
    return 1;
  }
}
