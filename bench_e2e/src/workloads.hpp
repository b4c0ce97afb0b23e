// The benchmark's four workloads. Each `run_arm` call builds and warms
// the system `setups` times (timing each, keeping the last), measures for
// about `seconds`, then checks every answer it received.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "check.hpp"
#include "stats.hpp"

namespace e2e {

struct ArmConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int setups = 1;
  /// solve_*: times every instance is solved; its best time is its
  /// latency sample. 0 means as many passes as `seconds` holds, and at
  /// least two. The other workloads ignore it.
  int passes = 1;
  /// solve_deep: copies of the passes run at once, each pinned to a CPU of
  /// its own (capped by the CPUs available); an instance's sample is its
  /// fastest solve over all of them. The other workloads ignore it.
  int trials = 1;
  /// Traced arm: after measuring, run the layer probes that re-execute
  /// single public calls (see README.md) and fill `ArmResult::layer`.
  bool probes = false;
};

struct ArmResult {
  /// One sample per request (served_mix), per batch (service_classes) or
  /// per instance (solve_*).
  std::vector<double> latency_ms;
  std::size_t completed = 0;  // requests or instances answered
  /// Wall seconds spent inside the system under test; input generation
  /// and answer checking happen outside it.
  double busy_s = 0.0;
  /// Answers per second, and the median latency, in consecutive windows of
  /// about half a second, where the workload yields many answers per
  /// window; empty otherwise.
  std::vector<double> window_rps;
  std::vector<double> window_p50_ms;
  /// served_mix only: each window's tail percentile (the rule of
  /// `tail_percentile`, applied to the window's round trips).
  std::vector<TailPercentile> window_tail;
  /// service_classes only: the batches of the windows at or above the
  /// median window throughput.
  std::vector<double> tail_samples_ms;
  std::vector<double> setup_s;
  Tally tally;
  /// Per-layer metrics this workload owns (traced arms only).
  std::map<std::string, double> layer;

  /// With windows, the upper decile of `window_rps`; else answers per
  /// busy second.
  [[nodiscard]] double throughput() const;
  /// With windows, the lower decile of `window_p50_ms`; else the median
  /// of `latency_ms`.
  [[nodiscard]] double latency_p50_ms() const;
  /// With window tails, the lower decile of their values; else the tail
  /// percentile of `tail_samples()`.
  [[nodiscard]] double latency_tail_ms() const;
  /// `tail_samples_ms` when set, else `latency_ms`.
  [[nodiscard]] const std::vector<double>& tail_samples() const;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument on an unknown workload name.
[[nodiscard]] ArmResult run_arm(const std::string& workload,
                                const ArmConfig& config);

}  // namespace e2e
