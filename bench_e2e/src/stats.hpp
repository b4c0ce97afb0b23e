// Latency summaries for the benchmark's end-to-end metrics.
#pragma once

#include <cstddef>
#include <vector>

namespace e2e {

/// Linearly interpolated quantile, q in [0, 1] (the median is q = 0.5).
/// Requires a non-empty sample.
[[nodiscard]] double quantile(std::vector<double> samples, double q);

/// Nearest-rank percentile, p in (0, 100]: the sample of rank
/// ceil(p/100 * n). Requires a non-empty sample.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

struct TailPercentile {
  /// The percentile reported (50, 90, 99 or 99.9); 100 (the
  /// maximum) when even the median has fewer than 10 samples beyond it.
  double percentile = 100.0;
  double value = 0.0;
  /// Samples ranked strictly above the reported one.
  std::size_t beyond = 0;
};

/// The highest percentile of {50, 90, 99, 99.9} with at least ten
/// samples beyond it, by nearest rank: percentile p takes the sample of
/// rank ceil(p/100 * n), leaving n - rank samples beyond it. Requires a
/// non-empty sample.
[[nodiscard]] TailPercentile tail_percentile(std::vector<double> samples);

}  // namespace e2e
