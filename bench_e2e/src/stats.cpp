#include "stats.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace e2e {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("quantile of no samples");
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] +
         (pos - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

namespace {

// Ranks are computed in integer per-hundred-thousand units so that e.g.
// 99.9% of 1000 is exactly rank 999, not 999.0000000001.
std::size_t nearest_rank(double p, std::size_t n) {
  const auto per_100k = static_cast<std::size_t>(std::llround(p * 1000.0));
  return std::clamp<std::size_t>((per_100k * n + 99'999) / 100'000, 1, n);
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) throw std::invalid_argument("percentile of no samples");
  std::sort(samples.begin(), samples.end());
  return samples[nearest_rank(p, samples.size()) - 1];
}

TailPercentile tail_percentile(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("tail of no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  TailPercentile out;
  out.value = samples.back();
  // The ladder stops at p99.9: p99.99 of a ten-second served run rests on
  // about a dozen samples and moves by a fifth between seeds.
  constexpr std::array<double, 4> kLadder = {50.0, 90.0, 99.0, 99.9};
  for (const double p : kLadder) {
    const std::size_t rank = nearest_rank(p, n);
    const std::size_t beyond = n - rank;
    if (beyond < 10) break;
    out.percentile = p;
    out.value = samples[rank - 1];
    out.beyond = beyond;
  }
  return out;
}

}  // namespace e2e
