// Exact-input memo for branch-and-price pricing (bnp/solver).
//
// The exact pricing subproblem of the configuration LP is a bounded
// knapsack per phase, solved by a DFS over the width classes
// (`best_config_for_phase` in release/config_lp.cpp). Across the nodes of
// one search many of these subproblems repeat bit for bit: a warm
// re-solve that converges to the same duals, or symmetric release phases
// that present identical dual slices in one pricing round. The cache
// records each completed search under its exact input and answers a
// repeat with the stored maximizer, skipping the DFS (`bench_e2e`'s
// `pricing.memo_hits` on `solve_deep` counts these).
//
// Memo results point at interned patterns (counts vectors), so a repeat
// costs one map lookup and one copy. `release::ConfigLpSolver` owns one
// cache per solver instance.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

namespace stripack::bnp {

class PricingCache {
 public:
  /// Interns a nonempty pattern, returning its cache id (the existing id
  /// when already present; -1 for an empty pattern, which is never
  /// stored).
  int insert(std::span<const int> counts, double total_width);

  struct Result {
    double value = 0.0;  // the search's best adjusted value
    int pattern = -1;    // cache id, -1 when no pattern scored positive
  };

  /// Exact-input memo over completed pricing searches. The pricing DFS is
  /// a pure function of (per-width values, applied (row, mult) bonuses) —
  /// the phase enters only through the pre-filtered applied rows, which
  /// carry nonzero multipliers only (a zero-multiplier row cannot change
  /// the search, so it is not part of the key) — so a
  /// bitwise-identical input must return the identical maximizer, and the
  /// whole search is skipped.
  [[nodiscard]] std::optional<Result> lookup(
      std::span<const double> value,
      std::span<const std::pair<int, double>> applied);

  /// Records a completed search's exact result for `lookup`, under the
  /// same key: per-width values plus the nonzero-multiplier applied rows.
  /// `pattern` -1 memoizes "no nonempty configuration beats zero". The
  /// memo is cleared (deterministically) when it outgrows its size bound.
  void memoize(std::span<const double> value,
               std::span<const std::pair<int, double>> applied,
               const Result& result);

  [[nodiscard]] const std::vector<int>& counts(int pattern) const {
    return patterns_[static_cast<std::size_t>(pattern)].counts;
  }
  [[nodiscard]] double total_width(int pattern) const {
    return patterns_[static_cast<std::size_t>(pattern)].total_width;
  }
  [[nodiscard]] int total_items(int pattern) const {
    return patterns_[static_cast<std::size_t>(pattern)].total_items;
  }

  [[nodiscard]] std::size_t size() const { return patterns_.size(); }
  /// Exact-memo lookups that skipped a search entirely.
  [[nodiscard]] std::int64_t memo_hits() const { return memo_hits_; }

 private:
  struct Pattern {
    std::vector<int> counts;
    double total_width = 0.0;
    int total_items = 0;
  };

  using MemoKey =
      std::pair<std::vector<double>, std::vector<std::pair<int, double>>>;

  std::vector<Pattern> patterns_;
  // Interning index over patterns_, sorted by counts (binary searched).
  std::vector<int> by_counts_;
  // Exact-input result memo; bounded (cleared at kMemoLimit entries).
  std::map<MemoKey, Result> memo_;
  std::int64_t memo_hits_ = 0;
};

}  // namespace stripack::bnp
