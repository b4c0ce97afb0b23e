// Cross-node pattern cache for branch-and-price pricing (bnp/solver).
//
// The exact pricing subproblem of the configuration LP is a bounded
// knapsack per phase, solved by a DFS over the width classes
// (`best_config_for_phase` in release/config_lp.cpp). At every
// branch-and-bound node the duals change but the *combinatorial space*
// does not: the same few dozen to few thousand patterns keep winning. The
// cache interns every pattern (counts vector) the search has ever priced
// or adopted, scores them all in O(patterns * W) against the node's duals
// — a width-indexed dot product per pattern — and hands the best one to
// the DFS as a warm incumbent. The DFS then prunes every subtree that
// cannot *strictly* beat a known-achievable value, which typically
// collapses the re-enumeration to a verification pass (`bench_e2e`'s
// `pricing.dfs_expansions` counter on `solve_deep` tracks the expansions
// the DFS still performs).
//
// Branch-row bonuses are applied as deltas on cached entries: each
// registered branching row stores its predicate once, and each pattern
// lazily memoizes one match bit per row — keyed, together, by the live
// branch-row set a node presents at probe time (the rows whose multiplier
// is nonzero; parked and non-binding rows never reach the cache) — so
// re-probing a pattern under a different node's live rows costs bit
// lookups, not predicate re-evaluation.
//
// The cache is deliberately self-contained (patterns + predicates + match
// bits); `release::ConfigLpSolver` owns one per solver instance and
// *copies* it into worker clones, so batch-parallel node evaluation reads
// a frozen snapshot without locks.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "release/config_lp.hpp"

namespace stripack::bnp {

class PricingCache {
 public:
  /// Interns a nonempty pattern, returning its cache id (the existing id
  /// when already present; -1 for an empty pattern, which is never
  /// stored).
  int insert(std::span<const int> counts, double total_width);

  /// Registers a branching row (model row index; strictly ascending
  /// across calls) whose predicate contributes a dual bonus to matching
  /// patterns. Match bits against the stored patterns are lazy.
  void register_row(int row, release::BranchPredicate pred);

  struct Seed {
    double value = 0.0;  // best adjusted value; only meaningful when >0
    int pattern = -1;    // cache id, -1 when no pattern scored positive
  };

  /// Best stored pattern under per-width values plus the applied rows'
  /// bonuses: max over patterns of sum_i counts[i]*value[i] + sum of
  /// mult over applied (row, mult) whose predicate matches. Applied rows
  /// must have been registered, must carry nonzero multipliers only, and
  /// must already be filtered to the phase being priced (predicate
  /// content, not phase, decides the match).
  [[nodiscard]] Seed probe(
      std::span<const double> value,
      std::span<const std::pair<int, double>> applied);

  /// Exact-input memo over completed pricing searches. The pricing DFS is
  /// a pure function of (per-width values, applied (row, mult) bonuses) —
  /// the phase enters only through the pre-filtered applied rows, which
  /// carry nonzero multipliers only (a zero-multiplier row cannot change
  /// the search, so it is not part of the key) — so a
  /// bitwise-identical input must return the identical maximizer, and the
  /// whole search is skipped. This is where *unchanged* subproblems
  /// (re-priced nodes after a warm re-solve converged to the same duals,
  /// and symmetric release waves whose phases present identical dual
  /// slices within one pricing round) become lookups.
  [[nodiscard]] std::optional<Seed> lookup(
      std::span<const double> value,
      std::span<const std::pair<int, double>> applied);

  /// Records a completed search's exact result for `lookup`, under the
  /// same key: per-width values plus the nonzero-multiplier applied rows.
  /// `pattern` -1 memoizes "no nonempty configuration beats zero". The
  /// memo is cleared (deterministically) when it outgrows its size bound.
  void memoize(std::span<const double> value,
               std::span<const std::pair<int, double>> applied,
               const Seed& result);

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
  [[nodiscard]] std::int64_t probes() const { return probes_; }
  /// Probes that produced a positive seed (a usable DFS incumbent).
  [[nodiscard]] std::int64_t hits() const { return hits_; }
  /// Exact-memo lookups that skipped a search entirely.
  [[nodiscard]] std::int64_t memo_hits() const { return memo_hits_; }
  /// Zeroes probes/hits (patterns and memo stay): a worker clone reports
  /// only its own activity.
  void reset_stats() {
    probes_ = 0;
    hits_ = 0;
    memo_hits_ = 0;
  }

 private:
  struct Pattern {
    std::vector<int> counts;
    double total_width = 0.0;
    int total_items = 0;
    /// match[k]: does registered row k's predicate match this pattern?
    /// Extended lazily up to rows_.size() on probe.
    std::vector<std::uint8_t> match;
  };

  struct Row {
    int row = 0;  // model row index (ascending)
    release::BranchPredicate pred;
  };

  void ensure_match_bits(Pattern& p);
  [[nodiscard]] int row_index(int row) const;  // -1 when unregistered

  using MemoKey =
      std::pair<std::vector<double>, std::vector<std::pair<int, double>>>;

  std::vector<Pattern> patterns_;
  std::vector<Row> rows_;
  // Interning index over patterns_, sorted by counts (binary searched).
  std::vector<int> by_counts_;
  // Exact-input result memo; bounded (cleared at kMemoLimit entries).
  std::map<MemoKey, Seed> memo_;
  // Per-probe scratch: applied rows resolved to cache indices.
  std::vector<std::pair<std::size_t, double>> applied_scratch_;
  std::int64_t probes_ = 0;
  std::int64_t hits_ = 0;
  std::int64_t memo_hits_ = 0;
};

}  // namespace stripack::bnp
