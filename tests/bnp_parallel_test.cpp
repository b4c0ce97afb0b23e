// PR 5 scaling machinery lockdown: batch-synchronous parallel node
// evaluation must be bit-identical across thread counts at a fixed batch
// size, batch mode must certify the same optima as the classic serial
// path, the pricing cache must not change certified quantities while
// cutting DFS expansions, and Lagrangian cutoff pruning must preserve
// exactness.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "bnp/solver.hpp"
#include "core/validate.hpp"
#include "gen/hard_integral.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace stripack::bnp {
namespace {

constexpr double kTol = 1e-6;

// Integer-height, integer-release workloads whose widths sit in the
// two-to-three-per-column regime — persistent fractionality, so the
// searches genuinely branch (trees of a few dozen nodes each; probed).
Instance seeded_instance(std::uint64_t seed, std::size_t n, int w_lo,
                         int w_hi, int h_max, int r_max) {
  Rng rng(seed);
  std::vector<Item> items;
  for (std::size_t i = 0; i < n; ++i) {
    const double w = static_cast<double>(rng.uniform_int(w_lo, w_hi)) / 100.0;
    const double h = static_cast<double>(rng.uniform_int(1, h_max));
    const double r =
        r_max > 0 ? static_cast<double>(rng.uniform_int(0, r_max)) : 0.0;
    items.push_back(Item{Rect{w, h}, r});
  }
  return Instance(std::move(items), 1.0);
}

// The sweep: triple-regime and mixed-width workloads plus hard_integral
// gap families, including the release-wave variants (bursts > 1) whose
// gap survives phasing.
std::vector<Instance> sweep_instances() {
  std::vector<Instance> out;
  out.push_back(seeded_instance(3, 20, 27, 39, 1, 0));
  out.push_back(seeded_instance(7, 20, 27, 39, 1, 0));
  out.push_back(seeded_instance(11, 20, 27, 39, 2, 2));
  out.push_back(seeded_instance(23, 20, 27, 39, 2, 2));
  out.push_back(seeded_instance(23, 18, 21, 55, 1, 2));
  out.push_back(gen::hard_integral_family(2).instance);
  out.push_back(gen::hard_integral_family(2, 3, 4.0).instance);
  return out;
}

void expect_bit_identical(const BnpResult& a, const BnpResult& b,
                          const std::string& label) {
  EXPECT_EQ(a.status, b.status) << label;
  // Bit-identical, not merely near: the parallel merge replays the
  // serial arithmetic in the same order.
  EXPECT_EQ(a.height, b.height) << label;
  EXPECT_EQ(a.dual_bound, b.dual_bound) << label;
  EXPECT_EQ(a.nodes, b.nodes) << label;
  EXPECT_EQ(a.nodes_created, b.nodes_created) << label;
  EXPECT_EQ(a.batches, b.batches) << label;
  EXPECT_EQ(a.branch_rows, b.branch_rows) << label;
  EXPECT_EQ(a.cutoff_pruned_nodes, b.cutoff_pruned_nodes) << label;
  // Conflict-learning state is part of the determinism contract: the
  // store is only touched in the serial merge order, so learned nogoods
  // and both prune kinds must replay exactly across thread counts.
  EXPECT_EQ(a.nogoods_learned, b.nogoods_learned) << label;
  EXPECT_EQ(a.nogood_prunes, b.nogood_prunes) << label;
  EXPECT_EQ(a.propagation_prunes, b.propagation_prunes) << label;
  EXPECT_EQ(a.nogood_store_size, b.nogood_store_size) << label;
  ASSERT_EQ(a.slices.size(), b.slices.size()) << label;
  for (std::size_t i = 0; i < a.slices.size(); ++i) {
    EXPECT_EQ(a.slices[i].phase, b.slices[i].phase) << label;
    EXPECT_EQ(a.slices[i].height, b.slices[i].height) << label;
    EXPECT_EQ(a.slices[i].config.counts, b.slices[i].config.counts) << label;
  }
  ASSERT_EQ(a.packing.placement.size(), b.packing.placement.size()) << label;
  for (std::size_t i = 0; i < a.packing.placement.size(); ++i) {
    EXPECT_EQ(a.packing.placement[i].x, b.packing.placement[i].x) << label;
    EXPECT_EQ(a.packing.placement[i].y, b.packing.placement[i].y) << label;
  }
}

TEST(BnpParallel, ThreadCountsAreBitIdenticalAtFixedBatch) {
  // The tentpole determinism claim: for a fixed node batch, the explored
  // tree, bounds, slices and final packing do not depend on the thread
  // count — 2- and 4-thread runs replay the 1-thread run exactly.
  std::size_t total_nodes = 0;
  for (const bool rounding : {true, false}) {
    std::size_t index = 0;
    for (const Instance& ins : sweep_instances()) {
      BnpOptions serial;
      serial.rounding_incumbent = rounding;
      serial.threads = 1;
      serial.node_batch = 8;
      // Explicitly pin conflict learning ON (the default): the sweep
      // must prove the nogood store + cutoff-cap path is bit-identical
      // across thread counts, not just the plain search.
      serial.use_conflicts = true;
      const BnpResult base = solve(ins, serial);
      total_nodes += base.nodes;
      for (const int threads : {2, 4}) {
        BnpOptions parallel = serial;
        parallel.threads = threads;
        const BnpResult other = solve(ins, parallel);
        expect_bit_identical(base, other,
                             "instance " + std::to_string(index) +
                                 " threads " + std::to_string(threads) +
                                 " rounding " + std::to_string(rounding));
      }
      ++index;
    }
  }
  // The sweep must actually exercise multi-node batched searches.
  EXPECT_GT(total_nodes, 40u);
}

TEST(BnpParallel, BatchModeCertifiesTheSerialOptima) {
  // Batch-synchronous search may explore a different tree than the
  // classic serial path (nodes in one batch do not see each other's
  // columns or incumbents), but every certified quantity must agree.
  for (const Instance& ins : sweep_instances()) {
    BnpOptions serial;
    serial.rounding_incumbent = false;
    const BnpResult a = solve(ins, serial);
    BnpOptions batched = serial;
    batched.threads = 2;
    batched.node_batch = 4;
    const BnpResult b = solve(ins, batched);
    ASSERT_EQ(a.status, BnpStatus::Optimal);
    ASSERT_EQ(b.status, BnpStatus::Optimal);
    EXPECT_NEAR(a.height, b.height, kTol);
    EXPECT_NEAR(a.dual_bound, b.dual_bound, kTol);
    EXPECT_GT(b.batches, 0u);
    EXPECT_TRUE(testing::placement_valid(ins, b.packing.placement));
  }
}

TEST(BnpParallel, PricingCacheKeepsCertifiedQuantities) {
  // Memoized pricing only seeds the exact DFS and skips repeated
  // searches (keyed by the live, nonzero-multiplier branch rows), so
  // every pricing round returns the same columns: status, height, dual
  // bound and the whole search — nodes, children and LP pivots — must
  // match the uncached run on the sweep, while the DFS expansion count
  // drops.
  std::int64_t cached_expansions = 0;
  std::int64_t uncached_expansions = 0;
  for (const Instance& ins : sweep_instances()) {
    BnpOptions with_cache;
    with_cache.rounding_incumbent = false;
    BnpOptions without_cache = with_cache;
    without_cache.pricing_cache = false;
    const BnpResult a = solve(ins, with_cache);
    const BnpResult b = solve(ins, without_cache);
    EXPECT_EQ(a.status, b.status);
    EXPECT_NEAR(a.height, b.height, kTol);
    EXPECT_NEAR(a.dual_bound, b.dual_bound, kTol);
    EXPECT_EQ(a.nodes, b.nodes);
    EXPECT_EQ(a.nodes_created, b.nodes_created);
    EXPECT_EQ(a.lp_iterations, b.lp_iterations);
    cached_expansions += a.pricing_dfs_expansions;
    uncached_expansions += b.pricing_dfs_expansions;
    EXPECT_GT(a.pricing_cache_probes, 0) << "cache never probed";
  }
  EXPECT_GT(uncached_expansions, 0);
  // The committed target: >= 30% fewer serial DFS expansions with
  // memoized pricing on (the bench records the exact ratio per size).
  EXPECT_LT(static_cast<double>(cached_expansions),
            0.7 * static_cast<double>(uncached_expansions));
}

TEST(BnpParallel, LagrangianCutoffPreservesExactness) {
  for (const Instance& ins : sweep_instances()) {
    BnpOptions with_cutoff;
    with_cutoff.rounding_incumbent = false;
    BnpOptions without_cutoff = with_cutoff;
    without_cutoff.lagrangian_pruning = false;
    const BnpResult a = solve(ins, with_cutoff);
    const BnpResult b = solve(ins, without_cutoff);
    ASSERT_EQ(a.status, BnpStatus::Optimal);
    ASSERT_EQ(b.status, BnpStatus::Optimal);
    EXPECT_NEAR(a.height, b.height, kTol);
    EXPECT_NEAR(a.dual_bound, b.dual_bound, kTol);
  }
}

TEST(BnpParallel, PseudoCostBranchingStaysExactOnGapFamilies) {
  // The gap families need genuine branching to close their LP/IP gap; the
  // pseudo-cost selector (strong-branching seeded) must still certify.
  for (std::size_t k = 1; k <= 4; ++k) {
    const auto family = gen::hard_integral_family(k);
    for (const bool pseudo : {true, false}) {
      BnpOptions options;
      options.rounding_incumbent = false;
      options.pseudo_cost_branching = pseudo;
      const BnpResult result = solve(family.instance, options);
      EXPECT_EQ(result.status, BnpStatus::Optimal) << "k=" << k;
      EXPECT_NEAR(result.height, family.certificate.ip_height, kTol)
          << "k=" << k << " pseudo=" << pseudo;
      EXPECT_NEAR(result.dual_bound, result.height, kTol);
    }
  }
}

TEST(BnpParallel, BudgetedBatchRunsKeepValidBrackets) {
  // A node budget smaller than the tree must yield NodeLimit with a
  // bracket that still sandwiches the true optimum — including when the
  // budget bites mid-batch (budget 10, batches of 4).
  const Instance ins = seeded_instance(3, 20, 27, 39, 1, 0);
  BnpOptions exact;
  exact.rounding_incumbent = false;
  const BnpResult truth = solve(ins, exact);
  ASSERT_EQ(truth.status, BnpStatus::Optimal);
  ASSERT_GT(truth.nodes, 12u);  // the budget below must genuinely bite
  BnpOptions options = exact;
  options.threads = 2;
  options.node_batch = 4;
  options.budget.max_nodes = 10;
  const BnpResult result = solve(ins, options);
  EXPECT_EQ(result.status, BnpStatus::NodeLimit);
  EXPECT_LE(result.dual_bound, result.height + kTol);
  EXPECT_GE(result.height, truth.height - kTol);
  EXPECT_LE(result.dual_bound, truth.height + kTol);
  EXPECT_TRUE(testing::placement_valid(ins, result.packing.placement));
}

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.workers(), 3u);
  std::vector<std::atomic<int>> hits(257);
  pool.run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // Reuse across calls (the point of pooling) and the serial small-n path.
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.run(17, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 50 * 17);
}

TEST(ThreadPoolTest, RethrowsTheLowestChunkError) {
  ThreadPool pool(4);
  try {
    pool.run(
        100,
        [&](std::size_t i) {
          if (i % 25 == 3) throw std::runtime_error("i=" + std::to_string(i));
        },
        25);  // chunks of 4: throws at i = 3, 28, 53, 78
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "i=3");
  }
}

}  // namespace
}  // namespace stripack::bnp
