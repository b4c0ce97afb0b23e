// Branch-and-price solver mechanics: certified optima on gap families,
// warm-path invariants, budgets, node tree determinism, and the packer
// adapter. Cross-validation against the other exact solvers lives in
// bnp_exact_cross_test.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "bnp/node_tree.hpp"
#include "bnp/solver.hpp"
#include "core/validate.hpp"
#include "gen/hard_integral.hpp"
#include "packers/registry.hpp"
#include "release/config_lp.hpp"
#include "test_support.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"

namespace stripack::bnp {
namespace {

constexpr double kTol = 1e-6;

Instance integer_instance(
    std::initializer_list<std::tuple<double, double, double>> items) {
  std::vector<Item> out;
  for (const auto& [w, h, r] : items) out.push_back(Item{Rect{w, h}, r});
  return Instance(std::move(out));
}

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

// Seeded workloads in the two-to-three-per-column width regime plus
// hard_integral gap families, released variants included: every search
// genuinely branches.
std::vector<Instance> exactness_sweep() {
  std::vector<Instance> out;
  out.push_back(seeded_instance(3, 20, 27, 39, 1, 0));
  out.push_back(seeded_instance(11, 20, 27, 39, 2, 2));
  out.push_back(seeded_instance(23, 18, 21, 55, 1, 2));
  out.push_back(gen::hard_integral_family(2).instance);
  out.push_back(gen::hard_integral_family(2, 3, 4.0).instance);
  out.push_back(gen::hard_integral_family(3, 2, 4.0).instance);
  return out;
}

// Triple-regime and mixed-width workloads plus hard_integral gap
// families, including the release-wave variants (bursts > 1) whose gap
// survives phasing; trees of a few dozen nodes each.
std::vector<Instance> branching_sweep() {
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
  EXPECT_EQ(a.height, b.height) << label;
  EXPECT_EQ(a.dual_bound, b.dual_bound) << label;
  EXPECT_EQ(a.nodes, b.nodes) << label;
  EXPECT_EQ(a.nodes_created, b.nodes_created) << label;
  EXPECT_EQ(a.branch_rows, b.branch_rows) << label;
  EXPECT_EQ(a.lp_iterations, b.lp_iterations) << label;
  EXPECT_EQ(a.dual_iterations, b.dual_iterations) << label;
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

TEST(NodeTree, BestFirstWithNewestFirstTies) {
  NodeTree tree;
  tree.add_root(5.0);
  ASSERT_EQ(tree.pop_best(), 0);
  BranchDecision d;  // contents irrelevant here
  const int a = tree.add_child(0, d, 7.0);
  const int b = tree.add_child(0, d, 6.0);
  const int c = tree.add_child(0, d, 7.0);
  EXPECT_EQ(tree.pop_best(), b);
  // Equal bounds pop newest first, so a child created after a pop dives
  // ahead of the older nodes at its bound.
  const int b1 = tree.add_child(b, d, 7.0);
  EXPECT_EQ(tree.pop_best(), b1);
  EXPECT_EQ(tree.pop_best(), c);
  EXPECT_EQ(tree.pop_best(), a);
  EXPECT_EQ(tree.pop_best(), std::nullopt);
}

TEST(NodeTree, ChildBoundsNeverRegressAndIncumbentGates) {
  NodeTree tree;
  tree.add_root(4.0);
  BranchDecision d;
  const int child = tree.add_child(0, d, 3.0);  // weaker than the parent
  EXPECT_DOUBLE_EQ(tree.node(child).bound, 4.0);
  EXPECT_TRUE(tree.offer_incumbent(9.0));
  EXPECT_FALSE(tree.offer_incumbent(9.0));  // ties do not "improve"
  EXPECT_TRUE(tree.offer_incumbent(5.0));
  EXPECT_DOUBLE_EQ(tree.incumbent(), 5.0);
  EXPECT_FALSE(tree.done());  // open bound 4 could still beat 5
  EXPECT_TRUE(tree.offer_incumbent(4.0));
  EXPECT_TRUE(tree.done());  // bound 4 cannot *strictly* beat 4
}

TEST(Bnp, SingleItemIsImmediatelyOptimal) {
  // Width above 1/2: no two columns fit, so the slice optimum equals the
  // packing optimum.
  const Instance ins = integer_instance({{0.6, 2.0, 0.0}});
  const BnpResult result = solve(ins);
  EXPECT_EQ(result.status, BnpStatus::Optimal);
  EXPECT_NEAR(result.height, 2.0, kTol);
  EXPECT_NEAR(result.dual_bound, result.height, kTol);
  EXPECT_EQ(result.warm_phase1_iterations, 0);
}

TEST(Bnp, TallItemsMaySliceAcrossColumns) {
  // The configuration IP is a *relaxation* of strip packing: a 0.5-wide,
  // 2-tall item can occupy two side-by-side unit columns of one slab, so
  // the certified slice optimum is 1 while every real packing needs 2 —
  // which the Lemma 3.4 realization faithfully reports.
  const Instance ins = integer_instance({{0.5, 2.0, 0.0}});
  const BnpResult result = solve(ins);
  EXPECT_EQ(result.status, BnpStatus::Optimal);
  EXPECT_NEAR(result.height, 1.0, kTol);
  EXPECT_NEAR(result.packing.height(), 2.0, kTol);
  EXPECT_TRUE(testing::placement_valid(ins, result.packing.placement));
}

TEST(Bnp, OddPairsGapFamilyIsProvenOptimal) {
  for (std::size_t k = 1; k <= 4; ++k) {
    const auto family = gen::hard_integral_family(k);
    // The generator's LP certificate is real: Lemma 3.3's bound is the
    // fractional value, strictly below the integral optimum.
    EXPECT_NEAR(release::fractional_lower_bound(family.instance),
                family.certificate.lp_height, 1e-7)
        << "k=" << k;
    for (const bool colgen : {true, false}) {
      BnpOptions options;
      options.lp.use_column_generation = colgen;
      const BnpResult result = solve(family.instance, options);
      EXPECT_EQ(result.status, BnpStatus::Optimal) << "k=" << k;
      EXPECT_NEAR(result.height, family.certificate.ip_height, kTol)
          << "k=" << k << " colgen=" << colgen;
      EXPECT_NEAR(result.dual_bound, result.height, kTol);
      EXPECT_GT(result.height,
                family.certificate.lp_height + 0.25);  // the gap is real
      EXPECT_EQ(result.warm_phase1_iterations, 0);
    }
  }
}

TEST(Bnp, ReleasedGapFamilyIsProvenOptimal) {
  const auto family = gen::hard_integral_family(2, 3, 4.0);
  EXPECT_NEAR(release::fractional_lower_bound(family.instance),
              family.certificate.lp_height, 1e-7);
  const BnpResult result = solve(family.instance);
  EXPECT_EQ(result.status, BnpStatus::Optimal);
  EXPECT_NEAR(result.height, family.certificate.ip_height, kTol);
  EXPECT_NEAR(result.dual_bound, result.height, kTol);
  EXPECT_EQ(result.warm_phase1_iterations, 0);
  EXPECT_TRUE(
      testing::placement_valid(family.instance, result.packing.placement));
}

TEST(Bnp, BranchingIsExercisedWithoutTheRoundingIncumbent) {
  // With only the trivial stack incumbent the root bound cannot prune, so
  // proving the k+1 optimum requires real branching on the fractional
  // pair total — and every node re-solve must stay on the warm path.
  for (std::size_t k = 2; k <= 3; ++k) {
    const auto family = gen::hard_integral_family(k);
    BnpOptions options;
    options.rounding_incumbent = false;
    const BnpResult result = solve(family.instance, options);
    EXPECT_EQ(result.status, BnpStatus::Optimal) << "k=" << k;
    EXPECT_NEAR(result.height, family.certificate.ip_height, kTol)
        << "k=" << k;
    // At k = 2 the first child already proves the incumbent optimal, so
    // its sibling is cut off by bound — at least one branching row must
    // have materialized, and more than the root was processed.
    EXPECT_GT(result.nodes, 1u) << "k=" << k;
    EXPECT_GE(result.branch_rows, 1u) << "k=" << k;
    EXPECT_EQ(result.warm_phase1_iterations, 0) << "k=" << k;
  }
}

TEST(Bnp, PseudoCostStallGateKeepsCertifiedOptima) {
  // The stall auto-gate (options.pseudo_cost_stall_gate) swaps the
  // branching *selector* mid-search when the dual bound flatlines; the
  // selector never affects soundness, so certified optima must agree
  // between a gate tight enough to trip on any multi-node search, the
  // default, and the gate disabled.
  std::vector<Instance> instances;
  instances.push_back(gen::hard_integral_family(2).instance);
  instances.push_back(gen::hard_integral_family(2, 3, 4.0).instance);
  {
    Rng rng(7);
    std::vector<Item> items;
    for (std::size_t i = 0; i < 16; ++i) {
      const double w =
          static_cast<double>(rng.uniform_int(27, 39)) / 100.0;
      items.push_back(Item{Rect{w, 1.0}, 0.0});
    }
    instances.push_back(Instance(std::move(items), 1.0));
  }
  for (const Instance& ins : instances) {
    BnpOptions reference;
    reference.rounding_incumbent = false;
    reference.pseudo_cost_stall_gate = 0;  // gate off: pseudo costs stay on
    const BnpResult base = solve(ins, reference);
    ASSERT_EQ(base.status, BnpStatus::Optimal);
    for (const int gate : {1, 32}) {
      BnpOptions gated = reference;
      gated.pseudo_cost_stall_gate = gate;
      const BnpResult result = solve(ins, gated);
      ASSERT_EQ(result.status, BnpStatus::Optimal) << "gate=" << gate;
      EXPECT_EQ(result.height, base.height) << "gate=" << gate;
      EXPECT_EQ(result.dual_bound, base.dual_bound) << "gate=" << gate;
    }
  }
}

TEST(Bnp, DenseMasterBackendProvesTheSameOptima) {
  // The master LP runs on the reference dense-tableau backend instead of
  // the eta-file engine; branch and price must reach the same certified
  // optimum with a closed gap. Keeps the backend seam honest end to end,
  // not just at the single-LP conformance level.
  for (std::size_t k = 1; k <= 3; ++k) {
    const auto family = gen::hard_integral_family(k);
    BnpOptions dense;
    dense.lp.backend = "dense";
    const BnpResult result = solve(family.instance, dense);
    EXPECT_EQ(result.status, BnpStatus::Optimal) << "k=" << k;
    EXPECT_NEAR(result.height, family.certificate.ip_height, kTol) << "k=" << k;
    EXPECT_NEAR(result.dual_bound, result.height, kTol) << "k=" << k;
  }
}

TEST(Bnp, NodeBudgetReturnsABracket) {
  const auto family = gen::hard_integral_family(3);
  BnpOptions options;
  options.rounding_incumbent = false;
  options.budget.max_nodes = 1;
  const BnpResult result = solve(family.instance, options);
  EXPECT_EQ(result.status, BnpStatus::NodeLimit);
  EXPECT_LE(result.dual_bound, result.height + kTol);
  // The incumbent is still a valid integral solution...
  EXPECT_GE(result.height, family.certificate.ip_height - kTol);
  // ...and the dual bound is still a certified lower bound.
  EXPECT_LE(result.dual_bound, family.certificate.ip_height + kTol);
  EXPECT_TRUE(
      testing::placement_valid(family.instance, result.packing.placement));
}

TEST(Bnp, SeededReleaseWorkloadsAreCertifiedAndRealized) {
  // Integer-height, integer-release workloads: the certified optimum must
  // sandwich between the fractional bound and the realized packing.
  for (const std::uint64_t seed : {3u, 17u, 29u}) {
    Rng rng(seed);
    std::vector<Item> items;
    const std::size_t n = 8 + seed % 5;
    for (std::size_t i = 0; i < n; ++i) {
      const double w = static_cast<double>(rng.uniform_int(1, 4)) / 4.0;
      const double h = static_cast<double>(rng.uniform_int(1, 3));
      const double r = static_cast<double>(rng.uniform_int(0, 3));
      items.push_back(Item{Rect{w, h}, r});
    }
    const Instance ins(std::move(items), 1.0);
    const BnpResult result = solve(ins);
    ASSERT_EQ(result.status, BnpStatus::Optimal) << "seed=" << seed;
    EXPECT_NEAR(result.dual_bound, result.height, kTol);
    EXPECT_GE(result.height,
              release::fractional_lower_bound(ins) - 1e-7);
    EXPECT_EQ(result.warm_phase1_iterations, 0);
    EXPECT_TRUE(testing::placement_valid(ins, result.packing.placement))
        << "seed=" << seed;
    EXPECT_GE(result.packing.height(), result.height - kTol);
  }
}

TEST(Bnp, CappedSearchCertifiesTheSameOptimaWithAndWithoutRounding) {
  // Every node re-solves under the height cap at incumbent - 0.9, so the
  // rounding incumbent and the trivial one cap differently and may
  // explore different trees — but every certified quantity must agree.
  std::size_t index = 0;
  for (const Instance& ins : exactness_sweep()) {
    const std::string label = "instance " + std::to_string(index++);
    BnpOptions rounded;
    BnpOptions trivial;
    trivial.rounding_incumbent = false;
    const BnpResult a = solve(ins, rounded);
    const BnpResult b = solve(ins, trivial);
    ASSERT_EQ(a.status, BnpStatus::Optimal) << label;
    ASSERT_EQ(b.status, BnpStatus::Optimal) << label;
    EXPECT_EQ(a.height, b.height) << label;
    EXPECT_EQ(a.dual_bound, b.dual_bound) << label;
    EXPECT_TRUE(testing::placement_valid(ins, a.packing.placement)) << label;
    EXPECT_TRUE(testing::placement_valid(ins, b.packing.placement)) << label;
  }
}

TEST(Bnp, JitteredFamilyKeepsTheCertificate) {
  // The jittered generator draws per-item widths from (1/3, 1/2] but the
  // certificate is the uniform family's: any two items pair, three never
  // fit, so lp = rho_R + (2k+1)/2 and ip = rho_R + k + 1 regardless of
  // the draws.
  for (const std::uint64_t seed : {1, 2, 3}) {
    const auto fam = gen::hard_integral_jittered(2, 2, 3.0, seed);
    EXPECT_DOUBLE_EQ(fam.certificate.lp_height, 3.0 + 2.5);
    EXPECT_DOUBLE_EQ(fam.certificate.ip_height, 3.0 + 3.0);
    const BnpResult r = solve(fam.instance);
    ASSERT_EQ(r.status, BnpStatus::Optimal) << "seed=" << seed;
    EXPECT_EQ(r.height, fam.certificate.ip_height) << "seed=" << seed;
    EXPECT_EQ(r.dual_bound, fam.certificate.ip_height) << "seed=" << seed;
  }
}

TEST(Bnp, DivingClosesDeepGapFamilies) {
  // On the gap families the root's rounded bound already equals the IP
  // optimum, so certifying is a hunt for an integral solution at the
  // root's bound level. Diving within the level (newest open node first
  // on bound ties) finds it in tens of nodes; the budget of 200 is far
  // below what a breadth-first sweep of the level needs (about 4000
  // nodes on k=4, more than the default 10 000 on k=5).
  const gen::HardIntegralInstance families[] = {
      gen::hard_integral_jittered(4, 2, 5.0, 5),
      gen::hard_integral_jittered(5, 2, 6.0, 1001),
  };
  EXPECT_DOUBLE_EQ(families[1].certificate.ip_height, 12.0);
  for (const auto& fam : families) {
    const std::string label = std::to_string(fam.certificate.n) + " items";
    const BnpResult r = solve(fam.instance);
    ASSERT_EQ(r.status, BnpStatus::Optimal) << label;
    EXPECT_LE(r.nodes, 200u) << label;
    EXPECT_EQ(r.height, fam.certificate.ip_height) << label;
    EXPECT_EQ(r.dual_bound, r.height) << label;
    EXPECT_TRUE(testing::placement_valid(fam.instance, r.packing.placement))
        << label;
  }
}

TEST(Bnp, ThreadsLeaveTheSearchUnchanged) {
  // `threads` is inert: every value runs the one in-place diving search,
  // so 0 (hardware concurrency), 2 and 4 replay the 1-thread run field
  // for field, and the batch counters stay at zero.
  std::size_t total_nodes = 0;
  for (const bool rounding : {true, false}) {
    std::size_t index = 0;
    for (const Instance& ins : branching_sweep()) {
      BnpOptions serial;
      serial.rounding_incumbent = rounding;
      const BnpResult base = solve(ins, serial);
      total_nodes += base.nodes;
      for (const int threads : {0, 2, 4}) {
        BnpOptions other_options = serial;
        other_options.threads = threads;
        const BnpResult other = solve(ins, other_options);
        const std::string label = "instance " + std::to_string(index) +
                                  " threads " + std::to_string(threads) +
                                  " rounding " + std::to_string(rounding);
        expect_bit_identical(base, other, label);
        EXPECT_EQ(other.batches, 0u) << label;
        EXPECT_EQ(other.node_retries, 0) << label;
      }
      ++index;
    }
  }
  // The sweep must actually exercise multi-node searches.
  EXPECT_GT(total_nodes, 40u);
}

TEST(Bnp, PricingBoundsCutDfsExpansions) {
  // The pricing DFS's subtree bounds are admissible, so they cut
  // expansions without changing a single priced column. The jittered
  // widths sit on no grid, so only the exact per-row branch bonuses and
  // the item-count cap on the fractional bound apply; the lump-bonus
  // density bound spent 95544 and 218721 expansions there. The seeded
  // instance's widths are hundredths, so the width-grid DP bound applies
  // too; without it the same search spent 11456 expansions.
  struct Case {
    std::string label;
    Instance instance;
    double height;
    std::int64_t max_expansions;
  };
  const Case cases[] = {
      {"jittered 4x2", gen::hard_integral_jittered(4, 2, 5.0, 5).instance,
       10.0, 95544 / 10},
      {"jittered 5x2", gen::hard_integral_jittered(5, 2, 6.0, 1).instance,
       12.0, 218721 / 10},
      {"grid widths", seeded_instance(23, 18, 21, 55, 1, 2), 8.0,
       11456 / 2},
  };
  for (const Case& c : cases) {
    const BnpResult r = solve(c.instance);
    ASSERT_EQ(r.status, BnpStatus::Optimal) << c.label;
    EXPECT_EQ(r.height, c.height) << c.label;
    EXPECT_EQ(r.dual_bound, c.height) << c.label;
    EXPECT_GT(r.pricing_dfs_expansions, 0) << c.label;
    EXPECT_LT(r.pricing_dfs_expansions, c.max_expansions) << c.label;
  }
}

TEST(Bnp, PseudoCostBranchingStaysExactOnGapFamilies) {
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

TEST(Bnp, NodeBudgetBitingMidSearchKeepsAValidBracket) {
  // A node budget smaller than the tree must yield NodeLimit with a
  // bracket that still sandwiches the true optimum when the budget bites
  // deep in the search (budget 10). The jittered gap family keeps the
  // truth search well above the budget.
  const Instance ins = gen::hard_integral_jittered(5, 2, 6.0, 1001).instance;
  BnpOptions exact;
  exact.rounding_incumbent = false;
  const BnpResult truth = solve(ins, exact);
  ASSERT_EQ(truth.status, BnpStatus::Optimal);
  ASSERT_GT(truth.nodes, 12u);  // the budget below must genuinely bite
  BnpOptions options = exact;
  options.budget.max_nodes = 10;
  const BnpResult result = solve(ins, options);
  EXPECT_EQ(result.status, BnpStatus::NodeLimit);
  EXPECT_EQ(result.nodes, 10u);
  EXPECT_LE(result.dual_bound, result.height + kTol);
  EXPECT_GE(result.height, truth.height - kTol);
  EXPECT_LE(result.dual_bound, truth.height + kTol);
  EXPECT_TRUE(testing::placement_valid(ins, result.packing.placement));
}

// Pivots a run takes with no fault injected: an injector with an empty
// plan only counts.
template <typename Run>
std::uint64_t count_pivots(Run run) {
  FaultInjector counter(FaultPlan{});
  run(counter);
  return counter.observed(FaultSite::Pivot);
}

// Two throws on consecutive pivots exhaust a re-solve's recovery ladder:
// the first aborts the attempt on the primary backend, the second the
// retry on the failover backend, leaving NumericalFailure — no verdict.
FaultPlan exhaust_resolve_at_pivot(std::uint64_t pivot) {
  FaultPlan plan;
  plan.events.push_back({FaultSite::Pivot, pivot, FaultAction::Throw});
  plan.events.push_back({FaultSite::Pivot, pivot + 1, FaultAction::Throw});
  return plan;
}

TEST(Bnp, UncappedFallbackCertifiesANoVerdictCappedResolve) {
  const auto family = gen::hard_integral_family(2);
  const release::ConfigLpProblem problem =
      release::make_problem(family.instance);
  release::ConfigLpOptions lp = BnpOptions{}.lp;

  // solve_node directly: the capped re-solve's first pivot trips the
  // faults, and the fallback must still return a certified verdict.
  const std::uint64_t root_pivots = count_pivots([&](FaultInjector& f) {
    lp.fault = &f;
    release::ConfigLpSolver solver(problem, lp);
    (void)solver.solve();
  });
  FaultInjector injector(exhaust_resolve_at_pivot(root_pivots + 1));
  lp.fault = &injector;
  release::ConfigLpSolver solver(problem, lp);
  const release::FractionalSolution root = solver.solve();
  ASSERT_TRUE(root.feasible);
  solver.ensure_height_cap_row();
  // A cap below the root optimum binds, so the capped re-solve pivots.
  const NodeEvaluation eval = solve_node(solver, {}, 0.5 * root.objective);
  EXPECT_EQ(injector.fired(), 2u);
  EXPECT_TRUE(eval.uncapped_fallback);
  ASSERT_TRUE(eval.solution.feasible);
  EXPECT_NEAR(eval.solution.objective, root.objective, kTol);

  // The same faults on the first node re-solve of a whole search: a node
  // left without a verdict would end the search Stalled; with the
  // fallback it still certifies the optimum.
  BnpOptions options;
  options.rounding_incumbent = false;  // the root must branch
  options.strong_branching_probes = 0;  // the first re-solve is a node
  BnpOptions root_only = options;
  root_only.budget.max_nodes = 1;
  const std::uint64_t search_root_pivots =
      count_pivots([&](FaultInjector& f) {
        root_only.lp.fault = &f;
        (void)bnp::solve(family.instance, root_only);
      });
  FaultInjector search_injector(
      exhaust_resolve_at_pivot(search_root_pivots + 1));
  options.lp.fault = &search_injector;
  const BnpResult result = bnp::solve(family.instance, options);
  EXPECT_EQ(search_injector.fired(), 2u);
  ASSERT_EQ(result.status, BnpStatus::Optimal);
  EXPECT_NEAR(result.height, family.certificate.ip_height, kTol);
  EXPECT_LE(result.dual_bound, result.height + kTol);
  EXPECT_TRUE(
      testing::placement_valid(family.instance, result.packing.placement));
}

TEST(Bnp, RejectsNonIntegerAndPrecedenceInstances) {
  EXPECT_THROW((void)solve(integer_instance({{0.5, 1.5, 0.0}})),
               ContractViolation);
  EXPECT_THROW((void)solve(integer_instance({{0.5, 1.0, 0.5}})),
               ContractViolation);
  Instance dag = integer_instance({{0.5, 1.0, 0.0}, {0.5, 1.0, 0.0}});
  dag.add_precedence(0, 1);
  EXPECT_THROW((void)solve(dag), ContractViolation);
}

TEST(BnpPacker, QuantizesArbitraryHeightsIntoAValidPacking) {
  Rng rng(11);
  gen::RectParams params;
  params.min_width = 0.2;
  params.max_width = 0.9;
  const auto rects = gen::random_rects(12, params, rng);
  const BnpPacker packer;
  const PackResult result = packer.pack(rects, 1.0);
  std::vector<Item> items;
  for (const Rect& r : rects) items.push_back(Item{r, 0.0});
  const Instance ins(std::move(items), 1.0);
  EXPECT_TRUE(testing::placement_valid(ins, result.placement));
  EXPECT_EQ(packer.name(), "BnP");
}

TEST(BnpPacker, RegisteredByNameButNotInTheHeuristicGallery) {
  const auto packer = make_packer("BnP");
  ASSERT_NE(packer, nullptr);
  EXPECT_EQ(packer->name(), "BnP");
  const std::vector<Rect> rects{{0.6, 1.0}, {0.6, 1.0}, {0.6, 1.0}};
  EXPECT_NEAR(packer->pack(rects, 1.0).height, 3.0, kTol);
  for (const auto& heuristic : all_packers()) {
    EXPECT_NE(heuristic->name(), "BnP");
  }
}

}  // namespace
}  // namespace stripack::bnp
