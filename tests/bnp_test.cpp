// Branch-and-price solver mechanics: certified optima on gap families,
// warm-path invariants, budgets, node tree determinism, and the packer
// adapter. Cross-validation against the other exact solvers lives in
// bnp_exact_cross_test.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "bnp/node_tree.hpp"
#include "bnp/solver.hpp"
#include "core/validate.hpp"
#include "gen/hard_integral.hpp"
#include "packers/registry.hpp"
#include "release/config_lp.hpp"
#include "test_support.hpp"
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

TEST(NodeTree, BestFirstWithFifoTies) {
  NodeTree tree;
  tree.add_root(5.0);
  ASSERT_EQ(tree.pop_best(), 0);
  BranchDecision d;  // contents irrelevant here
  const int a = tree.add_child(0, d, 7.0);
  const int b = tree.add_child(0, d, 6.0);
  const int c = tree.add_child(0, d, 7.0);
  EXPECT_EQ(tree.pop_best(), b);
  // Equal bounds pop in creation order.
  EXPECT_EQ(tree.pop_best(), a);
  EXPECT_EQ(tree.pop_best(), c);
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
