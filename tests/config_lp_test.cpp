#include "release/config_lp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/bounds.hpp"
#include "gen/release_gen.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace stripack::release {
namespace {

Instance items_of(const std::vector<std::tuple<double, double, double>>& whr) {
  Instance ins;
  for (const auto& [w, h, r] : whr) ins.add_item(w, h, r);
  return ins;
}

// Checks that the slices satisfy the packing and covering constraints.
void verify_fractional(const ConfigLpProblem& problem,
                       const FractionalSolution& sol) {
  ASSERT_TRUE(sol.feasible);
  const std::size_t phases = problem.releases.size();
  const std::size_t widths = problem.widths.size();
  // Packing: total slice height in phase j <= phase duration (j < R).
  std::vector<double> phase_height(phases, 0.0);
  std::vector<std::vector<double>> supply(phases,
                                          std::vector<double>(widths, 0.0));
  for (const Slice& s : sol.slices) {
    ASSERT_LT(s.phase, phases);
    phase_height[s.phase] += s.height;
    for (std::size_t i = 0; i < widths; ++i) {
      supply[s.phase][i] += s.config.counts[i] * s.height;
    }
  }
  for (std::size_t j = 0; j + 1 < phases; ++j) {
    EXPECT_LE(phase_height[j],
              problem.releases[j + 1] - problem.releases[j] + 1e-6);
  }
  // Covering: for each k, i: sum_{j>=k} supply >= sum_{j>=k} demand.
  for (std::size_t k = 0; k < phases; ++k) {
    for (std::size_t i = 0; i < widths; ++i) {
      double s = 0.0, d = 0.0;
      for (std::size_t j = k; j < phases; ++j) {
        s += supply[j][i];
        d += problem.demand[j][i];
      }
      EXPECT_GE(s, d - 1e-6) << "cover k=" << k << " i=" << i;
    }
  }
  // Objective = total phase-R height; height = rho_R + objective.
  EXPECT_NEAR(sol.objective, phase_height[phases - 1], 1e-6);
  EXPECT_NEAR(sol.height, problem.releases.back() + sol.objective, 1e-9);
}

TEST(MakeProblem, ExtractsDistinctTables) {
  const Instance ins = items_of(
      {{0.5, 1.0, 0.0}, {0.5, 0.5, 1.0}, {0.25, 1.0, 0.0}, {0.25, 0.5, 1.0}});
  const auto problem = make_problem(ins);
  EXPECT_EQ(problem.widths, (std::vector<double>{0.5, 0.25}));
  EXPECT_EQ(problem.releases, (std::vector<double>{0.0, 1.0}));
  EXPECT_DOUBLE_EQ(problem.demand[0][0], 1.0);   // width .5 at r=0
  EXPECT_DOUBLE_EQ(problem.demand[1][0], 0.5);   // width .5 at r=1
  EXPECT_DOUBLE_EQ(problem.demand[0][1], 1.0);
  EXPECT_DOUBLE_EQ(problem.demand[1][1], 0.5);
}

TEST(ConfigLp, SingleReleaseIsFractionalStripPacking) {
  // Two width-0.5 items of height 1, release 0: fractional height 1
  // (side by side).
  const Instance ins = items_of({{0.5, 1.0, 0.0}, {0.5, 1.0, 0.0}});
  const auto sol = solve_config_lp(make_problem(ins));
  ASSERT_TRUE(sol.feasible);
  EXPECT_NEAR(sol.height, 1.0, 1e-6);
  verify_fractional(make_problem(ins), sol);
}

TEST(ConfigLp, FullWidthItemsStackFractionally) {
  const Instance ins = items_of({{1.0, 1.0, 0.0}, {1.0, 1.0, 0.0}});
  const auto sol = solve_config_lp(make_problem(ins));
  EXPECT_NEAR(sol.height, 2.0, 1e-6);
}

TEST(ConfigLp, LateReleaseForcesWaiting) {
  // One 0.5-wide item released at 10 with height 1. The fractional version
  // explicitly allows pieces of the *same* rectangle side by side (§3), so
  // the LP halves it into two parallel strips: height 10 + 0.5.
  const Instance ins = items_of({{0.5, 1.0, 10.0}});
  const auto sol = solve_config_lp(make_problem(ins));
  EXPECT_NEAR(sol.height, 10.5, 1e-6);
  // A full-width item cannot be parallelized: height 10 + 1.
  const Instance full = items_of({{1.0, 1.0, 10.0}});
  EXPECT_NEAR(solve_config_lp(make_problem(full)).height, 11.0, 1e-6);
}

TEST(ConfigLp, EarlyPhaseAbsorbsEarlyWork) {
  // Item A (h=2... not allowed >1; h=1) at r=0, item B at r=1, same width
  // 1.0: A fills [0,1), B [1,2): height 2.
  const Instance ins = items_of({{1.0, 1.0, 0.0}, {1.0, 1.0, 1.0}});
  const auto sol = solve_config_lp(make_problem(ins));
  EXPECT_NEAR(sol.height, 2.0, 1e-6);
  verify_fractional(make_problem(ins), sol);
}

TEST(ConfigLp, FractionalBeatsIntegralWhenSplittingHelps) {
  // Three 0.5-wide unit-height items, one release: fractional height 1.5
  // (one item split across the two columns), integral needs 2.
  const Instance ins =
      items_of({{0.5, 1.0, 0.0}, {0.5, 1.0, 0.0}, {0.5, 1.0, 0.0}});
  const auto sol = solve_config_lp(make_problem(ins));
  EXPECT_NEAR(sol.height, 1.5, 1e-6);
}

TEST(ConfigLp, ColgenMatchesEnumeration) {
  Rng rng(8);
  gen::ReleaseWorkloadParams params;
  params.n = 40;
  params.K = 4;
  const Instance ins = gen::poisson_release_workload(params, rng);
  const auto problem = make_problem(ins);

  ConfigLpOptions enumerate_options;
  const auto full = solve_config_lp(problem, enumerate_options);
  ConfigLpOptions colgen_options;
  colgen_options.use_column_generation = true;
  const auto cg = solve_config_lp(problem, colgen_options);

  ASSERT_TRUE(full.feasible);
  ASSERT_TRUE(cg.feasible);
  EXPECT_NEAR(full.height, cg.height, 1e-5);
  verify_fractional(problem, full);
  verify_fractional(problem, cg);
  EXPECT_GT(cg.colgen_rounds, 0);
  // Warm-started masters never rerun phase 1 after the first round.
  EXPECT_EQ(cg.colgen_warm_phase1_iterations, 0);
}

TEST(ConfigLp, RejectsUnknownBackend) {
  ConfigLpProblem problem;
  problem.widths = {0.5};
  problem.releases = {0.0};
  problem.demand = {{1.0}};
  ConfigLpOptions options;
  options.backend = "no-such-backend";
  EXPECT_THROW((void)solve_config_lp(problem, options),
               std::invalid_argument);
}

TEST(ConfigLp, LowerBoundIsBelowAnyValidHeight) {
  Rng rng(21);
  gen::ReleaseWorkloadParams params;
  params.n = 30;
  params.K = 3;
  const Instance ins = gen::poisson_release_workload(params, rng);
  const double lb = fractional_lower_bound(ins);
  // The trivial bounds are dominated by the LP bound.
  EXPECT_GE(lb, release_lower_bound(ins) - 1e-6);
  EXPECT_GE(lb, area_lower_bound(ins) - 1e-6);
}

TEST(ConfigLp, BasicSolutionWithinLemma33Budget) {
  Rng rng(33);
  gen::ReleaseWorkloadParams params;
  params.n = 60;
  params.K = 4;
  const Instance ins = gen::poisson_release_workload(params, rng);
  const auto problem = make_problem(ins);
  const auto sol = solve_config_lp(problem);
  ASSERT_TRUE(sol.feasible);
  // Lemma 3.3: nonzeros <= (W+1)(R+1) (W widths, R+1 phases here).
  const std::size_t budget =
      (problem.widths.size() + 1) * problem.releases.size();
  EXPECT_LE(sol.slices.size(), budget);
  verify_fractional(problem, sol);
}

TEST(ConfigLp, CoarseLowerBoundIsBelowExact) {
  Rng rng(87);
  gen::ReleaseWorkloadParams params;
  params.n = 40;
  params.K = 3;
  const Instance ins = gen::poisson_release_workload(params, rng);
  const double exact = fractional_lower_bound(ins);
  for (double eps_down : {0.5, 0.25, 0.1}) {
    const double coarse = fractional_lower_bound_coarse(ins, eps_down);
    EXPECT_LE(coarse, exact + 1e-6) << "eps_down=" << eps_down;
    // Lemma 3.1 both ways: the coarse bound is within (1+eps) of exact.
    EXPECT_GE(coarse * (1.0 + eps_down), exact - 1e-6);
  }
}

class ConfigLpSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConfigLpSweep, RandomWorkloadsSolveAndVerify) {
  Rng rng(GetParam());
  gen::ReleaseWorkloadParams params;
  params.n = 50;
  params.K = 4;
  params.arrival_rate = rng.uniform(0.5, 4.0);
  const Instance ins = gen::poisson_release_workload(params, rng);
  const auto problem = make_problem(ins);
  const auto sol = solve_config_lp(problem);
  verify_fractional(problem, sol);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfigLpSweep,
                         ::testing::Values(1u, 12u, 23u, 34u, 45u));

// ------------------------------------------------ incremental re-solves
Instance cap_test_instance(std::uint64_t seed) {
  Rng rng(seed);
  gen::ReleaseWorkloadParams params;
  params.n = 30;
  params.K = 3;
  return gen::poisson_release_workload(params, rng);
}

TEST(ConfigLpSolver, HeightCapAtOrAboveOptimumIsFree) {
  const auto problem = make_problem(cap_test_instance(61));
  for (const bool colgen : {false, true}) {
    ConfigLpOptions options;
    options.use_column_generation = colgen;
    ConfigLpSolver solver(problem, options);
    const auto base = solver.solve();
    verify_fractional(problem, base);
    // The objective *is* the capped quantity: a cap at (or above) the
    // optimum adds a satisfied row, so the dual re-solve is free.
    for (const double margin : {0.5, 0.0}) {
      const auto capped =
          solver.resolve_with_height_cap(base.objective + margin);
      verify_fractional(problem, capped);
      EXPECT_NEAR(capped.objective, base.objective, 1e-6)
          << "colgen=" << colgen << " margin=" << margin;
      EXPECT_EQ(capped.dual_iterations, 0);
      EXPECT_EQ(capped.colgen_warm_phase1_iterations, 0);
    }
  }
}

TEST(ConfigLpSolver, HeightCapBelowOptimumIsInfeasible) {
  const auto problem = make_problem(cap_test_instance(62));
  ConfigLpSolver solver(problem);
  const auto base = solver.solve();
  ASSERT_TRUE(base.feasible);
  ASSERT_GT(base.objective, 0.1);
  // The LP minimizes the phase-R height, so any cap below the optimum cuts
  // off the entire feasible set: the branch-and-bound "prune" outcome.
  const auto pruned = solver.resolve_with_height_cap(base.objective * 0.5);
  EXPECT_FALSE(pruned.feasible);
  // A prune needs the Farkas certificate, not a mere non-optimal status.
  EXPECT_EQ(pruned.status, lp::SolveStatus::Infeasible);
  // The solver state survives the infeasible probe: relaxing the cap back
  // above the optimum recovers it.
  const auto recovered = solver.resolve_with_height_cap(base.objective + 1.0);
  verify_fractional(problem, recovered);
  EXPECT_NEAR(recovered.objective, base.objective, 1e-6);
}

TEST(ConfigLpSolver, PhaseCapacityTighteningIsMonotoneAndRuleInvariant) {
  const auto problem = make_problem(cap_test_instance(63));
  ASSERT_GT(problem.num_releases(), 1u);
  const double full = problem.releases[1] - problem.releases[0];
  double tightened_value = 0.0;
  bool have_value = false;
  for (const lp::PricingRule rule :
       {lp::PricingRule::Dantzig, lp::PricingRule::Bland}) {
    ConfigLpOptions options;
    options.pricing = rule;
    ConfigLpSolver solver(problem, options);
    const auto base = solver.solve();
    ASSERT_TRUE(base.feasible);
    // Halving phase 0's capacity pushes work into later phases: the
    // objective can only grow, with no phase 1 anywhere.
    const auto tight = solver.resolve_with_phase_capacity(0, full * 0.5);
    verify_fractional(problem, tight);
    EXPECT_GE(tight.objective, base.objective - 1e-6);
    EXPECT_EQ(tight.colgen_warm_phase1_iterations, 0);
    // Restoring the capacity restores the optimum.
    const auto relaxed = solver.resolve_with_phase_capacity(0, full);
    verify_fractional(problem, relaxed);
    EXPECT_NEAR(relaxed.objective, base.objective, 1e-6);
    // Every pricing rule reaches the same tightened optimum.
    if (!have_value) {
      tightened_value = tight.objective;
      have_value = true;
    } else {
      EXPECT_NEAR(tight.objective, tightened_value,
                  1e-6 * (1.0 + tightened_value));
    }
  }
}

// ------------------------------------------------ Farkas pricing
// Regression for the removed restricted-only caveat: before Farkas
// pricing, a column-generation master that became infeasible after a
// branching row was reported Infeasible even when the *full* master was
// feasible — a branch-and-price caller acting on that verdict would have
// wrongly pruned a feasible branch.
TEST(ConfigLpSolver, FarkasPricingRepairsARestrictedInfeasibleBranch) {
  // One 0.5 and one 0.3 item: the colgen master only ever sees the
  // singleton seeds and (at most) the {0.5, 0.3} pair. A branch row
  // demanding one unit of the {0.3, 0.3} pattern is infeasible for that
  // restricted master, but perfectly feasible for the full one.
  const Instance ins = items_of({{0.5, 1.0, 0.0}, {0.3, 1.0, 0.0}});
  const auto problem = make_problem(ins);

  BranchPredicate pattern;
  pattern.kind = BranchPredicate::Kind::Pattern;
  pattern.phase = 0;
  pattern.counts = {0, 2};  // widths descending: [0.5, 0.3]

  ConfigLpOptions colgen_options;
  colgen_options.use_column_generation = true;
  ConfigLpSolver colgen(problem, colgen_options);
  const auto base = colgen.solve();
  ASSERT_TRUE(base.feasible);
  // {0.5,0.5} at 1/2 plus {0.3,0.3,0.3} at 1/3 — both items split.
  EXPECT_NEAR(base.objective, 5.0 / 6.0, 1e-6);

  colgen.add_branch_row(pattern, lp::Sense::GE, 1.0);
  const auto repaired = colgen.resolve();
  ASSERT_TRUE(repaired.feasible)
      << "Farkas pricing must inject the {0.3,0.3} column";
  EXPECT_GE(repaired.farkas_rounds, 1);
  EXPECT_GE(repaired.farkas_columns, 1u);
  EXPECT_EQ(repaired.colgen_warm_phase1_iterations, 0);
  verify_fractional(problem, repaired);

  // The enumeration-mode master (all columns up front) is the ground
  // truth for the branched optimum.
  ConfigLpSolver enumerated(problem);
  ASSERT_TRUE(enumerated.solve().feasible);
  enumerated.add_branch_row(pattern, lp::Sense::GE, 1.0);
  const auto truth = enumerated.resolve();
  ASSERT_TRUE(truth.feasible);
  EXPECT_NEAR(repaired.objective, truth.objective, 1e-6);
  // One forced {0.3,0.3} slab plus {0.5,0.5} at 1/2 for the wide item.
  EXPECT_NEAR(repaired.objective, 1.5, 1e-6);
}

TEST(ConfigLpSolver, ColgenHeightCapInfeasibilityIsCertified) {
  const auto problem = make_problem(cap_test_instance(62));
  ConfigLpOptions options;
  options.use_column_generation = true;
  ConfigLpSolver solver(problem, options);
  const auto base = solver.solve();
  ASSERT_TRUE(base.feasible);
  ASSERT_GT(base.objective, 0.1);
  // A cap below the optimum is infeasible for the full master too; the
  // Farkas loop must terminate with that verdict (pricing every candidate
  // column against the certificate and finding none), matching the
  // enumeration-mode ground truth.
  const auto pruned = solver.resolve_with_height_cap(base.objective * 0.5);
  EXPECT_EQ(pruned.status, lp::SolveStatus::Infeasible);
  EXPECT_EQ(pruned.colgen_warm_phase1_iterations, 0);
  ConfigLpSolver enumerated(problem);
  ASSERT_TRUE(enumerated.solve().feasible);
  EXPECT_EQ(
      enumerated.resolve_with_height_cap(base.objective * 0.5).status,
      lp::SolveStatus::Infeasible);
  // The colgen solver state survives the certified probe.
  const auto recovered =
      solver.resolve_with_height_cap(base.objective + 1.0);
  verify_fractional(problem, recovered);
  EXPECT_NEAR(recovered.objective, base.objective, 1e-6);
  EXPECT_EQ(recovered.colgen_warm_phase1_iterations, 0);
}

TEST(ConfigLpSolver, PenalizedPatternEscapeColumnIsPriced) {
  // Minimal concrete instance (found by differential search) where the
  // node optimum under a forbidden pattern needs a column that *adds* a
  // zero-dual width to the penalized pattern: forbidding {0.45, 0.45} in
  // phase 1 makes {0.45, 0.45, 0.1} the only way to keep the objective at
  // 7/6, and the 0.1 width prices at value 0 (its demand rides along for
  // free), so the skip-non-positive DFS pruning would hide it and colgen
  // would report 4/3 — a wrong node bound for branch and price.
  Instance ins = items_of({{0.1, 1.0, 0.0},
                           {0.3, 1.0, 1.0},
                           {0.3, 1.0, 1.0},
                           {0.45, 1.0, 1.0}});
  const auto problem = make_problem(ins);
  ASSERT_EQ(problem.widths,
            (std::vector<double>{0.45, 0.3, 0.1}));
  BranchPredicate forbid;
  forbid.kind = BranchPredicate::Kind::Pattern;
  forbid.phase = 1;
  forbid.counts = {2, 0, 0};
  ConfigLpOptions cgo;
  cgo.use_column_generation = true;
  ConfigLpSolver cg(problem, cgo);
  ASSERT_TRUE(cg.solve().feasible);
  cg.add_branch_row(forbid, lp::Sense::LE, 0.0);
  const auto pruned = cg.resolve();
  ASSERT_TRUE(pruned.feasible);
  EXPECT_NEAR(pruned.objective, 7.0 / 6.0, 1e-6);
  EXPECT_EQ(pruned.colgen_warm_phase1_iterations, 0);
}

TEST(ConfigLpSolver, PenalizedPatternPricingStaysExact) {
  // Pattern predicates are non-monotone: with an LE (negative-dual) row
  // on pattern P, pricing can need a column that *adds* a non-positive
  // value width to P to escape the penalty. The DFS's skip-non-positive
  // pruning must stand down while such a row applies, or colgen node
  // bounds drift above the enumeration ground truth. Differential sweep:
  // forbid (LE 0) each pattern in the fractional support, in both modes.
  for (const std::uint64_t seed : {2u, 9u, 14u, 27u, 41u}) {
    Rng rng(seed);
    const double width_pool[] = {0.45, 0.4, 0.3, 0.25, 0.2, 0.15};
    Instance ins;
    const std::size_t n = 6 + seed % 4;
    for (std::size_t i = 0; i < n; ++i) {
      ins.add_item(width_pool[rng.uniform_int(0, 5)],
                   static_cast<double>(rng.uniform_int(1, 2)),
                   static_cast<double>(rng.uniform_int(0, 1)));
    }
    const auto problem = make_problem(ins);
    ConfigLpOptions colgen_options;
    colgen_options.use_column_generation = true;
    ConfigLpSolver cg(problem, colgen_options);
    const auto cg_base = cg.solve();
    ASSERT_TRUE(cg_base.feasible);
    ConfigLpSolver full(problem);
    ASSERT_TRUE(full.solve().feasible);

    std::vector<int> cg_rows;
    std::vector<int> full_rows;
    for (const Slice& s : cg_base.slices) {
      BranchPredicate pattern;
      pattern.kind = BranchPredicate::Kind::Pattern;
      pattern.phase = static_cast<int>(s.phase);
      pattern.counts = s.config.counts;
      cg_rows.push_back(cg.add_branch_row(pattern, lp::Sense::LE, 0.0));
      full_rows.push_back(full.add_branch_row(pattern, lp::Sense::LE, 0.0));
      const auto pruned = cg.resolve();
      const auto truth = full.resolve();
      ASSERT_EQ(pruned.status, truth.status)
          << "seed=" << seed << " slice phase=" << s.phase;
      if (truth.feasible) {
        EXPECT_NEAR(pruned.objective, truth.objective,
                    1e-6 * (1.0 + truth.objective))
            << "seed=" << seed;
        EXPECT_EQ(pruned.colgen_warm_phase1_iterations, 0);
      }
      // Relax again so the next pattern is tested in isolation.
      cg.deactivate_branch_row(cg_rows.back());
      full.deactivate_branch_row(full_rows.back());
    }
  }
}

TEST(ConfigLpSolver, ParkedBranchRowsLeavePricingExact) {
  // Pricing hands the DFS only the branch rows whose multiplier is
  // nonzero. Differential sweep: park many Pattern and PairTogether rows
  // (zero multipliers at the optimum), keep one live GE pair row and one
  // live LE pattern row, and check colgen against enumeration. The widths
  // sit on a grid (denominator 20), so the DP bound prices every round.
  for (const std::uint64_t seed : {3u, 8u, 15u, 22u, 33u}) {
    Rng rng(seed);
    const double width_pool[] = {0.45, 0.4, 0.3, 0.25, 0.2, 0.15};
    Instance ins;
    const std::size_t n = 6 + seed % 4;
    for (std::size_t i = 0; i < n; ++i) {
      ins.add_item(width_pool[rng.uniform_int(0, 5)],
                   static_cast<double>(rng.uniform_int(1, 2)),
                   static_cast<double>(rng.uniform_int(0, 1)));
    }
    const auto problem = make_problem(ins);
    const std::size_t widths = problem.widths.size();
    const std::size_t phases = problem.releases.size();
    ConfigLpOptions colgen_options;
    colgen_options.use_column_generation = true;
    ConfigLpSolver cg(problem, colgen_options);
    const auto cg_base = cg.solve();
    ASSERT_TRUE(cg_base.feasible);
    ConfigLpSolver full(problem);
    ASSERT_TRUE(full.solve().feasible);
    const auto add_both = [&](const BranchPredicate& pred, lp::Sense sense,
                              double rhs) {
      return std::pair{cg.add_branch_row(pred, sense, rhs),
                       full.add_branch_row(pred, sense, rhs)};
    };

    // Parked rows: every support pattern, and every pair in every phase.
    std::vector<std::pair<int, int>> parked;
    for (const Slice& s : cg_base.slices) {
      BranchPredicate pattern;
      pattern.kind = BranchPredicate::Kind::Pattern;
      pattern.phase = static_cast<int>(s.phase);
      pattern.counts = s.config.counts;
      parked.push_back(add_both(pattern, lp::Sense::LE, 0.0));
    }
    for (std::size_t j = 0; j < phases; ++j) {
      for (std::size_t a = 0; a < widths; ++a) {
        for (std::size_t b = a; b < widths; ++b) {
          BranchPredicate pair;
          pair.kind = BranchPredicate::Kind::PairTogether;
          pair.phase = static_cast<int>(j);
          pair.width_a = a;
          pair.width_b = b;
          parked.push_back(add_both(pair, lp::Sense::GE, 1.0));
        }
      }
    }
    for (const auto& [cg_row, full_row] : parked) {
      cg.deactivate_branch_row(cg_row);
      full.deactivate_branch_row(full_row);
    }

    // Live GE row: the fitting pair the base solution covers least.
    BranchPredicate live_pair;
    live_pair.kind = BranchPredicate::Kind::PairTogether;
    double least = std::numeric_limits<double>::infinity();
    for (std::size_t a = 0; a < widths; ++a) {
      for (std::size_t b = a + 1; b < widths; ++b) {
        if (problem.widths[a] + problem.widths[b] > problem.strip_width) {
          continue;
        }
        double covered = 0.0;
        for (const Slice& s : cg_base.slices) {
          if (s.config.counts[a] > 0 && s.config.counts[b] > 0) {
            covered += s.height;
          }
        }
        if (covered < least) {
          least = covered;
          live_pair.width_a = a;
          live_pair.width_b = b;
        }
      }
    }
    add_both(live_pair, lp::Sense::GE, 1.0);

    // Live LE row: forbid each base support pattern in turn.
    std::pair<int, int> live_le{-1, -1};
    for (const Slice& s : cg_base.slices) {
      if (live_le.first >= 0) {
        cg.deactivate_branch_row(live_le.first);
        full.deactivate_branch_row(live_le.second);
      }
      BranchPredicate pattern;
      pattern.kind = BranchPredicate::Kind::Pattern;
      pattern.phase = static_cast<int>(s.phase);
      pattern.counts = s.config.counts;
      live_le = add_both(pattern, lp::Sense::LE, 0.0);
      const auto pruned = cg.resolve();
      const auto truth = full.resolve();
      ASSERT_EQ(pruned.status, truth.status) << "seed=" << seed;
      if (truth.feasible) {
        EXPECT_NEAR(pruned.objective, truth.objective,
                    1e-6 * (1.0 + truth.objective))
            << "seed=" << seed;
        EXPECT_EQ(pruned.colgen_warm_phase1_iterations, 0);
      }
    }
  }
}

TEST(ConfigLpSolver, OffGridPairRowsKeepPricingExact) {
  // Basis-point widths ending in 1 or 3 sit on no grid of denominator
  // <= 4096, so pricing runs the DFS on its fractional and item-count
  // bounds, with the per-row bonus bound. Several live pair rows in both
  // senses (GE rows above the current cover collect positive multipliers,
  // LE rows at 0 negative ones), on the pairs that fill the strip most,
  // must leave colgen equal to enumeration.
  struct Pool {
    int lo, hi;  // width range in tens of basis points
  };
  const Pool pools[] = {{334, 499}, {150, 599}};  // [0.3334, 0.5], mixed
  int moved_ge = 0;
  int moved_le = 0;
  for (const Pool& pool : pools) {
    for (const std::uint64_t seed : {4u, 9u, 17u, 28u}) {
      Rng rng(seed);
      Instance ins;
      const std::size_t n = 7 + seed % 4;
      for (std::size_t i = 0; i < n; ++i) {
        const auto bp = 10 * rng.uniform_int(pool.lo, pool.hi) +
                        (rng.bernoulli(0.5) ? 1 : 3);
        ins.add_item(static_cast<double>(bp) / 10000.0,
                     static_cast<double>(rng.uniform_int(1, 2)),
                     static_cast<double>(rng.uniform_int(0, 1)));
      }
      const auto problem = make_problem(ins);
      const std::size_t widths = problem.widths.size();
      // Pairs that fit, fullest first.
      std::vector<std::pair<std::size_t, std::size_t>> pairs;
      for (std::size_t a = 0; a < widths; ++a) {
        for (std::size_t b = a; b < widths; ++b) {
          if (problem.widths[a] + problem.widths[b] <= problem.strip_width) {
            pairs.emplace_back(a, b);
          }
        }
      }
      const auto fill = [&](const std::pair<std::size_t, std::size_t>& p) {
        return problem.widths[p.first] + problem.widths[p.second];
      };
      std::stable_sort(pairs.begin(), pairs.end(),
                       [&](const auto& x, const auto& y) {
                         return fill(x) > fill(y);
                       });
      pairs.resize(std::min<std::size_t>(pairs.size(), 6));
      ASSERT_GE(pairs.size(), 4u) << "seed=" << seed;
      const std::string label =
          "lo=" + std::to_string(pool.lo) + " seed=" + std::to_string(seed);
      ConfigLpOptions colgen_options;
      colgen_options.use_column_generation = true;
      ConfigLpSolver cg(problem, colgen_options);
      ConfigLpSolver full(problem);
      ASSERT_TRUE(cg.solve().feasible) << label;
      FractionalSolution truth = full.solve();
      ASSERT_TRUE(truth.feasible) << label;
      for (std::size_t k = 0; k < pairs.size(); ++k) {
        BranchPredicate pred;
        pred.kind = BranchPredicate::Kind::PairTogether;
        pred.width_a = pairs[k].first;
        pred.width_b = pairs[k].second;
        const bool ge = k % 2 == 0;
        double rhs = 0.0;
        if (ge) {
          for (const Slice& s : truth.slices) {
            if (pred.matches(s.config.counts, s.phase)) rhs += s.height;
          }
          rhs += 1.0;
        }
        const lp::Sense sense = ge ? lp::Sense::GE : lp::Sense::LE;
        cg.add_branch_row(pred, sense, rhs);
        full.add_branch_row(pred, sense, rhs);
        const double before = truth.objective;
        const auto priced = cg.resolve();
        truth = full.resolve();
        ASSERT_EQ(priced.status, truth.status) << label << " row " << k;
        ASSERT_TRUE(truth.feasible) << label << " row " << k;
        EXPECT_NEAR(priced.objective, truth.objective,
                    1e-6 * (1.0 + truth.objective))
            << label << " row " << k;
        verify_fractional(problem, priced);
        if (truth.objective > before + 1e-6) ++(ge ? moved_ge : moved_le);
      }
    }
  }
  // Both senses must actually bind somewhere in the sweep.
  EXPECT_GT(moved_ge, 0);
  EXPECT_GT(moved_le, 0);
}

TEST(ConfigLpSolver, PairBranchRowsSteerBothDirectionsWarm) {
  // Ryan–Foster shape: force the {0.4, 0.4} pair out, then force it in,
  // on one shared warm master; both directions re-solve without phase 1
  // and match an enumeration-mode cold solve.
  const Instance ins =
      items_of({{0.4, 1.0, 0.0}, {0.4, 1.0, 0.0}, {0.4, 1.0, 0.0}});
  const auto problem = make_problem(ins);
  BranchPredicate pair;
  pair.kind = BranchPredicate::Kind::PairTogether;
  pair.phase = 0;
  pair.width_a = 0;
  pair.width_b = 0;  // same width twice: counts[0] >= 2
  for (const bool colgen : {true, false}) {
    ConfigLpOptions options;
    options.use_column_generation = colgen;
    ConfigLpSolver solver(problem, options);
    const auto base = solver.solve();
    ASSERT_TRUE(base.feasible);
    EXPECT_NEAR(base.objective, 1.5, 1e-6);  // the fractional pair split
    const int row = solver.add_branch_row(pair, lp::Sense::LE, 0.0);
    const auto forbidden = solver.resolve();
    verify_fractional(problem, forbidden);
    EXPECT_NEAR(forbidden.objective, 3.0, 1e-6) << "colgen=" << colgen;
    EXPECT_EQ(forbidden.colgen_warm_phase1_iterations, 0);
    // Deactivating the row restores the fractional optimum.
    solver.deactivate_branch_row(row);
    const auto restored = solver.resolve();
    verify_fractional(problem, restored);
    EXPECT_NEAR(restored.objective, 1.5, 1e-6);
    // The GE direction: at least two units of pair height.
    solver.add_branch_row(pair, lp::Sense::GE, 2.0);
    const auto forced = solver.resolve();
    verify_fractional(problem, forced);
    EXPECT_GE(forced.objective, 2.0 - 1e-6);
    EXPECT_EQ(forced.colgen_warm_phase1_iterations, 0);
  }
}

}  // namespace
}  // namespace stripack::release
