// Fault-injection sweeps (util/fault_injection.hpp): seeded FaultPlans
// drive every injected failure class — eta corruption, near-singular
// pivots, thrown exceptions, tripped stop tokens — through the raw LP
// engine, the configuration-LP solver (enumeration and column
// generation) and full branch and price, asserting that each run ends in
// a *documented* status with a valid bound bracket, that recovered runs
// reproduce the fault-free optimum, and that the whole pipeline is
// deterministic for a fixed plan. Plus direct unit tests of the injector
// (exactly-once claims, plan determinism).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "bnp/solver.hpp"
#include "core/validate.hpp"
#include "gen/hard_integral.hpp"
#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "lp_test_support.hpp"
#include "release/config_lp.hpp"
#include "test_support.hpp"
#include "util/fault_injection.hpp"

namespace stripack {
namespace {

constexpr double kTol = 1e-6;

TEST(FaultPlan, RandomIsDeterministicInTheSeed) {
  const FaultPlan a = FaultPlan::random(42, 6, 100);
  const FaultPlan b = FaultPlan::random(42, 6, 100);
  ASSERT_EQ(a.events.size(), 6u);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].site, b.events[i].site) << i;
    EXPECT_EQ(a.events[i].at, b.events[i].at) << i;
    EXPECT_EQ(a.events[i].action, b.events[i].action) << i;
    EXPECT_EQ(a.events[i].magnitude, b.events[i].magnitude) << i;
    EXPECT_GE(a.events[i].at, 1u);
    EXPECT_LE(a.events[i].at, 100u);
    EXPECT_NE(a.events[i].action, FaultAction::None);
  }
  // A different seed draws a different schedule (with overwhelming
  // probability; this particular pair is fixed, so the check is exact).
  const FaultPlan c = FaultPlan::random(43, 6, 100);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    any_diff = any_diff || a.events[i].site != c.events[i].site ||
               a.events[i].at != c.events[i].at ||
               a.events[i].action != c.events[i].action;
  }
  EXPECT_TRUE(any_diff);
}

TEST(FaultInjector, FiresEachEventExactlyOnce) {
  FaultPlan plan;
  plan.events.push_back(
      {FaultSite::Pivot, 3, FaultAction::NearSingularPivot, 0.0});
  plan.events.push_back({FaultSite::Pivot, 5, FaultAction::Throw, 0.0});
  plan.events.push_back(
      {FaultSite::Refactor, 2, FaultAction::PerturbEta, 0.25});
  FaultInjector injector(plan);

  std::vector<FaultAction> pivot_actions;
  for (int k = 0; k < 8; ++k) {
    pivot_actions.push_back(injector.poll(FaultSite::Pivot));
  }
  ASSERT_EQ(pivot_actions.size(), 8u);
  EXPECT_EQ(pivot_actions[2], FaultAction::NearSingularPivot);  // at == 3
  EXPECT_EQ(pivot_actions[4], FaultAction::Throw);              // at == 5
  for (const int k : {0, 1, 3, 5, 6, 7}) {
    EXPECT_EQ(pivot_actions[static_cast<std::size_t>(k)], FaultAction::None)
        << "pivot " << k + 1;
  }

  double magnitude = 0.0;
  EXPECT_EQ(injector.poll(FaultSite::Refactor, &magnitude),
            FaultAction::None);
  EXPECT_EQ(injector.poll(FaultSite::Refactor, &magnitude),
            FaultAction::PerturbEta);
  EXPECT_EQ(magnitude, 0.25);
  EXPECT_EQ(injector.poll(FaultSite::Refactor), FaultAction::None);

  EXPECT_EQ(injector.fired(), 3u);
  EXPECT_EQ(injector.observed(FaultSite::Pivot), 8u);
  EXPECT_EQ(injector.observed(FaultSite::Refactor), 3u);
  EXPECT_EQ(injector.observed(FaultSite::PricingRound), 0u);
}

TEST(FaultInjector, ActionAndSiteNamesAreStable) {
  EXPECT_STREQ(to_string(FaultSite::Pivot), "pivot");
  EXPECT_STREQ(to_string(FaultSite::Refactor), "refactor");
  EXPECT_STREQ(to_string(FaultSite::PricingRound), "pricing-round");
  EXPECT_STREQ(to_string(FaultAction::None), "none");
  EXPECT_STREQ(to_string(FaultAction::PerturbEta), "perturb-eta");
  EXPECT_STREQ(to_string(FaultAction::NearSingularPivot),
               "near-singular-pivot");
  EXPECT_STREQ(to_string(FaultAction::Throw), "throw");
  EXPECT_STREQ(to_string(FaultAction::TripStop), "trip-stop");
}

// Raw engine level: a faulted solve must end in a documented SolveStatus
// (certified when Optimal) or raise FaultInjected for the containment
// layers above — never assert, hang, or return a bogus certificate.
// Recovered Optimal runs must match the fault-free objective exactly as a
// verdict (the basis may differ).
TEST(FaultInjection, BackendsSurviveSeededPlans) {
  std::uint64_t total_fired = 0;
  for (int seed = 1; seed <= 12; ++seed) {
    Rng rng(500 + seed);
    const lp::Model model = lp::random_covering_model(rng, 6, 18);
    const lp::Solution baseline = lp::solve(model);

    const FaultPlan plan =
        FaultPlan::random(static_cast<std::uint64_t>(seed), 3, 40);
    FaultInjector injector(plan);
    lp::SimplexOptions options;
    options.fault = &injector;
    lp::Solution faulted;
    bool threw = false;
    try {
      faulted = lp::SimplexEngine(model, options).solve();
    } catch (const FaultInjected&) {
      threw = true;  // contained by the failover layer in prod
    }
    total_fired += injector.fired();
    if (threw) continue;
    switch (faulted.status) {
      case lp::SolveStatus::Optimal:
        lp::certify_optimal_solution(model, faulted);
        EXPECT_NEAR(faulted.objective, baseline.objective,
                    kTol * (1.0 + std::fabs(baseline.objective)))
            << "seed " << seed;
        break;
      case lp::SolveStatus::Infeasible:
        // A feasibility verdict must agree with the clean run.
        EXPECT_EQ(baseline.status, lp::SolveStatus::Infeasible)
            << "seed " << seed;
        break;
      case lp::SolveStatus::IterationLimit:   // tripped stop token
      case lp::SolveStatus::NumericalFailure:  // ladder ran dry
        break;
      default:
        FAIL() << "seed " << seed << ": undocumented status";
    }
  }
  EXPECT_GT(total_fired, 0u);  // the sweep genuinely engaged the plans
}

release::ConfigLpProblem small_problem() {
  release::ConfigLpProblem problem;
  problem.widths = {0.6, 0.35, 0.2};
  problem.releases = {0.0, 1.0};
  problem.demand = {{1.0, 2.0, 1.5}, {0.5, 1.0, 2.0}};
  problem.strip_width = 1.0;
  return problem;
}

// Configuration-LP level: the solver owns the failover barrier, so no
// exception may escape, and every exit is a documented status. A run that
// reports Optimal after recovery must reproduce the fault-free optimum;
// a fixed plan must be deterministic across reruns.
TEST(FaultInjection, ConfigLpRecoversOrDegradesHonestly) {
  const release::ConfigLpProblem problem = small_problem();
  release::ConfigLpOptions clean;
  const release::FractionalSolution baseline =
      release::solve_config_lp(problem, clean);
  ASSERT_TRUE(baseline.feasible);

  std::uint64_t total_fired = 0;
  int recoveries_observed = 0;
  for (const bool colgen : {false, true}) {
    for (int seed = 1; seed <= 12; ++seed) {
      const FaultPlan plan = FaultPlan::random(
          static_cast<std::uint64_t>(1000 + seed), 4, 60);
      auto run = [&]() -> release::FractionalSolution {
        FaultInjector injector(plan);
        release::ConfigLpOptions options;
        options.use_column_generation = colgen;
        options.fault = &injector;
        const release::FractionalSolution out =
            release::solve_config_lp(problem, options);
        total_fired += injector.fired();
        return out;
      };
      const release::FractionalSolution a = run();
      switch (a.status) {
        case lp::SolveStatus::Optimal:
          EXPECT_NEAR(a.objective, baseline.objective,
                      kTol * (1.0 + std::fabs(baseline.objective)))
              << "colgen " << colgen << " seed " << seed;
          break;
        case lp::SolveStatus::IterationLimit:
        case lp::SolveStatus::NumericalFailure:
          break;  // honest degradation; no bogus certificate
        default:
          FAIL() << "colgen " << colgen << " seed " << seed
                 << ": undocumented status (the problem is feasible and "
                    "bounded)";
      }
      recoveries_observed += a.lp_refactor_retries + a.lp_residual_repairs +
                             a.lp_cold_restarts + a.master_failovers;
      // Determinism: the identical plan replays to the identical outcome.
      const release::FractionalSolution b = run();
      EXPECT_EQ(a.status, b.status)
          << "colgen " << colgen << " seed " << seed;
      EXPECT_EQ(a.feasible, b.feasible);
      if (a.feasible && b.feasible) {
        EXPECT_EQ(a.objective, b.objective) << "bitwise replay";
      }
      EXPECT_EQ(a.lp_cold_restarts, b.lp_cold_restarts);
      EXPECT_EQ(a.master_failovers, b.master_failovers);
    }
  }
  EXPECT_GT(total_fired, 0u);
  EXPECT_GT(recoveries_observed, 0);  // the ladder actually climbed
}

// Rung 3 in isolation: a master that throws on its first pivot is
// replaced by a fresh cold engine over the same model. The replacement
// must reach the fault-free optimum, and later warm re-solves on it must
// replay the fault-free solver's re-solves exactly — an infeasible cap
// (Farkas pricing), a relaxed cap, and a tightened phase.
TEST(FaultInjection, MasterFailoverReplaysTheFaultFreeSolver) {
  const release::ConfigLpProblem problem = small_problem();
  release::ConfigLpOptions options;
  options.use_column_generation = true;
  release::ConfigLpSolver clean(problem, options);

  FaultPlan plan;
  plan.events.push_back({FaultSite::Pivot, 1, FaultAction::Throw});
  FaultInjector injector(plan);
  options.fault = &injector;
  release::ConfigLpSolver failed_over(problem, options);

  const release::FractionalSolution base = clean.solve();
  const release::FractionalSolution root = failed_over.solve();
  ASSERT_EQ(base.status, lp::SolveStatus::Optimal);
  EXPECT_EQ(injector.fired(), 1u);
  EXPECT_EQ(root.master_failovers, 1);
  ASSERT_EQ(root.status, lp::SolveStatus::Optimal);
  EXPECT_EQ(root.objective, base.objective);

  const double full = problem.releases[1] - problem.releases[0];
  const auto expect_same = [](const release::FractionalSolution& want,
                              const release::FractionalSolution& got,
                              const char* step) {
    EXPECT_EQ(got.status, want.status) << step;
    EXPECT_EQ(got.objective, want.objective) << step;
    EXPECT_EQ(got.master_failovers, 0) << step;
    EXPECT_EQ(got.colgen_warm_phase1_iterations, 0) << step;
  };
  const auto infeasible_want =
      clean.resolve_with_height_cap(0.5 * base.objective);
  ASSERT_EQ(infeasible_want.status, lp::SolveStatus::Infeasible);
  expect_same(infeasible_want,
              failed_over.resolve_with_height_cap(0.5 * base.objective),
              "infeasible cap");
  const auto relaxed_want =
      clean.resolve_with_height_cap(base.objective + 1.0);
  ASSERT_EQ(relaxed_want.status, lp::SolveStatus::Optimal);
  expect_same(relaxed_want,
              failed_over.resolve_with_height_cap(base.objective + 1.0),
              "relaxed cap");
  clean.clear_height_cap();
  failed_over.clear_height_cap();
  const auto tight_want = clean.resolve_with_phase_capacity(0, 0.25 * full);
  ASSERT_EQ(tight_want.status, lp::SolveStatus::Optimal);
  EXPECT_GT(tight_want.dual_iterations, 0);
  expect_same(tight_want,
              failed_over.resolve_with_phase_capacity(0, 0.25 * full),
              "tightened phase");
  EXPECT_EQ(injector.fired(), 1u);
}

// Branch-and-price level: the anytime contract under injected faults.
// Whatever the plan does to the node LPs, solve() must return a valid
// bracket around the known certified optimum, a feasible packing, and a
// documented status — and replay deterministically.
TEST(FaultInjection, BnpKeepsAnytimeContractUnderFaults) {
  const auto family = gen::hard_integral_family(2);
  const double optimum = family.certificate.ip_height;

  std::uint64_t total_fired = 0;
  for (const bool colgen : {false, true}) {
    for (int seed = 1; seed <= 8; ++seed) {
      const FaultPlan plan = FaultPlan::random(
          static_cast<std::uint64_t>(2000 + seed), 4, 120);
      auto run = [&]() -> bnp::BnpResult {
        FaultInjector injector(plan);
        bnp::BnpOptions options;
        options.lp.use_column_generation = colgen;
        options.lp.fault = &injector;
        const bnp::BnpResult out = bnp::solve(family.instance, options);
        total_fired += injector.fired();
        return out;
      };
      const bnp::BnpResult a = run();
      const std::string tag = "colgen " + std::to_string(colgen) +
                              " seed " + std::to_string(seed);
      // Documented status, valid bracket, feasible realization — always.
      EXPECT_TRUE(a.status == bnp::BnpStatus::Optimal ||
                  a.status == bnp::BnpStatus::NodeLimit ||
                  a.status == bnp::BnpStatus::TimeLimit ||
                  a.status == bnp::BnpStatus::Stalled)
          << tag;
      EXPECT_LE(a.dual_bound, optimum + kTol) << tag;
      EXPECT_GE(a.height, optimum - kTol) << tag;
      EXPECT_LE(a.dual_bound, a.height + kTol) << tag;
      EXPECT_TRUE(
          testing::placement_valid(family.instance, a.packing.placement))
          << tag;
      if (a.status == bnp::BnpStatus::Optimal) {
        EXPECT_NEAR(a.height, optimum, kTol) << tag;
      }
      const bnp::BnpResult b = run();
      EXPECT_EQ(a.status, b.status) << tag;
      EXPECT_EQ(a.height, b.height) << tag;
      EXPECT_EQ(a.dual_bound, b.dual_bound) << tag;
      EXPECT_EQ(a.nodes, b.nodes) << tag;
    }
  }
  EXPECT_GT(total_fired, 0u);
}

}  // namespace
}  // namespace stripack
