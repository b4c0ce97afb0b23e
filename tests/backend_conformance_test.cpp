// Engine-conformance kit: the executable statement of the resumable-LP
// contract the configuration-LP master relies on (lp/simplex.hpp). The
// eta-file `SimplexEngine` must pass: cold certified optimality, warm
// re-solves with `phase1_iterations == 0` (rows, rhs-only, columns, basis
// handoff), valid Farkas certificates on infeasibility, and stop-token
// deadlines.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <vector>

#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "lp_test_support.hpp"
#include "util/rng.hpp"

namespace stripack::lp {
namespace {

// A Farkas certificate must prove infeasibility of the *current* model:
// y'a_c <= tol for every column, the sign matching each row's sense, and
// y'b strictly positive.
void expect_valid_farkas(const Model& model, const Solution& solution,
                         double tol = 1e-6) {
  ASSERT_EQ(solution.status, SolveStatus::Infeasible);
  ASSERT_EQ(static_cast<int>(solution.farkas.size()), model.num_rows());
  double yb = 0.0;
  for (int r = 0; r < model.num_rows(); ++r) {
    const double y = solution.farkas[r];
    switch (model.row_sense(r)) {
      case Sense::LE:
        EXPECT_LE(y, tol) << "row " << r << " sign";
        break;
      case Sense::GE:
        EXPECT_GE(y, -tol) << "row " << r << " sign";
        break;
      case Sense::EQ:
        break;  // free multiplier
    }
    yb += y * model.row_rhs(r);
  }
  EXPECT_GT(yb, 1e-9) << "certificate must separate b";
  for (int c = 0; c < model.num_cols(); ++c) {
    double ya = 0.0;
    for (const RowEntry& e : model.column_entries(c)) {
      ya += solution.farkas[e.row] * e.coef;
    }
    EXPECT_LE(ya, tol) << "column " << c << " must price nonpositive";
  }
}

// Ground truth for status/objective: a cold free-function solve, itself
// locked down against an independent dense-tableau reference by the
// differential suite. The warm cases below re-solve an edited model and
// must land where a cold solve of the edited model does.
Solution reference(const Model& model) { return solve(model); }

TEST(EngineConformance, ColdSolveCertifiedAgainstReference) {
  int optimal = 0, infeasible = 0;
  for (int seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const Model model = random_covering_model(rng, 4, 10);
    const Solution expected = reference(model);
    const Solution got = SimplexEngine(model).solve();
    ASSERT_EQ(got.status, expected.status) << "seed " << seed;
    if (got.status == SolveStatus::Optimal) {
      ++optimal;
      certify_optimal_solution(model, got);
      EXPECT_NEAR(got.objective, expected.objective,
                  1e-6 * (1.0 + std::fabs(expected.objective)))
          << "seed " << seed;
    } else if (got.status == SolveStatus::Infeasible) {
      ++infeasible;
      expect_valid_farkas(model, got);
    }
  }
  // The generator must exercise both verdicts for this sweep to mean much.
  EXPECT_GT(optimal, 0);
  EXPECT_GT(infeasible, 0);
}

TEST(EngineConformance, WarmRowResolveSkipsPhase1) {
  int resolved = 0;
  for (int seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    Model model = random_covering_model(rng, 4, 10);
    if (!reference(model).optimal()) continue;
    SimplexEngine engine(model);
    const Solution first = engine.solve();
    ASSERT_EQ(first.status, SolveStatus::Optimal) << "seed " << seed;
    // Append a cut violated by the current optimum: sum of all variables
    // at most half its current value.
    double total = 0.0;
    for (const double v : first.x) total += v;
    if (total < 1e-6) continue;
    std::vector<ColumnEntry> entries;
    for (int c = 0; c < model.num_cols(); ++c) entries.push_back({c, 1.0});
    model.add_row_with_entries(Sense::LE, 0.5 * total, entries);
    engine.sync_rows();
    const Solution warm = engine.solve_dual();
    EXPECT_EQ(warm.phase1_iterations, 0) << "seed " << seed;
    const Solution cold = reference(model);
    ASSERT_EQ(warm.status, cold.status) << "seed " << seed;
    if (warm.status == SolveStatus::Optimal) {
      ++resolved;
      EXPECT_GE(warm.dual_iterations, 1) << "seed " << seed;
      certify_optimal_solution(model, warm);
      EXPECT_NEAR(warm.objective, cold.objective,
                  1e-6 * (1.0 + std::fabs(cold.objective)));
    } else {
      expect_valid_farkas(model, warm);
    }
  }
  EXPECT_GT(resolved, 0);
}

TEST(EngineConformance, RhsOnlyResolveIsPhase1Free) {
  int tightened = 0;
  for (int seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    Model model = random_covering_model(rng, 5, 12);
    if (!reference(model).optimal()) continue;
    SimplexEngine engine(model);
    ASSERT_EQ(engine.solve().status, SolveStatus::Optimal);
    // Tighten every covering row's demand in place — no new rows, so this
    // must ride the rhs-only fast path of sync_rows.
    bool changed = false;
    for (int r = 0; r < model.num_rows(); ++r) {
      if (model.row_sense(r) == Sense::GE && model.row_rhs(r) > 0.0) {
        model.set_row_rhs(r, 1.5 * model.row_rhs(r) + 0.25);
        changed = true;
      }
    }
    if (!changed) continue;
    ++tightened;
    engine.sync_rows();
    const Solution warm = engine.solve_dual();
    EXPECT_EQ(warm.phase1_iterations, 0) << "seed " << seed;
    const Solution cold = reference(model);
    ASSERT_EQ(warm.status, cold.status) << "seed " << seed;
    if (warm.status == SolveStatus::Optimal) {
      certify_optimal_solution(model, warm);
      EXPECT_NEAR(warm.objective, cold.objective,
                  1e-6 * (1.0 + std::fabs(cold.objective)));
    } else {
      expect_valid_farkas(model, warm);
    }
  }
  EXPECT_GT(tightened, 0);
}

TEST(EngineConformance, ColumnSyncKeepsWarmStartsPhase1Free) {
  for (int seed = 1; seed <= 15; ++seed) {
    Rng rng(1000 + seed);
    Model model = random_covering_model(rng, 4, 6);
    if (!reference(model).optimal()) continue;
    SimplexEngine engine(model);
    ASSERT_EQ(engine.solve().status, SolveStatus::Optimal);
    // Grow the master by a few cheap columns, colgen-style.
    for (int extra = 0; extra < 3; ++extra) {
      std::vector<RowEntry> entries;
      for (int r = 0; r < model.num_rows(); ++r) {
        if (rng.bernoulli(0.5)) entries.push_back({r, rng.uniform(0.2, 1.5)});
      }
      model.add_column(rng.uniform(0.2, 1.0), entries);
    }
    engine.sync_columns();
    const Solution warm = engine.solve();
    ASSERT_EQ(warm.status, SolveStatus::Optimal) << "seed " << seed;
    EXPECT_EQ(warm.phase1_iterations, 0) << "seed " << seed;
    certify_optimal_solution(model, warm);
    const Solution cold = reference(model);
    EXPECT_NEAR(warm.objective, cold.objective,
                1e-6 * (1.0 + std::fabs(cold.objective)));
  }
}

TEST(EngineConformance, BasisHandoffRestartsWithoutPhase1) {
  for (int seed = 1; seed <= 15; ++seed) {
    Rng rng(2000 + seed);
    const Model model = random_covering_model(rng, 5, 12);
    if (!reference(model).optimal()) continue;
    const Solution first = SimplexEngine(model).solve();
    ASSERT_EQ(first.status, SolveStatus::Optimal);
    ASSERT_EQ(static_cast<int>(first.basis.size()), model.num_rows());
    SimplexOptions options;
    options.initial_basis = first.basis;
    const Solution warm = SimplexEngine(model, options).solve();
    ASSERT_EQ(warm.status, SolveStatus::Optimal) << "seed " << seed;
    EXPECT_EQ(warm.phase1_iterations, 0) << "seed " << seed;
    certify_optimal_solution(model, warm);
    EXPECT_NEAR(warm.objective, first.objective,
                1e-6 * (1.0 + std::fabs(first.objective)));
  }
}

TEST(EngineConformance, ColdInfeasibleExportsFarkas) {
  // x <= 1 conflicting with x + y >= 3, y absent elsewhere and capped out.
  Model model;
  const int le = model.add_row(Sense::LE, 1.0);
  const int ge = model.add_row(Sense::GE, 3.0);
  const int cap = model.add_row(Sense::LE, 0.5);
  model.add_column(1.0, std::vector<RowEntry>{{le, 1.0}, {ge, 1.0}});
  model.add_column(1.0, std::vector<RowEntry>{{ge, 1.0}, {cap, 1.0}});
  const Solution got = SimplexEngine(model).solve();
  expect_valid_farkas(model, got);
}

TEST(EngineConformance, EqualityRowsSolveAndCertify) {
  Model model;
  const int eq = model.add_row(Sense::EQ, 2.0);
  const int le = model.add_row(Sense::LE, 3.0);
  model.add_column(1.0, std::vector<RowEntry>{{eq, 1.0}, {le, 1.0}});
  model.add_column(3.0, std::vector<RowEntry>{{eq, 1.0}});
  const Solution got = SimplexEngine(model).solve();
  ASSERT_EQ(got.status, SolveStatus::Optimal);
  certify_optimal_solution(model, got);
  EXPECT_NEAR(got.objective, 2.0, 1e-7);  // cheap column covers the equality
}

TEST(EngineConformance, UnboundedDetected) {
  Model model;
  const int r = model.add_row(Sense::GE, 1.0);
  model.add_column(-1.0, std::vector<RowEntry>{{r, 1.0}});
  const Solution got = SimplexEngine(model).solve();
  EXPECT_EQ(got.status, SolveStatus::Unbounded);
}

TEST(EngineConformance, ExpiredDeadlineStopsColdAndWarmSolves) {
  // A token whose deadline has already passed stops at the first pivot
  // boundary — no helper thread involved — with IterationLimit and no
  // certificate, on a cold solve and on a warm dual re-solve alike.
  StopToken expired;
  expired.deadline = StopToken::Clock::now() - std::chrono::seconds(1);
  int exercised = 0;
  for (int seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    Model model = random_covering_model(rng, 4, 10);
    if (!reference(model).optimal()) continue;
    SimplexOptions options;
    options.stop = expired;
    const Solution cold = SimplexEngine(model, options).solve();
    EXPECT_EQ(cold.status, SolveStatus::IterationLimit) << "seed " << seed;
    EXPECT_TRUE(cold.farkas.empty()) << "seed " << seed;

    SimplexEngine engine(model);
    ASSERT_EQ(engine.solve().status, SolveStatus::Optimal);
    for (int r = 0; r < model.num_rows(); ++r) {
      if (model.row_sense(r) == Sense::GE) {
        model.set_row_rhs(r, 2.0 * model.row_rhs(r) + 0.5);
      }
    }
    engine.sync_rows();
    engine.set_stop(expired);
    const Solution warm = engine.solve_dual();
    EXPECT_EQ(warm.status, SolveStatus::IterationLimit) << "seed " << seed;
    EXPECT_TRUE(warm.farkas.empty()) << "seed " << seed;
    ++exercised;
  }
  EXPECT_GT(exercised, 0);
}

}  // namespace
}  // namespace stripack::lp
