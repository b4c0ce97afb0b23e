// Backend-conformance kit: the executable statement of the `lp::LpBackend`
// contract (lp/backend.hpp). Every test is parameterized over the backend
// registry, so any registered backend — today the eta-file engine and the
// dense reference simplex, tomorrow whatever gets plugged in — must pass
// the same suite: cold certified optimality, warm re-solves with
// `phase1_iterations == 0` (rows, rhs-only, columns, basis handoff), valid
// Farkas certificates on infeasibility, the `objective_cutoff` early-exit
// of `solve_dual`, and stop-token deadlines.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "lp/backend.hpp"
#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "lp_test_support.hpp"
#include "util/rng.hpp"

namespace stripack::lp {
namespace {

class BackendConformance : public ::testing::TestWithParam<std::string> {
 protected:
  [[nodiscard]] std::unique_ptr<LpBackend> make(
      const Model& model, const SimplexOptions& options = {}) const {
    return make_lp_backend(GetParam(), model, options);
  }
};

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

// Independent ground truth for status/objective: the free-function solve
// (cold eta-file engine) — itself locked down by the differential suite.
Solution reference(const Model& model) { return solve(model); }

TEST_P(BackendConformance, ColdSolveCertifiedAgainstReference) {
  int optimal = 0, infeasible = 0;
  for (int seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const Model model = random_covering_model(rng, 4, 10);
    const Solution expected = reference(model);
    const Solution got = make(model)->solve();
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

TEST_P(BackendConformance, WarmRowResolveSkipsPhase1) {
  int resolved = 0;
  for (int seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    Model model = random_covering_model(rng, 4, 10);
    if (!reference(model).optimal()) continue;
    const auto backend = make(model);
    const Solution first = backend->solve();
    ASSERT_EQ(first.status, SolveStatus::Optimal) << "seed " << seed;
    // Append a cut violated by the current optimum: sum of all variables
    // at most half its current value.
    double total = 0.0;
    for (const double v : first.x) total += v;
    if (total < 1e-6) continue;
    std::vector<ColumnEntry> entries;
    for (int c = 0; c < model.num_cols(); ++c) entries.push_back({c, 1.0});
    model.add_row_with_entries(Sense::LE, 0.5 * total, entries);
    backend->sync_rows();
    const Solution warm = backend->solve_dual();
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

TEST_P(BackendConformance, RhsOnlyResolveIsPhase1Free) {
  int tightened = 0;
  for (int seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    Model model = random_covering_model(rng, 5, 12);
    if (!reference(model).optimal()) continue;
    const auto backend = make(model);
    ASSERT_EQ(backend->solve().status, SolveStatus::Optimal);
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
    backend->sync_rows();
    const Solution warm = backend->solve_dual();
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

TEST_P(BackendConformance, ColumnSyncKeepsWarmStartsPhase1Free) {
  for (int seed = 1; seed <= 15; ++seed) {
    Rng rng(1000 + seed);
    Model model = random_covering_model(rng, 4, 6);
    if (!reference(model).optimal()) continue;
    const auto backend = make(model);
    ASSERT_EQ(backend->solve().status, SolveStatus::Optimal);
    // Grow the master by a few cheap columns, colgen-style.
    for (int extra = 0; extra < 3; ++extra) {
      std::vector<RowEntry> entries;
      for (int r = 0; r < model.num_rows(); ++r) {
        if (rng.bernoulli(0.5)) entries.push_back({r, rng.uniform(0.2, 1.5)});
      }
      model.add_column(rng.uniform(0.2, 1.0), entries);
    }
    backend->sync_columns();
    const Solution warm = backend->solve();
    ASSERT_EQ(warm.status, SolveStatus::Optimal) << "seed " << seed;
    EXPECT_EQ(warm.phase1_iterations, 0) << "seed " << seed;
    certify_optimal_solution(model, warm);
    const Solution cold = reference(model);
    EXPECT_NEAR(warm.objective, cold.objective,
                1e-6 * (1.0 + std::fabs(cold.objective)));
  }
}

TEST_P(BackendConformance, BasisHandoffRestartsWithoutPhase1) {
  for (int seed = 1; seed <= 15; ++seed) {
    Rng rng(2000 + seed);
    const Model model = random_covering_model(rng, 5, 12);
    if (!reference(model).optimal()) continue;
    const Solution first = make(model)->solve();
    ASSERT_EQ(first.status, SolveStatus::Optimal);
    ASSERT_EQ(static_cast<int>(first.basis.size()), model.num_rows());
    SimplexOptions options;
    options.initial_basis = first.basis;
    const Solution warm = make(model, options)->solve();
    ASSERT_EQ(warm.status, SolveStatus::Optimal) << "seed " << seed;
    EXPECT_EQ(warm.phase1_iterations, 0) << "seed " << seed;
    certify_optimal_solution(model, warm);
    EXPECT_NEAR(warm.objective, first.objective,
                1e-6 * (1.0 + std::fabs(first.objective)));
  }
}

TEST_P(BackendConformance, ColdInfeasibleExportsFarkas) {
  // x <= 1 conflicting with x + y >= 3, y absent elsewhere and capped out.
  Model model;
  const int le = model.add_row(Sense::LE, 1.0);
  const int ge = model.add_row(Sense::GE, 3.0);
  const int cap = model.add_row(Sense::LE, 0.5);
  model.add_column(1.0, std::vector<RowEntry>{{le, 1.0}, {ge, 1.0}});
  model.add_column(1.0, std::vector<RowEntry>{{ge, 1.0}, {cap, 1.0}});
  const Solution got = make(model)->solve();
  expect_valid_farkas(model, got);
}

TEST_P(BackendConformance, EqualityRowsSolveAndCertify) {
  Model model;
  const int eq = model.add_row(Sense::EQ, 2.0);
  const int le = model.add_row(Sense::LE, 3.0);
  model.add_column(1.0, std::vector<RowEntry>{{eq, 1.0}, {le, 1.0}});
  model.add_column(3.0, std::vector<RowEntry>{{eq, 1.0}});
  const Solution got = make(model)->solve();
  ASSERT_EQ(got.status, SolveStatus::Optimal);
  certify_optimal_solution(model, got);
  EXPECT_NEAR(got.objective, 2.0, 1e-7);  // cheap column covers the equality
}

TEST_P(BackendConformance, UnboundedDetected) {
  Model model;
  const int r = model.add_row(Sense::GE, 1.0);
  model.add_column(-1.0, std::vector<RowEntry>{{r, 1.0}});
  const Solution got = make(model)->solve();
  EXPECT_EQ(got.status, SolveStatus::Unbounded);
}

TEST_P(BackendConformance, ObjectiveCutoffStopsDualResolveEarly) {
  int exercised = 0;
  for (int seed = 1; seed <= 25; ++seed) {
    Rng rng(3000 + seed);
    Model model = random_covering_model(rng, 5, 12);
    const Solution base = reference(model);
    if (!base.optimal()) continue;
    const auto backend = make(model);
    ASSERT_EQ(backend->solve().status, SolveStatus::Optimal);
    for (int r = 0; r < model.num_rows(); ++r) {
      if (model.row_sense(r) == Sense::GE) {
        model.set_row_rhs(r, 2.0 * model.row_rhs(r) + 0.5);
      }
    }
    const Solution after = reference(model);
    if (!after.optimal() || after.objective < base.objective + 1e-3) continue;
    const double cutoff = 0.5 * (base.objective + after.objective);
    backend->sync_rows();
    const Solution pruned = backend->solve_dual(false, cutoff);
    if (pruned.status == SolveStatus::Optimal) {
      // Documented escape hatch: an rhs change can push the retained basis
      // outside dual reach, and the primal fallback ignores the cutoff.
      // The answer must then be the full optimum.
      EXPECT_NEAR(pruned.objective, after.objective,
                  1e-6 * (1.0 + std::fabs(after.objective)))
          << "seed " << seed;
      continue;
    }
    ++exercised;
    ASSERT_EQ(pruned.status, SolveStatus::ObjectiveCutoff) << "seed " << seed;
    // The reported bound is certified: at or past the cutoff, never past
    // the true optimum.
    EXPECT_GE(pruned.objective, cutoff - 1e-7) << "seed " << seed;
    EXPECT_LE(pruned.objective,
              after.objective + 1e-6 * (1.0 + std::fabs(after.objective)))
        << "seed " << seed;
    EXPECT_EQ(pruned.phase1_iterations, 0);
  }
  // The early exit itself must fire for the sweep to mean anything.
  EXPECT_GT(exercised, 0);
}

TEST_P(BackendConformance, ExpiredDeadlineStopsColdAndWarmSolves) {
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
    const Solution cold = make(model, options)->solve();
    EXPECT_EQ(cold.status, SolveStatus::IterationLimit) << "seed " << seed;
    EXPECT_TRUE(cold.farkas.empty()) << "seed " << seed;

    const auto backend = make(model);
    ASSERT_EQ(backend->solve().status, SolveStatus::Optimal);
    for (int r = 0; r < model.num_rows(); ++r) {
      if (model.row_sense(r) == Sense::GE) {
        model.set_row_rhs(r, 2.0 * model.row_rhs(r) + 0.5);
      }
    }
    backend->sync_rows();
    backend->set_stop(expired);
    const Solution warm = backend->solve_dual();
    EXPECT_EQ(warm.status, SolveStatus::IterationLimit) << "seed " << seed;
    EXPECT_TRUE(warm.farkas.empty()) << "seed " << seed;
    ++exercised;
  }
  EXPECT_GT(exercised, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Registry, BackendConformance,
    ::testing::ValuesIn(lp_backend_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace stripack::lp
