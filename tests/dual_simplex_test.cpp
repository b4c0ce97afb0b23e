// Dual-simplex regression suite: adding cut rows (or tightening rhs) to a
// solved model and re-solving with `SimplexEngine::solve_dual()` must
// reproduce a cold solve of the grown model — without ever re-running
// phase 1 — and the documented fallback/infeasibility statuses must hold.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "lp/colgen.hpp"
#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "lp_test_support.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"

namespace stripack::lp {
namespace {

constexpr double kTol = 1e-6;

// min x + y s.t. x + 2y >= 4, 3x + y >= 6 => (1.6, 1.2), objective 2.8.
Model covering_model() {
  Model m;
  const int r1 = m.add_row(Sense::GE, 4);
  const int r2 = m.add_row(Sense::GE, 6);
  const RowEntry x_entries[] = {{r1, 1.0}, {r2, 3.0}};
  const RowEntry y_entries[] = {{r1, 2.0}, {r2, 1.0}};
  m.add_column(1.0, x_entries, "x");
  m.add_column(1.0, y_entries, "y");
  return m;
}

TEST(DualSimplex, ViolatedCutRowResolvesToTheColdOptimum) {
  Model m = covering_model();
  SimplexEngine engine(m);
  const Solution first = engine.solve();
  ASSERT_TRUE(first.optimal());
  EXPECT_NEAR(first.objective, 2.8, kTol);

  // x + y >= 4 cuts off (1.6, 1.2): the dual re-solve must move to the
  // new optimum (cross-checked against a cold solve) with no phase 1.
  const ColumnEntry cut[] = {{0, 1.0}, {1, 1.0}};
  m.add_row_with_entries(Sense::GE, 4.0, cut, "cut");
  engine.sync_rows();
  const Solution resolved = engine.solve_dual();
  certify_optimal_solution(m, resolved);
  const Solution cold = solve(m);
  ASSERT_TRUE(cold.optimal());
  EXPECT_NEAR(resolved.objective, cold.objective, kTol);
  EXPECT_GE(resolved.objective, first.objective - kTol);  // cuts never help
  EXPECT_EQ(resolved.phase1_iterations, 0);
  EXPECT_GT(resolved.dual_iterations, 0);
}

TEST(DualSimplex, SatisfiedRowIsFreeToAdd) {
  Model m = covering_model();
  SimplexEngine engine(m);
  const Solution first = engine.solve();
  ASSERT_TRUE(first.optimal());

  // x + y <= 10 holds comfortably at (1.6, 1.2): zero pivots of any kind.
  const ColumnEntry loose[] = {{0, 1.0}, {1, 1.0}};
  m.add_row_with_entries(Sense::LE, 10.0, loose, "loose");
  engine.sync_rows();
  const Solution resolved = engine.solve_dual();
  certify_optimal_solution(m, resolved);
  EXPECT_NEAR(resolved.objective, first.objective, kTol);
  EXPECT_EQ(resolved.phase1_iterations, 0);
  EXPECT_EQ(resolved.dual_iterations, 0);
  EXPECT_EQ(resolved.iterations, 0);
}

TEST(DualSimplex, InfeasibleCutReturnsInfeasible) {
  Model m = covering_model();
  SimplexEngine engine(m);
  ASSERT_TRUE(engine.solve().optimal());

  // x + y <= 1 contradicts x + 2y >= 4: the dual ratio test finds no
  // entering column for the violated row — a Farkas certificate — and the
  // documented status is Infeasible (matching a cold solve).
  const ColumnEntry cut[] = {{0, 1.0}, {1, 1.0}};
  m.add_row_with_entries(Sense::LE, 1.0, cut, "impossible");
  engine.sync_rows();
  const Solution resolved = engine.solve_dual();
  EXPECT_EQ(resolved.status, SolveStatus::Infeasible);
  EXPECT_EQ(solve(m).status, SolveStatus::Infeasible);
  EXPECT_EQ(resolved.phase1_iterations, 0);
}

TEST(DualSimplex, NegativeResidualEqualityRowIsHandledDually) {
  Model m = covering_model();
  SimplexEngine engine(m);
  const Solution first = engine.solve();
  ASSERT_TRUE(first.optimal());

  // x + y = 2 with activity 2.8: negative residual in transformed space,
  // so the basic artificial starts negative and the dual simplex drives
  // it out (no phase 1).
  const ColumnEntry cut[] = {{0, 1.0}, {1, 1.0}};
  m.add_row_with_entries(Sense::EQ, 2.0, cut, "eq");
  engine.sync_rows();
  const Solution resolved = engine.solve_dual();
  const Solution cold = solve(m);
  ASSERT_EQ(resolved.status, cold.status);
  if (cold.optimal()) {
    certify_optimal_solution(m, resolved);
    EXPECT_NEAR(resolved.objective, cold.objective, kTol);
  }
  EXPECT_EQ(resolved.phase1_iterations, 0);
}

TEST(DualSimplex, PositiveResidualEqualityRowFallsBackToPrimal) {
  Model m = covering_model();
  SimplexEngine engine(m);
  const Solution first = engine.solve();
  ASSERT_TRUE(first.optimal());

  // x + y = 4 with activity 2.8: positive residual — outside dual reach
  // per the documented contract, so solve_dual falls back to a primal
  // solve (phase 1 allowed) and still lands on the cold optimum.
  const ColumnEntry cut[] = {{0, 1.0}, {1, 1.0}};
  m.add_row_with_entries(Sense::EQ, 4.0, cut, "eq");
  engine.sync_rows();
  const Solution resolved = engine.solve_dual();
  const Solution cold = solve(m);
  ASSERT_EQ(resolved.status, cold.status);
  ASSERT_TRUE(cold.optimal());
  certify_optimal_solution(m, resolved);
  EXPECT_NEAR(resolved.objective, cold.objective, kTol);
  EXPECT_GT(resolved.phase1_iterations, 0);  // documented fallback
}

TEST(DualSimplex, MixedViolatedCutAndPositiveResidualEqualityRow) {
  // Regression: the positive-residual equality row routes solve_dual into
  // its primal fallback while the violated GE cut leaves a *slack* basic
  // at a negative value — which phase 1 does not repair. The fallback
  // must not clamp that into a bogus "optimal": it has to match the cold
  // solve (x = y = 2 here, not the infeasible (1, 3)).
  Model m = covering_model();
  SimplexEngine engine(m);
  ASSERT_TRUE(engine.solve().optimal());

  const ColumnEntry cut[] = {{0, 1.0}, {1, 1.0}};
  m.add_row_with_entries(Sense::GE, 4.0, cut, "cut");
  const ColumnEntry eq[] = {{0, -1.0}, {1, 1.0}};
  m.add_row_with_entries(Sense::EQ, 1.0, eq, "balance");  // y - x = 1
  engine.sync_rows();
  const Solution resolved = engine.solve_dual();
  const Solution cold = solve(m);
  ASSERT_EQ(resolved.status, cold.status);
  ASSERT_TRUE(cold.optimal());
  certify_optimal_solution(m, resolved);
  EXPECT_NEAR(resolved.objective, cold.objective, kTol);
  EXPECT_NEAR(resolved.x[0], 1.5, kTol);
  EXPECT_NEAR(resolved.x[1], 2.5, kTol);
}

TEST(DualSimplex, TightenedRhsReoptimizesWithoutPhase1) {
  // max 2x + y (as a minimum) with x + y <= 4, x <= 3, y <= 2: optimum
  // (3, 1). Tightening x <= 1 makes the retained basis primal infeasible
  // (sliding along x + y = 4 would need y = 3 > 2), so the dual simplex
  // must genuinely pivot to reach the new optimum (1, 2).
  Model m;
  const int r1 = m.add_row(Sense::LE, 4.0);
  const int r2 = m.add_row(Sense::LE, 3.0);
  const int r3 = m.add_row(Sense::LE, 2.0);
  const RowEntry x_entries[] = {{r1, 1.0}, {r2, 1.0}};
  const RowEntry y_entries[] = {{r1, 1.0}, {r3, 1.0}};
  m.add_column(-2.0, x_entries, "x");
  m.add_column(-1.0, y_entries, "y");
  SimplexEngine engine(m);
  const Solution first = engine.solve();
  ASSERT_TRUE(first.optimal());
  EXPECT_NEAR(first.objective, -7.0, kTol);  // (3, 1)

  m.set_row_rhs(r2, 1.0);
  engine.sync_rows();
  const Solution resolved = engine.solve_dual();
  certify_optimal_solution(m, resolved);
  const Solution cold = solve(m);
  ASSERT_TRUE(cold.optimal());
  EXPECT_NEAR(resolved.objective, cold.objective, kTol);
  EXPECT_NEAR(resolved.objective, -4.0, kTol);  // (1, 2)
  EXPECT_EQ(resolved.phase1_iterations, 0);
  EXPECT_GT(resolved.dual_iterations, 0);
}

TEST(DualSimplex, RhsSignFlipFallsBackGracefully) {
  // Loosening an LE rhs across zero flips the row's internal
  // normalization; the engine re-syncs and solve_dual's fallback path
  // still returns the cold optimum.
  Model m;
  const int r1 = m.add_row(Sense::LE, 2.0);
  const int r2 = m.add_row(Sense::GE, 1.0);
  const RowEntry x_entries[] = {{r1, -1.0}, {r2, 1.0}};
  m.add_column(1.0, x_entries, "x");
  SimplexEngine engine(m);
  const Solution first = engine.solve();
  ASSERT_TRUE(first.optimal());
  EXPECT_NEAR(first.objective, 1.0, kTol);

  m.set_row_rhs(r1, -3.0);  // -x <= -3, i.e. x >= 3
  engine.sync_rows();
  const Solution resolved = engine.solve_dual();
  const Solution cold = solve(m);
  ASSERT_EQ(resolved.status, cold.status);
  ASSERT_TRUE(cold.optimal());
  certify_optimal_solution(m, resolved);
  EXPECT_NEAR(resolved.objective, 3.0, kTol);
}

TEST(DualSimplex, UnsolvedEngineFallsBackToPrimal) {
  const Model m = covering_model();
  SimplexEngine engine(m);
  // solve_dual straight away: the cold slack/artificial basis is not dual
  // feasible, so the documented fallback runs a full primal solve.
  const Solution s = engine.solve_dual();
  certify_optimal_solution(m, s);
  EXPECT_NEAR(s.objective, 2.8, kTol);
}

// ------------------------------------------- warm re-solve shortcuts
// The engine skips work the last solve already certified: it keeps exact
// duals until the basis, eta file, phase or costs change, and skips the
// dual-feasibility pre-scan on a certified basis until columns arrive.
// One warm engine runs through every kind of edit, and after each call its
// status and objective must match a cold engine on the same model.
TEST(DualSimplex, WarmShortcutsMatchColdAcrossMixedEdits) {
  Rng rng(4242);
  Model m = random_covering_model(rng, 9, 24);
  // PricingRound polls: 1 = the cold solve, 2..4 = the rhs-only re-solves
  // below; the eta file is corrupted at the entry of the third one.
  FaultInjector fault(FaultPlan{
      {FaultEvent{FaultSite::PricingRound, 4, FaultAction::PerturbEta}}});
  SimplexOptions options;
  options.fault = &fault;
  SimplexEngine engine(m, options);

  const auto matches_cold = [&](const Solution& warm, const char* step) {
    const Solution cold = solve(m);
    EXPECT_EQ(warm.status, cold.status) << step;
    if (warm.optimal() && cold.optimal()) {
      EXPECT_NEAR(warm.objective, cold.objective,
                  1e-7 * (1.0 + std::fabs(cold.objective)))
          << step;
      certify_optimal_solution(m, warm);
    }
  };
  const Solution first = engine.solve();
  ASSERT_TRUE(first.optimal());
  matches_cold(first, "cold solve");

  // rhs-only edits: the basis and eta file keep, so do the duals.
  std::vector<int> ge_rows;
  for (int r = 0; r < m.num_rows(); ++r) {
    if (m.row_sense(r) == Sense::GE) ge_rows.push_back(r);
  }
  ASSERT_GE(ge_rows.size(), 2u);
  for (int k = 0; k < 3; ++k) {
    const int r = ge_rows[static_cast<std::size_t>(k) % ge_rows.size()];
    m.set_row_rhs(r, m.row_rhs(r) * 1.5 + 4.0);
    engine.sync_rows();
    const Solution s = engine.solve_dual();
    matches_cold(s, "rhs-only edit");
    if (k == 2) {
      // The corrupted factorization must not certify: a residual repair
      // or a cold restart caught it.
      EXPECT_EQ(fault.fired(), 1u);
      EXPECT_GE(s.residual_repairs + s.cold_restarts, 1);
    }
  }

  // An appended, violated cut row.
  std::vector<ColumnEntry> cut;
  double activity = 0.0;
  const Solution before_cut = engine.solve();
  ASSERT_TRUE(before_cut.optimal());
  for (int c = 0; c < m.num_cols(); c += 2) {
    cut.push_back({c, 1.0});
    activity += before_cut.x[c];
  }
  m.add_row_with_entries(Sense::GE, activity + 1.0, cut, "cut");
  engine.sync_rows();
  matches_cold(engine.solve_dual(), "appended row");

  // A new column, then a primal re-solve.
  std::vector<RowEntry> column;
  for (const int r : ge_rows) column.push_back({r, 1.0});
  m.add_column(0.5, column);
  engine.sync_columns();
  matches_cold(engine.solve(), "sync_columns + solve");

  // A satisfied probe row, so the retained basis holds its surplus.
  std::vector<ColumnEntry> probe;
  for (int c = 1; c < m.num_cols(); c += 2) probe.push_back({c, 1.0});
  const int probe_row = m.add_row_with_entries(Sense::GE, 0.0, probe, "probe");
  engine.sync_rows();
  const Solution probed = engine.solve_dual();
  matches_cold(probed, "satisfied probe row");
  ASSERT_TRUE(probed.optimal());

  // A column pricing negative arrives, then an rhs-only edit makes the
  // basis primal infeasible (the probe's surplus goes to -1). The basis
  // is no longer dual feasible, so solve_dual must see that and fall back
  // to the primal (documented) instead of running dual pivots on it.
  double rc = 1e-6;
  std::vector<RowEntry> cheap;
  for (const int r : ge_rows) {
    cheap.push_back({r, 1.0});
    rc -= probed.duals[r];
  }
  ASSERT_LT(rc, -1e-6) << "the new column must price negative";
  m.add_column(1e-6, cheap);
  engine.sync_columns();
  double probe_activity = 0.0;
  for (int c = 1; c < m.num_cols() - 1; c += 2) {
    probe_activity += probed.x[c];
  }
  m.set_row_rhs(probe_row, probe_activity + 1.0);
  engine.sync_rows();
  const Solution fell_back = engine.solve_dual();
  matches_cold(fell_back, "new column + infeasible rhs");
  EXPECT_EQ(fell_back.dual_iterations, 0);

  // A GE row whose rhs crosses zero flips its internal normalization.
  m.set_row_rhs(ge_rows[0], -1.0);
  engine.sync_rows();
  matches_cold(engine.solve_dual(), "GE sign flip");
  matches_cold(engine.solve_dual(), "repeat after the flip");
}

// ------------------------------------------------------ randomized sweep
class DualSimplexRandom : public ::testing::TestWithParam<PricingRule> {};

TEST_P(DualSimplexRandom, RandomCutRowsMatchColdSolves) {
  SimplexOptions options;
  options.pricing = GetParam();
  int exercised = 0;
  for (std::uint64_t seed = 0; seed < 120; ++seed) {
    Rng rng(7000 + seed);
    Model m =
        random_covering_model(rng, static_cast<int>(rng.uniform_int(4, 12)),
                              static_cast<int>(rng.uniform_int(8, 40)));
    SimplexEngine engine(m, options);
    const Solution first = engine.solve();
    if (!first.optimal()) continue;
    ++exercised;

    // 1-3 cut rows, deliberately violated: each demands ~20% more than
    // the current activity over a random subset of columns.
    const auto activity_of = [&](const std::vector<ColumnEntry>& entries) {
      double a = 0.0;
      for (const ColumnEntry& e : entries) a += first.x[e.col] * e.coef;
      return a;
    };
    const int cuts = static_cast<int>(rng.uniform_int(1, 3));
    bool added_equality = false;
    for (int k = 0; k < cuts; ++k) {
      std::vector<ColumnEntry> entries;
      for (int c = 0; c < m.num_cols(); ++c) {
        if (rng.bernoulli(0.3)) entries.push_back({c, rng.uniform(0.5, 1.5)});
      }
      if (entries.empty()) entries.push_back({0, 1.0});
      // Mostly GE cuts (pure dual territory); sometimes an equality with
      // positive residual, which exercises the documented primal fallback
      // in combination with the violated rows.
      const bool eq = rng.bernoulli(0.25);
      added_equality |= eq;
      m.add_row_with_entries(eq ? Sense::EQ : Sense::GE,
                             activity_of(entries) * 1.2 + 0.5, entries);
    }
    engine.sync_rows();
    const Solution resolved = engine.solve_dual();
    const Solution cold = solve(m, options);
    ASSERT_EQ(resolved.status, cold.status) << "seed=" << seed;
    // Inequality-only cut sets stay entirely inside the dual simplex.
    if (!added_equality) {
      EXPECT_EQ(resolved.phase1_iterations, 0) << "seed=" << seed;
    }
    if (!cold.optimal()) continue;
    certify_optimal_solution(m, resolved);
    EXPECT_NEAR(resolved.objective, cold.objective,
                1e-6 * (1.0 + std::fabs(cold.objective)))
        << "seed=" << seed;
  }
  EXPECT_GT(exercised, 60);
}

INSTANTIATE_TEST_SUITE_P(AllPricingRules, DualSimplexRandom,
                         ::testing::Values(PricingRule::Dantzig,
                                           PricingRule::Bland),
                         [](const ::testing::TestParamInfo<PricingRule>& i) {
                           return i.param == PricingRule::Dantzig ? "Dantzig"
                                                                  : "Bland";
                         });

// ----------------------------------------------- branch-and-price shape
namespace {

// Cutting-stock oracle that prices against *all* duals, including cut
// rows appended after the first colgen run: each pattern column carries
// coefficient 1 in every `pattern_count_rows` row (sum of pattern uses).
class CutAwarePatternOracle final : public PricingOracle {
 public:
  CutAwarePatternOracle(std::vector<double> widths, double capacity,
                        std::vector<int>* pattern_count_rows)
      : widths_(std::move(widths)),
        capacity_(capacity),
        pattern_count_rows_(pattern_count_rows) {}

  std::vector<PricedColumn> price(std::span<const double> duals,
                                  double tol) override {
    std::vector<int> counts(widths_.size(), 0);
    std::vector<PricedColumn> best;
    double base_cost = 1.0;
    for (const int row : *pattern_count_rows_) base_cost -= duals[row];
    double best_rc = -std::max(tol, 1e-9);
    enumerate(0, 0.0, base_cost, counts, duals, best, best_rc);
    return best;
  }

 private:
  void enumerate(std::size_t i, double used, double base_cost,
                 std::vector<int>& counts, std::span<const double> duals,
                 std::vector<PricedColumn>& best, double& best_rc) {
    if (i == widths_.size()) {
      double rc = base_cost;
      bool any = false;
      for (std::size_t k = 0; k < counts.size(); ++k) {
        rc -= duals[k] * counts[k];
        any |= counts[k] > 0;
      }
      if (any && rc < best_rc) {
        best_rc = rc;
        PricedColumn col;
        col.cost = 1.0;
        for (std::size_t k = 0; k < counts.size(); ++k) {
          if (counts[k] > 0) {
            col.entries.push_back(
                {static_cast<int>(k), static_cast<double>(counts[k])});
          }
        }
        for (const int row : *pattern_count_rows_) {
          col.entries.push_back({row, 1.0});
        }
        best.assign(1, col);
      }
      return;
    }
    const int max_c = static_cast<int>((capacity_ - used) / widths_[i] + 1e-9);
    for (int c = 0; c <= max_c; ++c) {
      counts[i] = c;
      enumerate(i + 1, used + c * widths_[i], base_cost, counts, duals, best,
                best_rc);
    }
    counts[i] = 0;
  }

  std::vector<double> widths_;
  double capacity_;
  std::vector<int>* pattern_count_rows_;
};

}  // namespace

TEST(ColgenDual, CutRowThenWarmColgenContinuation) {
  // The branch-and-price loop end to end: colgen-solve the cutting-stock
  // master, add a violated "at least 18 patterns" cover cut, dual
  // re-solve from the previous basis, then keep pricing against the cut
  // dual — all on one engine, with phase 1 never running again.
  const std::vector<double> widths{3.0, 4.0, 5.0};
  const std::vector<double> demand{20.0, 10.0, 5.0};
  const double capacity = 9.0;

  Model master;
  for (double d : demand) master.add_row(Sense::GE, d);
  for (std::size_t k = 0; k < widths.size(); ++k) {
    const RowEntry e[] = {{static_cast<int>(k), 1.0}};
    master.add_column(1.0, e);
  }
  std::vector<int> cut_rows;
  CutAwarePatternOracle oracle(widths, capacity, &cut_rows);
  SimplexOptions options;
  SimplexEngine engine(master, options);
  const ColgenResult base =
      solve_with_column_generation(master, oracle, engine, options.tol);
  ASSERT_TRUE(base.solution.optimal());
  // 85/6: 20/3 x {3,0,0} + 5 x {0,1,1} + 5/2 x {0,2,0}.
  EXPECT_NEAR(base.solution.objective, 85.0 / 6.0, 1e-6);

  // Branch row: at least 18 patterns in total — violated by the
  // fractional optimum 85/6 ~ 14.17, and exactly the shape a
  // branch-and-price node adds.
  std::vector<ColumnEntry> entries;
  for (int c = 0; c < master.num_cols(); ++c) entries.push_back({c, 1.0});
  const int cut_row =
      master.add_row_with_entries(Sense::GE, 18.0, entries, "cover");
  cut_rows.push_back(cut_row);
  engine.sync_rows();
  const Solution dual_sol = engine.solve_dual();
  ASSERT_TRUE(dual_sol.optimal());
  EXPECT_EQ(dual_sol.phase1_iterations, 0);
  EXPECT_GT(dual_sol.dual_iterations, 0);
  EXPECT_GE(dual_sol.objective, 18.0 - 1e-6);  // the cut binds

  // Continue pricing against the cut dual on the same engine: still no
  // phase 1 anywhere, and the result matches a cold colgen run on a
  // master that had the cut from the start.
  const ColgenResult continued =
      solve_with_column_generation(master, oracle, engine, options.tol);
  ASSERT_TRUE(continued.solution.optimal());
  EXPECT_EQ(continued.cold_phase1_iterations, 0);
  EXPECT_EQ(continued.warm_phase1_iterations, 0);
  certify_optimal_solution(master, continued.solution);

  Model fresh;
  for (double d : demand) fresh.add_row(Sense::GE, d);
  fresh.add_row(Sense::GE, 18.0, "cover");
  std::vector<int> fresh_cut_rows{3};
  for (std::size_t k = 0; k < widths.size(); ++k) {
    const RowEntry e[] = {{static_cast<int>(k), 1.0}, {3, 1.0}};
    fresh.add_column(1.0, e);
  }
  CutAwarePatternOracle fresh_oracle(widths, capacity, &fresh_cut_rows);
  const ColgenResult cold =
      solve_with_column_generation(fresh, fresh_oracle, options);
  ASSERT_TRUE(cold.solution.optimal());
  EXPECT_NEAR(continued.solution.objective, cold.solution.objective, 1e-6);
}

}  // namespace
}  // namespace stripack::lp
