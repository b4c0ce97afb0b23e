#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>

#include "lp/colgen.hpp"
#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace stripack::lp {
namespace {

constexpr double kTol = 1e-6;

// Certifies optimality of a claimed solution: primal feasibility, dual
// feasibility (non-negative reduced costs), and strong duality.
void certify_optimal(const Model& model, const Solution& solution) {
  ASSERT_EQ(solution.status, SolveStatus::Optimal);
  // Primal feasibility.
  const auto activity = model.row_activity(solution.x);
  double dual_objective = 0.0;
  for (int r = 0; r < model.num_rows(); ++r) {
    switch (model.row_sense(r)) {
      case Sense::LE:
        EXPECT_LE(activity[r], model.row_rhs(r) + kTol) << "row " << r;
        break;
      case Sense::GE:
        EXPECT_GE(activity[r], model.row_rhs(r) - kTol) << "row " << r;
        break;
      case Sense::EQ:
        EXPECT_NEAR(activity[r], model.row_rhs(r), kTol) << "row " << r;
        break;
    }
    dual_objective += solution.duals[r] * model.row_rhs(r);
  }
  for (const double v : solution.x) EXPECT_GE(v, -kTol);
  // Dual feasibility: reduced costs of all columns are >= 0 for a minimum.
  for (int c = 0; c < model.num_cols(); ++c) {
    double rc = model.column_cost(c);
    for (const RowEntry& e : model.column_entries(c)) {
      rc -= solution.duals[e.row] * e.coef;
    }
    EXPECT_GE(rc, -kTol) << "column " << c;
  }
  // Strong duality.
  EXPECT_NEAR(solution.objective, dual_objective,
              kTol * (1 + std::fabs(dual_objective)));
  EXPECT_NEAR(solution.objective, model.objective_value(solution.x), kTol);
}

// ------------------------------------------------------------- basic cases
TEST(Simplex, TextbookMaximumAsMinimum) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  => (2, 6), value 36.
  Model m;
  const int r1 = m.add_row(Sense::LE, 4);
  const int r2 = m.add_row(Sense::LE, 12);
  const int r3 = m.add_row(Sense::LE, 18);
  const RowEntry x_entries[] = {{r1, 1.0}, {r3, 3.0}};
  const RowEntry y_entries[] = {{r2, 2.0}, {r3, 2.0}};
  m.add_column(-3.0, x_entries, "x");
  m.add_column(-5.0, y_entries, "y");
  const Solution s = solve(m);
  certify_optimal(m, s);
  EXPECT_NEAR(s.objective, -36.0, kTol);
  EXPECT_NEAR(s.x[0], 2.0, kTol);
  EXPECT_NEAR(s.x[1], 6.0, kTol);
}

TEST(Simplex, CoveringProblem) {
  // min x + y s.t. x + 2y >= 4, 3x + y >= 6 => intersection (1.6, 1.2).
  Model m;
  const int r1 = m.add_row(Sense::GE, 4);
  const int r2 = m.add_row(Sense::GE, 6);
  const RowEntry x_entries[] = {{r1, 1.0}, {r2, 3.0}};
  const RowEntry y_entries[] = {{r1, 2.0}, {r2, 1.0}};
  m.add_column(1.0, x_entries, "x");
  m.add_column(1.0, y_entries, "y");
  const Solution s = solve(m);
  certify_optimal(m, s);
  EXPECT_NEAR(s.objective, 2.8, kTol);
}

TEST(Simplex, EqualityConstraint) {
  // min x + 2y s.t. x + y = 3, x <= 2 => x=2, y=1, objective 4.
  Model m;
  const int req = m.add_row(Sense::EQ, 3);
  const int rle = m.add_row(Sense::LE, 2);
  const RowEntry x_entries[] = {{req, 1.0}, {rle, 1.0}};
  const RowEntry y_entries[] = {{req, 1.0}};
  m.add_column(1.0, x_entries, "x");
  m.add_column(2.0, y_entries, "y");
  const Solution s = solve(m);
  certify_optimal(m, s);
  EXPECT_NEAR(s.objective, 4.0, kTol);
}

TEST(Simplex, NegativeRhsIsNormalized) {
  // x <= -1 with x >= 0 is infeasible; -x <= -1 (i.e. x >= 1) is fine.
  Model feasible;
  const int r = feasible.add_row(Sense::LE, -1);
  const RowEntry e[] = {{r, -1.0}};
  feasible.add_column(1.0, e, "x");
  const Solution s = solve(feasible);
  certify_optimal(feasible, s);
  EXPECT_NEAR(s.objective, 1.0, kTol);
}

TEST(Simplex, DetectsInfeasible) {
  // x >= 2 and x <= 1.
  Model m;
  const int lo = m.add_row(Sense::GE, 2);
  const int hi = m.add_row(Sense::LE, 1);
  const RowEntry e[] = {{lo, 1.0}, {hi, 1.0}};
  m.add_column(0.0, e, "x");
  EXPECT_EQ(solve(m).status, SolveStatus::Infeasible);
}

TEST(Simplex, DetectsUnbounded) {
  // min -x s.t. x >= 1: x can grow forever.
  Model m;
  const int r = m.add_row(Sense::GE, 1);
  const RowEntry e[] = {{r, 1.0}};
  m.add_column(-1.0, e, "x");
  EXPECT_EQ(solve(m).status, SolveStatus::Unbounded);
}

TEST(Simplex, DegenerateVertexStillSolves) {
  // Classic degeneracy: redundant constraints meeting at one vertex.
  Model m;
  const int r1 = m.add_row(Sense::LE, 1);
  const int r2 = m.add_row(Sense::LE, 1);
  const int r3 = m.add_row(Sense::LE, 2);
  const RowEntry x_entries[] = {{r1, 1.0}, {r3, 1.0}};
  const RowEntry y_entries[] = {{r2, 1.0}, {r3, 1.0}};
  m.add_column(-1.0, x_entries, "x");
  m.add_column(-1.0, y_entries, "y");
  const Solution s = solve(m);
  certify_optimal(m, s);
  EXPECT_NEAR(s.objective, -2.0, kTol);
}

TEST(Simplex, BealeCyclingExampleTerminates) {
  // Beale's classic cycling LP: with naive Dantzig pricing and no
  // anti-cycling rule the tableau simplex cycles forever. Our solver must
  // terminate at the optimum (objective -0.05).
  //   min -0.75 x1 + 150 x2 - 0.02 x3 + 6 x4
  //   s.t. 0.25 x1 - 60 x2 - 0.04 x3 + 9 x4 <= 0
  //        0.50 x1 - 90 x2 - 0.02 x3 + 3 x4 <= 0
  //        x3 <= 1
  Model m;
  const int r1 = m.add_row(Sense::LE, 0);
  const int r2 = m.add_row(Sense::LE, 0);
  const int r3 = m.add_row(Sense::LE, 1);
  const RowEntry x1[] = {{r1, 0.25}, {r2, 0.5}};
  const RowEntry x2[] = {{r1, -60.0}, {r2, -90.0}};
  const RowEntry x3[] = {{r1, -0.04}, {r2, -0.02}, {r3, 1.0}};
  const RowEntry x4[] = {{r1, 9.0}, {r2, 3.0}};
  m.add_column(-0.75, x1);
  m.add_column(150.0, x2);
  m.add_column(-0.02, x3);
  m.add_column(6.0, x4);
  const Solution s = solve(m);
  certify_optimal(m, s);
  EXPECT_NEAR(s.objective, -0.05, 1e-9);
}

TEST(Simplex, ZeroColumnVariableStaysZero) {
  Model m;
  m.add_row(Sense::LE, 1);
  m.add_column(5.0, {}, "lonely");  // cost 5, no constraints: stays 0
  const Solution s = solve(m);
  certify_optimal(m, s);
  EXPECT_NEAR(s.x[0], 0.0, kTol);
}

TEST(Simplex, RejectsDuplicateRowEntries) {
  Model m;
  const int r = m.add_row(Sense::LE, 1);
  const RowEntry dup[] = {{r, 1.0}, {r, 2.0}};
  EXPECT_THROW(m.add_column(0.0, dup), ContractViolation);
}

TEST(Simplex, BasicSolutionHasAtMostMRowsNonzeros) {
  // Lemma 3.3's structural fact: a basic solution has <= #rows nonzeros.
  Model m;
  const int r1 = m.add_row(Sense::GE, 3);
  const int r2 = m.add_row(Sense::GE, 2);
  for (int c = 0; c < 20; ++c) {
    const RowEntry e[] = {{r1, 1.0 + 0.01 * c}, {r2, 2.0 - 0.01 * c}};
    m.add_column(1.0 + 0.001 * c, e);
  }
  const Solution s = solve(m);
  certify_optimal(m, s);
  std::size_t nonzeros = 0;
  for (double v : s.x) nonzeros += v > kTol;
  EXPECT_LE(nonzeros, 2u);
  // The support is carried by the reported basis.
  EXPECT_LE(s.basic_columns.size(), 2u);
  for (std::size_t c = 0; c < s.x.size(); ++c) {
    if (s.x[c] > kTol) {
      EXPECT_NE(std::find(s.basic_columns.begin(), s.basic_columns.end(),
                          static_cast<int>(c)),
                s.basic_columns.end());
    }
  }
}

// ------------------------------------------------- warm starts and eta file
namespace {

// Random covering/packing LP mirroring the configuration LP's shape.
Model random_model(Rng& rng, int rows, int cols) {
  Model m;
  for (int r = 0; r < rows; ++r) {
    const double rhs = rng.uniform(-2.0, 6.0);
    const Sense sense = r % 3 == 0 ? Sense::GE : Sense::LE;
    m.add_row(sense,
              sense == Sense::GE ? std::max(0.0, rhs) : std::fabs(rhs) + 1.0);
  }
  for (int c = 0; c < cols; ++c) {
    std::vector<RowEntry> entries;
    for (int r = 0; r < rows; ++r) {
      if (rng.bernoulli(0.4)) entries.push_back({r, rng.uniform(0.1, 2.0)});
    }
    m.add_column(rng.uniform(0.5, 3.0), entries);
  }
  return m;
}

}  // namespace

TEST(Simplex, WarmStartFromSuppliedBasisReproducesColdOptimum) {
  for (const std::uint64_t seed : {11u, 22u, 33u, 44u}) {
    Rng rng(seed);
    const Model m = random_model(rng, 10, 30);
    const Solution cold = solve(m);
    if (!cold.optimal()) continue;
    ASSERT_EQ(cold.basis.size(), 10u);
    SimplexOptions warm_options;
    warm_options.initial_basis = cold.basis;
    const Solution warm = solve(m, warm_options);
    certify_optimal(m, warm);
    EXPECT_NEAR(warm.objective, cold.objective, 1e-9) << "seed=" << seed;
    // The supplied basis is optimal and feasible: no phase 1, no pivots.
    EXPECT_EQ(warm.phase1_iterations, 0) << "seed=" << seed;
    EXPECT_EQ(warm.iterations, 0) << "seed=" << seed;
  }
}

TEST(Simplex, BogusInitialBasisFallsBackToColdStart) {
  Rng rng(99);
  const Model m = random_model(rng, 8, 20);
  const Solution cold = solve(m);
  ASSERT_TRUE(cold.optimal());
  // Singular basis: the same slack in every row slot.
  SimplexOptions bogus;
  bogus.initial_basis.assign(8, slack_code(0));
  const Solution s = solve(m, bogus);
  certify_optimal(m, s);
  EXPECT_NEAR(s.objective, cold.objective, 1e-8);
  // Wrong-size basis is rejected the same way.
  SimplexOptions short_basis;
  short_basis.initial_basis.assign(3, slack_code(0));
  const Solution s2 = solve(m, short_basis);
  certify_optimal(m, s2);
  EXPECT_NEAR(s2.objective, cold.objective, 1e-8);
}

TEST(Simplex, LongEtaChainsAgreeWithEagerRefactorization) {
  // refactor_interval = 1 re-inverts after every pivot (the eta file never
  // has update etas); a huge interval exercises the longest product-form
  // chains. Both must certify and agree.
  for (const std::uint64_t seed : {5u, 15u, 25u, 35u, 45u}) {
    Rng rng(seed);
    const Model m = random_model(rng, 12, 40);
    SimplexOptions eager;
    eager.refactor_interval = 1;
    SimplexOptions lazy;
    lazy.refactor_interval = 1 << 30;
    const Solution a = solve(m, eager);
    const Solution b = solve(m, lazy);
    ASSERT_EQ(a.status, b.status) << "seed=" << seed;
    if (!a.optimal()) continue;
    certify_optimal(m, a);
    certify_optimal(m, b);
    EXPECT_NEAR(a.objective, b.objective, 1e-7) << "seed=" << seed;
  }
}

TEST(Simplex, ForcedBlandRuleStillFindsTheOptimum) {
  // Beale's cycling LP under Bland's rule from the very first pivot: the
  // anti-cycling machinery must terminate at the same optimum.
  Model m;
  const int r1 = m.add_row(Sense::LE, 0);
  const int r2 = m.add_row(Sense::LE, 0);
  const int r3 = m.add_row(Sense::LE, 1);
  const RowEntry x1[] = {{r1, 0.25}, {r2, 0.5}};
  const RowEntry x2[] = {{r1, -60.0}, {r2, -90.0}};
  const RowEntry x3[] = {{r1, -0.04}, {r2, -0.02}, {r3, 1.0}};
  const RowEntry x4[] = {{r1, 9.0}, {r2, 3.0}};
  m.add_column(-0.75, x1);
  m.add_column(150.0, x2);
  m.add_column(-0.02, x3);
  m.add_column(6.0, x4);
  SimplexOptions options;
  options.pricing = PricingRule::Bland;
  const Solution s = solve(m, options);
  certify_optimal(m, s);
  EXPECT_NEAR(s.objective, -0.05, 1e-9);
}

TEST(SimplexEngine, WarmResolveAfterAddingColumnsSkipsPhase1) {
  // min x s.t. x >= 4 — then a cheaper covering column arrives.
  Model m;
  const int r = m.add_row(Sense::GE, 4);
  const RowEntry x_entries[] = {{r, 1.0}};
  m.add_column(1.0, x_entries, "x");
  SimplexEngine engine(m);
  const Solution first = engine.solve();
  ASSERT_TRUE(first.optimal());
  EXPECT_NEAR(first.objective, 4.0, kTol);
  EXPECT_GT(first.phase1_iterations, 0);

  const RowEntry y_entries[] = {{r, 2.0}};
  m.add_column(1.0, y_entries, "y");
  engine.sync_columns();
  const Solution second = engine.solve();
  ASSERT_TRUE(second.optimal());
  certify_optimal(m, second);
  EXPECT_NEAR(second.objective, 2.0, kTol);
  EXPECT_EQ(second.phase1_iterations, 0);  // warm restart: no artificials
}

// ------------------------------------------------------------ random duals
// Random LPs with known-feasible primal region; certify every optimum.
class SimplexRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimplexRandomTest, RandomCoveringPackingCertified) {
  Rng rng(GetParam());
  Model m;
  const int rows = 8;
  std::vector<int> row_ids;
  for (int r = 0; r < rows; ++r) {
    // Mix senses; keep rhs signs mixed too.
    const double rhs = rng.uniform(-2.0, 6.0);
    const Sense sense = r % 3 == 0 ? Sense::GE : Sense::LE;
    row_ids.push_back(m.add_row(sense, sense == Sense::GE
                                           ? std::max(0.0, rhs)
                                           : std::fabs(rhs) + 1.0));
  }
  for (int c = 0; c < 20; ++c) {
    std::vector<RowEntry> entries;
    for (int r = 0; r < rows; ++r) {
      if (rng.bernoulli(0.4)) {
        entries.push_back({row_ids[r], rng.uniform(0.1, 2.0)});
      }
    }
    m.add_column(rng.uniform(0.5, 3.0), entries);
  }
  const Solution s = solve(m);
  // These LPs are always feasible (x = big multiples cover GE rows)?
  // Not necessarily within LE rows; accept infeasible but certify optima.
  if (s.status == SolveStatus::Optimal) {
    certify_optimal(m, s);
  } else {
    EXPECT_EQ(s.status, SolveStatus::Infeasible);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandomTest,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u, 606u,
                                           707u, 808u));

// ------------------------------------------------------------------ colgen
namespace {

// Cutting-stock-style oracle: widths 3,4,5 into capacity 9; columns are
// patterns; demands 20,10,5. Known optimum: LP value 85/6 ~ 14.167
// (computed below against full enumeration instead of a constant).
class PatternOracle final : public PricingOracle {
 public:
  explicit PatternOracle(const std::vector<double>& widths, double capacity)
      : widths_(widths), capacity_(capacity) {}

  std::vector<PricedColumn> price(std::span<const double> duals,
                                  double tol) override {
    // Enumerate all patterns; return the most violated one.
    std::vector<int> counts(widths_.size(), 0);
    std::vector<PricedColumn> best;
    double best_rc = -std::max(tol, 1e-9);
    enumerate(0, 0.0, counts, duals, best, best_rc);
    return best;
  }

 private:
  void enumerate(std::size_t i, double used, std::vector<int>& counts,
                 std::span<const double> duals,
                 std::vector<PricedColumn>& best, double& best_rc) {
    if (i == widths_.size()) {
      double rc = 1.0;
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
        best.assign(1, col);
      }
      return;
    }
    const int max_c = static_cast<int>((capacity_ - used) / widths_[i] + 1e-9);
    for (int c = 0; c <= max_c; ++c) {
      counts[i] = c;
      enumerate(i + 1, used + c * widths_[i], counts, duals, best, best_rc);
    }
    counts[i] = 0;
  }

  std::vector<double> widths_;
  double capacity_;
};

}  // namespace

TEST(Colgen, MatchesFullEnumerationOnCuttingStock) {
  const std::vector<double> widths{3.0, 4.0, 5.0};
  const std::vector<double> demand{20.0, 10.0, 5.0};
  const double capacity = 9.0;

  // Full enumeration model.
  Model full;
  for (double d : demand) full.add_row(Sense::GE, d);
  std::vector<int> counts(widths.size(), 0);
  // All patterns with sum <= 9.
  std::function<void(std::size_t, double)> rec = [&](std::size_t i,
                                                     double used) {
    if (i == widths.size()) {
      std::vector<RowEntry> entries;
      bool any = false;
      for (std::size_t k = 0; k < widths.size(); ++k) {
        if (counts[k] > 0) {
          entries.push_back(
              {static_cast<int>(k), static_cast<double>(counts[k])});
          any = true;
        }
      }
      if (any) full.add_column(1.0, entries);
      return;
    }
    const int max_c = static_cast<int>((capacity - used) / widths[i] + 1e-9);
    for (int c = 0; c <= max_c; ++c) {
      counts[i] = c;
      rec(i + 1, used + c * widths[i]);
    }
    counts[i] = 0;
  };
  rec(0, 0.0);
  const Solution full_solution = solve(full);
  certify_optimal(full, full_solution);

  // Column generation from singleton seeds.
  Model master;
  for (double d : demand) master.add_row(Sense::GE, d);
  for (std::size_t k = 0; k < widths.size(); ++k) {
    const RowEntry e[] = {{static_cast<int>(k), 1.0}};
    master.add_column(1.0, e);
  }
  PatternOracle oracle(widths, capacity);
  const ColgenResult cg = solve_with_column_generation(master, oracle);
  ASSERT_EQ(cg.solution.status, SolveStatus::Optimal);
  EXPECT_NEAR(cg.solution.objective, full_solution.objective, 1e-6);
  EXPECT_GT(cg.columns_added, 0);
  // The engine restarts every round from the previous optimal basis: the
  // cold first solve is the only one that may need phase 1.
  EXPECT_GT(cg.rounds, 1);
  EXPECT_EQ(cg.warm_phase1_iterations, 0);
  EXPECT_GT(cg.total_iterations, 0);
}

}  // namespace
}  // namespace stripack::lp
