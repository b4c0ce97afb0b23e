// Randomized differential suite for the LP engine: every code path of the
// eta-file `SimplexEngine` (pricing rules x refactorization cadence) is
// cross-checked against a trivially-correct in-test dense tableau simplex
// on hundreds of seeded random LPs. The reference uses Bland's rule
// throughout and a full-tableau update with no warm-start machinery at
// all, so any disagreement points at the engine under test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "lp_test_support.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace stripack::lp {
namespace {

constexpr double kRefTol = 1e-9;

enum class RefStatus { Optimal, Infeasible, Unbounded };

struct RefSolution {
  RefStatus status = RefStatus::Optimal;
  double objective = 0.0;
  std::vector<double> x;
};

// Dense tableau two-phase simplex with Bland's rule — the reference
// implementation. Deliberately the most literal textbook version: the full
// tableau is updated by row operations every pivot, artificials are kept
// and guarded (a basic artificial with a nonzero direction component
// forces a degenerate pivot that drives it out), and entering variables
// are the first improving index. Slow and simple on purpose.
RefSolution reference_solve(const Model& model) {
  const int m = model.num_rows();
  const int n = model.num_cols();

  // Standard form with rhs >= 0: structural | slack/surplus | artificial.
  std::vector<double> row_sign(static_cast<std::size_t>(m), 1.0);
  std::vector<Sense> sense(static_cast<std::size_t>(m));
  for (int r = 0; r < m; ++r) {
    sense[r] = model.row_sense(r);
    if (model.row_rhs(r) < 0.0) {
      row_sign[r] = -1.0;
      if (sense[r] == Sense::LE) {
        sense[r] = Sense::GE;
      } else if (sense[r] == Sense::GE) {
        sense[r] = Sense::LE;
      }
    }
  }
  int total = n;
  std::vector<int> slack_col(static_cast<std::size_t>(m), -1);
  std::vector<int> art_col(static_cast<std::size_t>(m), -1);
  for (int r = 0; r < m; ++r) {
    if (sense[r] != Sense::EQ) slack_col[r] = total++;
  }
  for (int r = 0; r < m; ++r) {
    if (sense[r] != Sense::LE) art_col[r] = total++;
  }

  std::vector<std::vector<double>> tab(
      static_cast<std::size_t>(m),
      std::vector<double>(static_cast<std::size_t>(total) + 1, 0.0));
  for (int c = 0; c < n; ++c) {
    for (const RowEntry& e : model.column_entries(c)) {
      tab[e.row][c] = row_sign[e.row] * e.coef;
    }
  }
  for (int r = 0; r < m; ++r) {
    if (slack_col[r] >= 0) {
      tab[r][slack_col[r]] = sense[r] == Sense::LE ? 1.0 : -1.0;
    }
    if (art_col[r] >= 0) tab[r][art_col[r]] = 1.0;
    tab[r][total] = row_sign[r] * model.row_rhs(r);
  }

  std::vector<int> basis(static_cast<std::size_t>(m));
  for (int r = 0; r < m; ++r) {
    basis[r] = art_col[r] >= 0 ? art_col[r] : slack_col[r];
  }
  std::vector<bool> artificial(static_cast<std::size_t>(total), false);
  for (int r = 0; r < m; ++r) {
    if (art_col[r] >= 0) artificial[art_col[r]] = true;
  }
  const auto is_art = [&](int col) { return artificial[col]; };

  std::vector<double> cost1(static_cast<std::size_t>(total), 0.0);
  std::vector<double> cost2(static_cast<std::size_t>(total), 0.0);
  for (int r = 0; r < m; ++r) {
    if (art_col[r] >= 0) cost1[art_col[r]] = 1.0;
  }
  for (int c = 0; c < n; ++c) cost2[c] = model.column_cost(c);

  const auto pivot_at = [&](int prow, int pcol) {
    std::vector<double>& pr = tab[prow];
    const double inv = 1.0 / pr[pcol];
    for (double& v : pr) v *= inv;
    pr[pcol] = 1.0;  // exact
    for (int r = 0; r < m; ++r) {
      if (r == prow) continue;
      const double f = tab[r][pcol];
      if (std::fabs(f) < kRefTol) continue;
      for (int c = 0; c <= total; ++c) tab[r][c] -= f * pr[c];
      tab[r][pcol] = 0.0;  // exact
    }
    basis[prow] = pcol;
  };

  // One simplex phase under Bland's rule. Returns false on unboundedness.
  const auto run_phase =
      [&](const std::vector<double>& cost, bool ban_artificials) {
        const std::int64_t guard = 200000;
        for (std::int64_t iter = 0;; ++iter) {
          STRIPACK_ASSERT(iter < guard, "reference simplex did not halt");
          // Reduced costs from the current basis.
          int entering = -1;
          for (int c = 0; c < total; ++c) {
            if (ban_artificials && is_art(c)) continue;
            bool basic = false;
            for (int r = 0; r < m; ++r) basic |= basis[r] == c;
            if (basic) continue;
            double rc = cost[c];
            for (int r = 0; r < m; ++r) rc -= cost[basis[r]] * tab[r][c];
            if (rc < -1e-9) {
              entering = c;
              break;  // Bland: first improving index
            }
          }
          if (entering < 0) return true;
          // Ratio test; basic artificials with any nonzero component are
          // forced out first (keeps them pinned at zero in phase 2).
          int leave = -1;
          double best = std::numeric_limits<double>::infinity();
          bool leave_art = false;
          for (int r = 0; r < m; ++r) {
            const bool art = ban_artificials && is_art(basis[r]);
            double ratio;
            if (art && std::fabs(tab[r][entering]) > kRefTol) {
              ratio = 0.0;
            } else if (tab[r][entering] > kRefTol) {
              ratio = tab[r][total] / tab[r][entering];
            } else {
              continue;
            }
            const bool better =
                leave < 0 || ratio < best - 1e-12 ||
                (ratio < best + 1e-12 &&
                 ((art && !leave_art) ||
                  (art == leave_art && basis[r] < basis[leave])));
            if (better) {
              best = std::max(ratio, 0.0);
              leave = r;
              leave_art = art;
            }
          }
          if (leave < 0) return false;  // unbounded
          pivot_at(leave, entering);
        }
      };

  RefSolution out;
  bool has_art = false;
  for (int r = 0; r < m; ++r) has_art |= art_col[r] >= 0;
  if (has_art) {
    const bool bounded = run_phase(cost1, false);
    STRIPACK_ASSERT(bounded, "phase 1 cannot be unbounded");
    double infeasibility = 0.0;
    for (int r = 0; r < m; ++r) {
      if (is_art(basis[r])) infeasibility += tab[r][total];
    }
    if (infeasibility > 1e-7) {
      out.status = RefStatus::Infeasible;
      return out;
    }
  }
  if (!run_phase(cost2, true)) {
    out.status = RefStatus::Unbounded;
    return out;
  }
  out.x.assign(static_cast<std::size_t>(n), 0.0);
  for (int r = 0; r < m; ++r) {
    if (basis[r] < n) out.x[basis[r]] = std::max(tab[r][total], 0.0);
  }
  for (int c = 0; c < n; ++c) out.objective += cost2[c] * out.x[c];
  return out;
}

// Random LP with grid coefficients (small rational optima keep the
// status/objective comparisons far from tolerance boundaries) and mixed
// senses/signs so all of optimal, infeasible and unbounded occur.
Model random_grid_model(Rng& rng) {
  const int rows = static_cast<int>(rng.uniform_int(2, 10));
  const int cols = static_cast<int>(rng.uniform_int(1, 20));
  Model m;
  for (int r = 0; r < rows; ++r) {
    const double p = rng.uniform();
    const Sense sense =
        p < 0.45 ? Sense::LE : (p < 0.8 ? Sense::GE : Sense::EQ);
    m.add_row(sense, 0.5 * static_cast<double>(rng.uniform_int(-6, 10)));
  }
  for (int c = 0; c < cols; ++c) {
    std::vector<RowEntry> entries;
    for (int r = 0; r < rows; ++r) {
      if (!rng.bernoulli(0.5)) continue;
      const double coef = 0.25 * static_cast<double>(rng.uniform_int(-8, 8));
      if (coef != 0.0) entries.push_back({r, coef});
    }
    m.add_column(0.25 * static_cast<double>(rng.uniform_int(-4, 12)), entries);
  }
  return m;
}

struct DiffConfig {
  PricingRule rule;
  int refactor_interval;
};

// Pricing rule x refactor cadence: every path the engine can take.
std::vector<DiffConfig> all_configs() {
  std::vector<DiffConfig> configs;
  for (const PricingRule rule : {PricingRule::Dantzig, PricingRule::Bland}) {
    for (const int interval : {1, 64, 1 << 30}) {
      configs.push_back({rule, interval});
    }
  }
  return configs;
}

std::string config_name(const ::testing::TestParamInfo<DiffConfig>& info) {
  std::string name =
      info.param.rule == PricingRule::Dantzig ? "Dantzig" : "Bland";
  name += info.param.refactor_interval == 1
              ? "Eager"
              : (info.param.refactor_interval > 1000 ? "Lazy" : "Default");
  return name;
}

class SimplexDifferential : public ::testing::TestWithParam<DiffConfig> {};

TEST_P(SimplexDifferential, AgreesWithDenseTableauReference) {
  const DiffConfig config = GetParam();
  SimplexOptions options;
  options.pricing = config.rule;
  options.refactor_interval = config.refactor_interval;

  int optimal = 0;
  int infeasible = 0;
  int unbounded = 0;
  for (std::uint64_t seed = 0; seed < 500; ++seed) {
    Rng rng(1000 + seed);
    const Model m = random_grid_model(rng);
    const RefSolution ref = reference_solve(m);
    const Solution sol = SimplexEngine(m, options).solve();

    switch (ref.status) {
      case RefStatus::Infeasible:
        ++infeasible;
        EXPECT_EQ(sol.status, SolveStatus::Infeasible) << "seed=" << seed;
        continue;
      case RefStatus::Unbounded:
        ++unbounded;
        EXPECT_EQ(sol.status, SolveStatus::Unbounded) << "seed=" << seed;
        continue;
      case RefStatus::Optimal:
        ++optimal;
        break;
    }
    ASSERT_EQ(sol.status, SolveStatus::Optimal) << "seed=" << seed;
    EXPECT_NEAR(sol.objective, ref.objective,
                1e-6 * (1.0 + std::fabs(ref.objective)))
        << "seed=" << seed;
    // Primal/dual feasibility and complementary slackness, every run.
    certify_optimal_solution(m, sol);
    // Basic solution: support bounded by the row count (Lemma 3.3's
    // structural fact).
    std::size_t nonzeros = 0;
    for (const double v : sol.x) nonzeros += v > 1e-6;
    EXPECT_LE(nonzeros, static_cast<std::size_t>(m.num_rows()))
        << "seed=" << seed;
  }
  // The generator must actually exercise all three outcomes.
  EXPECT_GT(optimal, 100);
  EXPECT_GT(infeasible, 20);
  EXPECT_GT(unbounded, 20);
}

INSTANTIATE_TEST_SUITE_P(Engine, SimplexDifferential,
                         ::testing::ValuesIn(all_configs()), config_name);

}  // namespace
}  // namespace stripack::lp
