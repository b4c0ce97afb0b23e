// The §3.2 configuration LP for fractional strip packing with release times.
//
// Distinct releases rho_0 < ... < rho_R split time into phases
// [rho_j, rho_{j+1}) (phase R is unbounded). Variable x_q^j is the height
// assigned to configuration q within phase j. The LP is
//
//   min  sum_q x_q^R                                         (3.2)
//   s.t. sum_q x_q^j <= rho_{j+1} - rho_j        j < R       (3.3, packing)
//        sum_{j>=k} A x_j >= sum_{j>=k} B_j      0 <= k <= R (3.4, covering)
//        x >= 0
//
// where A[i][q] counts width omega_i in configuration q and B_j[i] is the
// total height of width-omega_i rectangles released at rho_j. The optimal
// height of the fractional packing is rho_R + objective (Lemma 3.3), and a
// basic optimum has at most (W+1)(R+1) nonzero variables.
//
// Implementation note: the solver works on an equivalent *differenced* form
// of (3.4). Writing sup_j[i] = (A x_j)[i] and introducing the suffix
// surpluses s_k[i] = sum_{j>=k} sup_j[i] - sum_{j>=k} B_j[i] >= 0 as
// explicit zero-cost columns, subtracting consecutive covering rows gives
//
//   sup_k[i] - s_k[i] + s_{k+1}[i] = B_k[i]      0 <= k <= R (s_{R+1} = 0)
//
// which has the same feasible x-set and objective (s is determined by x,
// and s >= 0 iff every suffix covering row holds), the same row count, and
// a basic optimum with at most R + (R+1)W < (W+1)(R+1) nonzero x — so the
// Lemma 3.3 support bound is preserved. The payoff: a configuration column
// touches only its own phase's W demand rows instead of all phases k <= j,
// shrinking the LP nonzeros by a factor of Theta(R) on release-heavy
// instances (the engine's FTRAN and pricing costs scale with nonzeros).
//
// Applied to an instance's *exact* distinct widths/releases this LP solves
// the fractional relaxation of the original problem — a certified lower
// bound on OPT used throughout the benches.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "core/instance.hpp"
#include "lp/simplex.hpp"
#include "release/configurations.hpp"

namespace stripack::release {

/// The data the LP is built from.
struct ConfigLpProblem {
  std::vector<double> widths;    // distinct, descending
  std::vector<double> releases;  // distinct, ascending; releases.front() >= 0
  /// demand[j][i] = total height of items with release j and width i.
  std::vector<std::vector<double>> demand;
  double strip_width = 1.0;

  [[nodiscard]] std::size_t num_widths() const { return widths.size(); }
  [[nodiscard]] std::size_t num_releases() const { return releases.size(); }
};

/// Extracts the exact problem (distinct widths and releases as they appear)
/// from an instance. Every item must match one width and one release.
[[nodiscard]] ConfigLpProblem make_problem(const Instance& instance);

/// One nonzero x_q^j of a fractional solution.
struct Slice {
  Configuration config;
  std::size_t phase = 0;
  double height = 0.0;
};

struct FractionalSolution {
  bool feasible = false;
  /// Raw LP solve status. `feasible` is simply `status == Optimal`; a
  /// caller acting on a *negative* result (e.g. pruning a branch) must
  /// check for `Infeasible` specifically — `IterationLimit` is "unknown",
  /// not "proven empty".
  lp::SolveStatus status = lp::SolveStatus::IterationLimit;
  double objective = 0.0;  // sum of phase-R heights
  double height = 0.0;     // rho_R + objective
  std::vector<Slice> slices;
  // Diagnostics.
  std::size_t lp_rows = 0;
  std::size_t lp_cols = 0;
  std::int64_t iterations = 0;     // simplex pivots (summed over colgen rounds)
  std::size_t configurations = 0;  // enumerated (0 in column generation)
  int colgen_rounds = 0;
  /// Phase-1 pivots in colgen rounds >= 2 and in `ConfigLpSolver` dual
  /// re-solves; zero when the warm-started engine resumes every re-solve
  /// from the previous optimal basis (a nonzero value on a re-solve means
  /// the dual simplex took its documented cold fallback).
  std::int64_t colgen_warm_phase1_iterations = 0;
  /// Dual-simplex pivots spent by `ConfigLpSolver` re-solves (zero for
  /// plain `solve_config_lp`).
  std::int64_t dual_iterations = 0;
  /// Farkas pricing activity in `ConfigLpSolver::resolve` (column
  /// generation mode): repair rounds that injected columns against an
  /// infeasibility certificate, and how many columns they added. Pure
  /// diagnostics — an `Infeasible` status from `resolve()` is *always*
  /// certified for the full master, whether repair rounds were needed
  /// (rounds > 0) or the very first certificate already ruled out every
  /// configuration column (rounds == 0, as in enumeration mode).
  int farkas_rounds = 0;
  std::size_t farkas_columns = 0;
  /// Recovery-ladder diagnostics, summed over every LP (re-)solve this
  /// result covers (see `lp::Solution`): forced refactorizations,
  /// residual-check repairs, cold restarts inside one engine, and
  /// `master_failovers` — engine replacements after the master threw or
  /// exhausted its ladder (`lp::SolveStatus::NumericalFailure`) and was
  /// re-solved on a fresh cold `lp::SimplexEngine`.
  int lp_refactor_retries = 0;
  int lp_residual_repairs = 0;
  int lp_cold_restarts = 0;
  int master_failovers = 0;
};

/// Pricing-side counters of a `ConfigLpSolver` (cumulative since
/// construction). `dfs_expansions` counts calls into the exact pricing
/// DFS's recursion — the work its subtree bounds cut.
struct PricingStats {
  std::int64_t dfs_expansions = 0;
};

struct ConfigLpOptions {
  bool use_column_generation = false;
  std::size_t max_configurations = 2'000'000;
  double tol = 1e-9;
  /// Ignored; kept only because the end-to-end harness sets it. Pricing
  /// is one stateless DFS, bounded by an exact knapsack DP whenever the
  /// widths sit on a common grid (denominator <= 4096).
  bool use_pricing_cache = false;
  /// Cooperative cancellation, forwarded to every underlying LP solve
  /// (`SimplexOptions::stop`): once the token's flag flips or its
  /// deadline passes, solves stop at the next pivot boundary and report
  /// `IterationLimit` — the anytime deadline path of `bnp::solve`. The
  /// flag must outlive the solver.
  lp::StopToken stop{};
  /// Fault-injection hook, forwarded to every underlying LP solve
  /// (`SimplexOptions::fault`; tests only). Must outlive the solver.
  FaultInjector* fault = nullptr;
};

/// Solves the configuration LP; the returned slices reproduce the demand
/// (covering) and capacity (packing) constraints up to tolerance.
[[nodiscard]] FractionalSolution solve_config_lp(
    const ConfigLpProblem& problem, const ConfigLpOptions& options = {});

/// Selects (configuration, phase) columns for a branching row — the
/// branch-and-price constraints of `bnp::solve`. Every matching column
/// gets coefficient 1, and freshly priced columns that match pick the row
/// up automatically, so the row constrains the *full* master, not just
/// the columns present when it was added.
struct BranchPredicate {
  enum class Kind {
    /// Every configuration of the phase (the height-cap row's shape).
    /// In column-generation mode a GE row of this kind is unsupported:
    /// pricing never proposes empty configurations, which such a row
    /// would need as columns.
    PhaseTotal,
    /// Configurations holding widths `width_a` and `width_b` together
    /// (for `width_a == width_b`, at least two copies) — Ryan–Foster
    /// style pair branching.
    PairTogether,
    /// Configurations whose counts vector equals `counts` exactly —
    /// single-pattern branching, the completeness fallback.
    Pattern,
  };

  Kind kind = Kind::PhaseTotal;
  /// Phase the row applies to, or -1 for every phase.
  int phase = -1;
  std::size_t width_a = 0;   // PairTogether
  std::size_t width_b = 0;   // PairTogether
  std::vector<int> counts;   // Pattern: one entry per distinct width

  [[nodiscard]] bool matches(std::span<const int> config_counts,
                             std::size_t config_phase) const;

  /// Structural equality — the dedup key for reusing materialized rows
  /// across requests on a warm master (`ConfigLpSolver::find_branch_row`).
  [[nodiscard]] bool operator==(const BranchPredicate&) const = default;
};

/// Incremental configuration-LP solver for branch-and-price style use:
/// solve once, then add or tighten rows and re-solve *dually* from the
/// previous optimal basis — no phase 1, no re-enumeration. The referenced
/// problem must outlive the solver.
class ConfigLpSolver {
 public:
  explicit ConfigLpSolver(const ConfigLpProblem& problem,
                          const ConfigLpOptions& options = {});
  ~ConfigLpSolver();
  ConfigLpSolver(ConfigLpSolver&&) noexcept;
  ConfigLpSolver& operator=(ConfigLpSolver&&) noexcept;

  /// First (full) solve; must be called before the re-solvers below.
  [[nodiscard]] FractionalSolution solve();

  /// Caps the total phase-R height: adds the branch row
  /// `sum_q x_q^R <= cap` (or updates its rhs on later calls) and dual
  /// re-solves. Since the objective *is* the phase-R height, a cap at or
  /// above the optimum leaves the solution untouched and a cap below it
  /// is infeasible — the branch-and-bound "prune by bound" probe. Prune
  /// only on `status == lp::SolveStatus::Infeasible` (a Farkas
  /// certificate), never on bare `!feasible`: an `IterationLimit` result
  /// is "unknown", not "proven empty". In column-generation mode an
  /// infeasible restricted master triggers Farkas pricing (see
  /// `resolve`), so the verdict is certified for the full master.
  [[nodiscard]] FractionalSolution resolve_with_height_cap(double cap);

  /// Materializes the height-cap row *parked* (at the same neutral rhs
  /// dormant LE branch rows use) without re-solving, so a later
  /// `resolve_with_height_cap` is a pure rhs change on the dual warm
  /// path — exactly like branch-row activation — rather than the
  /// insertion of an already-violated row (which would force a phase-1
  /// restart mid-search). Idempotent; requires a prior `solve()`.
  /// Branch-and-price calls this once before its node loop, whose every
  /// node re-solve runs capped at the incumbent.
  void ensure_height_cap_row();

  /// Parks the height-cap row (no-op if it was never materialized)
  /// without re-solving: the rhs moves back to the dormant-LE neutral
  /// value, so the next `resolve()` sees an uncapped master.
  void clear_height_cap();

  /// Tightens (or relaxes) the packing capacity of phase j < R — the
  /// rhs of packing row j, by default rho_{j+1} - rho_j — and dual
  /// re-solves from the previous basis. Models a phase whose strip time
  /// is partially reserved (e.g. by an integral packing prefix).
  [[nodiscard]] FractionalSolution resolve_with_phase_capacity(
      std::size_t phase, double capacity);

  /// Appends the branching row `sum_{(q,j) matching pred} x_q^j sense
  /// rhs` over every current column, returning its model row index (the
  /// handle for `set_branch_row_rhs` / `deactivate_branch_row`). Freshly
  /// priced matching columns pick the row up automatically. Requires a
  /// prior `solve()`; call `resolve()` to re-optimize afterwards.
  int add_branch_row(BranchPredicate pred, lp::Sense sense, double rhs);

  /// Replaces a branching row's right-hand side (node activation in
  /// branch-and-price); `resolve()` picks the change up.
  void set_branch_row_rhs(int row, double rhs);

  /// Neutralizes a branching row without removing it: the rhs moves to a
  /// value the row cannot bind at (0 for GE rows, a safe upper bound on
  /// any column total for LE rows), so sibling nodes can share one model.
  void deactivate_branch_row(int row);

  /// Dual re-solve after branch-row edits, from the previous basis (no
  /// phase 1). In column-generation mode this then (a) prices new columns
  /// against the updated duals and, (b) if the restricted master is
  /// infeasible, runs *Farkas pricing*: columns are generated against the
  /// engine's infeasibility certificate until either feasibility is
  /// restored or no configuration column anywhere has positive
  /// certificate value — at which point `Infeasible` is proven for the
  /// full master, never just the restricted one.
  [[nodiscard]] FractionalSolution resolve();

  /// Cumulative pricing counters (DFS expansions).
  [[nodiscard]] PricingStats pricing_stats() const;

  /// True once `solve()` has run — the gate for every re-solver above and
  /// the warm-reuse entry check of `bnp::solve_warm`.
  [[nodiscard]] bool solved() const;

  /// The problem this master was built from (the reference passed at
  /// construction). The warm pool mutates its demand in place between
  /// requests; see `rebind_demand`.
  [[nodiscard]] const ConfigLpProblem& problem() const;

  /// Model row of the branch row whose (predicate, sense) equals the
  /// arguments, or -1 when none was ever materialized. Lets a search
  /// running on a long-lived master reuse rows added by earlier requests
  /// instead of appending duplicates without bound.
  [[nodiscard]] int find_branch_row(const BranchPredicate& pred,
                                    lp::Sense sense) const;

  /// Re-points the cooperative stop token for all subsequent (re-)solves
  /// (construction passes `ConfigLpOptions::stop` once; a pooled master
  /// outlives any single request's deadline). A default token clears it.
  void set_stop(lp::StopToken stop);

  /// Re-reads every demand-row rhs from the referenced problem and parks
  /// all branch rows (and the height-cap row, if materialized) at their
  /// neutral rhs — the cross-REQUEST warm-start seam. Demand enters the
  /// differenced formulation only through demand row right-hand sides, so
  /// a master whose problem kept its widths, releases and strip width but
  /// changed `demand` in place re-solves warm: an rhs-only change keeps
  /// the retained basis dual feasible and the next `resolve()` runs
  /// without phase 1, reusing the entire column pool and branch rows.
  /// Requires a prior `solve()`; widths/releases/
  /// strip_width must be unchanged (the request-class signature
  /// guarantees this — asserted here).
  void rebind_demand();

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// rho_R + LP optimum computed on the instance's exact widths and releases:
/// a lower bound on the optimal integral packing height.
[[nodiscard]] double fractional_lower_bound(
    const Instance& instance, const ConfigLpOptions& options = {});

/// Cheaper certified lower bound for large instances: releases are rounded
/// *down* to at most ceil(1/eps_down)+1 values (the paper's P-down of
/// Lemma 3.1, whose fractional optimum never exceeds the original's), and
/// the LP is solved on that coarsened instance. Still a true lower bound
/// on OPT; within (1+eps_down) of the exact fractional bound.
[[nodiscard]] double fractional_lower_bound_coarse(
    const Instance& instance, double eps_down = 0.1,
    const ConfigLpOptions& options = {});

}  // namespace stripack::release
