// Delayed column generation (Gilmore–Gomory style).
//
// The configuration LP of §3.2 has a column for every (configuration,
// phase) pair — exponentially many in K. Rather than materializing all of
// them, the restricted master starts from a feasible seed and a pricing
// oracle supplies columns with negative reduced cost until none exist; the
// final basis is then optimal for the full LP. This mirrors how the
// bin-packing ancestors of the paper ([8],[15]) are solved in practice.
//
// The master is solved by a single resumable `SimplexEngine`: after the
// first (cold) round every re-solve restarts warm from the previous
// optimal basis, so only the freshly priced columns need pivoting in —
// phase 1 never runs again (`warm_phase1_iterations` stays zero).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "lp/simplex.hpp"

namespace stripack::lp {

struct PricedColumn {
  double cost = 0.0;
  std::vector<RowEntry> entries;
  std::string name;
};

/// Supplies improving columns for the current duals.
class PricingOracle {
 public:
  virtual ~PricingOracle() = default;

  /// Returns columns whose reduced cost (cost - duals . entries) is below
  /// -tol, or an empty vector when none exists (proving optimality).
  [[nodiscard]] virtual std::vector<PricedColumn> price(
      std::span<const double> duals, double tol) = 0;
};

struct ColgenResult {
  Solution solution;   // for the final (grown) model
  int rounds = 0;      // master re-solves performed
  int columns_added = 0;
  /// Simplex pivots summed over every master re-solve.
  std::int64_t total_iterations = 0;
  /// Phase-1 pivots in the first (cold) master solve.
  std::int64_t cold_phase1_iterations = 0;
  /// Phase-1 pivots in rounds >= 2: zero when warm starts work, because a
  /// basis that was optimal stays primal feasible after columns are added.
  std::int64_t warm_phase1_iterations = 0;
  /// Recovery-ladder diagnostics summed over every master re-solve (see
  /// `lp::Solution`); all zero on a numerically clean run.
  int refactor_retries = 0;
  int residual_repairs = 0;
  int cold_restarts = 0;
};

/// Alternates master solves and pricing until the oracle finds nothing.
/// The model must be primal feasible with its seed columns.
[[nodiscard]] ColgenResult solve_with_column_generation(
    Model& model, PricingOracle& oracle, const SimplexOptions& options = {},
    int max_rounds = 500);

/// Same loop over a caller-owned engine — the branch-and-price shape.
/// The caller keeps `engine` (and the model) alive across calls, so after
/// a run it can add cut rows (`Model::add_row_with_entries`), re-solve
/// them cheaply (`SimplexEngine::sync_rows` + `solve_dual`), and call this
/// again to price against the cut duals; every re-solve stays warm
/// (`warm_phase1_iterations` remains zero when the engine state was
/// optimal). Appended columns are synced automatically on entry. The
/// engine keeps its own simplex options; `pricing_tol` is only the
/// threshold handed to the oracle and should match the engine's
/// `SimplexOptions::tol`.
[[nodiscard]] ColgenResult solve_with_column_generation(
    Model& model, PricingOracle& oracle, SimplexEngine& engine,
    double pricing_tol = 1e-9, int max_rounds = 500);

}  // namespace stripack::lp
