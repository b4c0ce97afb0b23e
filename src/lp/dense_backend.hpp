// Dense-tableau reference simplex backend.
//
// A deliberately simple, independently implemented peer of the eta-file
// `SimplexEngine`: the basis inverse is held as an explicit dense m x m
// matrix (Gauss-Jordan refactorization, elementary row-operation update
// per pivot), pricing is Bland's rule, and nothing is incremental — basic
// values and duals are recomputed from B^{-1} every iteration. That makes
// it O(m^2 + n * nnz) per pivot and hopeless on big models, but nearly
// impossible to get subtly wrong, which is the point: it implements the
// full `LpBackend` contract (warm restarts, dual re-solve with Farkas
// export, cost shifting, basis handoff), so the conformance kit and
// the randomized differential sweep can cross-examine the production
// engine against a structurally different implementation, and the
// configuration-LP solver can fail over to it when the production engine
// fails numerically.
//
// Promoted from test-only code (the differential suite's in-test oracle
// remains, deliberately duplicated, as an engine-independent check).
#pragma once

#include <cstdint>
#include <vector>

#include "lp/backend.hpp"
#include "lp/model.hpp"
#include "lp/simplex.hpp"

namespace stripack::lp {

/// Dense revised simplex over a borrowed model; see file comment. Honors
/// `SimplexOptions::tol`, `max_iterations`, `refactor_interval`,
/// `initial_basis`, `stop` and `fault`; the pricing knobs are ignored
/// (always Bland). Carries the same recovery ladder as the engine:
/// refactorize-and-retry, then one cold restart, then
/// `SolveStatus::NumericalFailure` — never an assert.
class DenseTableauBackend final : public LpBackend {
 public:
  explicit DenseTableauBackend(const Model& model,
                               const SimplexOptions& options = {});

  [[nodiscard]] const char* name() const override { return "dense"; }
  void set_stop(StopToken stop) override { options_.stop = stop; }
  void sync_columns() override;
  void sync_rows() override;
  bool load_basis(const std::vector<int>& basis) override;
  [[nodiscard]] Solution solve() override;
  [[nodiscard]] Solution solve_dual(
      bool shift_dual_infeasible = false) override;

 private:
  // Within-solve variable codes: >= 0 structural column; [-m, -1] the row
  // logical of row `slack_code_row(code)` (slack on <=, surplus on >=, a
  // pinned-at-zero artificial on ==); < -m a temporary phase-1 artificial
  // of row `-1 - m - code` (sign in `art_sign_`), never persisted — the
  // exported basis re-encodes it as `slack_code(row)`.
  [[nodiscard]] int art_code(int row) const { return -1 - m_ - row; }
  [[nodiscard]] int art_row(int code) const { return -1 - m_ - code; }
  [[nodiscard]] bool is_artificialish(int code) const;  // pinned or temp
  [[nodiscard]] double logical_coef(int row) const;
  [[nodiscard]] double phase_cost(int code, bool phase1) const;
  // y' * a_code over the sparse column of `code`.
  [[nodiscard]] double dot_column(const std::vector<double>& y,
                                  int code) const;
  // d = B^{-1} * a_code.
  void ftran(int code, std::vector<double>& d) const;

  [[nodiscard]] double feas_tol() const;
  [[nodiscard]] std::int64_t default_max_iters() const;
  [[nodiscard]] bool stop_requested() const;

  // Fault-injection hooks (no-ops when `options_.fault` is null) and the
  // recovery ladder's helpers; see lp/simplex.cpp for the shared design.
  bool poll_pivot_fault();   // true = stop now (TripStop); may throw
  void poll_round_fault();   // once per public (re-)solve entry
  [[nodiscard]] bool take_forced_bad_pivot();
  void perturb_inverse(double magnitude);
  [[nodiscard]] bool residual_ok(const std::vector<double>& xb) const;
  // Rung 2: cold restart after a NumericalFailure'd attempt, carrying the
  // failed attempt's recovery counters forward.
  Solution cold_retry(const Solution& failed);

  bool factorize();  // rebuilds binv_ from basis_; false if singular
  void compute_basic_values(std::vector<double>& xb) const;
  // y = c_B' B^{-1} with phase costs (plus cost shifts when phase2).
  void compute_duals(bool phase1, const std::vector<double>& cost_shift,
                     std::vector<double>& y) const;
  void pivot(int row, int entering_code, const std::vector<double>& d);

  // Bland primal loop from the current (feasible) basis. Appends pivot
  // counts to `solution.iterations` (and `phase1_iterations` when
  // `phase1`). Returns Optimal, Unbounded or IterationLimit.
  SolveStatus run_primal(bool phase1, Solution& solution);

  Solution cold_solve(Solution solution);
  void extract(Solution& solution);  // x, duals, objective, basis, status

  const Model* model_;
  SimplexOptions options_;
  int m_ = 0;  // rows picked up (sync_rows)
  // One code per row; empty until the first solve/load_basis. Persisted
  // codes are only structural / slack_code (engine-compatible encoding).
  std::vector<int> basis_;
  std::vector<double> art_sign_;   // per row; nonzero only mid-cold-solve
  std::vector<double> binv_;       // row-major m_ x m_
  bool binv_valid_ = false;
  int pivots_since_refactor_ = 0;
  // Recovery-ladder state (see lp/simplex.cpp): per-solve rung-1 budget
  // and the fault-injection latches.
  int numerical_retries_ = 0;
  bool fault_stop_ = false;
  bool fault_bad_pivot_ = false;
};

}  // namespace stripack::lp
