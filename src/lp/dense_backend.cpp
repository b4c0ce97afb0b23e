#include "lp/dense_backend.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/fault_injection.hpp"

namespace stripack::lp {
namespace {

constexpr int kNone = std::numeric_limits<int>::min();
constexpr double kPivotTol = 1e-9;
constexpr double kInf = std::numeric_limits<double>::infinity();
// Residual certification tolerance and rung-1 retry budget, matching the
// eta-file engine's ladder (lp/simplex.cpp).
constexpr double kResidualTol = 1e-6;
constexpr int kMaxNumericalRetries = 3;

}  // namespace

DenseTableauBackend::DenseTableauBackend(const Model& model,
                                         const SimplexOptions& options)
    : model_(&model), options_(options), m_(model.num_rows()) {
  art_sign_.assign(m_, 0.0);
  if (!options_.initial_basis.empty()) load_basis(options_.initial_basis);
}

bool DenseTableauBackend::is_artificialish(int code) const {
  if (code >= 0) return false;
  if (code < -m_) return true;  // temporary phase-1 artificial
  return model_->row_sense(slack_code_row(code)) == Sense::EQ;  // pinned
}

double DenseTableauBackend::logical_coef(int row) const {
  return model_->row_sense(row) == Sense::GE ? -1.0 : 1.0;
}

double DenseTableauBackend::phase_cost(int code, bool phase1) const {
  if (phase1) return is_artificialish(code) ? 1.0 : 0.0;
  return code >= 0 ? model_->column_cost(code) : 0.0;
}

double DenseTableauBackend::dot_column(const std::vector<double>& y,
                                       int code) const {
  if (code >= 0) {
    double acc = 0.0;
    for (const RowEntry& e : model_->column_entries(code)) {
      if (e.row < m_) acc += y[e.row] * e.coef;
    }
    return acc;
  }
  if (code >= -m_) {
    const int r = slack_code_row(code);
    return y[r] * logical_coef(r);
  }
  const int r = art_row(code);
  return y[r] * art_sign_[r];
}

void DenseTableauBackend::ftran(int code, std::vector<double>& d) const {
  d.assign(m_, 0.0);
  const auto add = [&](int r, double coef) {
    for (int i = 0; i < m_; ++i) {
      d[i] += binv_[static_cast<std::size_t>(i) * m_ + r] * coef;
    }
  };
  if (code >= 0) {
    for (const RowEntry& e : model_->column_entries(code)) {
      if (e.row < m_) add(e.row, e.coef);
    }
  } else if (code >= -m_) {
    const int r = slack_code_row(code);
    add(r, logical_coef(r));
  } else {
    const int r = art_row(code);
    add(r, art_sign_[r]);
  }
}

double DenseTableauBackend::feas_tol() const {
  double bmax = 0.0;
  for (int r = 0; r < m_; ++r) {
    bmax = std::max(bmax, std::fabs(model_->row_rhs(r)));
  }
  return 1e-7 * (1.0 + bmax);
}

std::int64_t DenseTableauBackend::default_max_iters() const {
  return options_.max_iterations > 0
             ? options_.max_iterations
             : 5000 + 20LL * (2LL * m_ + model_->num_cols());
}

bool DenseTableauBackend::stop_requested() const {
  return fault_stop_ || options_.stop.requested();
}

void DenseTableauBackend::perturb_inverse(double magnitude) {
  if (!binv_.empty()) binv_[0] += magnitude * (1.0 + std::fabs(binv_[0]));
}

bool DenseTableauBackend::poll_pivot_fault() {
  if (options_.fault == nullptr) return false;
  double magnitude = 0.0;
  switch (options_.fault->poll(FaultSite::Pivot, &magnitude)) {
    case FaultAction::None: break;
    case FaultAction::PerturbEta: perturb_inverse(magnitude); break;
    case FaultAction::NearSingularPivot: fault_bad_pivot_ = true; break;
    case FaultAction::Throw:
      throw FaultInjected("injected fault at pivot boundary");
    case FaultAction::TripStop:
      fault_stop_ = true;
      return true;
  }
  return false;
}

void DenseTableauBackend::poll_round_fault() {
  if (options_.fault == nullptr) return;
  double magnitude = 0.0;
  switch (options_.fault->poll(FaultSite::PricingRound, &magnitude)) {
    case FaultAction::None: break;
    case FaultAction::PerturbEta: perturb_inverse(magnitude); break;
    case FaultAction::NearSingularPivot: fault_bad_pivot_ = true; break;
    case FaultAction::Throw:
      throw FaultInjected("injected fault at pricing round");
    case FaultAction::TripStop:
      fault_stop_ = true;
      break;
  }
}

bool DenseTableauBackend::take_forced_bad_pivot() {
  const bool forced = fault_bad_pivot_;
  fault_bad_pivot_ = false;
  return forced;
}

bool DenseTableauBackend::residual_ok(const std::vector<double>& xb) const {
  std::vector<double> resid(static_cast<std::size_t>(m_), 0.0);
  for (int i = 0; i < m_; ++i) {
    const double v = xb[i];
    if (v == 0.0) continue;
    const int code = basis_[i];
    if (code >= 0) {
      for (const RowEntry& e : model_->column_entries(code)) {
        if (e.row < m_) resid[e.row] += v * e.coef;
      }
    } else if (code >= -m_) {
      const int r = slack_code_row(code);
      resid[r] += v * logical_coef(r);
    } else {
      const int r = art_row(code);
      resid[r] += v * art_sign_[r];
    }
  }
  double err = 0.0;
  double bnorm = 0.0;
  for (int r = 0; r < m_; ++r) {
    err = std::max(err, std::fabs(resid[r] - model_->row_rhs(r)));
    bnorm += std::fabs(model_->row_rhs(r));
  }
  return err <= kResidualTol * (1.0 + bnorm);
}

Solution DenseTableauBackend::cold_retry(const Solution& failed) {
  numerical_retries_ = 0;
  basis_.clear();
  binv_valid_ = false;
  Solution retry = cold_solve(Solution{});
  retry.refactor_retries += failed.refactor_retries;
  retry.residual_repairs += failed.residual_repairs;
  retry.cold_restarts = failed.cold_restarts + 1;
  return retry;
}

bool DenseTableauBackend::factorize() {
  const std::size_t mm = static_cast<std::size_t>(m_) * m_;
  std::vector<double> a(mm, 0.0);  // basis matrix, row-major
  for (int j = 0; j < m_; ++j) {
    const int code = basis_[j];
    if (code >= 0) {
      for (const RowEntry& e : model_->column_entries(code)) {
        if (e.row < m_) a[static_cast<std::size_t>(e.row) * m_ + j] += e.coef;
      }
    } else if (code >= -m_) {
      const int r = slack_code_row(code);
      a[static_cast<std::size_t>(r) * m_ + j] += logical_coef(r);
    } else {
      const int r = art_row(code);
      a[static_cast<std::size_t>(r) * m_ + j] += art_sign_[r];
    }
  }
  binv_.assign(mm, 0.0);
  for (int i = 0; i < m_; ++i) {
    binv_[static_cast<std::size_t>(i) * m_ + i] = 1.0;
  }
  // Gauss-Jordan with partial pivoting on [A | I] -> [I | A^{-1}].
  for (int k = 0; k < m_; ++k) {
    int piv = k;
    for (int i = k + 1; i < m_; ++i) {
      if (std::fabs(a[static_cast<std::size_t>(i) * m_ + k]) >
          std::fabs(a[static_cast<std::size_t>(piv) * m_ + k])) {
        piv = i;
      }
    }
    if (std::fabs(a[static_cast<std::size_t>(piv) * m_ + k]) < 1e-11) {
      binv_valid_ = false;
      return false;
    }
    if (piv != k) {
      for (int c = 0; c < m_; ++c) {
        std::swap(a[static_cast<std::size_t>(piv) * m_ + c],
                  a[static_cast<std::size_t>(k) * m_ + c]);
        std::swap(binv_[static_cast<std::size_t>(piv) * m_ + c],
                  binv_[static_cast<std::size_t>(k) * m_ + c]);
      }
    }
    const double inv = 1.0 / a[static_cast<std::size_t>(k) * m_ + k];
    for (int c = 0; c < m_; ++c) {
      a[static_cast<std::size_t>(k) * m_ + c] *= inv;
      binv_[static_cast<std::size_t>(k) * m_ + c] *= inv;
    }
    for (int i = 0; i < m_; ++i) {
      if (i == k) continue;
      const double f = a[static_cast<std::size_t>(i) * m_ + k];
      if (f == 0.0) continue;
      for (int c = 0; c < m_; ++c) {
        a[static_cast<std::size_t>(i) * m_ + c] -=
            f * a[static_cast<std::size_t>(k) * m_ + c];
        binv_[static_cast<std::size_t>(i) * m_ + c] -=
            f * binv_[static_cast<std::size_t>(k) * m_ + c];
      }
    }
  }
  binv_valid_ = true;
  pivots_since_refactor_ = 0;
  return true;
}

void DenseTableauBackend::compute_basic_values(std::vector<double>& xb) const {
  xb.assign(m_, 0.0);
  for (int i = 0; i < m_; ++i) {
    double acc = 0.0;
    const double* row = &binv_[static_cast<std::size_t>(i) * m_];
    for (int k = 0; k < m_; ++k) acc += row[k] * model_->row_rhs(k);
    xb[i] = acc;
  }
}

void DenseTableauBackend::compute_duals(bool phase1,
                                        const std::vector<double>& cost_shift,
                                        std::vector<double>& y) const {
  y.assign(m_, 0.0);
  for (int i = 0; i < m_; ++i) {
    double cb = phase_cost(basis_[i], phase1);
    if (!phase1 && basis_[i] >= 0 && !cost_shift.empty()) {
      cb += cost_shift[basis_[i]];
    }
    if (cb == 0.0) continue;
    const double* row = &binv_[static_cast<std::size_t>(i) * m_];
    for (int k = 0; k < m_; ++k) y[k] += cb * row[k];
  }
}

void DenseTableauBackend::pivot(int row, int entering_code,
                                const std::vector<double>& d) {
  basis_[row] = entering_code;
  const double dp = d[row];
  double* brow = &binv_[static_cast<std::size_t>(row) * m_];
  for (int k = 0; k < m_; ++k) brow[k] /= dp;
  for (int i = 0; i < m_; ++i) {
    if (i == row) continue;
    const double f = d[i];
    if (f == 0.0) continue;
    double* bi = &binv_[static_cast<std::size_t>(i) * m_];
    for (int k = 0; k < m_; ++k) bi[k] -= f * brow[k];
  }
  ++pivots_since_refactor_;
}

SolveStatus DenseTableauBackend::run_primal(bool phase1, Solution& solution) {
  const int n = model_->num_cols();
  const std::int64_t max_iters = default_max_iters();
  const double rtol = std::max(options_.tol, 1e-9);
  const std::vector<double> no_shift;
  std::vector<double> xb, y, d;
  std::vector<char> basic_structural(n, 0), basic_logical(m_, 0);
  const auto order_key = [&](int code) {
    return code >= 0 ? code
                     : n + (code >= -m_ ? slack_code_row(code)
                                        : art_row(code));
  };
  while (true) {
    if (solution.iterations >= max_iters || stop_requested()) {
      return SolveStatus::IterationLimit;
    }
    if (poll_pivot_fault()) return SolveStatus::IterationLimit;
    if (pivots_since_refactor_ >= std::max(1, options_.refactor_interval) &&
        !factorize()) {
      return SolveStatus::NumericalFailure;  // numerically wedged
    }
    compute_basic_values(xb);
    compute_duals(phase1, no_shift, y);
    std::fill(basic_structural.begin(), basic_structural.end(), 0);
    std::fill(basic_logical.begin(), basic_logical.end(), 0);
    for (int i = 0; i < m_; ++i) {
      if (basis_[i] >= 0) {
        basic_structural[basis_[i]] = 1;
      } else if (basis_[i] >= -m_) {
        basic_logical[slack_code_row(basis_[i])] = 1;
      }
    }
    // Bland: first enterable code (structural, then non-equality logicals;
    // artificials and pinned logicals never enter) pricing negative.
    int entering = kNone;
    for (int c = 0; c < n && entering == kNone; ++c) {
      if (basic_structural[c]) continue;
      if (phase_cost(c, phase1) - dot_column(y, c) < -rtol) entering = c;
    }
    for (int r = 0; r < m_ && entering == kNone; ++r) {
      if (basic_logical[r] || model_->row_sense(r) == Sense::EQ) continue;
      if (-logical_coef(r) * y[r] < -rtol) entering = slack_code(r);
    }
    if (entering == kNone) {
      // Residual certification (rung 1): a basic solution that no longer
      // satisfies B xb = b — a corrupted inverse — must not certify.
      // Rebuild the factorization from the model and re-price, boundedly.
      if (!residual_ok(xb)) {
        if (++numerical_retries_ > kMaxNumericalRetries || !factorize()) {
          return SolveStatus::NumericalFailure;
        }
        ++solution.residual_repairs;
        continue;
      }
      return SolveStatus::Optimal;
    }
    ftran(entering, d);
    // Ratio test. Artificialish basics are pinned to zero, so in phase 2
    // they block the step in *both* directions (denominator |d_i|) and are
    // preferred out on ties; in phase 1 they are ordinary variables being
    // cost-minimized.
    int leave = -1;
    bool leave_artish = false;
    double best_ratio = 0.0;
    int best_key = 0;
    for (int i = 0; i < m_; ++i) {
      const bool artish = !phase1 && is_artificialish(basis_[i]);
      const double den = artish ? std::fabs(d[i]) : d[i];
      if (den <= kPivotTol) continue;
      const double ratio = std::max(0.0, xb[i]) / den;
      const int key = order_key(basis_[i]);
      const bool better =
          leave == -1 || ratio < best_ratio - 1e-12 ||
          (ratio <= best_ratio + 1e-12 &&
           (artish > leave_artish ||
            (artish == leave_artish && key < best_key)));
      if (better) {
        leave = i;
        leave_artish = artish;
        best_ratio = ratio;
        best_key = key;
      }
    }
    if (leave == -1) return SolveStatus::Unbounded;
    // Near-singular pivot guard (rung 1): bounded refactorize-and-retry
    // instead of dividing by a vanishing pivot element.
    if (std::fabs(d[leave]) <= kPivotTol || take_forced_bad_pivot()) {
      if (++numerical_retries_ > kMaxNumericalRetries || !factorize()) {
        return SolveStatus::NumericalFailure;
      }
      ++solution.refactor_retries;
      continue;
    }
    pivot(leave, entering, d);
    ++solution.iterations;
    if (phase1) ++solution.phase1_iterations;
  }
}

void DenseTableauBackend::extract(Solution& solution) {
  const int n = model_->num_cols();
  std::vector<double> xb;
  compute_basic_values(xb);
  solution.x.assign(n, 0.0);
  solution.basic_columns.clear();
  for (int i = 0; i < m_; ++i) {
    if (basis_[i] >= 0) {
      solution.x[basis_[i]] = std::max(0.0, xb[i]);
      solution.basic_columns.push_back(basis_[i]);
    }
  }
  std::sort(solution.basic_columns.begin(), solution.basic_columns.end());
  compute_duals(false, {}, solution.duals);
  solution.objective = model_->objective_value(solution.x);
  // Persist an engine-compatible basis: temp artificials (basic at zero)
  // re-encode as the row's slack code. The encoding swap changes B, so the
  // inverse is rebuilt lazily on next use.
  bool changed = false;
  for (int i = 0; i < m_; ++i) {
    if (basis_[i] < -m_) {
      basis_[i] = slack_code(art_row(basis_[i]));
      changed = true;
    }
  }
  if (changed) binv_valid_ = false;
  std::fill(art_sign_.begin(), art_sign_.end(), 0.0);
  solution.basis = basis_;
  solution.farkas.clear();
  solution.status = SolveStatus::Optimal;
}

Solution DenseTableauBackend::cold_solve(Solution solution) {
  basis_.assign(m_, 0);
  art_sign_.assign(m_, 0.0);
  binv_.assign(static_cast<std::size_t>(m_) * m_, 0.0);
  const double ftol = feas_tol();
  bool need_phase1 = false;
  for (int r = 0; r < m_; ++r) {
    const double b = model_->row_rhs(r);
    const Sense s = model_->row_sense(r);
    const bool logical_feasible =
        s == Sense::LE ? b >= 0.0 : s == Sense::GE ? b <= 0.0 : b >= 0.0;
    if (logical_feasible) {
      basis_[r] = slack_code(r);
      if (s == Sense::EQ && b > ftol) need_phase1 = true;  // pinned, positive
    } else {
      art_sign_[r] = b >= 0.0 ? 1.0 : -1.0;
      basis_[r] = art_code(r);
      need_phase1 = true;
    }
    const double coef =
        basis_[r] == slack_code(r) ? logical_coef(r) : art_sign_[r];
    binv_[static_cast<std::size_t>(r) * m_ + r] = coef;  // (±1)^{-1} = ±1
  }
  binv_valid_ = true;
  pivots_since_refactor_ = 0;

  if (need_phase1) {
    const SolveStatus st = run_primal(true, solution);
    if (st != SolveStatus::Optimal) {
      solution.status = st;
      return solution;
    }
    std::vector<double> xb;
    compute_basic_values(xb);
    double infeasibility = 0.0;
    for (int i = 0; i < m_; ++i) {
      if (is_artificialish(basis_[i])) {
        infeasibility += std::max(0.0, xb[i]);
      }
    }
    if (infeasibility > ftol) {
      // Phase-1 duals are a Farkas certificate: reduced costs at the
      // phase-1 optimum give y'a_j <= tol for every enterable column and
      // the right sign per row sense, and y'b equals the (positive)
      // residual infeasibility.
      compute_duals(true, {}, solution.farkas);
      solution.status = SolveStatus::Infeasible;
      return solution;
    }
  }
  const SolveStatus st = run_primal(false, solution);
  if (st == SolveStatus::Optimal) {
    extract(solution);
  } else {
    solution.status = st;
  }
  return solution;
}

Solution DenseTableauBackend::solve() {
  Solution solution;
  numerical_retries_ = 0;
  poll_round_fault();
  if (static_cast<int>(basis_.size()) == m_ && !basis_.empty() &&
      (binv_valid_ || factorize())) {
    std::vector<double> xb;
    compute_basic_values(xb);
    const double ftol = feas_tol();
    bool feasible = true;
    for (int i = 0; i < m_ && feasible; ++i) {
      feasible = xb[i] >= -ftol &&
                 (!is_artificialish(basis_[i]) || xb[i] <= ftol);
    }
    if (feasible) {
      const SolveStatus st = run_primal(false, solution);
      if (st == SolveStatus::Optimal) {
        extract(solution);
      } else {
        solution.status = st;
      }
      if (solution.status == SolveStatus::NumericalFailure) {
        return cold_retry(solution);  // rung 2
      }
      return solution;
    }
  }
  return cold_solve(std::move(solution));
}

Solution DenseTableauBackend::solve_dual(bool shift_dual_infeasible) {
  Solution solution;
  numerical_retries_ = 0;
  poll_round_fault();
  if (static_cast<int>(basis_.size()) != m_ || basis_.empty()) return solve();
  if (!binv_valid_ && !factorize()) {
    basis_.clear();
    return solve();
  }
  const int n = model_->num_cols();
  const double ftol = feas_tol();
  const double rtol = std::max(100.0 * options_.tol, 1e-7);
  std::vector<double> xb, y, d;
  compute_basic_values(xb);
  // A pinned artificial basic at a positive value (fresh equality row with
  // nonzero residual) is outside dual reach: primal fallback, like the
  // engine.
  for (int i = 0; i < m_; ++i) {
    if (is_artificialish(basis_[i]) && xb[i] > ftol) return solve();
  }
  std::vector<char> basic_structural(n, 0), basic_logical(m_, 0);
  const auto refresh_basic_flags = [&] {
    std::fill(basic_structural.begin(), basic_structural.end(), 0);
    std::fill(basic_logical.begin(), basic_logical.end(), 0);
    for (int i = 0; i < m_; ++i) {
      if (basis_[i] >= 0) {
        basic_structural[basis_[i]] = 1;
      } else {
        basic_logical[slack_code_row(basis_[i])] = 1;
      }
    }
  };
  refresh_basic_flags();
  // Dual feasibility at entry; optionally clamp negative structural
  // reduced costs to zero by shifting their costs (dropped at the end).
  std::vector<double> cost_shift;
  compute_duals(false, cost_shift, y);
  for (int c = 0; c < n; ++c) {
    if (basic_structural[c]) continue;
    const double rc = model_->column_cost(c) - dot_column(y, c);
    if (rc < -rtol) {
      if (!shift_dual_infeasible) return solve();
      if (cost_shift.empty()) cost_shift.assign(n, 0.0);
      cost_shift[c] = -rc;
    }
  }
  for (int r = 0; r < m_; ++r) {
    if (basic_logical[r] || model_->row_sense(r) == Sense::EQ) continue;
    if (-logical_coef(r) * y[r] < -rtol) return solve();  // can't shift
  }

  const std::int64_t max_iters = default_max_iters();
  while (true) {
    if (solution.iterations >= max_iters || stop_requested()) {
      solution.status = SolveStatus::IterationLimit;
      return solution;
    }
    if (poll_pivot_fault()) {
      solution.status = SolveStatus::IterationLimit;
      return solution;
    }
    if (pivots_since_refactor_ >= std::max(1, options_.refactor_interval) &&
        !factorize()) {
      solution.status = SolveStatus::NumericalFailure;
      return cold_retry(solution);  // rung 2
    }
    compute_basic_values(xb);
    compute_duals(false, cost_shift, y);
    // Leaving: the largest primal violation — a negative basic, or a
    // pinned artificial pushed above zero (blocked from above).
    int p = -1;
    bool upper = false;
    double worst = ftol;
    for (int i = 0; i < m_; ++i) {
      if (-xb[i] > worst) {
        worst = -xb[i];
        p = i;
        upper = false;
      }
      if (is_artificialish(basis_[i]) && xb[i] > worst) {
        worst = xb[i];
        p = i;
        upper = true;
      }
    }
    if (p == -1) break;  // primal feasible
    refresh_basic_flags();
    const double* u = &binv_[static_cast<std::size_t>(p) * m_];
    const std::vector<double> u_vec(u, u + m_);
    // Dual ratio test: keep every reduced cost nonnegative. Lower
    // violation needs alpha < 0, upper (pinned) violation alpha > 0.
    int entering = kNone;
    double best_ratio = kInf;
    int best_key = 0;
    const auto consider = [&](int code, double rc, double alpha, int key) {
      const double den = upper ? alpha : -alpha;
      if (den <= kPivotTol) return;
      const double ratio = std::max(0.0, rc) / den;
      if (entering == kNone || ratio < best_ratio - 1e-12 ||
          (ratio <= best_ratio + 1e-12 && key < best_key)) {
        entering = code;
        best_ratio = ratio;
        best_key = key;
      }
    };
    for (int c = 0; c < n; ++c) {
      if (basic_structural[c]) continue;
      double shift = cost_shift.empty() ? 0.0 : cost_shift[c];
      consider(c, model_->column_cost(c) + shift - dot_column(y, c),
               dot_column(u_vec, c), c);
    }
    for (int r = 0; r < m_; ++r) {
      if (basic_logical[r] || model_->row_sense(r) == Sense::EQ) continue;
      const double coef = logical_coef(r);
      consider(slack_code(r), -coef * y[r], coef * u_vec[r], n + r);
    }
    if (entering == kNone) {
      // Row p is a Farkas certificate: with y = ±u every column prices
      // y'a <= tol (no admissible alpha), the logical signs match the row
      // senses, and y'b = ±xb_p > 0. Cost shifts don't matter — the
      // certificate is cost-independent.
      solution.farkas.assign(m_, 0.0);
      for (int r = 0; r < m_; ++r) {
        solution.farkas[r] = upper ? u_vec[r] : -u_vec[r];
      }
      solution.status = SolveStatus::Infeasible;
      return solution;
    }
    ftran(entering, d);
    // Near-singular pivot guard (rung 1): the dual ratio test screened
    // alpha through B^{-1} rows; the FTRAN recomputation must agree.
    if (std::fabs(d[p]) <= kPivotTol || take_forced_bad_pivot()) {
      if (++numerical_retries_ > kMaxNumericalRetries || !factorize()) {
        solution.status = SolveStatus::NumericalFailure;
        return cold_retry(solution);  // rung 2
      }
      ++solution.refactor_retries;
      continue;
    }
    pivot(p, entering, d);
    ++solution.iterations;
    ++solution.dual_iterations;
  }
  // Primal feasible again: drop the shifts and close with a warm phase-2
  // primal (zero pivots when already dual feasible) — phase 1 never runs.
  const SolveStatus st = run_primal(false, solution);
  if (st == SolveStatus::Optimal) {
    extract(solution);
  } else {
    solution.status = st;
  }
  if (solution.status == SolveStatus::NumericalFailure) {
    return cold_retry(solution);  // rung 2
  }
  return solution;
}

void DenseTableauBackend::sync_columns() {
  // Column data is read from the model on every iteration; nothing cached.
}

void DenseTableauBackend::sync_rows() {
  const int new_m = model_->num_rows();
  if (new_m == m_) return;  // rhs-only change: rhs is re-read every solve
  if (!basis_.empty()) {
    for (int r = m_; r < new_m; ++r) basis_.push_back(slack_code(r));
  }
  m_ = new_m;
  art_sign_.assign(m_, 0.0);
  binv_valid_ = false;
}

bool DenseTableauBackend::load_basis(const std::vector<int>& basis) {
  const auto reject = [&] {
    basis_.clear();
    binv_valid_ = false;
    return false;
  };
  if (static_cast<int>(basis.size()) != m_) return reject();
  for (const int code : basis) {
    if (code < -m_ || code >= model_->num_cols()) return reject();
  }
  basis_ = basis;
  art_sign_.assign(m_, 0.0);
  if (!factorize()) return reject();
  std::vector<double> xb;
  compute_basic_values(xb);
  const double ftol = feas_tol();
  for (int i = 0; i < m_; ++i) {
    if (xb[i] < -ftol) return reject();
    if (is_artificialish(basis_[i]) && xb[i] > ftol) return reject();
  }
  return true;
}

}  // namespace stripack::lp
