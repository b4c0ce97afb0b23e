#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/fault_injection.hpp"
#include "util/parallel_for.hpp"

namespace stripack::lp {

namespace {

constexpr double kPivotTol = 1e-9;
constexpr double kEtaDropTol = 1e-12;
// Basic-residual certification tolerance (relative to 1 + ||b||_1): loose
// enough to absorb the feasibility clamps, tight enough that an injected
// or genuine factorization corruption cannot certify as optimal.
constexpr double kResidualTol = 1e-6;
// Rung-1 budget: unscheduled refactorizations per solve attempt before the
// ladder escalates (cold restart, then NumericalFailure).
constexpr int kMaxNumericalRetries = 3;
constexpr int kNoColumn = std::numeric_limits<int>::min();
// Minimum scan size before the optional pricing threads engage.
// parallel_for now runs on the shared ThreadPool (a condition-variable
// wake per call instead of thread spawns), but a parallel section still
// costs a few microseconds of synchronization — small scans run serial
// regardless of `pricing_threads`.
constexpr std::size_t kParallelScanMin = 4096;
constexpr std::size_t kScanChunk = 1024;

// Per-chunk result of a pricing scan; merged in chunk order so parallel
// scans reproduce the serial tie-breaks exactly.
struct ScanBest {
  int code = kNoColumn;
  double rc = 0.0;
};

// One pivot of the product-form inverse: B_new^{-1} = E^{-1} B_old^{-1}
// where E is the identity with column `row` replaced by the pivot
// direction d. Stored sparsely as 1/d_row plus the off-pivot entries of d,
// which live in one shared pool (`eta_off_[begin, end)`) rather than in a
// heap allocation per eta.
struct Eta {
  int row = 0;
  double inv_pivot = 0.0;
  std::size_t begin = 0;  // (i, d_i) for i != row, |d_i| > drop tol
  std::size_t end = 0;
};

}  // namespace

// Internal solver state over the transformed problem:
//   min c'x  s.t.  A x = b,  x >= 0,  b >= 0
// with structural columns mirroring the model and per-row logicals
// (slack/surplus and artificial) addressed by negative codes.
class SimplexEngine::Impl {
 public:
  Impl(const Model& model, const SimplexOptions& options)
      : model_(model), options_(options), m_(model.num_rows()) {
    STRIPACK_EXPECTS(m_ > 0);
    build_rows();
    append_model_columns();
    d_.assign(static_cast<std::size_t>(m_), 0.0);
    u_.assign(static_cast<std::size_t>(m_), 0.0);
    y_.assign(static_cast<std::size_t>(m_), 0.0);
    cold_start();
  }

  void set_stop(StopToken stop) { options_.stop = stop; }

  // ----- column codes -----------------------------------------------------
  // code >= 0:           structural column `code` of the model
  // code in [-m, -1]:    slack/surplus of row  -1 - code
  // code < -m:           artificial of row     -1 - m - code
  [[nodiscard]] bool is_structural(int code) const { return code >= 0; }
  [[nodiscard]] bool is_slack(int code) const {
    return code < 0 && code >= -m_;
  }
  [[nodiscard]] bool is_artificial(int code) const { return code < -m_; }
  [[nodiscard]] int slack_of(int row) const { return -1 - row; }
  [[nodiscard]] int artificial_of(int row) const { return -1 - m_ - row; }
  [[nodiscard]] int logical_row(int code) const {
    return is_slack(code) ? -1 - code : -1 - m_ - code;
  }

  void sync_columns() {
    const int old_cols = num_structural_;
    append_model_columns();
    // Freshly generated columns almost always price negative: put them at
    // the front of the candidate queue so the next solve enters them first.
    for (int c = old_cols; c < num_structural_; ++c) candidates_.push_back(c);
  }

  void sync_rows() {
    const int old_m = m_;
    const int new_m = model_.num_rows();
    STRIPACK_EXPECTS(new_m >= old_m);

    // Fast path for rhs-only edits (repeated branch probes land here):
    // when no rows or columns were added and no rhs changed sign, the
    // basis matrix is untouched, so the factorization and candidate list
    // stay valid — only the transformed rhs and the basic values need
    // refreshing.
    if (new_m == old_m && model_.num_cols() == num_structural_) {
      bool flip_changed = false;
      for (int r = 0; r < m_; ++r) {
        if ((model_.row_rhs(r) < 0) != flipped_[r]) {
          flip_changed = true;
          break;
        }
      }
      if (!flip_changed) {
        b_norm_ = 0.0;
        for (int r = 0; r < m_; ++r) {
          b_[r] = std::fabs(model_.row_rhs(r));
          b_norm_ += b_[r];
        }
        // xb = B^{-1} b through the retained eta file (the same identity
        // refactor() re-establishes; duals are b-independent and keep).
        d_ = b_;
        apply_etas(d_);
        xb_ = d_;
        return;
      }
    }

    // Artificial codes encode the row count: remap them before adopting
    // the new one.
    std::vector<int> codes = basis_;
    if (new_m != old_m) {
      for (int& code : codes) {
        if (is_artificial(code)) code = -1 - new_m - logical_row(code);
      }
    }
    m_ = new_m;
    b_norm_ = 0.0;
    build_rows();
    // Row flips may have changed (rhs edits) and cut rows appended entries
    // to existing columns: rebuild the transformed column copies.
    cols_.clear();
    cost2_.clear();
    num_structural_ = 0;
    in_basis_struct_.clear();
    append_model_columns();
    d_.assign(static_cast<std::size_t>(m_), 0.0);
    u_.assign(static_cast<std::size_t>(m_), 0.0);
    y_.assign(static_cast<std::size_t>(m_), 0.0);
    // Each new row enters the basis on its own logical: the extended basis
    // matrix is block triangular (old basis | new unit columns), so it
    // stays nonsingular, and because the logicals cost zero the old
    // reduced costs are unchanged — an optimal basis stays dual feasible.
    codes.reserve(static_cast<std::size_t>(new_m));
    for (int r = old_m; r < new_m; ++r) {
      codes.push_back(slack_sign_[r] != 0.0 ? slack_of(r) : artificial_of(r));
    }
    install_basis(codes);
    // A singular basis can only arise from an rhs sign flip rewriting a
    // basic column; fall back to cold (solve_dual then re-runs phase 1).
    if (!refactor()) cold_start();
    candidates_.clear();
    scan_ptr_ = 0;
    duals_fresh_ = false;
  }

  bool load_basis(const std::vector<int>& codes) {
    if (static_cast<int>(codes.size()) != m_) return false;
    std::vector<int> basis(static_cast<std::size_t>(m_));
    std::vector<bool> seen_struct(static_cast<std::size_t>(num_structural_),
                                  false);
    std::vector<bool> seen_row(static_cast<std::size_t>(m_), false);
    for (int i = 0; i < m_; ++i) {
      const int code = codes[i];
      if (code >= 0) {
        if (code >= num_structural_ || seen_struct[code]) return false;
        seen_struct[code] = true;
        basis[i] = code;
      } else {
        const int r = slack_code_row(code);
        if (r < 0 || r >= m_ || seen_row[r]) return false;
        seen_row[r] = true;
        // Equality rows have no slack: re-instantiate as an artificial
        // (only degenerate artificials are encoded this way).
        basis[i] = slack_sign_[r] != 0.0 ? slack_of(r) : artificial_of(r);
      }
    }
    install_basis(basis);
    if (!refactor()) {
      cold_start();
      return false;
    }
    for (int i = 0; i < m_; ++i) {
      if (xb_[i] < -1e-7 * (1.0 + b_norm_)) {
        cold_start();
        return false;
      }
    }
    for (double& v : xb_) v = std::max(v, 0.0);
    return true;
  }

  // Public primal solve with the recovery ladder's rung 2: a solve attempt
  // that exhausted its refactorize-and-retry budget (NumericalFailure) is
  // retried once from a cold start — dropping the possibly corrupt
  // factorization and warm state entirely — before the failure is final.
  Solution solve() {
    poll_round_fault();
    Solution first = solve_attempt();
    if (first.status != SolveStatus::NumericalFailure) return first;
    cold_start();
    Solution retry = solve_attempt();
    retry.refactor_retries += first.refactor_retries;
    retry.residual_repairs += first.residual_repairs;
    retry.cold_restarts = first.cold_restarts + 1;
    return retry;
  }

  Solution solve_attempt() {
    Solution solution;
    clear_shifts();
    numerical_retries_ = 0;
    const std::int64_t max_iters = default_max_iters();
    // Anti-cycling may have engaged Bland's rule late in a previous solve;
    // start each solve with the configured pricing and let degeneracy
    // re-engage it if needed (otherwise every warm colgen re-solve would
    // permanently pay full-scan first-improving pricing).
    bland_ = forced_bland();

    // The retained basis can carry negative basic values — violated rows
    // after sync_rows when the caller lands here instead of solve_dual
    // (directly, or through solve_dual's documented fallbacks). Phase 1
    // only repairs positive *artificials*; neither phase tolerates
    // negative basics, so restart cold rather than silently clamping an
    // infeasible point into an "optimal" one.
    const double feas_tol = std::max(options_.tol, 1e-9) * (1.0 + b_norm_);
    for (int i = 0; i < m_; ++i) {
      if (xb_[i] < -feas_tol) {
        cold_start();
        break;
      }
    }

    // Phase 1: minimize the sum of artificials (skipped when the retained
    // basis is already feasible, e.g. on warm colgen re-solves).
    double infeas = 0.0;
    for (int i = 0; i < m_; ++i) {
      if (is_artificial(basis_[i])) infeas += xb_[i];
    }
    if (infeas > 1e-12) {
      phase_ = 1;
      const SolveStatus s1 = iterate(solution, max_iters);
      solution.phase1_iterations = solution.iterations;
      if (s1 != SolveStatus::Optimal) {
        solution.status = s1;
        return solution;
      }
      infeas = 0.0;
      for (int i = 0; i < m_; ++i) {
        if (is_artificial(basis_[i])) infeas += xb_[i];
      }
      if (infeas > 1e-7 * (1.0 + b_norm_)) {
        solution.status = SolveStatus::Infeasible;
        // Phase 1 ended optimal with positive infeasibility: its duals y
        // satisfy y'a' <= tol for every column (zero phase-1 cost) and
        // y'b' = infeas > 0 — a Farkas certificate, mapped back through
        // the row flips.
        solution.farkas.assign(static_cast<std::size_t>(m_), 0.0);
        for (int r = 0; r < m_; ++r) {
          solution.farkas[r] = flipped_[r] ? -y_[r] : y_[r];
        }
        return solution;
      }
      // Clamp tiny residual infeasibility on still-basic artificials.
      for (int i = 0; i < m_; ++i) {
        if (is_artificial(basis_[i])) xb_[i] = 0.0;
      }
    }

    phase_ = 2;
    const SolveStatus s2 = iterate(solution, max_iters);
    solution.status = s2;
    if (s2 != SolveStatus::Optimal) return solution;

    extract(solution);
    return solution;
  }

  // Dual simplex from the retained basis: repairs primal feasibility
  // (negative basic values from added cut rows or tightened rhs) while
  // keeping every reduced cost nonnegative, so phase 1 never runs. Falls
  // back to the primal `solve()` when the retained state is outside dual
  // reach (see the header contract).
  Solution solve_dual(bool shift_dual_infeasible) {
    poll_round_fault();
    Solution first = solve_dual_attempt(shift_dual_infeasible);
    if (first.status != SolveStatus::NumericalFailure) return first;
    // Rung 2 for the dual path: the warm basis (or its factorization) is
    // numerically wedged, so the cheap re-solve is off the table — fall
    // back to a cold two-phase primal, the same documented fallback used
    // when the retained basis is outside dual reach.
    cold_start();
    Solution retry = solve_attempt();
    retry.refactor_retries += first.refactor_retries;
    retry.residual_repairs += first.residual_repairs;
    retry.cold_restarts = first.cold_restarts + 1;
    return retry;
  }

  Solution solve_dual_attempt(bool shift_dual_infeasible) {
    Solution solution;
    clear_shifts();
    numerical_retries_ = 0;
    const std::int64_t max_iters = default_max_iters();
    bland_ = forced_bland();
    phase_ = 2;
    const double feas_tol = std::max(options_.tol, 1e-9) * (1.0 + b_norm_);

    // A freshly added equality row with positive residual parks its
    // artificial basic at a positive value; driving real columns *into*
    // the row is primal work, not dual.
    for (int i = 0; i < m_; ++i) {
      if (is_artificial(basis_[i]) && xb_[i] > feas_tol) return solve();
    }
    recompute_duals();
    // Dual feasibility check: an improving column means the basis was
    // never optimal (or an rhs sign flip perturbed the reduced costs).
    // With `shift_dual_infeasible`, improving columns are instead
    // cost-shifted so their reduced cost clamps to zero; the shifts are
    // dropped before the closing primal phase below. Structural shifts
    // absorb Farkas-priced columns landing on an infeasible master;
    // logical shifts absorb the dual wreckage such a column leaves when
    // it pivots basic and the repair round still ends Infeasible — the
    // exit drops the shifts, so the retained duals (true costs through a
    // shifted-in basis) can price slacks negative on the next re-solve.
    {
      const int limit = num_structural_ + m_;
      for (int pos = 0; pos < limit; ++pos) {
        const int code = code_at(pos);
        if (code == kNoColumn || in_basis(code)) continue;
        const double rc = reduced_cost(code);
        if (rc < -options_.tol) {
          if (!shift_dual_infeasible) return solve();
          if (is_structural(code)) {
            if (cost_shift_.empty()) {
              cost_shift_.assign(static_cast<std::size_t>(num_structural_),
                                 0.0);
            }
            cost_shift_[code] = -rc;
          } else {
            if (logical_shift_.empty()) {
              logical_shift_.assign(static_cast<std::size_t>(2 * m_), 0.0);
            }
            logical_shift_[logical_index(code)] = -rc;
          }
        }
      }
    }

    int stall_retries = 0;
    while (true) {
      if (solution.iterations >= max_iters || stop_requested()) {
        solution.status = SolveStatus::IterationLimit;
        return solution;
      }
      if (poll_pivot_fault()) {
        solution.status = SolveStatus::IterationLimit;
        return solution;
      }
      // Leaving row: most negative basic value (first such row on ties —
      // deterministic).
      int leave = -1;
      double most_negative = -feas_tol;
      for (int i = 0; i < m_; ++i) {
        if (xb_[i] < most_negative) {
          most_negative = xb_[i];
          leave = i;
        }
      }
      if (leave < 0) break;  // primal feasible: certify below

      // rho = e_leave' B^{-1}; alpha_j = rho . a_j is the leaving row of
      // the tableau.
      unit_btran(leave);

      // Dual ratio test: entering j minimizes rc_j / -alpha_j over
      // alpha_j < 0, which keeps all reduced costs nonnegative after the
      // pivot. Artificials never re-enter; ties break on the Bland order.
      const int limit = num_structural_ + m_;
      int entering = kNoColumn;
      double best_ratio = 0.0;
      for (int pos = 0; pos < limit; ++pos) {
        const int code = code_at(pos);
        if (code == kNoColumn || in_basis(code)) continue;
        double alpha = 0.0;
        if (is_structural(code)) {
          for (const RowEntry& e : cols_[code]) alpha += u_[e.row] * e.coef;
        } else {
          const int r = logical_row(code);
          alpha = u_[r] * slack_sign_[r];
        }
        if (alpha >= -kPivotTol) continue;
        const double ratio = std::max(reduced_cost(code), 0.0) / -alpha;
        const bool better =
            entering == kNoColumn || ratio < best_ratio - 1e-12 ||
            (ratio < best_ratio + 1e-12 &&
             order_key(code) < order_key(entering));
        if (better) {
          entering = code;
          best_ratio = ratio;
        }
      }
      if (entering == kNoColumn) {
        // rho' A >= 0 over every column yet rho' b < 0: row `leave` is a
        // Farkas certificate that the grown model is infeasible. Export
        // y = -rho mapped through the row flips (y'a <= tol for every
        // column, y'b = -xb[leave] > 0); the certificate only involves A
        // and b, so it is unaffected by any active cost shifts.
        solution.status = SolveStatus::Infeasible;
        solution.farkas.assign(static_cast<std::size_t>(m_), 0.0);
        for (int r = 0; r < m_; ++r) {
          solution.farkas[r] = flipped_[r] ? u_[r] : -u_[r];
        }
        clear_shifts();
        return solution;
      }

      ftran(entries_of(entering));
      if (d_[leave] >= -kPivotTol || take_forced_bad_pivot()) {
        // Eta-file drift: FTRAN disagrees with the BTRAN row (or the
        // fault harness reported the pivot near-singular). Rebuild the
        // factorization and retry (bounded) — rung 1 of the ladder.
        if (++stall_retries > kMaxNumericalRetries || !refactor()) {
          solution.status = SolveStatus::NumericalFailure;
          return solution;
        }
        ++solution.refactor_retries;
        // No xb clamp: negatives are the dual's work queue.
        recompute_duals();
        continue;
      }
      stall_retries = 0;
      apply_dual_update_from_u(leave, reduced_cost(entering));
      pivot(entering, leave, xb_[leave] / d_[leave]);
      ++solution.iterations;
      ++solution.dual_iterations;
      if (++pivots_since_refactor_ >= options_.refactor_interval) {
        if (!refactor()) {
          solution.status = SolveStatus::NumericalFailure;
          return solution;
        }
        recompute_duals();
      }
    }

    // Primal cleanup: clamp residual negatives within tolerance and let
    // the primal iteration certify optimality (usually zero pivots — dual
    // feasibility was maintained throughout). Any cost shifts are dropped
    // first: the basis is primal feasible now, so the closing phase-2
    // iteration prices the ex-shifted columns at their true costs and
    // pivots them in without ever touching phase 1.
    clear_shifts();
    for (double& v : xb_) v = std::max(v, 0.0);
    const SolveStatus status =
        iterate(solution, max_iters + solution.iterations);
    solution.status = status;
    if (status != SolveStatus::Optimal) return solution;
    extract(solution);
    return solution;
  }

 private:
  // ----- problem construction -------------------------------------------
  void build_rows() {
    b_.resize(static_cast<std::size_t>(m_));
    flipped_.assign(static_cast<std::size_t>(m_), false);
    slack_sign_.assign(static_cast<std::size_t>(m_), 0.0);
    for (int r = 0; r < m_; ++r) {
      double rhs = model_.row_rhs(r);
      Sense s = model_.row_sense(r);
      if (rhs < 0) {
        rhs = -rhs;
        flipped_[r] = true;
        if (s == Sense::LE) {
          s = Sense::GE;
        } else if (s == Sense::GE) {
          s = Sense::LE;
        }
      }
      b_[r] = rhs;
      b_norm_ += rhs;
      if (s == Sense::LE) slack_sign_[r] = 1.0;
      if (s == Sense::GE) slack_sign_[r] = -1.0;
    }
  }

  void append_model_columns() {
    const int n = model_.num_cols();
    cols_.reserve(static_cast<std::size_t>(n));
    cost2_.reserve(static_cast<std::size_t>(n));
    in_basis_struct_.resize(static_cast<std::size_t>(n), false);
    for (int c = num_structural_; c < n; ++c) {
      std::vector<RowEntry> col;
      col.reserve(model_.column_entries(c).size());
      for (const RowEntry& e : model_.column_entries(c)) {
        col.push_back({e.row, flipped_[e.row] ? -e.coef : e.coef});
      }
      cols_.push_back(std::move(col));
      cost2_.push_back(model_.column_cost(c));
    }
    num_structural_ = n;
  }

  void install_basis(const std::vector<int>& basis) {
    basis_ = basis;
    std::fill(in_basis_struct_.begin(), in_basis_struct_.end(), false);
    in_basis_logical_.assign(static_cast<std::size_t>(2) * m_, false);
    for (int i = 0; i < m_; ++i) mark_basis(basis_[i], true);
  }

  void mark_basis(int code, bool value) {
    if (is_structural(code)) {
      in_basis_struct_[code] = value;
    } else if (is_slack(code)) {
      in_basis_logical_[logical_row(code)] = value;
    } else {
      in_basis_logical_[static_cast<std::size_t>(m_) + logical_row(code)] =
          value;
    }
  }

  [[nodiscard]] bool in_basis(int code) const {
    if (is_structural(code)) return in_basis_struct_[code];
    if (is_slack(code)) return in_basis_logical_[logical_row(code)];
    return in_basis_logical_[static_cast<std::size_t>(m_) + logical_row(code)];
  }

  void cold_start() {
    std::vector<int> basis(static_cast<std::size_t>(m_));
    for (int r = 0; r < m_; ++r) {
      basis[r] = slack_sign_[r] > 0.0 ? slack_of(r) : artificial_of(r);
    }
    install_basis(basis);
    // The cold basis matrix is the identity: an empty eta file inverts it.
    clear_etas();
    pivots_since_refactor_ = 0;
    xb_ = b_;
    bland_ = forced_bland();
  }

  [[nodiscard]] std::int64_t default_max_iters() const {
    return options_.max_iterations > 0
               ? options_.max_iterations
               : 5000 + 20LL * (2LL * m_ + num_structural_);
  }

  // Cooperative cancellation (caller flags, anytime deadlines). A
  // TripStop fault latches the same behavior without a caller-owned flag.
  [[nodiscard]] bool stop_requested() const {
    return fault_stop_ || options_.stop.requested();
  }

  // ----- fault-injection hooks (no-ops when options_.fault is null) -------
  // Corrupts the newest eta entry *and* the incrementally maintained basic
  // values — the drift a stale or damaged factorization produces. The
  // residual check at certification must catch it; refactor() repairs it.
  void perturb_factorization(double magnitude) {
    if (!etas_.empty()) {
      Eta& eta = etas_.back();
      if (eta.begin != eta.end) {
        RowEntry& first = eta_off_[eta.begin];
        first.coef += magnitude * (1.0 + std::fabs(first.coef));
      } else {
        eta.inv_pivot *= 1.0 + magnitude;
      }
    }
    if (!xb_.empty()) xb_.front() += magnitude * (1.0 + b_norm_);
  }

  // Pivot-boundary poll. Returns true when the solve must stop now
  // (TripStop); may throw FaultInjected.
  bool poll_pivot_fault() {
    if (options_.fault == nullptr) return false;
    double magnitude = 0.0;
    switch (options_.fault->poll(FaultSite::Pivot, &magnitude)) {
      case FaultAction::None: break;
      case FaultAction::PerturbEta: perturb_factorization(magnitude); break;
      case FaultAction::NearSingularPivot: fault_bad_pivot_ = true; break;
      case FaultAction::Throw:
        throw FaultInjected("injected fault at pivot boundary");
      case FaultAction::TripStop:
        fault_stop_ = true;
        return true;
    }
    return false;
  }

  // Pricing-round poll, fired once per (re-)solve entry — each column
  // generation round lands here exactly once.
  void poll_round_fault() {
    if (options_.fault == nullptr) return;
    double magnitude = 0.0;
    switch (options_.fault->poll(FaultSite::PricingRound, &magnitude)) {
      case FaultAction::None: break;
      case FaultAction::PerturbEta: perturb_factorization(magnitude); break;
      case FaultAction::NearSingularPivot: fault_bad_pivot_ = true; break;
      case FaultAction::Throw:
        throw FaultInjected("injected fault at pricing round");
      case FaultAction::TripStop:
        fault_stop_ = true;
        break;
    }
  }

  // Consumes the one-shot "next pivot is near-singular" latch.
  [[nodiscard]] bool take_forced_bad_pivot() {
    const bool forced = fault_bad_pivot_;
    fault_bad_pivot_ = false;
    return forced;
  }

  // Basic-residual certification: ||B xb - b||_inf against a clamp-aware
  // tolerance, computed from the model columns directly (independent of
  // the eta file, so factorization corruption cannot hide from it).
  [[nodiscard]] bool residual_ok() {
    resid_.assign(static_cast<std::size_t>(m_), 0.0);
    for (int i = 0; i < m_; ++i) {
      const double v = xb_[i];
      if (v == 0.0) continue;
      for (const RowEntry& e : entries_of(basis_[i])) {
        resid_[e.row] += v * e.coef;
      }
    }
    double err = 0.0;
    for (int r = 0; r < m_; ++r) {
      err = std::max(err, std::fabs(resid_[r] - b_[r]));
    }
    return err <= kResidualTol * (1.0 + b_norm_);
  }

  [[nodiscard]] bool forced_bland() const {
    return options_.pricing == PricingRule::Bland;
  }

  // 0 = hardware concurrency, >1 = that many threads; 1 and any negative
  // value mean serial.
  [[nodiscard]] bool parallel_pricing_enabled() const {
    return options_.pricing_threads == 0 || options_.pricing_threads > 1;
  }

  [[nodiscard]] std::span<const RowEntry> entries_of(int code) {
    if (is_structural(code)) return cols_[code];
    const int r = logical_row(code);
    logical_entry_ = {r, is_slack(code) ? slack_sign_[r] : 1.0};
    return {&logical_entry_, 1};
  }

  [[nodiscard]] std::size_t entries_count(int code) const {
    return is_structural(code) ? cols_[code].size() : 1;
  }

  [[nodiscard]] double cost_of(int code) const {
    if (phase_ == 1) return is_artificial(code) ? 1.0 : 0.0;
    if (!is_structural(code)) {
      return logical_shift_.empty() ? 0.0
                                    : logical_shift_[logical_index(code)];
    }
    return cost_shift_.empty() ? cost2_[code]
                               : cost2_[code] + cost_shift_[code];
  }

  // Index into `logical_shift_`: slacks first, artificials after.
  [[nodiscard]] std::size_t logical_index(int code) const {
    const auto row = static_cast<std::size_t>(logical_row(code));
    return is_slack(code) ? row : static_cast<std::size_t>(m_) + row;
  }

  void clear_shifts() {
    cost_shift_.clear();
    logical_shift_.clear();
  }

  // Deterministic total order used by ratio-test tie-breaks (structural
  // columns first, then slacks, then artificials — mirrors Bland order).
  [[nodiscard]] std::int64_t order_key(int code) const {
    if (is_structural(code)) return code;
    const std::int64_t base = static_cast<std::int64_t>(1) << 32;
    if (is_slack(code)) return base + logical_row(code);
    return 2 * base + logical_row(code);
  }

  // ----- factorization ----------------------------------------------------
  // The basis inverse is held purely in product form: B^{-1} =
  // E_k^{-1} ... E_1^{-1}, where the first etas come from refactorization
  // (re-inversion of the basis matrix) and the rest from pivots. All
  // FTRAN/BTRAN costs scale with the stored eta nonzeros, never with m^2.

  void clear_etas() {
    etas_.clear();
    eta_off_.clear();
  }

  // Appends the eta of pivoting the FTRAN direction d_ at `row`.
  void push_direction_eta(int row) {
    const std::size_t begin = eta_off_.size();
    for (int i = 0; i < m_; ++i) {
      if (i != row && std::fabs(d_[i]) > kEtaDropTol) {
        eta_off_.push_back({i, d_[i]});
      }
    }
    etas_.push_back({row, 1.0 / d_[row], begin, eta_off_.size()});
  }

  // v <- B^{-1} v (oldest eta first). Zero pivot components skip in O(1).
  void apply_etas(std::vector<double>& v) const {
    const RowEntry* const pool = eta_off_.data();
    for (const Eta& e : etas_) {
      const double t = v[e.row] * e.inv_pivot;
      v[e.row] = t;
      if (t == 0.0) continue;
      for (std::size_t k = e.begin; k < e.end; ++k) {
        v[pool[k].row] -= pool[k].coef * t;
      }
    }
  }

  // FTRAN: d = B^{-1} a for a sparse column.
  void ftran(std::span<const RowEntry> col) {
    std::fill(d_.begin(), d_.end(), 0.0);
    for (const RowEntry& e : col) d_[e.row] = e.coef;
    apply_etas(d_);
  }

  // BTRAN through the eta file only (newest to oldest): u' <- u' E^{-1}...
  // Optionally tracks which rows become nonzero.
  void btran_etas(std::vector<double>& u, std::vector<int>* touched) const {
    const RowEntry* const pool = eta_off_.data();
    for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
      double acc = u[it->row];
      for (std::size_t k = it->begin; k < it->end; ++k) {
        acc -= u[pool[k].row] * pool[k].coef;
      }
      acc *= it->inv_pivot;
      if (touched != nullptr && acc != 0.0 && u[it->row] == 0.0) {
        touched->push_back(it->row);
      }
      u[it->row] = acc;
    }
  }

  // Exact duals for the current phase: y' = c_B' B^{-1} (BTRAN).
  void recompute_duals() {
    std::fill(u_.begin(), u_.end(), 0.0);
    for (int i = 0; i < m_; ++i) {
      const double cb = cost_of(basis_[i]);
      if (cb != 0.0) u_[i] = cb;
    }
    btran_etas(u_, nullptr);
    y_ = u_;
    duals_fresh_ = true;
  }

  // u <- e_row' B^{-1} (BTRAN of a unit vector), tracking touched rows.
  void unit_btran(int row) {
    std::fill(u_.begin(), u_.end(), 0.0);
    u_[row] = 1.0;
    touched_.clear();
    touched_.push_back(row);
    btran_etas(u_, &touched_);
  }

  // Incremental dual update with u_ = e_leave' B_old^{-1} already in
  // place: y_new' = y' + (rc / d_leave) * u'. Consumes u_ (zeroes the
  // touched entries).
  void apply_dual_update_from_u(int leave, double rc) {
    const double mult = rc / d_[leave];
    for (const int i : touched_) {
      const double f = mult * u_[i];
      if (f == 0.0) continue;
      u_[i] = 0.0;  // a row can repeat in touched_; apply it only once
      y_[i] += f;
    }
    duals_fresh_ = false;
  }

  // Incremental dual update after choosing (entering, leave): with rc the
  // entering reduced cost and d the pivot direction,
  //   y_new' = y' + (rc / d_leave) * (e_leave' B_old^{-1}).
  void update_duals(int leave, double rc) {
    unit_btran(leave);
    apply_dual_update_from_u(leave, rc);
  }

  // Refactorization: re-inverts the basis matrix into a fresh eta file.
  // Phase A peels row singletons — rows covered by exactly one remaining
  // basis column pivot there with their *original* sparse entries and zero
  // fill (a permuted-lower-triangular prefix; LP bases are mostly
  // triangular, so this usually swallows nearly everything). Phase B runs
  // generic product-form inversion on the small remaining kernel: FTRAN
  // each column through the etas built so far and pivot on the largest
  // remaining component. Cost scales with basis nonzeros plus kernel fill
  // instead of the m^3 of a dense inversion.
  //
  // Returns false when the basis matrix proves singular (the partial eta
  // file is unusable; callers cold-start or escalate to NumericalFailure).
  [[nodiscard]] bool refactor() {
    double fault_magnitude = 0.0;
    FaultAction fault_action = FaultAction::None;
    if (options_.fault != nullptr) {
      fault_action =
          options_.fault->poll(FaultSite::Refactor, &fault_magnitude);
      if (fault_action == FaultAction::Throw) {
        throw FaultInjected("injected fault at refactorization");
      }
      if (fault_action == FaultAction::TripStop) fault_stop_ = true;
      if (fault_action == FaultAction::NearSingularPivot) return false;
    }
    pivots_since_refactor_ = 0;
    clear_etas();
    etas_.reserve(static_cast<std::size_t>(m_) +
                  std::min<std::size_t>(
                      static_cast<std::size_t>(
                          std::max(options_.refactor_interval, 0)),
                      256));

    // Row -> basis positions adjacency (flat CSR).
    row_count_.assign(static_cast<std::size_t>(m_), 0);
    std::size_t nnz = 0;
    for (int k = 0; k < m_; ++k) {
      for (const RowEntry& e : entries_of(basis_[k])) {
        ++row_count_[e.row];
        ++nnz;
      }
    }
    row_start_.assign(static_cast<std::size_t>(m_) + 1, 0);
    for (int r = 0; r < m_; ++r) {
      row_start_[r + 1] = row_start_[r] + row_count_[r];
    }
    row_cols_.resize(nnz);
    fill_ptr_ = row_start_;
    for (int k = 0; k < m_; ++k) {
      for (const RowEntry& e : entries_of(basis_[k])) {
        row_cols_[fill_ptr_[e.row]++] = k;
      }
    }

    col_done_.assign(static_cast<std::size_t>(m_), false);
    row_active_.assign(static_cast<std::size_t>(m_), true);
    // Each basis column gets pivoted at some row; the eta product then maps
    // that column's basic value to its pivot-row component, so the basis
    // array is re-indexed by pivot row at the end.
    new_basis_.assign(static_cast<std::size_t>(m_), 0);
    peel_stack_.clear();
    for (int r = 0; r < m_; ++r) {
      if (row_count_[r] == 1) peel_stack_.push_back(r);
    }

    // Phase A: triangular peel.
    int pivots_done = 0;
    while (!peel_stack_.empty()) {
      const int r = peel_stack_.back();
      peel_stack_.pop_back();
      if (!row_active_[r] || row_count_[r] != 1) continue;
      int k = -1;
      for (std::size_t p = row_start_[r]; p < row_start_[r + 1]; ++p) {
        if (!col_done_[row_cols_[p]]) {
          k = row_cols_[p];
          break;
        }
      }
      if (k < 0) continue;  // all covering columns consumed: kernel decides
      double pivot_value = 0.0;
      double max_abs = 0.0;
      const auto col = entries_of(basis_[k]);
      for (const RowEntry& e : col) {
        max_abs = std::max(max_abs, std::fabs(e.coef));
        if (e.row == r) pivot_value = e.coef;
      }
      // Stability guard: a relatively tiny pivot is left to the kernel's
      // magnitude-based pivoting instead.
      if (std::fabs(pivot_value) < 1e-3 * max_abs) continue;
      const std::size_t begin = eta_off_.size();
      for (const RowEntry& e : col) {
        if (e.row != r && std::fabs(e.coef) > kEtaDropTol) {
          eta_off_.push_back({e.row, e.coef});
        }
      }
      etas_.push_back({r, 1.0 / pivot_value, begin, eta_off_.size()});
      new_basis_[r] = basis_[k];
      col_done_[k] = true;
      row_active_[r] = false;
      ++pivots_done;
      for (const RowEntry& e : col) {
        if (--row_count_[e.row] == 1 && row_active_[e.row]) {
          peel_stack_.push_back(e.row);
        }
      }
    }

    // Phase B: generic product-form inversion of the kernel, smallest
    // columns first.
    if (pivots_done < m_) {
      kernel_.clear();
      for (int k = 0; k < m_; ++k) {
        if (!col_done_[k]) kernel_.push_back(k);
      }
      std::sort(kernel_.begin(), kernel_.end(), [&](int a, int b) {
        const std::size_t sa = entries_count(basis_[a]);
        const std::size_t sb = entries_count(basis_[b]);
        return sa != sb ? sa < sb : a < b;
      });
      for (const int k : kernel_) {
        ftran(entries_of(basis_[k]));
        int piv = -1;
        double best = 0.0;
        for (int i = 0; i < m_; ++i) {
          if (!row_active_[i]) continue;
          const double a = std::fabs(d_[i]);
          if (a > best) {
            best = a;
            piv = i;
          }
        }
        if (piv < 0 || best <= 1e-12) return false;
        push_direction_eta(piv);
        new_basis_[piv] = basis_[k];
        row_active_[piv] = false;
        ++pivots_done;
      }
    }

    // Re-index the basis by pivot row (a pure relabeling of basis slots;
    // the basic set is unchanged) and recompute basic values from scratch:
    // FTRAN(b) already yields each column's value at its pivot row.
    basis_ = new_basis_;
    d_ = b_;
    apply_etas(d_);
    xb_ = d_;
    if (fault_action == FaultAction::PerturbEta) {
      perturb_factorization(fault_magnitude);
    }
    return true;
  }

  [[nodiscard]] bool refactor_in_solve() {
    if (!refactor()) return false;
    for (double& v : xb_) v = std::max(v, 0.0);
    recompute_duals();
    return true;
  }

  // ----- pricing ----------------------------------------------------------
  [[nodiscard]] double reduced_cost(int code) const {
    double rc = cost_of(code);
    if (is_structural(code)) {
      for (const RowEntry& e : cols_[code]) rc -= y_[e.row] * e.coef;
    } else {
      const int r = logical_row(code);
      rc -= y_[r] * (is_slack(code) ? slack_sign_[r] : 1.0);
    }
    return rc;
  }

  // Position p scans structural columns first, then per-row slacks.
  [[nodiscard]] int code_at(int pos) const {
    if (pos < num_structural_) return pos;
    const int r = pos - num_structural_;
    return slack_sign_[r] != 0.0 ? slack_of(r) : kNoColumn;
  }

  // Returns the entering column code (kNoColumn at optimality) and its
  // reduced cost. Artificials never re-enter (Farkas-safe in phase 1).
  int price(double& rc_out) {
    const double tol = options_.tol;
    const int limit = num_structural_ + m_;
    if (bland_) {
      // Bland: first improving code in the fixed order.
      for (int pos = 0; pos < limit; ++pos) {
        const int code = code_at(pos);
        if (code == kNoColumn || in_basis(code)) continue;
        const double rc = reduced_cost(code);
        if (rc < -tol) {
          rc_out = rc;
          return code;
        }
      }
      return kNoColumn;
    }

    int best = kNoColumn;
    double best_rc = -tol;
    // Revalidate the candidate list against the current duals.
    if (parallel_pricing_enabled() && candidates_.size() >= kParallelScanMin) {
      revalidate_candidates_parallel(tol, best, best_rc);
    } else {
      std::size_t keep = 0;
      for (const int code : candidates_) {
        if (in_basis(code)) continue;
        const double rc = reduced_cost(code);
        if (rc >= -tol) continue;
        candidates_[keep++] = code;
        if (rc < best_rc) {
          best_rc = rc;
          best = code;
        }
      }
      candidates_.resize(keep);
    }
    if (best != kNoColumn) {
      rc_out = best_rc;
      return best;
    }

    // Candidate drought: cyclic partial scan, stopping after the first
    // block that yields improving columns. A full fruitless wrap proves
    // optimality (for the current duals).
    const int block = options_.pricing_block > 0
                          ? options_.pricing_block
                          : std::max(512, limit / 8);
    if (scan_ptr_ >= limit) scan_ptr_ = 0;
    int scanned = 0;
    while (scanned < limit) {
      for (int s = 0; s < block && scanned < limit; ++s, ++scanned) {
        const int code = code_at(scan_ptr_);
        scan_ptr_ = scan_ptr_ + 1 == limit ? 0 : scan_ptr_ + 1;
        if (code == kNoColumn || in_basis(code)) continue;
        const double rc = reduced_cost(code);
        if (rc >= -tol) continue;
        candidates_.push_back(code);
        if (rc < best_rc) {
          best_rc = rc;
          best = code;
        }
      }
      if (best != kNoColumn) break;
    }
    rc_out = best_rc;
    return best;
  }

  // Chunked candidate revalidation: each fixed-size chunk keeps its
  // improving codes and chunk-best; merging in chunk order reproduces the
  // serial scan exactly (same kept order, same strict-< tie-breaks), so
  // the pivot sequence is independent of the thread count.
  void revalidate_candidates_parallel(double tol, int& best, double& best_rc) {
    const std::size_t n = candidates_.size();
    const std::size_t nchunks = (n + kScanChunk - 1) / kScanChunk;
    std::vector<std::vector<int>> kept(nchunks);
    std::vector<ScanBest> chunk_best(nchunks);
    parallel_for(
        nchunks,
        [&](std::size_t ci) {
          const std::size_t begin = ci * kScanChunk;
          const std::size_t end = std::min(n, begin + kScanChunk);
          ScanBest& cb = chunk_best[ci];
          cb.rc = -tol;
          for (std::size_t k = begin; k < end; ++k) {
            const int code = candidates_[k];
            if (in_basis(code)) continue;
            const double rc = reduced_cost(code);
            if (rc >= -tol) continue;
            kept[ci].push_back(code);
            if (rc < cb.rc) {
              cb.rc = rc;
              cb.code = code;
            }
          }
        },
        static_cast<unsigned>(std::max(options_.pricing_threads, 0)));
    std::size_t keep = 0;
    for (std::size_t ci = 0; ci < nchunks; ++ci) {
      for (const int code : kept[ci]) candidates_[keep++] = code;
      if (chunk_best[ci].code != kNoColumn && chunk_best[ci].rc < best_rc) {
        best_rc = chunk_best[ci].rc;
        best = chunk_best[ci].code;
      }
    }
    candidates_.resize(keep);
  }

  // ----- core iteration ---------------------------------------------------
  SolveStatus iterate(Solution& solution, std::int64_t max_iters) {
    recompute_duals();
    int degenerate_streak = 0;

    while (true) {
      if (solution.iterations >= max_iters || stop_requested()) {
        return SolveStatus::IterationLimit;
      }
      if (poll_pivot_fault()) return SolveStatus::IterationLimit;

      double rc = 0.0;
      const int entering = price(rc);
      if (entering == kNoColumn) {
        // Incremental duals drift; only a pricing pass over exact duals
        // certifies optimality.
        if (!duals_fresh_) {
          recompute_duals();
          continue;
        }
        // Residual certification (rung 1 of the recovery ladder): a basic
        // solution that does not satisfy B xb = b — eta-file corruption or
        // accumulated drift — must not certify. Refactorize (recomputing
        // xb from the model columns) and re-price, boundedly.
        if (!residual_ok()) {
          if (++numerical_retries_ > kMaxNumericalRetries ||
              !refactor_in_solve()) {
            return SolveStatus::NumericalFailure;
          }
          ++solution.residual_repairs;
          continue;
        }
        return SolveStatus::Optimal;
      }

      ftran(entries_of(entering));

      // Ratio test. Artificial basic variables are pinned at zero: any
      // nonzero direction component forces a degenerate pivot that drives
      // them out (this keeps phase 2 from regrowing artificials).
      int leave = -1;
      double theta = std::numeric_limits<double>::infinity();
      bool leave_is_artificial = false;
      for (int i = 0; i < m_; ++i) {
        const bool art = phase_ == 2 && is_artificial(basis_[i]);
        double ratio;
        if (art && std::fabs(d_[i]) > kPivotTol) {
          ratio = 0.0;
        } else if (d_[i] > kPivotTol) {
          ratio = xb_[i] / d_[i];
        } else {
          continue;
        }
        const bool better =
            ratio < theta - options_.tol ||
            (ratio < theta + options_.tol &&
             ((art && !leave_is_artificial) ||
              (art == leave_is_artificial && leave >= 0 &&
               order_key(basis_[i]) < order_key(basis_[leave]))));
        if (leave < 0 || better) {
          theta = std::max(ratio, 0.0);
          leave = i;
          leave_is_artificial = art;
        }
      }
      if (leave < 0) {
        // Like optimality, unboundedness is only declared on exact duals:
        // a drifted reduced cost could have selected a column that does
        // not truly improve (and such a column may have no positive
        // direction component even in a bounded LP).
        if (!duals_fresh_) {
          recompute_duals();
          continue;
        }
        return SolveStatus::Unbounded;
      }

      if (theta <= options_.tol) {
        if (++degenerate_streak > 5 * m_ + 200) bland_ = true;
      } else {
        degenerate_streak = 0;
      }

      // Near-singular pivot guard (rung 1): a pivot element inside the
      // tolerance — only reachable through numerical drift or the fault
      // harness, since the ratio test selects |d| > kPivotTol — gets a
      // bounded refactorize-and-retry instead of the old hard assert.
      if (std::fabs(d_[leave]) <= kPivotTol || take_forced_bad_pivot()) {
        if (++numerical_retries_ > kMaxNumericalRetries ||
            !refactor_in_solve()) {
          return SolveStatus::NumericalFailure;
        }
        ++solution.refactor_retries;
        continue;
      }

      // Duals first (the update needs the pre-pivot eta file), then the
      // pivot.
      update_duals(leave, rc);
      pivot(entering, leave, theta);
      ++solution.iterations;

      if (++pivots_since_refactor_ >= options_.refactor_interval) {
        if (!refactor_in_solve()) return SolveStatus::NumericalFailure;
      }
    }
  }

  void pivot(int entering, int leave, double theta) {
    for (int i = 0; i < m_; ++i) xb_[i] -= theta * d_[i];
    xb_[leave] = theta;

    push_direction_eta(leave);

    mark_basis(basis_[leave], false);
    basis_[leave] = entering;
    mark_basis(entering, true);
  }

  // ----- extraction -------------------------------------------------------
  void extract(Solution& solution) {
    solution.x.assign(static_cast<std::size_t>(num_structural_), 0.0);
    solution.basic_columns.clear();
    solution.basis.assign(static_cast<std::size_t>(m_), 0);
    for (int i = 0; i < m_; ++i) {
      const int code = basis_[i];
      if (is_structural(code)) {
        solution.x[code] = std::max(xb_[i], 0.0);
        solution.basic_columns.push_back(code);
        solution.basis[i] = code;
      } else {
        solution.basis[i] = slack_code(logical_row(code));
      }
    }
    solution.objective = 0.0;
    for (int c = 0; c < num_structural_; ++c) {
      solution.objective += cost2_[c] * solution.x[c];
    }
    // Exact duals y = cB' B^{-1}, mapped back through row flips.
    recompute_duals();
    solution.duals.assign(y_.begin(), y_.end());
    for (int r = 0; r < m_; ++r) {
      if (flipped_[r]) solution.duals[r] = -solution.duals[r];
    }
  }

  const Model& model_;
  SimplexOptions options_;
  int m_;
  int num_structural_ = 0;
  int phase_ = 2;
  bool bland_ = false;
  bool duals_fresh_ = false;
  double b_norm_ = 0.0;

  std::vector<std::vector<RowEntry>> cols_;  // transformed structural columns
  std::vector<double> cost2_;                // phase-2 structural costs
  // Temporary per-column cost shifts for `solve_dual(true)`: empty when
  // inactive, else one additive term per structural column. Cleared on
  // every solve entry and before the closing primal phase.
  std::vector<double> cost_shift_;
  // Same mechanism for logical columns ([slack rows | artificial rows]):
  // clamps slacks whose duals went sign-infeasible when a shifted column
  // pivoted basic and the Farkas exit dropped the structural shifts.
  std::vector<double> logical_shift_;
  std::vector<double> b_;                    // transformed rhs (>= 0)
  std::vector<bool> flipped_;
  std::vector<double> slack_sign_;   // +1 LE, -1 GE, 0 EQ (no slack)
  RowEntry logical_entry_{};         // scratch for entries_of on logicals

  std::vector<int> basis_;                // row -> column code
  std::vector<char> in_basis_struct_;     // structural column -> basic?
  std::vector<char> in_basis_logical_;    // [slack rows | artificial rows]
  std::vector<Eta> etas_;                 // the basis inverse, product form
  std::vector<RowEntry> eta_off_;         // off-pivot entries of all etas
  std::vector<double> xb_;                // basic values
  std::vector<double> d_;                 // FTRAN direction workspace
  std::vector<double> u_;                 // BTRAN workspace
  std::vector<double> y_;                 // current-phase duals
  std::vector<int> touched_;              // BTRAN nonzero tracking
  std::vector<int> candidates_;           // partial-pricing candidate codes
  // Refactorization workspaces (sized on use, reused across calls).
  std::vector<int> row_count_;
  std::vector<std::size_t> row_start_;
  std::vector<std::size_t> fill_ptr_;
  std::vector<int> row_cols_;
  std::vector<bool> col_done_;
  std::vector<bool> row_active_;
  std::vector<int> peel_stack_;
  std::vector<int> kernel_;
  std::vector<int> new_basis_;
  int scan_ptr_ = 0;
  int pivots_since_refactor_ = 0;
  // Recovery-ladder state: per-attempt rung-1 budget, the residual-check
  // scratch, and the fault-injection latches (a TripStop fault persists —
  // it models a deadline that has already passed).
  int numerical_retries_ = 0;
  std::vector<double> resid_;
  bool fault_stop_ = false;
  bool fault_bad_pivot_ = false;
};

SimplexEngine::SimplexEngine(const Model& model, const SimplexOptions& options)
    : impl_(std::make_unique<Impl>(model, options)) {
  if (!options.initial_basis.empty()) {
    impl_->load_basis(options.initial_basis);
  }
}

SimplexEngine::~SimplexEngine() = default;
SimplexEngine::SimplexEngine(SimplexEngine&&) noexcept = default;
SimplexEngine& SimplexEngine::operator=(SimplexEngine&&) noexcept = default;

void SimplexEngine::set_stop(StopToken stop) { impl_->set_stop(stop); }

void SimplexEngine::sync_columns() { impl_->sync_columns(); }

void SimplexEngine::sync_rows() { impl_->sync_rows(); }

bool SimplexEngine::load_basis(const std::vector<int>& basis) {
  return impl_->load_basis(basis);
}

Solution SimplexEngine::solve() { return impl_->solve(); }

Solution SimplexEngine::solve_dual(bool shift_dual_infeasible) {
  return impl_->solve_dual(shift_dual_infeasible);
}

Solution solve(const Model& model, const SimplexOptions& options) {
  STRIPACK_EXPECTS(model.num_rows() > 0);
  SimplexEngine engine(model, options);
  return engine.solve();
}

}  // namespace stripack::lp
