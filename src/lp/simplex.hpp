// Two-phase revised simplex with a product-form eta file.
//
// The basis inverse is held purely in product form: a list of sparse eta
// matrices, rebuilt by periodic refactorization (triangular peel plus a
// product-form inversion of the small kernel) and extended by one eta per
// pivot. FTRAN/BTRAN solve against the eta file — no dense inverse exists
// anywhere, so factor costs scale with basis nonzeros, not m^2. Duals are
// updated incrementally in O(m) per iteration. Pricing is selectable
// (`SimplexOptions::pricing`): partial Dantzig (cyclic block scans feeding
// a candidate list) or Bland, with an automatic switch to Bland's rule
// after long degenerate streaks (anti-cycling). Returns a
// *basic* optimal solution — which is precisely what Lemma 3.3 needs: a
// basic solution of the configuration LP has at most (W+1)(R+1) nonzero
// variables.
//
// `SimplexEngine` is resumable: it retains the factorized basis between
// solves so column generation restarts warm from the previous optimum
// (phase 1 runs only on the first, cold solve). Rows added after a solve
// (branch-and-price cuts) re-enter through `sync_rows()` + `solve_dual()`,
// which reoptimizes from the dual-feasible previous basis instead of
// re-running phase 1. A basis can also be handed off explicitly through
// `Solution::basis` / `SimplexOptions::initial_basis`.
//
// This substitutes for the ellipsoid/Karmarkar solvers the paper cites
// ([10],[14]); see docs/ARCHITECTURE.md.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include "lp/model.hpp"

namespace stripack {
class FaultInjector;  // util/fault_injection.hpp
}

namespace stripack::lp {

enum class SolveStatus {
  Optimal,
  Infeasible,
  Unbounded,
  IterationLimit,
  /// The recovery ladder ran dry: a near-singular pivot or a failed basic
  /// residual check survived the bounded refactorize-and-retry rung and
  /// one cold restart. The solution carries no certificate (like
  /// `IterationLimit`); callers rebuild a fresh cold engine or treat the
  /// node as stalled. Never an assert, never an infinite loop.
  NumericalFailure,
};

/// Pricing rule for the primal simplex.
///  - Dantzig: most negative reduced cost over a partial-pricing candidate
///    list (cheap per iteration; the default).
///  - Bland: first improving column in a fixed order (anti-cycling;
///    guarantees termination, usually many more pivots).
enum class PricingRule { Dantzig, Bland };

/// Basis encoding used for warm starts: one code per row. A code >= 0 names
/// a basic model (structural) column; `slack_code(r)` names the basic
/// slack/surplus logical of row r (a degenerate basic artificial is encoded
/// the same way and re-instantiated as an artificial on equality rows).
[[nodiscard]] constexpr int slack_code(int row) { return -1 - row; }
[[nodiscard]] constexpr bool is_slack_code(int code) { return code < 0; }
[[nodiscard]] constexpr int slack_code_row(int code) { return -1 - code; }

/// Cooperative cancellation token: an optional caller-owned flag plus an
/// optional steady-clock deadline, both polled at pivot boundaries. A
/// plain value: copies (node clones on worker threads) read the same flag
/// and the same deadline, so no thread has to watch the clock. A default
/// token never stops.
struct StopToken {
  using Clock = std::chrono::steady_clock;

  const std::atomic<bool>* flag = nullptr;
  Clock::time_point deadline = Clock::time_point::max();

  StopToken() = default;
  // Implicit on purpose: flag-pointer call sites keep compiling.
  StopToken(const std::atomic<bool>* stop_flag) : flag(stop_flag) {}

  /// The deadline has passed (never true without one).
  [[nodiscard]] bool expired() const {
    return deadline != Clock::time_point::max() && Clock::now() >= deadline;
  }

  /// The flag is set or the deadline has passed. Relaxed is enough: a
  /// stale read just costs one extra pivot.
  [[nodiscard]] bool requested() const {
    return (flag != nullptr && flag->load(std::memory_order_relaxed)) ||
           expired();
  }
};

struct SimplexOptions {
  std::int64_t max_iterations = 0;  // 0 = automatic (scales with m + n)
  double tol = 1e-9;                // reduced-cost / feasibility tolerance
  int refactor_interval = 64;       // eta-file length before refactorization
  int pricing_block = 0;            // columns per partial-pricing section
                                    // (0 = automatic)
  /// Entering-variable rule. A long degenerate streak switches Dantzig to
  /// Bland for the rest of the solve.
  PricingRule pricing = PricingRule::Dantzig;
  /// Warm-start basis (see slack_code); empty = cold two-phase start. A
  /// singular or primal-infeasible basis silently falls back to cold.
  std::vector<int> initial_basis;
  /// Cooperative cancellation: once the token's flag flips or its
  /// deadline passes, the solve loops stop at the next pivot boundary and
  /// return `IterationLimit` (the partial solution carries no
  /// certificate). Callers flip the flag to cancel a solve from another
  /// thread; branch and price sets the deadline from its time budget. The
  /// flag must outlive every solve that references it.
  StopToken stop{};
  /// Fault-injection hook (tests only): when non-null, engines poll it at
  /// pivot / refactorization / pricing-round boundaries and simulate the
  /// returned action — see util/fault_injection.hpp. One null check per
  /// site when absent; the pointee must outlive every solve.
  FaultInjector* fault = nullptr;
};

struct Solution {
  SolveStatus status = SolveStatus::IterationLimit;
  double objective = 0.0;
  std::vector<double> x;      // one value per model column
  std::vector<double> duals;  // one value per model row (original senses)
  std::int64_t iterations = 0;
  /// Pivots spent in phase 1 (zero on warm restarts from a feasible basis).
  std::int64_t phase1_iterations = 0;
  /// Pivots spent in the dual simplex (nonzero only for `solve_dual`).
  std::int64_t dual_iterations = 0;
  /// Model columns that are basic in the final basis (excludes slacks).
  std::vector<int> basic_columns;
  /// Full basis encoding (one code per row) for warm-start handoff.
  std::vector<int> basis;
  /// Farkas certificate, populated when `status == Infeasible`: one
  /// multiplier per model row (original senses) with y'a_c <= tol for
  /// every column c currently in the model and y'b > 0, proving that no
  /// x >= 0 satisfies the rows. For column generation the certificate is
  /// the pricing surface: only a *new* column a with y'a > tol can
  /// restore feasibility, and if no such column exists in the full
  /// (unpriced) universe the verdict extends to the full master.
  std::vector<double> farkas;
  /// Recovery-ladder diagnostics: unscheduled refactorizations forced by a
  /// near-singular pivot or an eta-drift stall (rung 1), residual-check
  /// repairs at certification time (also rung 1), and cold restarts after
  /// rung 1 ran dry (rung 2). All zero on a numerically clean solve.
  int refactor_retries = 0;
  int residual_repairs = 0;
  int cold_restarts = 0;

  [[nodiscard]] bool optimal() const { return status == SolveStatus::Optimal; }
};

/// Solves min c'x, Ax {<=,>=,=} b, x >= 0.
[[nodiscard]] Solution solve(const Model& model,
                             const SimplexOptions& options = {});

/// Resumable simplex: keeps the factorized basis across solves. Intended
/// use: construct once per model, alternate `solve()` with model growth +
/// `sync_columns()` — each re-solve restarts from the previous optimal
/// basis and only the new columns need pricing. Rows appended through
/// `Model::add_row_with_entries` (or rhs changes via `Model::set_row_rhs`)
/// are picked up by `sync_rows()` and re-solved from the previous basis by
/// `solve_dual()`. The engine references the model; it must outlive the
/// engine.
class SimplexEngine {
 public:
  explicit SimplexEngine(const Model& model,
                         const SimplexOptions& options = {});
  ~SimplexEngine();
  SimplexEngine(SimplexEngine&&) noexcept;
  SimplexEngine& operator=(SimplexEngine&&) noexcept;

  /// Re-points the cooperative cancellation token (`SimplexOptions::stop`)
  /// checked at pivot boundaries; a default token clears it. Long-lived
  /// engines (the warm-pooled service masters) swap tokens per request —
  /// the construction-time option only covers single-solve lifetimes.
  void set_stop(StopToken stop);

  /// Picks up columns appended to the model since construction or the last
  /// sync; they seed the pricing candidate list for the next solve.
  void sync_columns();

  /// Picks up rows appended to the model (and rhs changes) since
  /// construction or the last sync. The retained basis is kept — each new
  /// row enters on its own slack (artificial on equality rows) — and
  /// refactorized, so a basis that was optimal stays *dual* feasible and
  /// `solve_dual()` re-solves without phase 1. Also picks up any columns
  /// appended since the last sync.
  void sync_rows();

  /// Installs an explicit starting basis. Returns false — and reverts to a
  /// cold start — if the basis is singular or not primal feasible.
  bool load_basis(const std::vector<int>& basis);

  /// Solves from the retained state: cold two-phase on the first call,
  /// warm reoptimization (no phase 1) afterwards.
  [[nodiscard]] Solution solve();

  /// Dual-simplex re-solve from the retained (dual-feasible) basis: drives
  /// negative basic values out while keeping reduced costs nonnegative —
  /// the cheap path after `sync_rows()` added violated cut rows or
  /// tightened an rhs, with `phase1_iterations` staying zero. Returns
  /// `Infeasible` when a violated row admits no entering column (a Farkas
  /// certificate for the row, exported as `Solution::farkas`). Falls back
  /// to a primal `solve()` — which may run phase 1 — in the two documented
  /// cases outside dual reach: the retained basis is not dual feasible
  /// (e.g. the model was never solved, or an rhs change flipped a row's
  /// sign), or a freshly added equality row has positive residual (its
  /// artificial sits basic at a positive value).
  ///
  /// `shift_dual_infeasible` removes the first fallback: columns pricing
  /// negative — structural (typically Farkas-priced columns appended to
  /// an infeasible master) and logical (slacks whose duals went
  /// sign-infeasible after such a column pivoted basic and an Infeasible
  /// exit dropped the shifts) — get their costs temporarily *shifted* so
  /// their reduced cost clamps to zero, the dual phase runs on the
  /// shifted costs, and once primal feasibility is restored the shifts
  /// are dropped and a warm phase-2 primal finishes the job — so the
  /// whole re-solve stays free of phase 1. The Farkas certificate is
  /// cost-independent, so an `Infeasible` verdict under shifts is just as
  /// valid.
  [[nodiscard]] Solution solve_dual(bool shift_dual_infeasible = false);

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace stripack::lp
