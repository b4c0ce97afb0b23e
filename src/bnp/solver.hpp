// Exact branch and price for the integral configuration problem.
//
// The §3.2 configuration LP (release/config_lp) relaxes a packing twice:
// rectangles may be sliced across configurations, and slice heights may be
// fractional. This solver removes the second relaxation exactly: it
// certifies the optimum of the configuration *IP* — the LP with every
// x_q^j restricted to the nonnegative integers. For instances with
// integer heights and integer releases (an optimal packing then exists on
// the integer y-grid, and cutting it into unit slabs yields an integral
// configuration solution) the IP value sandwiches between the two
// classical quantities:
//
//     config-LP optimum  <=  IP optimum  <=  OPT(S),
//
// so `solve` is a certified lower bound on every real packing — strictly
// stronger than Lemma 3.3's fractional bound whenever the instance has an
// integrality gap (see gen/hard_integral) — and for unit heights it *is*
// bin packing (IP = OPT = strip width bins). The returned packing
// realizes the optimal slice solution with whole rectangles via Lemma 3.4
// integralization.
//
// Search: deterministic best-first branch and bound (bnp/node_tree) over
// one shared `ConfigLpSolver` master, diving depth-first within a bound
// level (newest open node first on equal bounds), so the search reaches
// an integral solution at the root's level early and each node re-solves
// in place from its parent's basis. There is one node executor and it
// runs on the calling thread: the search is the same at every
// `BnpOptions::threads` value. Every node re-solve is warm — the
// node's branching rows enter through `sync_rows()` + `solve_dual()`
// (never a cold solve; `warm_phase1_iterations` stays 0) — with
// Ryan–Foster-style branching on fractional configuration pairs, exact
// single-pattern branching as the completeness fallback, and dual bounds
// rounded up to integers. The incumbent enters every node re-solve as a
// height-cap row at `incumbent - 0.9` (`resolve_with_height_cap`):
// objectives are integral, so a node whose capped master is infeasible
// holds nothing strictly better than the incumbent and is pruned on that
// certificate. A capped re-solve that ends without a verdict is redone
// once uncapped (`solve_node`). In column-generation mode an infeasible
// branched master goes through *Farkas pricing* (columns generated
// against the engine's infeasibility certificate), so node pruning only
// ever acts on verdicts certified for the full master. This is the
// master/pricing decomposition of Gilmore–Gomory cutting stock,
// phase-differenced for release times.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "bnp/node_tree.hpp"
#include "core/packing.hpp"
#include "packers/packer.hpp"
#include "release/config_lp.hpp"

namespace stripack::bnp {

enum class BnpStatus {
  /// The incumbent is proven optimal: dual_bound == height.
  Optimal,
  /// Node budget exhausted; height/dual_bound bracket the optimum.
  NodeLimit,
  /// Time budget exhausted; height/dual_bound bracket the optimum. The
  /// deadline is enforced *inside* node LPs (at pivot boundaries, through
  /// the stop token threaded into every solve), not just between nodes —
  /// an interrupted node folds its pre-solve tree bound into the bracket,
  /// never the partial LP's uncertified objective.
  TimeLimit,
  /// A node LP failed to converge (iteration limit) or failed numerically
  /// after the whole recovery ladder — refactorize-and-retry, cold
  /// restart, master failover — ran dry. The bracket held in
  /// height/dual_bound is still valid.
  Stalled,
};

struct BnpOptions {
  /// Underlying LP configuration. Column generation is the default (the
  /// branch-and-price shape, with Farkas pricing at infeasible nodes);
  /// disabling it enumerates every configuration up front instead. The
  /// master always runs on the eta-file `lp::SimplexEngine`.
  release::ConfigLpOptions lp{.use_column_generation = true};
  SearchBudget budget;
  /// Seed the incumbent from the rounded root LP (floor early-phase
  /// supply, ceil phase-R, repair the lost coverage with phase-R
  /// singletons) instead of only the trivial stack-everything solution.
  bool rounding_incumbent = true;
  /// Ignored; kept only because the end-to-end harness sets it. Must be
  /// >= 0; every value runs the same search on the calling thread.
  int threads = 1;
  /// Ignored; kept only because the end-to-end harness sets it. Pricing
  /// is one stateless exact DFS at every value.
  bool pricing_cache = true;
  /// Pseudo-cost branching: score fractional pair totals by observed
  /// per-unit dual-bound gains (initialized by strong branching at the
  /// root, updated after every node LP), instead of raw fractionality.
  bool pseudo_cost_branching = true;
  /// Strong-branching probes at the root: the top-K most fractional pair
  /// candidates get both children's LPs solved to initialize pseudo
  /// costs. Probes run only on a root the incumbent leaves open (one
  /// that branches); a root whose rounded bound already meets the
  /// incumbent is closed without them. 0 disables (pseudo costs then
  /// start from search observations only).
  int strong_branching_probes = 4;
  /// Auto-gate for pseudo-cost branching (the n=120 regression fix):
  /// fall back to most-fractional selection once the proven dual bound
  /// has sat still for this many consecutive observations — one per
  /// node of the node loop — and re-engage the moment the bound moves
  /// again. Gain observation never stops, so the table stays warm for
  /// the re-engage. 0 leaves pseudo costs permanently on. Deterministic:
  /// the gate is a function of tree state between nodes only.
  int pseudo_cost_stall_gate = 32;
  /// Recognition tolerance for integrality of pattern totals.
  double tol = 1e-6;
};

struct BnpResult {
  BnpStatus status = BnpStatus::Optimal;
  /// Best known integral configuration height: releases.back() plus the
  /// incumbent objective. Certified optimal iff status == Optimal.
  double height = 0.0;
  /// Proven lower bound on the optimal integral configuration height
  /// (and hence, for integer instances, on every real packing's height).
  double dual_bound = 0.0;
  /// The incumbent's slices; heights are integers.
  std::vector<release::Slice> slices;
  /// Lemma 3.4 realization of the incumbent with whole rectangles: a
  /// valid packing of the instance. Its height may exceed `height` by up
  /// to one item height per occurrence — `height` bounds OPT from below,
  /// `packing.height()` from above.
  Packing packing;
  // Search diagnostics.
  std::size_t nodes = 0;          // processed
  std::size_t nodes_created = 0;  // including never-popped children
  /// Distinct branch rows this solve touched (probed or on a node's
  /// path); a warm master can hold more, left by earlier requests.
  std::size_t branch_rows = 0;
  std::size_t columns = 0;        // master columns at the end
  std::int64_t lp_iterations = 0;
  std::int64_t dual_iterations = 0;
  /// Phase-1 pivots across all warm node re-solves: 0 on the warm path
  /// (asserted on every node re-solve).
  std::int64_t warm_phase1_iterations = 0;
  int farkas_rounds = 0;
  std::size_t farkas_columns = 0;
  /// Always 0: kept only for the end-to-end harness, which still reads it.
  std::size_t batches = 0;
  /// Always 0: kept only for the end-to-end harness, which still reads it.
  std::size_t cutoff_pruned_nodes = 0;
  /// Root strong-branching child LPs solved to initialize pseudo costs;
  /// 0 when the root closes without branching.
  std::size_t strong_branch_probes = 0;
  /// Recovery / anytime diagnostics: recovery-ladder activity summed over
  /// every LP (re-)solve (see `release::FractionalSolution`) and master
  /// failovers to a fresh cold engine. All zero on a numerically clean
  /// run.
  int lp_refactor_retries = 0;
  int lp_residual_repairs = 0;
  int lp_cold_restarts = 0;
  int master_failovers = 0;
  /// Always 0: kept only for the end-to-end harness, which still reads it.
  int node_retries = 0;
  /// Always 0: kept only for the end-to-end harness, which still reads it.
  std::size_t nogoods_learned = 0;
  /// Always 0: kept only for the end-to-end harness, which still reads it.
  std::size_t nogood_prunes = 0;
  /// Always 0: kept only for the end-to-end harness, which still reads it.
  std::size_t propagation_prunes = 0;
  // Pricing counters of the master (`release::PricingStats`).
  std::int64_t pricing_dfs_expansions = 0;
  /// Always 0: kept only for the end-to-end harness, which still reads it.
  std::int64_t pricing_cache_probes = 0;
  /// Always 0: kept only for the end-to-end harness, which still reads it.
  std::int64_t pricing_cache_hits = 0;
  /// Always 0: kept only for the end-to-end harness, which still reads it.
  std::int64_t pricing_memo_hits = 0;
};

/// One node's LP verdict (`solve_node`).
struct NodeEvaluation {
  release::FractionalSolution solution;
  /// True when the capped re-solve ended without a verdict and the node
  /// was re-solved uncapped (which may legitimately leave the warm path).
  bool uncapped_fallback = false;
};

/// Solves one node on `solver`: sets every `path` row to its rhs, then
/// re-solves through `resolve_with_height_cap(height_cap)`, so a node
/// that cannot beat the incumbent comes back certified infeasible. A
/// capped re-solve without a verdict is re-solved once uncapped with a
/// plain `resolve()`. Rows off the path must already be parked.
[[nodiscard]] NodeEvaluation solve_node(
    release::ConfigLpSolver& solver,
    std::span<const std::pair<int, double>> path, double height_cap);

/// Exact branch and price. The instance must be release-only (no
/// precedence DAG) with integer heights and integer releases; throws
/// ContractViolation otherwise.
///
/// Anytime contract: whatever ends the search — proof of optimality, the
/// node budget, a wall-clock deadline interrupting an LP mid-pivot, or a
/// numerical stall that survived the whole recovery ladder — the result
/// always carries the best incumbent found, a still-valid `dual_bound`
/// (`dual_bound <= optimum <= height`), a feasible realized `packing`,
/// and an honest status; solver-side faults never escape as exceptions.
[[nodiscard]] BnpResult solve(const Instance& instance,
                              const BnpOptions& options = {});

/// Warm-pooled entry (the service path): runs the same exact search as
/// `solve`, but on a caller-owned persistent master instead of building
/// and cold-solving a fresh one — the cross-request amortization of the
/// PR 2–5 warm-start machinery. The master's problem must describe
/// `instance` exactly (same widths, releases, strip width and demand —
/// asserted); the caller mutates its `ConfigLpProblem::demand` in place
/// between requests and this entry re-binds the demand rows
/// (`ConfigLpSolver::rebind_demand`) and dual re-solves the root warm
/// from the previous request's basis, reusing the whole column pool and
/// the materialized branch rows (deduplicated by predicate, re-parked
/// per request). On a never-solved master the first request performs the
/// cold solve. `options.lp` is ignored in favor of the master's own
/// configuration, except that the anytime stop token (the caller's flag
/// plus this call's deadline) is installed via `ConfigLpSolver::set_stop`
/// for the duration of the call. Same anytime contract as `solve`.
[[nodiscard]] BnpResult solve_warm(const Instance& instance,
                                   const BnpOptions& options,
                                   release::ConfigLpSolver& master);

/// Registry adapter ("BnP", `make_packer`): quantizes heights up to an
/// integer grid, proves the slice optimum of the quantized instance
/// within the configured budgets, and returns the integralized packing
/// (valid for the original rectangles, which only shrink back into their
/// slots). Exact — not polynomial: budgets make it safe on arbitrary
/// inputs, at the price of a `NodeLimit` incumbent instead of a
/// certificate when they bite.
class BnpPacker final : public StripPacker {
 public:
  /// `height_grid` 0 picks automatically: 1 when every height is already
  /// an integer, else the smallest rectangle height.
  explicit BnpPacker(BnpOptions options = default_pack_options(),
                     double height_grid = 0.0);

  [[nodiscard]] PackResult pack(std::span<const Rect> rects,
                                double strip_width) const override;
  [[nodiscard]] std::string_view name() const override { return "BnP"; }

  /// Gallery-safe budgets (a few hundred nodes, a few seconds).
  [[nodiscard]] static BnpOptions default_pack_options();

 private:
  BnpOptions options_;
  double height_grid_ = 0.0;
};

}  // namespace stripack::bnp
