#include "bnp/solver.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <tuple>
#include <utility>

#include "release/integralize.hpp"
#include "util/assert.hpp"

namespace stripack::bnp {

namespace {

[[nodiscard]] double frac_dist(double v) {
  return std::fabs(v - std::round(v));
}

[[nodiscard]] bool near_int(double v, double tol) {
  return frac_dist(v) <= tol;
}

[[nodiscard]] release::Configuration config_from_counts(
    const std::vector<int>& counts, const std::vector<double>& widths) {
  release::Configuration q;
  q.counts = counts;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    q.total_width += counts[i] * widths[i];
    q.total_items += counts[i];
  }
  return q;
}

// Integral candidates live on the aggregated view: columns with the same
// (phase, configuration) pattern merged. The solution is integral exactly
// when every aggregated total is.
using PatternKey = std::pair<std::size_t, std::vector<int>>;

[[nodiscard]] std::map<PatternKey, double> aggregate_patterns(
    const release::FractionalSolution& solution) {
  std::map<PatternKey, double> totals;
  for (const release::Slice& s : solution.slices) {
    totals[{s.phase, s.config.counts}] += s.height;
  }
  return totals;
}

// Structured identity of a branching predicate (and, with the sense, of a
// branch row). Replaces the old per-node string keys: comparisons are
// integer tuples plus one vector, with no allocation-heavy string
// building on the hot budget-accounted activation path.
struct PredKey {
  int kind = 0;
  int phase = -1;
  std::size_t width_a = 0;
  std::size_t width_b = 0;
  std::vector<int> counts;

  auto operator<=>(const PredKey&) const = default;
};

[[nodiscard]] PredKey pred_key(const release::BranchPredicate& pred) {
  PredKey key;
  key.kind = static_cast<int>(pred.kind);
  key.phase = pred.phase;
  key.width_a = pred.width_a;
  key.width_b = pred.width_b;
  key.counts = pred.counts;
  return key;
}

using RowKey = std::pair<int, PredKey>;  // (sense, predicate)

[[nodiscard]] RowKey row_key(const BranchDecision& d) {
  return {d.sense == lp::Sense::LE ? 0 : 1, pred_key(d.pred)};
}

// Per-predicate pseudo-cost statistics: observed dual-bound gain per unit
// of fractional distance, separately for the LE ("down") and GE ("up")
// child. Updated in node order, so scores are deterministic.
struct PseudoCost {
  double down_sum = 0.0;
  int down_n = 0;
  double up_sum = 0.0;
  int up_n = 0;
};

class PseudoCostTable {
 public:
  void add(const PredKey& key, lp::Sense sense, double unit_gain) {
    PseudoCost& pc = table_[key];
    if (sense == lp::Sense::LE) {
      pc.down_sum += unit_gain;
      ++pc.down_n;
      global_down_sum_ += unit_gain;
      ++global_down_n_;
    } else {
      pc.up_sum += unit_gain;
      ++pc.up_n;
      global_up_sum_ += unit_gain;
      ++global_up_n_;
    }
  }

  [[nodiscard]] bool empty() const {
    return global_down_n_ == 0 && global_up_n_ == 0;
  }

  // Product score (standard pseudo-cost branching): estimated bound gain
  // of the two children, unobserved sides falling back to the global
  // per-side average (or 1 when nothing was ever observed).
  [[nodiscard]] double score(const PredKey& key, double frac) const {
    const auto it = table_.find(key);
    const double down_avg =
        it != table_.end() && it->second.down_n > 0
            ? it->second.down_sum / it->second.down_n
            : (global_down_n_ > 0 ? global_down_sum_ / global_down_n_ : 1.0);
    const double up_avg =
        it != table_.end() && it->second.up_n > 0
            ? it->second.up_sum / it->second.up_n
            : (global_up_n_ > 0 ? global_up_sum_ / global_up_n_ : 1.0);
    constexpr double kEps = 1e-6;
    return std::max(frac * down_avg, kEps) *
           std::max((1.0 - frac) * up_avg, kEps);
  }

 private:
  std::map<PredKey, PseudoCost> table_;
  double global_down_sum_ = 0.0;
  int global_down_n_ = 0;
  double global_up_sum_ = 0.0;
  int global_up_n_ = 0;
};

struct BranchCandidate {
  release::BranchPredicate pred;
  double total = 0.0;  // the fractional pair/pattern total to split at
};

// All fractional pair totals (Ryan–Foster candidates), most-fractional
// first with deterministic key ties; falls back to single-pattern
// candidates when every pair total is integral (the completeness
// fallback). Empty when the solution is integral.
[[nodiscard]] std::vector<BranchCandidate> branch_candidates(
    const std::map<PatternKey, double>& totals, double tol) {
  std::map<std::tuple<std::size_t, std::size_t, std::size_t>, double> pairs;
  for (const auto& [key, height] : totals) {
    const std::vector<int>& counts = key.second;
    for (std::size_t a = 0; a < counts.size(); ++a) {
      if (counts[a] == 0) continue;
      for (std::size_t b = a; b < counts.size(); ++b) {
        const bool together = a == b ? counts[a] >= 2 : counts[b] >= 1;
        if (together) pairs[{key.first, a, b}] += height;
      }
    }
  }
  std::vector<BranchCandidate> out;
  for (const auto& [key, total] : pairs) {
    if (frac_dist(total) > tol) {
      release::BranchPredicate pred;
      pred.kind = release::BranchPredicate::Kind::PairTogether;
      pred.phase = static_cast<int>(std::get<0>(key));
      pred.width_a = std::get<1>(key);
      pred.width_b = std::get<2>(key);
      out.push_back({std::move(pred), total});
    }
  }
  if (out.empty()) {
    for (const auto& [key, total] : totals) {
      if (frac_dist(total) > tol) {
        release::BranchPredicate pred;
        pred.kind = release::BranchPredicate::Kind::Pattern;
        pred.phase = static_cast<int>(key.first);
        pred.counts = key.second;
        out.push_back({std::move(pred), total});
      }
    }
  }
  // Most fractional first; map iteration already fixed the tie order.
  std::stable_sort(out.begin(), out.end(),
                   [](const BranchCandidate& a, const BranchCandidate& b) {
                     return frac_dist(a.total) > frac_dist(b.total);
                   });
  return out;
}

// Branching rule: pseudo-cost scores over the candidates once any
// observation exists (strong branching seeds them at the root);
// most-fractional otherwise. Deterministic: candidates arrive in a fixed
// order and only a strictly better score displaces the incumbent.
[[nodiscard]] std::optional<BranchCandidate> select_branch(
    const std::map<PatternKey, double>& totals, double tol,
    const PseudoCostTable& pc, bool use_pc) {
  std::vector<BranchCandidate> candidates = branch_candidates(totals, tol);
  if (candidates.empty()) return std::nullopt;
  if (!use_pc || pc.empty()) return std::move(candidates.front());
  // Fractionality stays the primary signal: pseudo-cost scores only
  // arbitrate among the top-F most fractional candidates. Unrestricted
  // pc selection measured 2-3x slower per node on larger instances (it
  // drifts toward predicates whose rows make node re-solves expensive).
  constexpr std::size_t kPcWindow = 8;
  const std::size_t window = std::min(candidates.size(), kPcWindow);
  std::size_t best = 0;
  double best_score = -1.0;
  for (std::size_t i = 0; i < window; ++i) {
    const double f =
        candidates[i].total - std::floor(candidates[i].total);
    const double score = pc.score(pred_key(candidates[i].pred), f);
    if (score > best_score) {
      best_score = score;
      best = i;
    }
  }
  return std::move(candidates[best]);
}

[[nodiscard]] std::vector<release::Slice> integral_slices(
    const std::map<PatternKey, double>& totals,
    const std::vector<double>& widths) {
  std::vector<release::Slice> slices;
  for (const auto& [key, height] : totals) {
    const double h = std::round(height);
    if (h < 0.5) continue;
    slices.push_back(release::Slice{config_from_counts(key.second, widths),
                                    key.first, h});
  }
  return slices;
}

[[nodiscard]] double slices_objective(
    const std::vector<release::Slice>& slices, std::size_t num_phases) {
  double obj = 0.0;
  for (const release::Slice& s : slices) {
    if (s.phase + 1 == num_phases) obj += s.height;
  }
  return obj;
}

// The stack-everything fallback incumbent: all supply as phase-R
// singleton columns. Always feasible — phase R is unbounded and the
// suffix surpluses carry late supply to every earlier demand row.
[[nodiscard]] std::vector<release::Slice> trivial_incumbent(
    const release::ConfigLpProblem& problem) {
  std::vector<release::Slice> slices;
  const std::size_t R = problem.num_releases() - 1;
  for (std::size_t i = 0; i < problem.num_widths(); ++i) {
    double total = 0.0;
    for (std::size_t j = 0; j < problem.num_releases(); ++j) {
      total += problem.demand[j][i];
    }
    total = std::ceil(total - 1e-9);
    if (total < 0.5) continue;
    std::vector<int> counts(problem.num_widths(), 0);
    counts[i] = 1;
    slices.push_back(
        release::Slice{config_from_counts(counts, problem.widths), R, total});
  }
  return slices;
}

// Root rounding heuristic: floor every early-phase pattern total (never
// violates a packing capacity), ceil the phase-R totals, then repair the
// coverage lost to flooring with phase-R singletons sized by the worst
// suffix deficit per width. All heights integral by construction.
[[nodiscard]] std::vector<release::Slice> rounded_incumbent(
    const release::ConfigLpProblem& problem,
    const std::map<PatternKey, double>& totals, double tol) {
  const std::size_t phases = problem.num_releases();
  const std::size_t W = problem.num_widths();
  std::vector<release::Slice> slices;
  std::vector<std::vector<double>> supply(phases, std::vector<double>(W, 0.0));
  for (const auto& [key, height] : totals) {
    const std::size_t j = key.first;
    const double h = j + 1 == phases ? std::ceil(height - tol)
                                     : std::floor(height + tol);
    if (h < 0.5) continue;
    for (std::size_t i = 0; i < W; ++i) supply[j][i] += h * key.second[i];
    slices.push_back(
        release::Slice{config_from_counts(key.second, problem.widths), j, h});
  }
  for (std::size_t i = 0; i < W; ++i) {
    double worst = 0.0;
    double suffix_supply = 0.0;
    double suffix_demand = 0.0;
    for (std::size_t j = phases; j-- > 0;) {
      suffix_supply += supply[j][i];
      suffix_demand += problem.demand[j][i];
      worst = std::max(worst, suffix_demand - suffix_supply);
    }
    const double extra = std::ceil(worst - tol);
    if (extra < 0.5) continue;
    std::vector<int> counts(W, 0);
    counts[i] = 1;
    slices.push_back(release::Slice{config_from_counts(counts, problem.widths),
                                    phases - 1, extra});
  }
  return slices;
}

void accumulate(BnpResult& result, const release::FractionalSolution& s) {
  result.lp_iterations += s.iterations;
  result.dual_iterations += s.dual_iterations;
  result.warm_phase1_iterations += s.colgen_warm_phase1_iterations;
  result.farkas_rounds += s.farkas_rounds;
  result.farkas_columns += s.farkas_columns;
  result.columns = std::max(result.columns, s.lp_cols);
  result.lp_refactor_retries += s.lp_refactor_retries;
  result.lp_residual_repairs += s.lp_residual_repairs;
  result.lp_cold_restarts += s.lp_cold_restarts;
  result.master_failovers += s.master_failovers;
}

// The warm-path invariant: node re-solves never run phase 1 — unless the
// recovery ladder legitimately restarted cold (a cold restart inside the
// engine, or a failover to a fresh cold engine), or the solve was
// interrupted / failed before certifying anything.
[[nodiscard]] bool warm_path_ok(const release::FractionalSolution& s) {
  return s.colgen_warm_phase1_iterations == 0 || !s.feasible ||
         s.lp_cold_restarts > 0 || s.master_failovers > 0;
}

void accumulate(BnpResult& result, const release::PricingStats& s) {
  result.pricing_dfs_expansions += s.dfs_expansions;
}

// The whole search state threaded through the root handling and the node
// loop. Keeping it in one struct (instead of a dozen lambda captures)
// keeps the loop readable.
struct Search {
  Search(const BnpOptions& opts, const release::ConfigLpProblem& prob,
         release::ConfigLpSolver& s)
      : options(opts), problem(prob), solver(s) {}

  const BnpOptions& options;
  const release::ConfigLpProblem& problem;
  release::ConfigLpSolver& solver;
  NodeTree tree;
  BnpResult result;
  std::vector<release::Slice> incumbent;
  PseudoCostTable pseudo_costs;
  // Branch rows shared across nodes through (sense, predicate) keys; rows
  // are created parked at their neutral rhs and activated per node.
  std::map<RowKey, int> row_by_key;
  bool stalled = false;
  double stalled_bound = std::numeric_limits<double>::infinity();
  double tol = 1e-6;
  std::size_t phases = 0;
  // Pseudo-cost stall gate (options.pseudo_cost_stall_gate): consecutive
  // observations without dual-bound movement.
  double stall_gate_bound = -std::numeric_limits<double>::infinity();
  int stall_gate_count = 0;

  [[nodiscard]] int ensure_row(const BranchDecision& d) {
    const RowKey key = row_key(d);
    const auto it = row_by_key.find(key);
    if (it != row_by_key.end()) return it->second;
    // A long-lived master (solve_warm) may already carry this row from an
    // earlier request; reuse it instead of appending duplicates without
    // bound. Fresh masters never hit the lookup (no rows yet).
    int row = solver.find_branch_row(d.pred, d.sense);
    if (row < 0) row = solver.add_branch_row(d.pred, d.sense, d.rhs);
    // Park immediately: the node loop treats "not on the active path" as
    // neutral.
    solver.deactivate_branch_row(row);
    row_by_key.emplace(key, row);
    return row;
  }

  // The node's root path as (row, rhs) activation pairs, child-most rhs
  // winning when a predicate was re-branched deeper down. Sorted rows in
  // `rows_out` (reserve + binary search; no linear scans over all rows).
  void node_path(int id, std::vector<std::pair<int, double>>& path,
                 std::vector<int>& rows_out) {
    path.clear();
    rows_out.clear();
    rows_out.reserve(static_cast<std::size_t>(tree.node(id).depth));
    for (int n = id; tree.node(n).parent >= 0; n = tree.node(n).parent) {
      const BranchDecision& d = tree.node(n).decision;
      const int row = ensure_row(d);
      const auto it =
          std::lower_bound(rows_out.begin(), rows_out.end(), row);
      if (it != rows_out.end() && *it == row) continue;  // child-most wins
      rows_out.insert(it, row);
      path.push_back({row, d.rhs});
    }
  }

  // The incumbent cutoff, as the rhs of the height-cap row every node
  // re-solves under. Objectives are integral, so any integral solution
  // with objective > incumbent - 0.9 is already >= incumbent: an
  // infeasible capped master certifies that the subtree holds nothing
  // strictly better than the incumbent. The 0.1 left of the integer
  // absorbs float drift; clamped because a zero incumbent (everything
  // fits before rho_R) caps at zero. Always defined: the trivial
  // incumbent is offered before the root is processed.
  [[nodiscard]] double cap_rhs() const {
    return std::max(0.0, tree.incumbent() - 0.9);
  }

  // The incumbent cutoff on an integer-rounded bound: a subtree whose
  // bound meets the incumbent holds nothing strictly better.
  [[nodiscard]] bool cut_off(double bound) const {
    return bound >= tree.incumbent() - 0.5;
  }

  // A node LP objective rounded up to the integer bound it certifies.
  [[nodiscard]] double rounded_bound(double objective) const {
    return std::ceil(objective - tol * (1.0 + objective));
  }

  // Stall-gate observation: called once per node of the node loop,
  // *before* the pop — a pure function of tree state at that boundary.
  void observe_bound() {
    if (!options.pseudo_cost_branching ||
        options.pseudo_cost_stall_gate <= 0) {
      return;
    }
    const double bound = tree.best_open_bound();
    if (bound > stall_gate_bound + 1e-9) {
      stall_gate_bound = bound;
      stall_gate_count = 0;
    } else {
      ++stall_gate_count;
    }
  }

  [[nodiscard]] bool pseudo_costs_active() const {
    return options.pseudo_cost_branching &&
           (options.pseudo_cost_stall_gate <= 0 ||
            stall_gate_count < options.pseudo_cost_stall_gate);
  }

  // Pseudo-cost observation from a solved child LP.
  void observe_gain(int id, double objective) {
    if (!options.pseudo_cost_branching) return;
    const Node& node = tree.node(id);
    if (node.parent < 0) return;
    const BranchDecision& d = node.decision;
    const double f = d.sense == lp::Sense::LE
                         ? std::max(d.frac, 1e-6)
                         : std::max(1.0 - d.frac, 1e-6);
    const double gain = std::max(0.0, objective - d.parent_obj);
    pseudo_costs.add(pred_key(d.pred), d.sense, gain / f);
  }

  // Process one solved node: prune by (integer-rounded) bound, harvest an
  // integral solution, or branch on the selected candidate.
  void process(int id, const release::FractionalSolution& sol) {
    const double bound = rounded_bound(sol.objective);
    if (cut_off(bound)) return;
    const std::map<PatternKey, double> totals = aggregate_patterns(sol);
    const auto branch =
        select_branch(totals, tol, pseudo_costs, pseudo_costs_active());
    if (!branch) {
      std::vector<release::Slice> slices =
          integral_slices(totals, problem.widths);
      if (tree.offer_incumbent(slices_objective(slices, phases))) {
        incumbent = std::move(slices);
      }
      return;
    }
    const double frac = branch->total - std::floor(branch->total);
    BranchDecision le{branch->pred, lp::Sense::LE,
                      std::floor(branch->total), frac, sol.objective};
    BranchDecision ge{branch->pred, lp::Sense::GE,
                      std::floor(branch->total) + 1.0, frac, sol.objective};
    tree.add_child(id, std::move(le), bound);
    tree.add_child(id, std::move(ge), bound);
  }

  // Merges one solved node: accounting, then the verdict. False when the
  // LP gave none — IterationLimit is "unknown", not "proven empty", so
  // the caller stops with the bracket rather than mis-prune.
  [[nodiscard]] bool merge(int id, const release::FractionalSolution& sol) {
    ++result.nodes;
    accumulate(result, sol);
    // Certified: the subtree holds nothing better than the incumbent.
    if (sol.status == lp::SolveStatus::Infeasible) return true;
    if (!sol.feasible) return false;
    observe_gain(id, sol.objective);
    process(id, sol);
    return true;
  }
};

// Root strong branching: solve both children's LPs for the top-K most
// fractional pair candidates, seeding the pseudo-cost table with real
// per-unit gains before the first branching decision. Runs on the shared
// master (probe rows are parked again afterwards and the master is
// re-solved back to its root state). A root the incumbent already cuts
// off never branches, so it gets no probes: they change neither the
// incumbent nor the bound, and the pseudo costs they seed would go
// unread.
void strong_branch_root(Search& search,
                        const release::FractionalSolution& root) {
  const int probes = search.options.strong_branching_probes;
  if (probes <= 0 || !search.options.pseudo_cost_branching) return;
  if (search.cut_off(search.rounded_bound(root.objective))) return;
  const std::map<PatternKey, double> totals = aggregate_patterns(root);
  std::vector<BranchCandidate> candidates =
      branch_candidates(totals, search.tol);
  // Pair candidates only (patterns are the rare fallback; probing them
  // would materialize rows of marginal reuse value).
  std::erase_if(candidates, [](const BranchCandidate& c) {
    return c.pred.kind != release::BranchPredicate::Kind::PairTogether;
  });
  if (candidates.empty()) return;
  if (candidates.size() > static_cast<std::size_t>(probes)) {
    candidates.resize(static_cast<std::size_t>(probes));
  }
  const double gain_cap =
      std::max(1.0, search.tree.incumbent() - root.objective);
  bool touched = false;
  for (const BranchCandidate& c : candidates) {
    const double floor_total = std::floor(c.total);
    const double frac = c.total - floor_total;
    for (const lp::Sense sense : {lp::Sense::LE, lp::Sense::GE}) {
      const double rhs =
          sense == lp::Sense::LE ? floor_total : floor_total + 1.0;
      BranchDecision probe{c.pred, sense, rhs, frac, root.objective};
      const int row = search.ensure_row(probe);
      search.solver.set_branch_row_rhs(row, rhs);
      // Probes run capped like every node: a probe cut off by the
      // incumbent comes back certified infeasible.
      const release::FractionalSolution sol =
          search.solver.resolve_with_height_cap(search.cap_rhs());
      touched = true;
      accumulate(search.result, sol);
      ++search.result.strong_branch_probes;
      search.solver.deactivate_branch_row(row);
      double objective;
      if (sol.status == lp::SolveStatus::Infeasible) {
        objective = root.objective + gain_cap;
      } else if (sol.feasible) {
        objective = sol.objective;
      } else {
        continue;  // iteration limit: no usable observation
      }
      const double f = sense == lp::Sense::LE ? std::max(frac, 1e-6)
                                              : std::max(1.0 - frac, 1e-6);
      const double gain = std::max(0.0, objective - root.objective);
      search.pseudo_costs.add(pred_key(c.pred), sense, gain / f);
    }
  }
  if (touched) {
    // Re-solve the all-neutral master so the first node re-solves from a
    // root-optimal basis. The cap row must be parked
    // with the probe rows: a root whose LP gap to the incumbent is
    // inside the cap quantum would otherwise make this very re-solve
    // infeasible.
    search.solver.clear_height_cap();
    const release::FractionalSolution restored = search.solver.resolve();
    accumulate(search.result, restored);
  }
}

// In-place node executor: each node re-solves the one shared master
// itself, so it sees every column priced before it and reuses the
// previous node's basis — under the tree's newest-first tie order that
// is usually its parent's. Only the diff against the previously
// evaluated node's path is touched, so activation costs O(path log path)
// rather than O(all rows) per node.
class InPlaceExecutor {
 public:
  [[nodiscard]] NodeEvaluation evaluate(
      release::ConfigLpSolver& master,
      std::span<const std::pair<int, double>> path, double height_cap) {
    rows_.clear();
    for (const auto& entry : path) rows_.push_back(entry.first);
    std::sort(rows_.begin(), rows_.end());
    for (const int row : active_) {
      if (!std::binary_search(rows_.begin(), rows_.end(), row)) {
        master.deactivate_branch_row(row);
      }
    }
    std::swap(active_, rows_);
    NodeEvaluation eval = solve_node(master, path, height_cap);
    const release::FractionalSolution& sol = eval.solution;
    // Farkas-repaired re-solves (a capped master that dipped infeasible
    // before pricing restored it) legitimately pass through phase 1, as
    // does an uncapped re-solve recovering from an exhausted capped one.
    STRIPACK_ASSERT(warm_path_ok(sol) || prev_infeasible_ ||
                        sol.farkas_rounds > 0 || eval.uncapped_fallback,
                    "branch-and-price node re-solve left the warm path");
    prev_infeasible_ = sol.status == lp::SolveStatus::Infeasible;
    return eval;
  }

 private:
  std::vector<int> active_;  // rows active at the previous node, sorted
  std::vector<int> rows_;    // scratch: this node's rows, sorted
  // A certified-infeasible node leaves the engine without an optimal
  // basis, so the *next* re-solve may legitimately re-enter phase 1 —
  // the one excusable departure from the dual warm path.
  bool prev_infeasible_ = false;
};

// The node loop: pop the best open node (skipping nodes that an
// incumbent found since their creation already cuts off), re-solve it in
// place under the current incumbent's height cap, and merge the verdict.
void run_search(Search& search, const lp::StopToken& stop) {
  BnpResult& result = search.result;
  NodeTree& tree = search.tree;
  InPlaceExecutor executor;
  std::vector<std::pair<int, double>> path;
  std::vector<int> path_rows;
  while (!tree.done()) {
    if (result.nodes >= search.options.budget.max_nodes) {
      result.status = BnpStatus::NodeLimit;
      break;
    }
    if (stop.expired()) {
      result.status = BnpStatus::TimeLimit;
      break;
    }
    search.observe_bound();
    std::optional<int> id = tree.pop_best();
    while (id && search.cut_off(tree.node(*id).bound)) {
      id = tree.pop_best();
    }
    if (!id) break;
    search.node_path(*id, path, path_rows);
    const NodeEvaluation eval =
        executor.evaluate(search.solver, path, search.cap_rhs());
    if (!search.merge(*id, eval.solution)) {
      // The node leaves the open set unresolved; fold its bound into the
      // bracket so the reported dual bound never overclaims.
      search.stalled = true;
      search.stalled_bound =
          std::min(search.stalled_bound, tree.node(*id).bound);
      return;
    }
  }
}

// Shared implementation of `solve` (master == nullptr: build and own a
// fresh master) and `solve_warm` (master points at a caller-owned
// persistent master whose column pool / branch rows are reused across
// requests).
BnpResult solve_impl(const Instance& instance, const BnpOptions& options,
                     release::ConfigLpSolver* master) {
  instance.check_well_formed();
  STRIPACK_EXPECTS(!instance.empty());
  STRIPACK_EXPECTS(!instance.has_precedence());
  STRIPACK_EXPECTS(options.threads >= 0);
  for (const Item& it : instance.items()) {
    STRIPACK_EXPECTS(near_int(it.height(), 1e-6));
    STRIPACK_EXPECTS(near_int(it.release, 1e-6));
  }
  const auto start = lp::StopToken::Clock::now();
  const release::ConfigLpProblem problem = release::make_problem(instance);
  const double rho_r = problem.releases.back();

  BnpOptions local = options;

  // Anytime deadline: the budget becomes the stop token's deadline (next
  // to the caller's own flag), and the token is threaded into every LP
  // (re-)solve, so the deadline interrupts at *pivot boundaries* inside a
  // node LP, not just between nodes, with no thread watching the clock.
  // An interrupted LP reports IterationLimit (no certificate); the node
  // loop folds the node's pre-solve tree bound into the bracket, so
  // `dual_bound` stays valid on every exit path.
  lp::StopToken& stop = local.lp.stop;
  if (local.budget.max_seconds > 0.0) {
    // At most about 31 years, so the conversion to clock ticks is exact.
    using Ticks = lp::StopToken::Clock::duration;
    const std::chrono::duration<double> budget(
        std::min(local.budget.max_seconds, 1e9));
    stop.deadline = std::min(
        stop.deadline, start + std::chrono::duration_cast<Ticks>(budget));
  }

  std::optional<release::ConfigLpSolver> owned;
  if (master == nullptr) owned.emplace(problem, local.lp);
  release::ConfigLpSolver& solver = master != nullptr ? *master : *owned;
  // A warm master outlives this call: the token installed below (this
  // request's deadline, the caller's flag) must be cleared before
  // returning, on every exit path.
  struct StopGuard {
    release::ConfigLpSolver* solver = nullptr;
    ~StopGuard() {
      if (solver != nullptr) solver->set_stop({});
    }
  } stop_guard;
  release::FractionalSolution root;
  if (master != nullptr) {
    // The warm-reuse contract: the master's problem must describe this
    // very instance. The caller (the service's warm pool) re-points the
    // demand in place; widths/releases/strip width are the request-class
    // invariants that make the column pool transferable at all.
    const release::ConfigLpProblem& mp = master->problem();
    STRIPACK_EXPECTS(mp.widths == problem.widths);
    STRIPACK_EXPECTS(mp.releases == problem.releases);
    STRIPACK_EXPECTS(mp.strip_width == problem.strip_width);
    STRIPACK_EXPECTS(mp.demand == problem.demand);
    master->set_stop(stop);
    stop_guard.solver = master;
    if (master->solved()) {
      // Demand is pure rhs in the differenced formulation: re-bind the
      // demand rows, park every left-over branch row, and dual re-solve
      // the root from the previous request's basis — no phase 1, no
      // re-enumeration, the entire column pool carried over.
      master->rebind_demand();
      root = master->resolve();
    } else {
      root = master->solve();  // first request on this master: cold
    }
  } else {
    root = solver.solve();
  }

  Search search{local, problem, solver};
  search.tol = local.tol;
  search.phases = problem.num_releases();
  // Materialize the (parked) cap row before any node is evaluated:
  // activation is then a pure rhs change on the dual warm path.
  solver.ensure_height_cap_row();
  BnpResult& result = search.result;
  accumulate(result, root);
  // The configuration LP proper is always feasible (phase R is
  // unbounded); a non-optimal root can only mean the simplex gave up
  // (iteration limit), which must surface as a Stalled bracket below,
  // not a crash — the trivial incumbent is still a valid solution.
  STRIPACK_ASSERT(root.status != lp::SolveStatus::Infeasible,
                  "the configuration LP is always feasible");

  search.tree.add_root(root.feasible ? search.rounded_bound(root.objective)
                                     : 0.0);

  // Incumbent: the trivial stack, improved by the root rounding.
  search.incumbent = trivial_incumbent(problem);
  search.tree.offer_incumbent(
      slices_objective(search.incumbent, search.phases));
  if (root.feasible && local.rounding_incumbent) {
    std::vector<release::Slice> rounded =
        rounded_incumbent(problem, aggregate_patterns(root), local.tol);
    if (search.tree.offer_incumbent(
            slices_objective(rounded, search.phases))) {
      search.incumbent = std::move(rounded);
    }
  }

  result.nodes = 1;
  (void)search.tree.pop_best();  // the root: its LP is the solve above
  if (root.feasible) {
    strong_branch_root(search, root);
    search.process(0, root);
  } else {
    search.stalled = true;
    search.stalled_bound = search.tree.node(0).bound;
  }

  if (!search.stalled) run_search(search, stop);

  result.nodes_created = search.tree.created();
  result.branch_rows = search.row_by_key.size();
  accumulate(result, solver.pricing_stats());
  if (search.stalled) {
    // A stall caused by the deadline tripping mid-LP (the interrupted
    // solve reports no certificate, exactly like a numerical stall) is a
    // TimeLimit, not a numerical verdict; the bracket was folded into
    // `stalled_bound` either way.
    result.status = stop.expired() ? BnpStatus::TimeLimit : BnpStatus::Stalled;
  }

  const double incumbent_obj = search.tree.incumbent();
  double global_bound =
      std::min(incumbent_obj, search.tree.best_open_bound());
  if (search.stalled) {
    global_bound = std::min(global_bound, search.stalled_bound);
  }
  if (result.status == BnpStatus::Optimal) global_bound = incumbent_obj;
  result.height = rho_r + incumbent_obj;
  result.dual_bound = rho_r + global_bound;
  result.slices = std::move(search.incumbent);

  release::FractionalSolution incumbent_solution;
  incumbent_solution.feasible = true;
  incumbent_solution.status = lp::SolveStatus::Optimal;
  incumbent_solution.objective = incumbent_obj;
  incumbent_solution.height = result.height;
  incumbent_solution.slices = result.slices;
  const release::IntegralizeResult realized =
      integralize(instance, problem, incumbent_solution);
  STRIPACK_ASSERT(realized.fallback_items == 0,
                  "incumbent slices must cover every rectangle");
  result.packing = Packing{instance, realized.placement};
  return result;
}

}  // namespace

NodeEvaluation solve_node(release::ConfigLpSolver& solver,
                          std::span<const std::pair<int, double>> path,
                          double height_cap) {
  for (const auto& [row, rhs] : path) solver.set_branch_row_rhs(row, rhs);
  NodeEvaluation out;
  out.solution = solver.resolve_with_height_cap(height_cap);
  if (!out.solution.feasible &&
      out.solution.status != lp::SolveStatus::Infeasible) {
    // A cap binding right at the LP optimum can exhaust the iteration
    // budget, or the recovery ladder can run dry, without a verdict:
    // re-solve this one node uncapped (a pure function of the node, so the
    // fallback is deterministic) instead of stalling the search.
    solver.clear_height_cap();
    out.solution = solver.resolve();
    out.uncapped_fallback = true;
  }
  return out;
}

BnpResult solve(const Instance& instance, const BnpOptions& options) {
  return solve_impl(instance, options, nullptr);
}

BnpResult solve_warm(const Instance& instance, const BnpOptions& options,
                     release::ConfigLpSolver& master) {
  return solve_impl(instance, options, &master);
}

BnpOptions BnpPacker::default_pack_options() {
  BnpOptions options;
  options.budget.max_nodes = 200;
  options.budget.max_seconds = 5.0;
  return options;
}

BnpPacker::BnpPacker(BnpOptions options, double height_grid)
    : options_(std::move(options)), height_grid_(height_grid) {}

PackResult BnpPacker::pack(std::span<const Rect> rects,
                           double strip_width) const {
  PackResult out;
  if (rects.empty()) return out;
  double grid = height_grid_;
  if (grid <= 0.0) {
    bool all_integer = true;
    double min_height = std::numeric_limits<double>::infinity();
    for (const Rect& r : rects) {
      all_integer = all_integer && near_int(r.height, 1e-6) && r.height > 0.5;
      min_height = std::min(min_height, r.height);
    }
    grid = all_integer ? 1.0 : min_height;
  }
  STRIPACK_EXPECTS(grid > 0.0);
  std::vector<Item> items;
  items.reserve(rects.size());
  for (const Rect& r : rects) {
    const double units = std::ceil(r.height / grid - 1e-9);
    items.push_back(Item{Rect{r.width, std::max(units, 1.0)}, 0.0});
  }
  const Instance scaled(std::move(items), strip_width);
  const BnpResult solved = solve(scaled, options_);
  out.placement.reserve(rects.size());
  double height = 0.0;
  for (std::size_t i = 0; i < rects.size(); ++i) {
    const Position& p = solved.packing.placement[i];
    out.placement.push_back(Position{p.x, p.y * grid});
    height = std::max(height, p.y * grid + rects[i].height);
  }
  out.height = height;
  return out;
}

}  // namespace stripack::bnp
