#include "release/config_lp.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>

#include "lp/backend.hpp"
#include "lp/colgen.hpp"
#include "lp/simplex.hpp"
#include "util/assert.hpp"
#include "util/float_eq.hpp"

namespace stripack::release {

namespace {

// Binary search in the descending width table (the tables are small, but
// make_problem runs once per item, so the old linear find_if was the top
// cost of problem extraction on large instances).
std::size_t width_index_of(const std::vector<double>& widths, double w) {
  const auto it = std::lower_bound(
      widths.begin(), widths.end(), w,
      [](double elem, double value) { return elem > value + kEps; });
  STRIPACK_ASSERT(it != widths.end() && approx_eq(*it, w),
                  "item width not in table");
  return static_cast<std::size_t>(it - widths.begin());
}

}  // namespace

bool BranchPredicate::matches(std::span<const int> config_counts,
                              std::size_t config_phase) const {
  if (phase >= 0 && static_cast<std::size_t>(phase) != config_phase) {
    return false;
  }
  switch (kind) {
    case Kind::PhaseTotal:
      return true;
    case Kind::PairTogether:
      if (width_a == width_b) return config_counts[width_a] >= 2;
      return config_counts[width_a] >= 1 && config_counts[width_b] >= 1;
    case Kind::Pattern:
      if (config_counts.size() != counts.size()) return false;
      for (std::size_t i = 0; i < counts.size(); ++i) {
        if (config_counts[i] != counts[i]) return false;
      }
      return true;
  }
  return false;
}

ConfigLpProblem make_problem(const Instance& instance) {
  instance.check_well_formed();
  STRIPACK_EXPECTS(!instance.empty());
  ConfigLpProblem problem;
  problem.strip_width = instance.strip_width();

  std::vector<double> widths = instance.widths();
  std::sort(widths.rbegin(), widths.rend());
  widths.erase(std::unique(widths.begin(), widths.end(),
                           [](double a, double b) { return approx_eq(a, b); }),
               widths.end());
  problem.widths = std::move(widths);

  std::map<double, std::size_t> release_index;
  for (const Item& it : instance.items()) release_index[it.release] = 0;
  problem.releases.reserve(release_index.size());
  for (auto& [value, index] : release_index) {
    index = problem.releases.size();
    problem.releases.push_back(value);
  }

  problem.demand.assign(problem.releases.size(),
                        std::vector<double>(problem.widths.size(), 0.0));
  for (const Item& it : instance.items()) {
    const std::size_t wi = width_index_of(problem.widths, it.width());
    problem.demand[release_index.at(it.release)][wi] += it.height();
  }
  return problem;
}

namespace {

// Row layout: packing rows [0, R), then the differenced demand row (j, i)
// at R + j*W + i for phase j in [0, R], width i in [0, W). See the header
// for the equivalence with the paper's suffix covering rows (3.4).
// `ConfigLpSolver::resolve_with_height_cap` appends one branch row capping
// the phase-R height; its index (or -1) lives here so column construction
// and pricing stay cap-aware.
struct RowLayout {
  std::size_t num_phases;  // R + 1
  std::size_t num_widths;  // W
  int cap_row = -1;        // sum_q x_q^R <= cap, once added

  [[nodiscard]] int packing_row(std::size_t j) const {
    return static_cast<int>(j);
  }
  [[nodiscard]] int demand_row(std::size_t j, std::size_t i) const {
    return static_cast<int>((num_phases - 1) + j * num_widths + i);
  }
  [[nodiscard]] std::size_t num_rows() const {
    return (num_phases - 1) + num_phases * num_widths;
  }
};

// Shared column bookkeeping: configurations are stored once and columns
// reference them by index (phase R surpluses and seeds included), instead
// of materializing one Configuration copy per (configuration, phase) pair.
struct ColumnTable {
  std::vector<Configuration> configs;
  std::vector<int> config_of;  // model column -> configs index (-1: surplus)
  std::vector<std::size_t> phase_of;

  void add_surplus() {
    config_of.push_back(-1);
    phase_of.push_back(0);
  }
  void add(int config_index, std::size_t phase) {
    config_of.push_back(config_index);
    phase_of.push_back(phase);
  }
};

lp::Model build_rows(const ConfigLpProblem& problem, const RowLayout& layout) {
  lp::Model model;
  const std::size_t phases = layout.num_phases;
  for (std::size_t j = 0; j + 1 < phases; ++j) {
    model.add_row(lp::Sense::LE, problem.releases[j + 1] - problem.releases[j],
                  "pack[" + std::to_string(j) + "]");
  }
  for (std::size_t j = 0; j < phases; ++j) {
    for (std::size_t i = 0; i < layout.num_widths; ++i) {
      model.add_row(lp::Sense::EQ, problem.demand[j][i],
                    "dem[j=" + std::to_string(j) + ",w=" + std::to_string(i) +
                        "]");
    }
  }
  return model;
}

// Zero-cost suffix-surplus columns s_{j,i}: -1 in demand row (j, i), +1 in
// demand row (j-1, i). Supply placed in phase j >= k flows down the chain
// to cover demand released at rho_k, exactly as in the suffix form.
void add_surplus_columns(lp::Model& model, const RowLayout& layout,
                         ColumnTable& table) {
  for (std::size_t j = 0; j < layout.num_phases; ++j) {
    for (std::size_t i = 0; i < layout.num_widths; ++i) {
      std::vector<lp::RowEntry> entries;
      if (j > 0) entries.push_back({layout.demand_row(j - 1, i), 1.0});
      entries.push_back({layout.demand_row(j, i), -1.0});
      model.add_column(0.0, entries,
                       "sur[j=" + std::to_string(j) + ",w=" +
                           std::to_string(i) + "]");
      table.add_surplus();
    }
  }
}

// One branching row of the incremental solver: the predicate names the
// matching (configuration, phase) columns, `row` its model index. The
// sense decides the neutral rhs `deactivate_branch_row` parks it at.
struct BranchRow {
  BranchPredicate pred;
  int row = 0;
  lp::Sense sense = lp::Sense::LE;
};

std::vector<lp::RowEntry> column_entries(const RowLayout& layout,
                                         std::span<const BranchRow> branches,
                                         const Configuration& config,
                                         std::size_t phase) {
  std::vector<lp::RowEntry> entries;
  if (phase + 1 < layout.num_phases) {
    entries.push_back({layout.packing_row(phase), 1.0});
  }
  for (std::size_t i = 0; i < config.counts.size(); ++i) {
    if (config.counts[i] == 0) continue;
    entries.push_back(
        {layout.demand_row(phase, i), static_cast<double>(config.counts[i])});
  }
  if (phase + 1 == layout.num_phases && layout.cap_row >= 0) {
    entries.push_back({layout.cap_row, 1.0});
  }
  // Cap and branch rows may interleave in creation order; Model::add_column
  // sorts entries by row, so appending out of order here is fine.
  for (const BranchRow& br : branches) {
    if (br.pred.matches(config.counts, phase)) {
      entries.push_back({br.row, 1.0});
    }
  }
  return entries;
}

double column_cost(const RowLayout& layout, std::size_t phase) {
  return phase + 1 == layout.num_phases ? 1.0 : 0.0;
}

// One live branching row applying to the phase being priced, with the
// nonzero value a matching configuration collects from it.
struct AppliedBranchRow {
  const BranchPredicate* pred = nullptr;
  double mult = 0.0;
};

// Width-indexed DP bound for the pricing DFS (column-generation mode).
// When every width and the strip width sit on a common rational grid
// (units of 1/denom), `suffix[i][c]` is the *exact* maximum raw value of
// any configuration drawn from width classes i.. within c capacity units
// — an unbounded-knapsack DP, O(W * cap_units) to fill. The DFS uses
// suffix[index][units_left] as its raw-value bound in place of the
// fractional one: admissible (raw max dominates any achievable raw value)
// and exact on the grid.
struct DpBound {
  int cap_units = 0;
  std::vector<int> width_units;         // one per width class
  std::vector<std::vector<double>> suffix;  // [W+1][cap_units+1]
};

// Nearest integer to `scaled` when it lies within 1e-7 of a nonnegative
// one (a grid point), else nullopt. Agrees with a std::round-based test on
// every input, without a libm call per test: truncating scaled + 0.5
// finds the nearest integer whenever the distance test can pass, and every
// double at or above 2^52 is an integer already.
std::optional<double> grid_point(double scaled) {
  if (!(scaled > -0.5)) return std::nullopt;  // negative grid point or NaN
  if (scaled >= 0x1p52) {
    if (scaled == std::numeric_limits<double>::infinity()) return std::nullopt;
    return scaled;
  }
  const double r =
      static_cast<double>(static_cast<std::int64_t>(scaled + 0.5));
  if (std::fabs(scaled - r) > 1e-7) return std::nullopt;
  return r;
}

// Smallest denominator <= 4096 putting all widths and the strip width on
// one integer grid (0 when none). Unit-capacity feasibility then agrees
// with the DFS's epsilon-relaxed double checks: a config the DFS deems
// feasible has total units <= cap_units * (1 + 1e-9), and integer totals
// below cap_units + 1 are <= cap_units.
int detect_width_grid(const ConfigLpProblem& problem) {
  for (int d = 1; d <= 4096; ++d) {
    if (!grid_point(problem.strip_width * d)) continue;
    bool ok = true;
    for (const double w : problem.widths) {
      // Degenerate grids (a zero-unit width) would break the DP.
      const std::optional<double> units = grid_point(w * d);
      if (!units || *units < 1.0) {
        ok = false;
        break;
      }
    }
    if (ok) return d;
  }
  return 0;
}

// Fills `dp` for the given per-class values (reusing its storage).
void fill_dp_bound(const ConfigLpProblem& problem, int denom,
                   const std::vector<double>& value, DpBound& dp) {
  const std::size_t W = problem.widths.size();
  dp.cap_units =
      static_cast<int>(std::round(problem.strip_width * denom));
  if (dp.width_units.size() != W) {
    dp.width_units.resize(W);
    for (std::size_t i = 0; i < W; ++i) {
      dp.width_units[i] =
          static_cast<int>(std::round(problem.widths[i] * denom));
    }
  }
  const std::size_t cols = static_cast<std::size_t>(dp.cap_units) + 1;
  dp.suffix.resize(W + 1);
  for (auto& row : dp.suffix) row.assign(cols, 0.0);
  for (std::size_t i = W; i-- > 0;) {
    const std::vector<double>& below = dp.suffix[i + 1];
    std::vector<double>& here = dp.suffix[i];
    const int u = dp.width_units[i];
    const double v = value[i];
    for (std::size_t c = 0; c < cols; ++c) {
      double best = below[c];
      if (v > 0.0 && static_cast<int>(c) >= u) {
        best = std::max(best, here[c - static_cast<std::size_t>(u)] + v);
      }
      here[c] = best;
    }
  }
}

// Branch-and-bound maximization over nonempty configurations of one phase:
//   max  sum_i counts[i] * value[i] + sum_r mult_r * [pred_r matches]
// Widths are visited in table order, counts from high to low, and a
// configuration replaces the incumbent only on a strict 1e-12
// improvement. A subtree is cut when current value + raw bound + bonus
// bound cannot beat the incumbent by that margin. Both bounds are
// admissible — never below the best value in the subtree, counting the
// configurations the count loop's +1e-9 capacity slack admits — so a cut
// subtree never holds a strict improvement and the returned maximizer
// does not depend on how tight the bounds are:
// - Raw bound: the exact DP suffix optimum on a width grid; otherwise the
//   smaller of the fractional density bound and the item-count bound (at
//   most floor(cap_left / min_width) more items, none worth more than the
//   best remaining value).
// - Bonus bound, per `PairTogether` row: its multiplier when all its
//   widths are decided and it matches (either sign); its multiplier when
//   it is positive and still reachable (no decided width short of its
//   copies, and the missing widths fit the remaining capacity); else 0.
//   Positive `PhaseTotal` and `Pattern` multipliers enter as a lump.
// Widths a positive pair/pattern bonus needs are exempt from the "skip
// non-positive values" pruning so those bonuses stay reachable. Returns
// the best configuration (empty when nothing beats zero) and its adjusted
// value through `best_value_out`. `expansions` counts DFS recursion calls.
Configuration best_config_for_phase(const ConfigLpProblem& problem,
                                    const std::vector<double>& value,
                                    std::span<const AppliedBranchRow> rows,
                                    std::size_t phase,
                                    double* best_value_out,
                                    std::int64_t* expansions = nullptr,
                                    const DpBound* dp = nullptr) {
  const auto& widths = problem.widths;
  // Suffix best density and best value for the fractional raw bound.
  std::vector<double> suffix_density(widths.size() + 1, 0.0);
  std::vector<double> suffix_value(widths.size() + 1, 0.0);
  for (std::size_t i = widths.size(); i-- > 0;) {
    const double v = std::max(value[i], 0.0);
    suffix_density[i] = std::max(suffix_density[i + 1], v / widths[i]);
    suffix_value[i] = std::max(suffix_value[i + 1], v);
  }
  const double min_width = *std::min_element(widths.begin(), widths.end());
  // The count loop admits c * w <= cap_left + 1e-9 * w, so a subtree
  // overfills its capacity by at most 1e-9 of one width; doubled to absorb
  // rounding in the `used` sums.
  const double slack =
      2e-9 * *std::max_element(widths.begin(), widths.end());

  double lump_bonus = 0.0;
  std::vector<const AppliedBranchRow*> pairs;
  std::vector<char> keep(widths.size(), 0);
  // Pattern matching is *non-monotone*: a penalized (negative-multiplier)
  // pattern can be escaped by ADDING an item, even one of non-positive
  // value — so while such a row applies, the skip-non-positive pruning
  // below must be disabled wholesale. Pair/total predicates are monotone
  // in the counts, so dropping a non-positive-value item never hurts
  // them; only widths a positive pair/pattern bonus needs are exempted.
  bool penalized_pattern = false;
  for (const AppliedBranchRow& r : rows) {
    if (r.pred->kind == BranchPredicate::Kind::PairTogether) {
      pairs.push_back(&r);
      if (r.mult > 0.0) {
        keep[r.pred->width_a] = 1;
        keep[r.pred->width_b] = 1;
      }
      continue;
    }
    if (r.mult <= 0.0) {
      if (r.mult < 0.0 &&
          r.pred->kind == BranchPredicate::Kind::Pattern) {
        penalized_pattern = true;
      }
      continue;
    }
    lump_bonus += r.mult;
    if (r.pred->kind == BranchPredicate::Kind::Pattern) {
      for (std::size_t i = 0; i < widths.size(); ++i) {
        if (r.pred->counts[i] > 0) keep[i] = 1;
      }
    }
  }
  if (penalized_pattern) keep.assign(widths.size(), 1);
  const auto adjusted = [&](const std::vector<int>& counts, double raw) {
    double v = raw;
    for (const AppliedBranchRow& r : rows) {
      if (r.pred->matches(counts, phase)) v += r.mult;
    }
    return v;
  };

  Configuration best;
  best.counts.assign(widths.size(), 0);
  double best_value = 0.0;
  std::vector<int> counts(widths.size(), 0);
  int total_items = 0;

  // Raw-value bound for widths index.. within `cap` (`units` on the grid).
  const auto raw_bound = [&](std::size_t index, double cap, int units) {
    if (dp != nullptr) {
      return dp->suffix[index][static_cast<std::size_t>(units)];
    }
    const double room = cap + slack;
    return std::min(room * suffix_density[index],
                    std::floor(room / min_width) * suffix_value[index]);
  };
  // Bonus bound for a subtree whose widths before `next` are decided in
  // `counts`, with `cap` left for the rest.
  const auto bonus_bound = [&](std::size_t next, double cap) {
    double bonus = lump_bonus;
    for (const AppliedBranchRow* r : pairs) {
      const std::size_t a = r->pred->width_a;
      const std::size_t b = r->pred->width_b;
      if (std::max(a, b) < next) {
        if (r->pred->matches(counts, phase)) bonus += r->mult;
        continue;
      }
      if (r->mult <= 0.0) continue;
      double missing = 0.0;
      bool reachable = true;
      if (a == b) {
        missing = 2.0 * widths[a];  // both copies still to place
      } else {
        for (const std::size_t x : {a, b}) {
          if (x >= next) {
            missing += widths[x];
          } else {
            reachable = reachable && counts[x] >= 1;
          }
        }
      }
      if (reachable && missing <= cap + slack) bonus += r->mult;
    }
    return bonus;
  };

  auto dfs = [&](auto&& self, std::size_t index, double used,
                 int units_left, double current) -> void {
    if (expansions != nullptr) ++*expansions;
    if (total_items > 0) {
      const double adj = adjusted(counts, current);
      if (adj > best_value + 1e-12) {
        best_value = adj;
        best.counts = counts;
        best.total_width = used;
        best.total_items = total_items;
      }
    }
    if (index == widths.size()) return;
    const double cap_left = problem.strip_width - used;
    if (current + raw_bound(index, cap_left, units_left) +
            bonus_bound(index, cap_left) <=
        best_value + 1e-12) {
      return;  // bound: cannot beat the incumbent
    }
    const int max_here =
        static_cast<int>(std::floor(cap_left / widths[index] + 1e-9));
    for (int c = max_here; c >= 0; --c) {
      // Skip negative-value widths — unless a positive branching bonus
      // needs them present.
      if (c > 0 && value[index] <= 0.0 && keep[index] == 0) continue;
      const double c_value = current + c * value[index];
      const double c_cap = cap_left - c * widths[index];
      int rem_units = units_left;
      if (dp != nullptr) {
        rem_units = units_left - c * dp->width_units[index];
        if (rem_units < 0) continue;  // defensive: double/unit edge
      }
      // Per-count bound, with width `index` decided at c copies.
      counts[index] = c;
      if (c_value + raw_bound(index + 1, c_cap, rem_units) +
              bonus_bound(index + 1, c_cap) <=
          best_value + 1e-12) {
        continue;
      }
      total_items += c;
      self(self, index + 1, used + c * widths[index], rem_units, c_value);
      total_items -= c;
    }
    counts[index] = 0;
  };
  dfs(dfs, 0, 0.0, dp != nullptr ? dp->cap_units : 0, 0.0);
  *best_value_out = best_value;
  return best;
}

// Bounded-knapsack pricing: per phase maximize sum counts[i]*value[i]
// subject to sum counts[i]*width[i] <= capacity. In the differenced form
// the dual of demand row (j, i) already equals the suffix sum of the
// paper's covering duals, so no per-phase accumulation is needed. Branch
// rows contribute their dual to every matching configuration, so pricing
// stays exact at branch-and-price nodes.
class KnapsackOracle final : public lp::PricingOracle {
 public:
  KnapsackOracle(const ConfigLpProblem& problem, const RowLayout& layout,
                 ColumnTable& table, const std::vector<BranchRow>& branches)
      : problem_(problem),
        layout_(layout),
        table_(table),
        branches_(branches),
        grid_denom_(detect_width_grid(problem)) {}

  std::vector<lp::PricedColumn> price(std::span<const double> duals,
                                      double tol) override {
    std::vector<lp::PricedColumn> out;
    const std::size_t phases = layout_.num_phases;
    const std::size_t widths = layout_.num_widths;
    std::vector<double> value(widths, 0.0);
    for (std::size_t j = 0; j < phases; ++j) {
      for (std::size_t i = 0; i < widths; ++i) {
        value[i] = duals[static_cast<std::size_t>(layout_.demand_row(j, i))];
      }
      double base_cost = column_cost(layout_, j);
      if (j + 1 < phases) {
        base_cost -= duals[static_cast<std::size_t>(layout_.packing_row(j))];
      } else if (layout_.cap_row >= 0) {
        base_cost -= duals[static_cast<std::size_t>(layout_.cap_row)];
      }
      double best_value = 0.0;
      Configuration best = best_phase_config(value, duals, j, &best_value);
      if (best.total_items == 0) continue;
      const double reduced_cost = base_cost - best_value;
      if (reduced_cost < -std::max(tol, 1e-8)) {
        emit(out, std::move(best), j, "cg[j=" + std::to_string(j) + "]");
      }
    }
    return out;
  }

  /// Farkas pricing: `ray` is an infeasibility certificate y of the
  /// restricted master (y'a <= tol for every present column, y'b > 0).
  /// Returns configuration columns with y'a > tol — the only columns
  /// whose addition can restore feasibility. An empty result proves the
  /// *full* master infeasible: every absent column is a configuration
  /// over the same width table, and this search maximizes y'a exactly
  /// over all of them.
  std::vector<lp::PricedColumn> price_farkas(std::span<const double> ray,
                                             double tol) {
    std::vector<lp::PricedColumn> out;
    const std::size_t phases = layout_.num_phases;
    const std::size_t widths = layout_.num_widths;
    std::vector<double> value(widths, 0.0);
    for (std::size_t j = 0; j < phases; ++j) {
      for (std::size_t i = 0; i < widths; ++i) {
        value[i] = ray[static_cast<std::size_t>(layout_.demand_row(j, i))];
      }
      double base = 0.0;
      if (j + 1 < phases) {
        base = ray[static_cast<std::size_t>(layout_.packing_row(j))];
      } else if (layout_.cap_row >= 0) {
        base = ray[static_cast<std::size_t>(layout_.cap_row)];
      }
      double best_value = 0.0;
      Configuration best = best_phase_config(value, ray, j, &best_value);
      if (best.total_items == 0) continue;
      if (base + best_value > std::max(tol, 1e-8)) {
        emit(out, std::move(best), j, "fk[j=" + std::to_string(j) + "]");
      }
    }
    return out;
  }

  [[nodiscard]] std::int64_t dfs_expansions() const {
    return dfs_expansions_;
  }

 private:
  // Exact max-value configuration of one phase, bounded by the DP when
  // the widths sit on a common grid.
  Configuration best_phase_config(const std::vector<double>& value,
                                  std::span<const double> multipliers,
                                  std::size_t phase, double* best_value_out) {
    const std::span<const AppliedBranchRow> rows =
        applied_rows(phase, multipliers);
    const DpBound* dp = nullptr;
    if (grid_denom_ > 0) {
      fill_dp_bound(problem_, grid_denom_, value, dp_scratch_);
      dp = &dp_scratch_;
    }
    return best_config_for_phase(problem_, value, rows, phase, best_value_out,
                                 &dfs_expansions_, dp);
  }

  // The branch rows of `phase` whose multiplier is nonzero. A zero
  // multiplier (a parked or non-binding row) adds +0.0 to every adjusted
  // value and is already ignored by the DFS's bonus bound and pruning
  // exemptions, so dropping it leaves the search exact while sparing the
  // per-expansion predicate test. Emitted columns still get coefficients
  // on every row (`column_entries` walks the full `branches_`).
  std::span<const AppliedBranchRow> applied_rows(
      std::size_t phase, std::span<const double> multipliers) {
    applied_.clear();
    for (const BranchRow& br : branches_) {
      if (br.pred.phase >= 0 &&
          static_cast<std::size_t>(br.pred.phase) != phase) {
        continue;
      }
      const double mult = multipliers[static_cast<std::size_t>(br.row)];
      if (mult == 0.0) continue;
      applied_.push_back({&br.pred, mult});
    }
    return applied_;
  }

  void emit(std::vector<lp::PricedColumn>& out, Configuration best,
            std::size_t phase, std::string name) {
    lp::PricedColumn col;
    col.cost = column_cost(layout_, phase);
    col.entries = column_entries(layout_, branches_, best, phase);
    col.name = std::move(name);
    out.push_back(std::move(col));
    table_.add(static_cast<int>(table_.configs.size()), phase);
    table_.configs.push_back(std::move(best));
  }

  const ConfigLpProblem& problem_;
  const RowLayout& layout_;  // shared with the solver: sees cap-row updates
  ColumnTable& table_;
  const std::vector<BranchRow>& branches_;  // shared: sees added rows
  int grid_denom_ = 0;  // common width grid for the DP bound (0: none)
  DpBound dp_scratch_;
  std::vector<AppliedBranchRow> applied_;   // scratch
  std::int64_t dfs_expansions_ = 0;
};

FractionalSolution extract(const ConfigLpProblem& problem,
                           const lp::Solution& solution,
                           const ColumnTable& table, double tol) {
  FractionalSolution out;
  out.status = solution.status;
  out.feasible = solution.optimal();
  if (!out.feasible) return out;
  out.objective = solution.objective;
  out.height = problem.releases.back() + solution.objective;
  for (std::size_t c = 0; c < solution.x.size(); ++c) {
    if (solution.x[c] > tol && table.config_of[c] >= 0) {
      out.slices.push_back(Slice{table.configs[table.config_of[c]],
                                 table.phase_of[c], solution.x[c]});
    }
  }
  out.iterations = solution.iterations;
  return out;
}

}  // namespace

// Everything the incremental solver carries between solve() and the dual
// re-solvers. Heap-held behind ConfigLpSolver so the oracle's references
// into layout/table/branch rows stay stable.
struct ConfigLpSolver::State {
  State(const ConfigLpProblem& p, const ConfigLpOptions& o)
      : problem(p), options(o), layout{p.releases.size(), p.widths.size()} {
    STRIPACK_EXPECTS(!p.widths.empty());
    STRIPACK_EXPECTS(!p.releases.empty());
    STRIPACK_EXPECTS(p.demand.size() == p.releases.size());
    simplex_options.tol = options.tol;
    simplex_options.pricing = options.pricing;
    simplex_options.stop = options.stop;
    simplex_options.fault = options.fault;
    backend_name = options.backend;
    // Fail fast on typos rather than at the first (possibly deep) solve.
    if (!lp::has_lp_backend(backend_name)) {
      throw std::invalid_argument("unknown LP backend '" + backend_name +
                                  "'");
    }
    model = build_rows(problem, layout);
    add_surplus_columns(model, layout, table);
    // Neutral rhs for deactivated LE branch rows: above the trivial
    // integral solution (stack everything in phase R, each demand
    // rounded up — the ceilings keep the bound valid for fractional
    // demands too), so it can never bind at a node optimum or cut off
    // any solution a branch-and-price search still cares about —
    // keeping dormant rows free.
    double total_demand = 0.0;
    for (const auto& phase_demand : p.demand) {
      for (const double d : phase_demand) total_demand += std::ceil(d);
    }
    inactive_le_rhs = (p.releases.back() - p.releases.front()) +
                      total_demand + 1.0;
  }

  const ConfigLpProblem& problem;
  ConfigLpOptions options;
  RowLayout layout;
  lp::Model model;
  ColumnTable table;
  std::vector<BranchRow> branch_rows;
  double inactive_le_rhs = 0.0;
  lp::SimplexOptions simplex_options;
  /// Registry name of the backend actually solving the master: the
  /// configured `options.backend`, or "dense" after a rung-3 failover.
  std::string backend_name;
  std::unique_ptr<KnapsackOracle> oracle;  // column-generation mode only
  std::unique_ptr<lp::LpBackend> engine;   // see backend_name
  bool solved = false;
  /// Per-call recovery accumulators: reset at every public (re-)solve
  /// entry, summed over the `lp::Solution`s that call produced, copied
  /// into the result by `finish()`.
  int acc_refactor_retries = 0;
  int acc_residual_repairs = 0;
  int acc_cold_restarts = 0;
  int acc_master_failovers = 0;

  void reset_recovery() {
    acc_refactor_retries = 0;
    acc_residual_repairs = 0;
    acc_cold_restarts = 0;
    acc_master_failovers = 0;
  }

  void note(const lp::Solution& solution) {
    acc_refactor_retries += solution.refactor_retries;
    acc_residual_repairs += solution.residual_repairs;
    acc_cold_restarts += solution.cold_restarts;
  }

  void note_colgen(const lp::ColgenResult& result) {
    acc_refactor_retries += result.refactor_retries;
    acc_residual_repairs += result.residual_repairs;
    acc_cold_restarts += result.cold_restarts;
  }

  // Backend failover (the ladder's last rung before giving up): the master
  // model lives in this State, not in the backend, so the failing engine
  // can be replaced wholesale by a fresh cold instance of the dense
  // reference backend (or, when dense itself is the one failing, a fresh
  // cold instance of the same backend — one last restart). Returns false
  // only if even constructing the replacement throws.
  [[nodiscard]] bool failover_engine() {
    ++acc_master_failovers;
    if (backend_name != "dense" && lp::has_lp_backend("dense")) {
      backend_name = "dense";
    }
    lp::SimplexOptions cold = simplex_options;
    cold.initial_basis.clear();
    try {
      engine = lp::make_lp_backend(backend_name, model, cold);
    } catch (const std::runtime_error&) {
      return false;
    }
    return true;
  }

  // Cold initial solve with the failover wrapped around it: a backend that
  // throws or reports NumericalFailure is replaced (see failover_engine)
  // and the solve retried once; a second failure is reported honestly as
  // NumericalFailure, never an exception.
  [[nodiscard]] lp::Solution guarded_cold_solve() {
    try {
      lp::Solution solution = engine->solve();
      note(solution);
      if (solution.status != lp::SolveStatus::NumericalFailure) {
        return solution;
      }
    } catch (const std::runtime_error&) {
    }
    lp::Solution failed;
    failed.status = lp::SolveStatus::NumericalFailure;
    if (!failover_engine()) return failed;
    try {
      lp::Solution solution = engine->solve();
      note(solution);
      return solution;
    } catch (const std::runtime_error&) {
      return failed;
    }
  }

  [[nodiscard]] FractionalSolution failed_result() {
    lp::Solution failed;
    failed.status = lp::SolveStatus::NumericalFailure;
    return finish(failed, 0, 0, 0);
  }

  [[nodiscard]] FractionalSolution finish(const lp::Solution& solution,
                                          std::int64_t iterations,
                                          int rounds,
                                          std::int64_t warm_phase1) {
    FractionalSolution out = extract(problem, solution, table, options.tol);
    out.lp_rows = static_cast<std::size_t>(model.num_rows());
    out.lp_cols = static_cast<std::size_t>(model.num_cols());
    out.iterations = iterations;
    out.colgen_rounds = rounds;
    out.colgen_warm_phase1_iterations = warm_phase1;
    out.dual_iterations = solution.dual_iterations;
    out.lp_refactor_retries = acc_refactor_retries;
    out.lp_residual_repairs = acc_residual_repairs;
    out.lp_cold_restarts = acc_cold_restarts;
    out.master_failovers = acc_master_failovers;
    if (!options.use_column_generation) {
      out.configurations = table.configs.size();
    }
    return out;
  }

  // Dual re-solve with the backend-failover barrier: one attempt on the
  // current engine; if it throws or its recovery ladder ran dry
  // (NumericalFailure), the backend is replaced by a fresh cold dense
  // reference instance (failover_engine) and the whole re-solve retried
  // once — the model, column pool and branch rows all live here, so the
  // replacement sees the exact same master. A second failure returns an
  // honest NumericalFailure result; exceptions never escape.
  [[nodiscard]] FractionalSolution resolve() {
    reset_recovery();
    try {
      FractionalSolution out = resolve_attempt();
      if (out.status != lp::SolveStatus::NumericalFailure) return out;
    } catch (const std::runtime_error&) {
    }
    if (!failover_engine()) return failed_result();
    try {
      return resolve_attempt();
    } catch (const std::runtime_error&) {
      return failed_result();
    }
  }

  // Dual re-solve after a row change, plus — in colgen mode — pricing
  // rounds against the new duals (fresh phase-R columns carry the cap and
  // branch rows' coefficients via the shared layout and row list). An
  // infeasible restricted master first goes through Farkas pricing, so
  // the Infeasible it can return is certified for the full master. The
  // re-solve's own phase1_iterations feed the warm counter: a silent
  // fallback into a cold primal solve must show up in
  // `colgen_warm_phase1_iterations`, not vanish.
  [[nodiscard]] FractionalSolution resolve_attempt() {
    engine->sync_rows();
    const bool colgen = options.use_column_generation;
    lp::Solution solution = engine->solve_dual(colgen);
    note(solution);
    std::int64_t dual_pivots = solution.dual_iterations;
    std::int64_t iterations = solution.iterations;
    std::int64_t warm_phase1 = solution.phase1_iterations;
    int farkas_rounds = 0;
    std::size_t farkas_columns = 0;
    if (colgen) {
      // Farkas repair loop. Each round's columns have positive
      // certificate value while every present column has none, so they
      // are genuinely new — the loop adds at most one column per
      // (configuration, phase) pair and terminates. Re-solves use the
      // cost-shifting dual so phase 1 stays untouched.
      while (solution.status == lp::SolveStatus::Infeasible) {
        const auto columns =
            oracle->price_farkas(solution.farkas, simplex_options.tol);
        if (columns.empty()) break;  // certified for the full master
        for (const lp::PricedColumn& col : columns) {
          model.add_column(col.cost, col.entries, col.name);
        }
        farkas_columns += columns.size();
        ++farkas_rounds;
        engine->sync_columns();
        solution = engine->solve_dual(true);
        note(solution);
        dual_pivots += solution.dual_iterations;
        iterations += solution.iterations;
        warm_phase1 += solution.phase1_iterations;
      }
    }
    if (!solution.optimal() || !colgen) {
      FractionalSolution out = finish(solution, iterations, 0, warm_phase1);
      out.dual_iterations = dual_pivots;
      out.farkas_rounds = farkas_rounds;
      out.farkas_columns = farkas_columns;
      return out;
    }
    lp::ColgenResult result = lp::solve_with_column_generation(
        model, *oracle, *engine, simplex_options.tol);
    note_colgen(result);
    FractionalSolution out =
        finish(result.solution, iterations + result.total_iterations,
               result.rounds, warm_phase1 + result.warm_phase1_iterations);
    out.dual_iterations = dual_pivots;
    out.farkas_rounds = farkas_rounds;
    out.farkas_columns = farkas_columns;
    return out;
  }
};

ConfigLpSolver::ConfigLpSolver(const ConfigLpProblem& problem,
                               const ConfigLpOptions& options)
    : state_(std::make_unique<State>(problem, options)) {}

ConfigLpSolver::~ConfigLpSolver() = default;
ConfigLpSolver::ConfigLpSolver(ConfigLpSolver&&) noexcept = default;
ConfigLpSolver& ConfigLpSolver::operator=(ConfigLpSolver&&) noexcept = default;

FractionalSolution ConfigLpSolver::solve() {
  State& s = *state_;
  STRIPACK_EXPECTS(!s.solved);
  const ConfigLpProblem& problem = s.problem;

  if (!s.options.use_column_generation) {
    auto configs = enumerate_configurations(
        problem.widths, problem.strip_width, s.options.max_configurations);
    s.model.reserve_columns(s.model.num_cols() +
                            configs.size() * s.layout.num_phases);
    for (std::size_t j = 0; j < s.layout.num_phases; ++j) {
      for (std::size_t q = 0; q < configs.size(); ++q) {
        s.model.add_column(
            column_cost(s.layout, j),
            column_entries(s.layout, s.branch_rows, configs[q], j));
        s.table.add(static_cast<int>(q), j);
      }
    }
    s.table.configs = std::move(configs);
    s.reset_recovery();
    s.engine = lp::make_lp_backend(s.backend_name, s.model, s.simplex_options);
    const lp::Solution solution = s.guarded_cold_solve();
    s.solved = true;
    return s.finish(solution, solution.iterations, 0, 0);
  }

  // Column generation: seed with singleton configurations in every phase
  // (feasible because phase R has unbounded capacity and the surplus chain
  // carries late supply to early demand rows).
  for (std::size_t i = 0; i < problem.widths.size(); ++i) {
    Configuration q;
    q.counts.assign(problem.widths.size(), 0);
    q.counts[i] = 1;
    q.total_width = problem.widths[i];
    q.total_items = 1;
    s.table.configs.push_back(std::move(q));
  }
  for (std::size_t j = 0; j < s.layout.num_phases; ++j) {
    for (std::size_t i = 0; i < problem.widths.size(); ++i) {
      s.model.add_column(
          column_cost(s.layout, j),
          column_entries(s.layout, s.branch_rows, s.table.configs[i], j));
      s.table.add(static_cast<int>(i), j);
    }
  }
  s.oracle = std::make_unique<KnapsackOracle>(problem, s.layout, s.table,
                                              s.branch_rows);
  s.engine = lp::make_lp_backend(s.backend_name, s.model, s.simplex_options);
  s.reset_recovery();
  // Cold column-generation run with the backend-failover barrier: a master
  // that throws or fails numerically is rebuilt cold on the dense
  // reference backend and the whole loop rerun once (columns priced before
  // the failure stay in the model, so no pricing work is lost).
  lp::ColgenResult result;
  bool failed = false;
  try {
    result = lp::solve_with_column_generation(s.model, *s.oracle, *s.engine,
                                              s.simplex_options.tol);
    s.note_colgen(result);
  } catch (const std::runtime_error&) {
    failed = true;
  }
  if (failed ||
      result.solution.status == lp::SolveStatus::NumericalFailure) {
    result = lp::ColgenResult{};
    result.solution.status = lp::SolveStatus::NumericalFailure;
    if (s.failover_engine()) {
      try {
        result = lp::solve_with_column_generation(
            s.model, *s.oracle, *s.engine, s.simplex_options.tol);
        s.note_colgen(result);
      } catch (const std::runtime_error&) {
        result = lp::ColgenResult{};
        result.solution.status = lp::SolveStatus::NumericalFailure;
      }
    }
  }
  s.solved = true;
  return s.finish(result.solution, result.total_iterations, result.rounds,
                  result.warm_phase1_iterations);
}

FractionalSolution ConfigLpSolver::resolve_with_height_cap(double cap) {
  State& s = *state_;
  STRIPACK_EXPECTS(s.solved);
  STRIPACK_EXPECTS(cap >= 0.0);
  if (s.layout.cap_row < 0) {
    std::vector<lp::ColumnEntry> entries;
    for (std::size_t c = 0; c < s.table.config_of.size(); ++c) {
      if (s.table.config_of[c] >= 0 &&
          s.table.phase_of[c] + 1 == s.layout.num_phases) {
        entries.push_back({static_cast<int>(c), 1.0});
      }
    }
    s.layout.cap_row =
        s.model.add_row_with_entries(lp::Sense::LE, cap, entries, "cap[R]");
  } else {
    s.model.set_row_rhs(s.layout.cap_row, cap);
  }
  return s.resolve();
}

void ConfigLpSolver::clear_height_cap() {
  State& s = *state_;
  STRIPACK_EXPECTS(s.solved);
  if (s.layout.cap_row < 0) return;
  s.model.set_row_rhs(s.layout.cap_row, s.inactive_le_rhs);
}

void ConfigLpSolver::ensure_height_cap_row() {
  State& s = *state_;
  STRIPACK_EXPECTS(s.solved);
  if (s.layout.cap_row >= 0) return;
  std::vector<lp::ColumnEntry> entries;
  for (std::size_t c = 0; c < s.table.config_of.size(); ++c) {
    if (s.table.config_of[c] >= 0 &&
        s.table.phase_of[c] + 1 == s.layout.num_phases) {
      entries.push_back({static_cast<int>(c), 1.0});
    }
  }
  // Parked at the dormant-LE neutral rhs: cannot bind at any node
  // optimum, so the retained basis stays optimal and no re-solve is
  // needed here.
  s.layout.cap_row = s.model.add_row_with_entries(
      lp::Sense::LE, s.inactive_le_rhs, entries, "cap[R]");
}

FractionalSolution ConfigLpSolver::resolve_with_phase_capacity(
    std::size_t phase, double capacity) {
  State& s = *state_;
  STRIPACK_EXPECTS(s.solved);
  STRIPACK_EXPECTS(phase + 1 < s.layout.num_phases);
  STRIPACK_EXPECTS(capacity >= 0.0);
  s.model.set_row_rhs(s.layout.packing_row(phase), capacity);
  return s.resolve();
}

namespace {

const BranchRow* lookup_branch_row(const std::vector<BranchRow>& rows,
                                   int row) {
  // Branch rows are appended with strictly increasing model row indices,
  // so the handle lookup is a binary search (branch-and-price touches
  // every row once per node activation).
  const auto it = std::lower_bound(
      rows.begin(), rows.end(), row,
      [](const BranchRow& br, int r) { return br.row < r; });
  if (it == rows.end() || it->row != row) return nullptr;
  return &*it;
}

}  // namespace

int ConfigLpSolver::add_branch_row(BranchPredicate pred, lp::Sense sense,
                                   double rhs) {
  State& s = *state_;
  STRIPACK_EXPECTS(s.solved);
  // EQ rows would re-enter through artificials (outside the dual warm
  // path) and have no neutral rhs to park at; branch-and-price only needs
  // the two inequality directions.
  STRIPACK_EXPECTS(sense != lp::Sense::EQ);
  STRIPACK_EXPECTS(rhs >= 0.0);
  STRIPACK_EXPECTS(pred.phase < static_cast<int>(s.layout.num_phases));
  switch (pred.kind) {
    case BranchPredicate::Kind::PhaseTotal:
      // Pricing never proposes empty configurations, which a GE total row
      // would need as columns in column-generation mode (see the header).
      STRIPACK_EXPECTS(sense == lp::Sense::LE ||
                       !s.options.use_column_generation);
      break;
    case BranchPredicate::Kind::PairTogether:
      STRIPACK_EXPECTS(pred.width_a < s.problem.widths.size());
      STRIPACK_EXPECTS(pred.width_b < s.problem.widths.size());
      break;
    case BranchPredicate::Kind::Pattern:
      STRIPACK_EXPECTS(pred.counts.size() == s.problem.widths.size());
      break;
  }
  std::vector<lp::ColumnEntry> entries;
  for (std::size_t c = 0; c < s.table.config_of.size(); ++c) {
    const int q = s.table.config_of[c];
    if (q >= 0 &&
        pred.matches(s.table.configs[static_cast<std::size_t>(q)].counts,
                     s.table.phase_of[c])) {
      entries.push_back({static_cast<int>(c), 1.0});
    }
  }
  const int row = s.model.add_row_with_entries(
      sense, rhs, entries,
      "br[" + std::to_string(s.branch_rows.size()) + "]");
  s.branch_rows.push_back({std::move(pred), row, sense});
  return row;
}

void ConfigLpSolver::set_branch_row_rhs(int row, double rhs) {
  State& s = *state_;
  STRIPACK_EXPECTS(lookup_branch_row(s.branch_rows, row) != nullptr);
  STRIPACK_EXPECTS(rhs >= 0.0);
  s.model.set_row_rhs(row, rhs);
}

void ConfigLpSolver::deactivate_branch_row(int row) {
  State& s = *state_;
  const BranchRow* br = lookup_branch_row(s.branch_rows, row);
  STRIPACK_EXPECTS(br != nullptr);
  s.model.set_row_rhs(
      row, br->sense == lp::Sense::LE ? s.inactive_le_rhs : 0.0);
}

FractionalSolution ConfigLpSolver::resolve() {
  State& s = *state_;
  STRIPACK_EXPECTS(s.solved);
  return s.resolve();
}

bool ConfigLpSolver::solved() const { return state_->solved; }

const ConfigLpProblem& ConfigLpSolver::problem() const {
  return state_->problem;
}

int ConfigLpSolver::find_branch_row(const BranchPredicate& pred,
                                    lp::Sense sense) const {
  for (const BranchRow& br : state_->branch_rows) {
    if (br.sense == sense && br.pred == pred) return br.row;
  }
  return -1;
}

void ConfigLpSolver::set_stop(lp::StopToken stop) {
  State& s = *state_;
  s.options.stop = stop;
  s.simplex_options.stop = stop;
  if (s.engine != nullptr) s.engine->set_stop(stop);
}

void ConfigLpSolver::rebind_demand() {
  State& s = *state_;
  STRIPACK_EXPECTS(s.solved);
  const ConfigLpProblem& p = s.problem;
  // The columns, layout and packing rows were all built from the widths /
  // releases / strip width; only demand may have changed under us.
  STRIPACK_EXPECTS(p.demand.size() == s.layout.num_phases);
  for (std::size_t j = 0; j < s.layout.num_phases; ++j) {
    STRIPACK_EXPECTS(p.demand[j].size() == s.layout.num_widths);
    for (std::size_t i = 0; i < s.layout.num_widths; ++i) {
      s.model.set_row_rhs(s.layout.demand_row(j, i), p.demand[j][i]);
    }
  }
  // The neutral rhs for dormant LE rows depends on total demand; park
  // every branch row (and the cap row) at the value recomputed for the
  // new request so no previous request's branching survives as a live
  // constraint.
  double total_demand = 0.0;
  for (const auto& phase_demand : p.demand) {
    for (const double d : phase_demand) total_demand += std::ceil(d);
  }
  s.inactive_le_rhs =
      (p.releases.back() - p.releases.front()) + total_demand + 1.0;
  for (const BranchRow& br : s.branch_rows) {
    s.model.set_row_rhs(
        br.row, br.sense == lp::Sense::LE ? s.inactive_le_rhs : 0.0);
  }
  if (s.layout.cap_row >= 0) {
    s.model.set_row_rhs(s.layout.cap_row, s.inactive_le_rhs);
  }
}

PricingStats ConfigLpSolver::pricing_stats() const {
  const State& s = *state_;
  PricingStats stats;
  if (s.oracle != nullptr) {
    stats.dfs_expansions = s.oracle->dfs_expansions();
  }
  return stats;
}

FractionalSolution solve_config_lp(const ConfigLpProblem& problem,
                                   const ConfigLpOptions& options) {
  ConfigLpSolver solver(problem, options);
  return solver.solve();
}

double fractional_lower_bound(const Instance& instance,
                              const ConfigLpOptions& options) {
  const ConfigLpProblem problem = make_problem(instance);
  ConfigLpOptions local = options;
  // Fall back to column generation when enumeration would explode.
  if (!local.use_column_generation) {
    const std::size_t count = count_configurations(
        problem.widths, problem.strip_width, local.max_configurations);
    if (count > local.max_configurations) local.use_column_generation = true;
  }
  const FractionalSolution solution = solve_config_lp(problem, local);
  STRIPACK_ASSERT(solution.feasible, "configuration LP must be feasible");
  return solution.height;
}

double fractional_lower_bound_coarse(const Instance& instance,
                                     double eps_down,
                                     const ConfigLpOptions& options) {
  STRIPACK_EXPECTS(eps_down > 0);
  instance.check_well_formed();
  const double r_max = instance.max_release();
  if (r_max <= 0.0) return fractional_lower_bound(instance, options);
  // The paper's P-down: releases floored to the delta grid. Releases only
  // decrease, so every feasible packing of the original stays feasible:
  // OPTf(P-down) <= OPTf(P) <= OPT(P).
  const double delta = eps_down * r_max;
  std::vector<Item> items(instance.items().begin(), instance.items().end());
  for (Item& it : items) {
    it.release = std::floor(it.release / delta + 1e-9) * delta;
  }
  const Instance down(std::move(items), instance.strip_width());
  return fractional_lower_bound(down, options);
}

}  // namespace stripack::release
