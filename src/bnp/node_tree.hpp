// Deterministic best-first search tree for branch and price (bnp/solver).
//
// Open nodes sit in a set ordered by (dual bound, -id): the pop order is
// bound-ascending with the newest node first on ties — best-first across
// bound levels, depth-first within one. Node bounds are LP values rounded
// up to integers, so most open nodes tie; diving within the level finds
// an integral solution at that level early (the incumbent check then
// prunes the rest of it), and consecutive pops are parent → child, so
// each re-solve warm-starts from its parent's basis. The order is total,
// so a search is reproducible run to run — no pointer ordering, no heap
// nondeterminism. The tree also tracks
// the incumbent (best integral objective found so far) and exposes the
// proven global dual bound; the solver's main loop reduces to pop /
// process / branch against this class plus its node and time budgets.
#pragma once

#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "lp/model.hpp"
#include "release/config_lp.hpp"

namespace stripack::bnp {

/// One branching constraint relative to the parent node: the matching
/// (configuration, phase) columns' total height is bounded by an integer
/// rhs from one side. A node's full constraint set is the chain of
/// decisions on its root path.
struct BranchDecision {
  release::BranchPredicate pred;
  lp::Sense sense = lp::Sense::LE;
  double rhs = 0.0;
  /// Pseudo-cost bookkeeping: the fractional part of the branched total
  /// at the parent (LE children observe gains per unit of `frac`, GE
  /// children per unit of 1 - `frac`) and the parent's LP objective the
  /// gain is measured against. Zero/ignored on the root.
  double frac = 0.0;
  double parent_obj = 0.0;
};

struct Node {
  int id = 0;
  int parent = -1;  // -1: root
  int depth = 0;
  /// Dual (lower) bound on the best objective in this subtree, inherited
  /// from the parent's LP value rounded up to an integer.
  double bound = 0.0;
  BranchDecision decision;  // meaningless on the root (depth 0)
};

/// Node/time budgets for a search; 0 seconds means unlimited.
struct SearchBudget {
  std::size_t max_nodes = 10'000;
  double max_seconds = 0.0;
};

class NodeTree {
 public:
  /// Creates the (open) root node; must be called first, exactly once.
  int add_root(double bound);

  /// Creates an open child of `parent` carrying `decision`.
  int add_child(int parent, BranchDecision decision, double bound);

  /// Pops the open node with the smallest bound (largest id, i.e. the
  /// most recently created, on ties); nullopt once no node is open.
  [[nodiscard]] std::optional<int> pop_best();

  [[nodiscard]] const Node& node(int id) const {
    return nodes_[static_cast<std::size_t>(id)];
  }

  /// Smallest bound over the open nodes; the incumbent value when none
  /// are open (the search is then exhausted and the incumbent optimal).
  [[nodiscard]] double best_open_bound() const;

  [[nodiscard]] std::size_t open_count() const { return open_.size(); }
  [[nodiscard]] std::size_t created() const { return nodes_.size(); }

  /// Records an integral solution's objective; true iff it improves the
  /// incumbent.
  bool offer_incumbent(double objective);
  [[nodiscard]] bool has_incumbent() const { return has_incumbent_; }
  [[nodiscard]] double incumbent() const { return incumbent_; }

  /// Proven: no open node (nor the incumbent) can beat `objective`.
  /// Bounds and incumbents are integers here, so a node with bound >=
  /// incumbent cannot lead to a *strict* improvement and the search can
  /// stop the moment the best open bound reaches the incumbent.
  [[nodiscard]] bool done() const {
    return open_.empty() ||
           (has_incumbent_ && best_open_bound() >= incumbent_ - 0.5);
  }

 private:
  std::vector<Node> nodes_;
  std::set<std::pair<double, int>> open_;  // (bound, -id), ascending
  bool has_incumbent_ = false;
  double incumbent_ = 0.0;
};

}  // namespace stripack::bnp
