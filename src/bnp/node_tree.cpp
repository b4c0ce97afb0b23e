#include "bnp/node_tree.hpp"

#include <limits>

#include "util/assert.hpp"

namespace stripack::bnp {

int NodeTree::add_root(double bound) {
  STRIPACK_EXPECTS(nodes_.empty());
  Node root;
  root.id = 0;
  root.bound = bound;
  nodes_.push_back(std::move(root));
  open_.insert({bound, 0});
  return 0;
}

int NodeTree::add_child(int parent, BranchDecision decision, double bound) {
  STRIPACK_EXPECTS(parent >= 0 &&
                   parent < static_cast<int>(nodes_.size()));
  Node child;
  child.id = static_cast<int>(nodes_.size());
  child.parent = parent;
  child.depth = nodes_[static_cast<std::size_t>(parent)].depth + 1;
  // A child never has a better bound than its parent's LP proved.
  child.bound = std::max(bound, nodes_[static_cast<std::size_t>(parent)].bound);
  child.decision = std::move(decision);
  open_.insert({child.bound, -child.id});
  nodes_.push_back(std::move(child));
  return nodes_.back().id;
}

std::optional<int> NodeTree::pop_best() {
  if (open_.empty()) return std::nullopt;
  const auto it = open_.begin();
  const int id = -it->second;
  open_.erase(it);
  return id;
}

double NodeTree::best_open_bound() const {
  if (open_.empty()) {
    return has_incumbent_ ? incumbent_
                          : std::numeric_limits<double>::infinity();
  }
  return open_.begin()->first;
}

bool NodeTree::offer_incumbent(double objective) {
  if (has_incumbent_ && objective >= incumbent_ - 0.5) return false;
  has_incumbent_ = true;
  incumbent_ = objective;
  return true;
}

}  // namespace stripack::bnp
