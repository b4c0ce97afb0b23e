#include "bnp/worker_pool.hpp"

#include <algorithm>
#include <limits>
#include <thread>

namespace stripack::bnp {

int resolve_threads(int threads) {
  if (threads == 0) {
    threads = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
  }
  return std::max(threads, 1);
}

NodeEvaluation solve_node(release::ConfigLpSolver& solver,
                          std::span<const std::pair<int, double>> path,
                          double cutoff, std::optional<double> height_cap) {
  for (const auto& [row, rhs] : path) solver.set_branch_row_rhs(row, rhs);
  NodeEvaluation out;
  // The cap row is appended after every branch row, so the path's master
  // row indices — and the solver's Farkas projection onto them — are
  // unaffected by it. Capped solves park the Lagrangian cutoff (the
  // infeasibility proof must run to completion to certify).
  solver.set_node_cutoff(height_cap ? std::numeric_limits<double>::infinity()
                                    : cutoff);
  out.solution = height_cap ? solver.resolve_with_height_cap(*height_cap)
                            : solver.resolve();
  if (height_cap && !out.solution.feasible &&
      out.solution.status != lp::SolveStatus::Infeasible) {
    // A cap binding right at the LP optimum can exhaust the iteration
    // budget without a verdict: re-solve this one node uncapped on the
    // Lagrangian path (a pure function of the node, so the fallback is
    // deterministic) instead of stalling the search.
    solver.clear_height_cap();
    solver.set_node_cutoff(cutoff);
    out.solution = solver.resolve();
    out.uncapped_fallback = true;
  }
  return out;
}

BnpWorkerPool::BnpWorkerPool(int threads) : threads_(resolve_threads(threads)) {
  if (threads_ > 1) {
    // One worker less than requested: the calling thread participates in
    // ThreadPool::run, so `threads_` OS threads execute tasks in total.
    pool_ = std::make_unique<ThreadPool>(
        static_cast<unsigned>(threads_ - 1));
  }
}

BnpWorkerPool::~BnpWorkerPool() = default;

std::vector<NodeEvaluation> BnpWorkerPool::evaluate(
    const release::ConfigLpSolver& master, std::span<const NodeTask> tasks,
    double cutoff, std::optional<double> height_cap) {
  std::vector<NodeEvaluation> results(tasks.size());
  const auto evaluate_node = [&](std::size_t i, NodeEvaluation& out) {
    release::ConfigLpSolver clone = master.clone();
    const std::size_t snapshot_columns = clone.num_columns();
    out = solve_node(clone, tasks[i].path, cutoff, height_cap);
    out.new_columns = clone.columns_since(snapshot_columns);
    out.pricing = clone.pricing_stats();
  };
  const auto evaluate_one = [&](std::size_t i) {
    NodeEvaluation& out = results[i];
    // Exception barrier + one re-clone retry: a failing evaluation must
    // never propagate through ThreadPool::run (which rethrows into the
    // caller and abandons sibling results). The snapshot master is
    // frozen, so re-cloning gives the retry a pristine starting state; a
    // second failure is reported as a NumericalFailure'd node, which the
    // solver turns into an honest stalled bracket.
    try {
      evaluate_node(i, out);
      if (out.solution.status != lp::SolveStatus::NumericalFailure) return;
    } catch (const std::runtime_error&) {
    }
    out = NodeEvaluation{};
    try {
      evaluate_node(i, out);
    } catch (const std::runtime_error&) {
      out = NodeEvaluation{};
      out.solution.status = lp::SolveStatus::NumericalFailure;
    }
    out.retries = 1;
  };
  if (pool_ == nullptr) {
    for (std::size_t i = 0; i < tasks.size(); ++i) evaluate_one(i);
  } else {
    // One chunk per task: the pool balances them across workers; chunk
    // assignment cannot affect results (tasks are fully independent).
    pool_->run(tasks.size(), evaluate_one, tasks.size());
  }
  return results;
}

}  // namespace stripack::bnp
