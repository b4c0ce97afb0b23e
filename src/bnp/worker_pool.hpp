// Node evaluation for branch and price (bnp/solver).
//
// `solve_node` is the one place a node's LP is solved: activate the node's
// root path, re-solve under the incumbent's height cap, and fall back to
// one uncapped re-solve when the cap leaves no verdict. The solver's node
// loop runs it through one of two executors: in place on the shared
// master (one node per round, one thread), or here, on clones.
//
// Batch-synchronous search: the solver pops the top-B open nodes, hands
// them here as tasks, and merges the results back in node-id order. Each
// task is evaluated on a *fresh clone* of the frozen master
// (`ConfigLpSolver::clone()` — copied model/columns/branch rows/pattern
// cache, engine warm-started from the master's last optimal basis), so a
// node's result depends only on (master snapshot, its own root path) —
// never on which thread ran it, how many threads exist, or which other
// nodes share the batch. That is the determinism argument: for a fixed
// batch size B the explored tree, bounds and final packing are
// bit-identical across thread counts.
//
// The pool's worker threads are owned here (a util::ThreadPool sized to
// the requested thread count, independent of the hardware count so
// sanitizer jobs exercise real concurrency even on single-core CI) and
// reused across batches.
#pragma once

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "release/config_lp.hpp"
#include "util/thread_pool.hpp"

namespace stripack::bnp {

/// One node's evaluation order: activate these (master row, rhs) pairs,
/// then resolve under the height cap.
struct NodeTask {
  std::vector<std::pair<int, double>> path;
};

struct NodeEvaluation {
  release::FractionalSolution solution;
  /// True when the capped re-solve ended without a verdict and the node
  /// was re-solved uncapped (which may legitimately leave the warm path).
  bool uncapped_fallback = false;
  /// Configuration columns a clone priced beyond the snapshot, for
  /// adoption into the master (deduplicated there). Empty in place.
  std::vector<release::AdoptableColumn> new_columns;
  /// A clone's own pricing counters (zero in place: the master's are
  /// counted once, at the end of the search).
  release::PricingStats pricing;
  /// 1 when the evaluation failed (threw, or exhausted the LP recovery
  /// ladder) and was retried once from a fresh clone of the frozen
  /// snapshot; the retry's outcome — recovered or an honest
  /// NumericalFailure — is what the fields above hold.
  int retries = 0;
};

/// The worker count `threads` asks for: 0 means hardware concurrency;
/// never less than 1.
[[nodiscard]] int resolve_threads(int threads);

/// Solves one node on `solver`: sets every `path` row to its rhs, then
/// re-solves through `resolve_with_height_cap(height_cap)`, so a node
/// that cannot beat the incumbent comes back certified infeasible. A
/// capped re-solve without a verdict is re-solved once uncapped with a
/// plain `resolve()`. Rows off the path must already be parked; only
/// `solution` and `uncapped_fallback` are filled in.
[[nodiscard]] NodeEvaluation solve_node(
    release::ConfigLpSolver& solver,
    std::span<const std::pair<int, double>> path, double height_cap);

class BnpWorkerPool {
 public:
  /// `threads` <= 1 evaluates on the calling thread (still through the
  /// same clone-per-node path, so results are identical); 0 means
  /// hardware concurrency.
  explicit BnpWorkerPool(int threads);
  ~BnpWorkerPool();

  [[nodiscard]] int threads() const { return threads_; }

  /// Evaluates every task with `solve_node` on its own clone of the
  /// frozen `master`; result i depends only on (master, tasks[i],
  /// height_cap). `master` is only read (clone() is const and
  /// lock-free), so tasks run concurrently. The cap's rhs lives and dies
  /// with the clone; the frozen master is never touched.
  [[nodiscard]] std::vector<NodeEvaluation> evaluate(
      const release::ConfigLpSolver& master, std::span<const NodeTask> tasks,
      double height_cap);

 private:
  std::unique_ptr<ThreadPool> pool_;  // null when serial
  int threads_ = 1;
};

}  // namespace stripack::bnp
