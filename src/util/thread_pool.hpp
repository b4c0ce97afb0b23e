// Reusable deterministic thread pool.
//
// `ThreadPool` keeps a fixed set of workers alive and feeds them static
// contiguous chunks, so repeated parallel sections (the service's class
// pipelines: one pool per `SolverService`, reused by every `run()`) cost
// a condition-variable wake instead of thread creation.
//
// Determinism contract (per docs/ARCHITECTURE.md): the split of [0, n)
// into chunks depends only on (n, workers) — never on timing — and `run`
// returns only after every index has executed. Which OS thread executes
// a chunk is *not* specified, so callers must make chunks independent
// (disjoint writes) and do any cross-chunk reduction themselves, in chunk
// order, after `run` returns. Exceptions thrown by `fn` are captured and
// the one from the lowest chunk index is rethrown, so the choice is
// reproducible.
//
// Claim order: a free thread (worker or caller) claims the lowest chunk
// not yet claimed, so chunks start in increasing index order. The
// service's heaviest-first class dispatch relies on this: it puts the
// costliest class at index 0 so it starts first.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace stripack {

class ThreadPool {
 public:
  /// Spawns `workers` persistent worker threads (0 means hardware
  /// concurrency). The calling thread also executes chunks during `run`,
  /// so a pool constructed with 1 worker still overlaps two chunks.
  explicit ThreadPool(unsigned workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker threads owned by the pool (excluding the caller).
  [[nodiscard]] unsigned workers() const {
    return static_cast<unsigned>(threads_.size());
  }

  /// Invokes fn(i) for every i in [0, n), split into `parts` static
  /// contiguous chunks of size ceil(n / parts) (0 means one chunk per
  /// worker plus the caller). Blocks until all indices ran; rethrows the
  /// lowest-chunk exception. Serial (caller-only) when n or the pool is
  /// small. Not reentrant: `fn` must not call `run` on the same pool.
  void run(std::size_t n, const std::function<void(std::size_t)>& fn,
           std::size_t parts = 0);

 private:
  struct Batch {
    std::size_t n = 0;
    std::size_t chunk = 0;
    std::size_t next = 0;  // next chunk index to claim
    std::size_t done = 0;  // chunks finished
    std::size_t total = 0; // chunk count
    const std::function<void(std::size_t)>* fn = nullptr;
    std::vector<std::pair<std::size_t, std::exception_ptr>> errors;
  };

  void worker_loop();
  // Claims and executes chunks of the current batch until none remain.
  // Returns once the caller should re-check the batch state.
  void drain(Batch& batch, std::unique_lock<std::mutex>& lock);

  std::mutex mutex_;
  std::condition_variable wake_;      // workers wait for a batch
  std::condition_variable finished_;  // run() waits for completion
  Batch* batch_ = nullptr;
  std::size_t generation_ = 0;  // bumped per batch (guards address reuse)
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace stripack
