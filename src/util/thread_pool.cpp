#include "util/thread_pool.hpp"

#include <algorithm>

namespace stripack {

ThreadPool::ThreadPool(unsigned workers) {
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  threads_.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::drain(Batch& batch, std::unique_lock<std::mutex>& lock) {
  while (batch.next < batch.total) {
    const std::size_t ci = batch.next++;
    lock.unlock();
    const std::size_t begin = ci * batch.chunk;
    const std::size_t end = std::min(batch.n, begin + batch.chunk);
    std::exception_ptr error;
    try {
      for (std::size_t i = begin; i < end; ++i) (*batch.fn)(i);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (error) batch.errors.push_back({ci, std::move(error)});
    ++batch.done;
  }
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  std::size_t seen = 0;  // generation of the last batch this worker joined
  while (true) {
    wake_.wait(lock, [&] {
      return stop_ || (batch_ != nullptr && generation_ != seen);
    });
    if (stop_) return;
    seen = generation_;
    Batch& batch = *batch_;
    drain(batch, lock);
    if (batch.done == batch.total) {
      // Last chunk done (possibly by this worker): release run().
      finished_.notify_all();
    }
  }
}

void ThreadPool::run(std::size_t n,
                     const std::function<void(std::size_t)>& fn,
                     std::size_t parts) {
  if (n == 0) return;
  if (parts == 0) parts = threads_.size() + 1;
  parts = std::min(parts, n);
  if (parts <= 1 || threads_.empty()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  Batch batch;
  batch.n = n;
  batch.chunk = (n + parts - 1) / parts;
  batch.total = (n + batch.chunk - 1) / batch.chunk;
  batch.fn = &fn;

  std::unique_lock<std::mutex> lock(mutex_);
  batch_ = &batch;
  ++generation_;
  wake_.notify_all();
  drain(batch, lock);  // the caller participates
  finished_.wait(lock, [&batch] { return batch.done == batch.total; });
  batch_ = nullptr;
  if (!batch.errors.empty()) {
    // Deterministic choice: the error from the lowest chunk index.
    auto lowest = std::min_element(
        batch.errors.begin(), batch.errors.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    std::exception_ptr error = std::move(lowest->second);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

}  // namespace stripack
