// util::ThreadPool: every index runs exactly once across reused calls,
// and the lowest-chunk exception is the one rethrown. The service's class
// pipelines run on this pool.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/thread_pool.hpp"

namespace stripack {
namespace {

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.workers(), 3u);
  std::vector<std::atomic<int>> hits(257);
  pool.run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // Reuse across calls (the point of pooling) and the serial small-n path.
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.run(17, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 50 * 17);
}

TEST(ThreadPoolTest, RethrowsTheLowestChunkError) {
  ThreadPool pool(4);
  try {
    pool.run(
        100,
        [&](std::size_t i) {
          if (i % 25 == 3) throw std::runtime_error("i=" + std::to_string(i));
        },
        25);  // chunks of 4: throws at i = 3, 28, 53, 78
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "i=3");
  }
}

}  // namespace
}  // namespace stripack
