// util::ThreadPool: every index runs exactly once across reused calls,
// chunks start in increasing index order, and the lowest-chunk exception
// is the one rethrown. The service's class pipelines run on this pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
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

TEST(ThreadPoolTest, StartsChunksInIndexOrder) {
  // Caller plus one worker, one chunk per index. Each chunk takes a start
  // ticket, then waits for its turn: with two threads, the two chunks in
  // flight must always include the lowest unfinished index, or both wait
  // forever (caught by the deadline). Chunk 0 also waits for chunk 1 to
  // start, so the two threads must share the first chunks rather than one
  // of them owning a contiguous block. The service's heaviest-first
  // dispatch relies on this claim order.
  ThreadPool pool(1);
  constexpr std::size_t kChunks = 64;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  const auto wait_until = [&](const auto& ready) {
    while (!ready()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::yield();
    }
    return true;
  };
  std::atomic<std::size_t> tickets{0};
  std::atomic<std::size_t> turn{0};
  std::atomic<bool> stuck{false};
  std::vector<std::size_t> ticket(kChunks, kChunks);
  std::vector<std::size_t> finished;
  pool.run(
      kChunks,
      [&](std::size_t i) {
        ticket[i] = tickets.fetch_add(1);
        if (i == 0 && !wait_until([&] { return tickets.load() >= 2; })) {
          stuck = true;
        }
        if (!wait_until([&] { return stuck.load() || turn.load() == i; })) {
          stuck = true;
        }
        if (stuck.load()) return;
        finished.push_back(i);
        turn.store(i + 1);
      },
      kChunks);
  ASSERT_FALSE(stuck.load()) << "a chunk started before a lower one";
  ASSERT_EQ(finished.size(), kChunks);
  for (std::size_t i = 0; i < kChunks; ++i) {
    EXPECT_EQ(finished[i], i);
    // Two threads: a chunk's ticket is within one of its index.
    EXPECT_LE(ticket[i], i + 1) << "chunk " << i;
    EXPECT_GE(ticket[i] + 1, i) << "chunk " << i;
  }
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
