// Unit tests for src/util: glob matching, string interning, thread
// pool.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <numeric>
#include <thread>

#include "util/error.h"
#include "util/glob.h"
#include "util/intern.h"
#include "util/thread_pool.h"

namespace mm {
namespace {

// --- glob --------------------------------------------------------------------

TEST(Glob, ExactMatch) {
  EXPECT_TRUE(glob_match("clk1", "clk1"));
  EXPECT_FALSE(glob_match("clk1", "clk2"));
  EXPECT_FALSE(glob_match("clk", "clk1"));
  EXPECT_FALSE(glob_match("clk1", "clk"));
}

TEST(Glob, Star) {
  EXPECT_TRUE(glob_match("clk*", "clk1"));
  EXPECT_TRUE(glob_match("clk*", "clk"));
  EXPECT_TRUE(glob_match("*", "anything"));
  EXPECT_TRUE(glob_match("*", ""));
  EXPECT_TRUE(glob_match("r*/Q", "r123/Q"));
  EXPECT_FALSE(glob_match("r*/Q", "r123/D"));
  EXPECT_TRUE(glob_match("*mid*", "has_mid_inside"));
  EXPECT_FALSE(glob_match("*mid*", "nothing"));
}

TEST(Glob, Question) {
  EXPECT_TRUE(glob_match("clk?", "clk1"));
  EXPECT_FALSE(glob_match("clk?", "clk"));
  EXPECT_FALSE(glob_match("clk?", "clk12"));
  EXPECT_TRUE(glob_match("?", "x"));
}

TEST(Glob, StarBacktracking) {
  EXPECT_TRUE(glob_match("a*b*c", "a_x_b_y_c"));
  EXPECT_TRUE(glob_match("a*b*c", "abbc"));
  EXPECT_FALSE(glob_match("a*b*c", "acb"));
  EXPECT_TRUE(glob_match("**", "x"));
  EXPECT_TRUE(glob_match("a*", "a"));
}

TEST(Glob, IsGlob) {
  EXPECT_TRUE(is_glob("clk*"));
  EXPECT_TRUE(is_glob("clk?"));
  EXPECT_FALSE(is_glob("clk1"));
  EXPECT_FALSE(is_glob(""));
}

// --- intern ------------------------------------------------------------------

TEST(StringPool, InternReturnsSameSymbol) {
  StringPool pool;
  const Symbol a = pool.intern("hello");
  const Symbol b = pool.intern("hello");
  EXPECT_EQ(a, b);
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(pool.str(a), "hello");
}

TEST(StringPool, DistinctStringsDistinctSymbols) {
  StringPool pool;
  const Symbol a = pool.intern("a");
  const Symbol b = pool.intern("b");
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.size(), 2u);
}

TEST(StringPool, EmptyStringIsInvalid) {
  StringPool pool;
  EXPECT_FALSE(pool.intern("").valid());
  EXPECT_FALSE(pool.find("").valid());
}

TEST(StringPool, FindDoesNotIntern) {
  StringPool pool;
  EXPECT_FALSE(pool.find("missing").valid());
  EXPECT_EQ(pool.size(), 0u);
  pool.intern("present");
  EXPECT_TRUE(pool.find("present").valid());
}

TEST(StringPool, StableAcrossGrowth) {
  StringPool pool;
  std::vector<Symbol> syms;
  for (int i = 0; i < 1000; ++i) {
    syms.push_back(pool.intern("name" + std::to_string(i)));
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(pool.str(syms[i]), "name" + std::to_string(i));
    EXPECT_EQ(pool.find("name" + std::to_string(i)), syms[i]);
  }
}

// --- thread pool --------------------------------------------------------------

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::vector<int> hits(10000, 0);
  pool.parallel_for(hits.size(), [&](size_t i) { hits[i]++; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 10000);
}

TEST(ThreadPool, ParallelForZeroAndOne) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for(0, [&](size_t) { count++; });
  EXPECT_EQ(count.load(), 0);
  pool.parallel_for(1, [&](size_t) { count++; });
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, ExceptionPropagates) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](size_t i) {
                          if (i == 57) throw Error("boom");
                        }),
      Error);
}

TEST(ThreadPool, ReusableAfterException) {
  ThreadPool pool(2);
  try {
    pool.parallel_for(10, [&](size_t) { throw Error("x"); });
  } catch (const Error&) {
  }
  std::atomic<int> count{0};
  pool.parallel_for(50, [&](size_t) { count++; });
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, SingleThreadFallback) {
  ThreadPool pool(1);
  std::vector<int> order;
  pool.parallel_for(5, [&](size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, GrainedParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  pool.parallel_for(hits.size(), /*min_grain=*/64,
                    [&](size_t i) { hits[i]++; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000);
}

// Thousands of back-to-back tiny loops: a chunk that signals completion
// must never touch the caller's frame after the caller has returned and
// reused that stack for the next call. Every fifth loop throws from one
// of its chunks, so the error path is raced the same way.
TEST(ThreadPool, BackToBackTinyLoopsStress) {
  ThreadPool pool(4);
  size_t total = 0;
  size_t thrown = 0;
  for (size_t round = 0; round < 5000; ++round) {
    const size_t count = 2 + round % 7;
    const bool throws = round % 5 == 0;
    std::vector<uint8_t> hits(count, 0);
    try {
      pool.parallel_for(count, [&](size_t i) {
        hits[i] = 1;
        if (throws && i == count / 2) throw Error("stress");
      });
    } catch (const Error&) {
      ++thrown;
    }
    if (!throws) total += std::accumulate(hits.begin(), hits.end(), size_t{0});
  }
  EXPECT_EQ(thrown, 1000u);
  size_t expected = 0;
  for (size_t round = 0; round < 5000; ++round) {
    if (round % 5 != 0) expected += 2 + round % 7;
  }
  EXPECT_EQ(total, expected);
}

TEST(ThreadPool, GrainAtLeastCountRunsInline) {
  ThreadPool pool(4);
  std::vector<int> order;  // unsynchronized: only safe because inline
  pool.parallel_for(7, /*min_grain=*/16,
                    [&](size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
}

// --- nested parallel_for -------------------------------------------------------

/// Run `body` on a thread of its own and wait for it at most `limit`. A
/// body still running then is taken for a deadlocked pool: the test binary
/// exits with a failure, since a deadlocked thread can be neither joined
/// nor safely abandoned. An exception from `body` is rethrown here.
void run_within(std::chrono::seconds limit, const std::function<void()>& body) {
  std::promise<void> done;
  std::future<void> finished = done.get_future();
  std::thread runner([&] {
    try {
      body();
      done.set_value();
    } catch (...) {
      done.set_exception(std::current_exception());
    }
  });
  if (finished.wait_for(limit) != std::future_status::ready) {
    std::fprintf(stderr, "nested parallel_for did not finish in %lld s\n",
                 static_cast<long long>(limit.count()));
    std::_Exit(1);
  }
  runner.join();
  finished.get();
}

// Every outer task runs an inner parallel_for on the same 2-thread pool, so
// both workers wait inside outer tasks while the inner chunks are queued:
// the waiting callers must run their own chunks.
TEST(ThreadPool, NestedParallelForCompletes) {
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 50;
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  run_within(std::chrono::seconds(30), [&] {
    pool.parallel_for(kOuter, [&](size_t o) {
      pool.parallel_for(kInner, [&](size_t i) { hits[o * kInner + i]++; });
    });
  });
  for (size_t k = 0; k < hits.size(); ++k) {
    EXPECT_EQ(hits[k].load(), 1) << "index " << k;
  }
}

TEST(ThreadPool, NestedParallelForPropagatesInnerException) {
  ThreadPool pool(2);
  EXPECT_THROW(run_within(std::chrono::seconds(30),
                          [&] {
                            pool.parallel_for(6, [&](size_t o) {
                              pool.parallel_for(40, [&](size_t i) {
                                if (o == 3 && i == 17) throw Error("inner");
                              });
                            });
                          }),
               Error);
  // The pool is still usable.
  std::atomic<int> count{0};
  pool.parallel_for(20, [&](size_t) { count++; });
  EXPECT_EQ(count.load(), 20);
}

// Utilisation: every chunk counts, and a nested chunk's time lies inside
// its outer chunk's, so busy time never exceeds threads x wall time.
TEST(ThreadPool, CountsChunksAndBusyTimeOnce) {
  ThreadPool inline_pool(1);
  inline_pool.parallel_for(5, [](size_t) {});
  EXPECT_EQ(inline_pool.chunks_run(), 1u);  // one inline loop

  ThreadPool pool(2);
  const auto start = std::chrono::steady_clock::now();
  pool.parallel_for(1, [&](size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    pool.parallel_for(1, [](size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    });
  });
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  EXPECT_EQ(pool.chunks_run(), 2u);
  EXPECT_GE(pool.busy_seconds(), 0.04);
  EXPECT_LE(pool.busy_seconds(), wall);
}

}  // namespace
}  // namespace mm
