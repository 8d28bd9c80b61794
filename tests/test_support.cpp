#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "hpcgpt/support/error.hpp"
#include "hpcgpt/support/rng.hpp"
#include "hpcgpt/support/strings.hpp"
#include "hpcgpt/support/thread_pool.hpp"
#include "hpcgpt/support/timer.hpp"

namespace hpcgpt {
namespace {

// ---------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.next_below(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, NextIntInclusiveRange) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.next_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, GaussianMomentsRoughlyStandard) {
  Rng rng(13);
  double sum = 0;
  double sq = 0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.next_gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(99);
  Rng child = parent.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (parent() == child());
  EXPECT_LT(same, 3);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(21);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto copy = v;
  shuffle(copy, rng);
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, v);
}

TEST(Rng, ChoiceReturnsMember) {
  Rng rng(22);
  const std::vector<int> v{5, 6, 7};
  for (int i = 0; i < 50; ++i) {
    const int c = choice(v, rng);
    EXPECT_TRUE(c == 5 || c == 6 || c == 7);
  }
}

// ---------------------------------------------------------------- strings

TEST(Strings, SplitBasic) {
  const auto parts = strings::split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, SplitWhitespaceSkipsRuns) {
  const auto parts = strings::split_whitespace("  one\t two\nthree  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "two");
}

TEST(Strings, JoinRoundTrip) {
  const std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(strings::join(parts, ", "), "x, y, z");
  EXPECT_EQ(strings::join({}, ","), "");
}

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(strings::trim("  hi \n"), "hi");
  EXPECT_EQ(strings::trim("   "), "");
  EXPECT_EQ(strings::trim(""), "");
}

TEST(Strings, CasePredicates) {
  EXPECT_EQ(strings::to_lower("OpenMP"), "openmp");
  EXPECT_TRUE(strings::starts_with("#pragma omp", "#pragma"));
  EXPECT_FALSE(strings::starts_with("omp", "#pragma"));
  EXPECT_TRUE(strings::ends_with("file.cpp", ".cpp"));
  EXPECT_TRUE(strings::icontains("Data Race Detection", "race"));
  EXPECT_FALSE(strings::icontains("Data Race", "racer"));
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(strings::replace_all("aaa", "a", "bb"), "bbbbbb");
  EXPECT_EQ(strings::replace_all("no hits", "xyz", "!"), "no hits");
}

TEST(Strings, WordCount) {
  EXPECT_EQ(strings::word_count("the answer is more than ten words"), 7u);
  EXPECT_EQ(strings::word_count(""), 0u);
}

TEST(Strings, NormalizedWordsStripsPunctuation) {
  const auto words = strings::normalized_words("What, me? Worry!");
  ASSERT_EQ(words.size(), 3u);
  EXPECT_EQ(words[0], "what");
  EXPECT_EQ(words[1], "me");
  EXPECT_EQ(words[2], "worry");
}

// ---------------------------------------------------------------- errors

TEST(Error, RequireThrowsWithMessage) {
  EXPECT_NO_THROW(require(true, "ok"));
  try {
    require(false, "boom");
    FAIL() << "expected throw";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
}

TEST(Error, HierarchyCatchableAsBase) {
  EXPECT_THROW(throw ParseError("x"), Error);
  EXPECT_THROW(throw Unsupported("y"), Error);
}

// ---------------------------------------------------------------- pool

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  auto f = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

#ifdef __linux__
TEST(ThreadPool, DefaultSizeFollowsAffinityMask) {
  // Pinned to one CPU (as under `taskset -c N`), the calling thread may
  // use one core however many the host has, so a default-sized pool
  // starts one worker.
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int first = 0;
  while (first < CPU_SETSIZE && !CPU_ISSET(first, &saved)) ++first;
  ASSERT_LT(first, CPU_SETSIZE);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const std::size_t cores = usable_cores();
  const std::size_t workers = ThreadPool(0).size();
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(cores, 1u);
  EXPECT_EQ(workers, 1u);
}
#endif

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, 0, hits.size(),
               [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  parallel_for(pool, 5, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, PropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(parallel_for(pool, 0, 100,
                            [](std::size_t i) {
                              if (i == 37) throw ParseError("inner");
                            }),
               ParseError);
}

TEST(ParallelFor, NestedCallFromPoolWorkerNeverSelfDeadlocks) {
  // Pool-in-pool guard: a pool worker may issue parallel_for on its own
  // pool (a verify task on the global pool runs the analysis service's
  // per-function fan-out there). A nested call must run inline on the
  // calling worker (or on free workers) — if it ever re-queues behind
  // itself this test hangs and ctest's timeout flags the regression.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  parallel_for(pool, 0, 4, [&](std::size_t) {
    parallel_for(pool, 0, 8, [&](std::size_t) {
      parallel_for(pool, 0, 2, [&](std::size_t) { total.fetch_add(1); });
    });
  });
  EXPECT_EQ(total.load(), 4 * 8 * 2);
}

TEST(ParallelFor, NestedCallOnGlobalPoolFromWorkerTask) {
  // Same guard against the exact production shape: a task submitted to
  // the global pool (like the server's verify task) issuing parallel_for
  // on that same pool (like the analysis service's per-function fan-out).
  std::atomic<int> total{0};
  auto f = ThreadPool::global().submit([&] {
    parallel_for(0, 64, [&](std::size_t) { total.fetch_add(1); });
    return 0;
  });
  EXPECT_EQ(f.get(), 0);
  EXPECT_EQ(total.load(), 64);
}

TEST(ParallelFor, FirstChunkRunsOnCallingThread) {
  // Caller-runs: the calling thread takes chunk 0 of a pooled range
  // instead of idling (the serving scheduler prefills one fresh lane
  // itself); pool workers take the rest.
  ThreadPool pool(4);
  std::vector<std::thread::id> ran(8);
  parallel_for(pool, 0, ran.size(),
               [&](std::size_t i) { ran[i] = std::this_thread::get_id(); });
  const std::thread::id caller = std::this_thread::get_id();
  // Four chunks of two indices: chunk 0 is [0, 2).
  EXPECT_EQ(ran[0], caller);
  EXPECT_EQ(ran[1], caller);
  for (std::size_t i = 2; i < ran.size(); ++i) EXPECT_NE(ran[i], caller) << i;
}

/// Runs parallel_for over three indices on a three-worker pool (three
/// one-index chunks, chunk 0 on the calling thread). Chunk `thrower`
/// throws once the other two have started; they sleep before returning.
/// Returns how many of them had returned when the exception reached the
/// caller, or -1 when parallel_for did not throw.
int chunks_returned_at_rethrow(std::size_t thrower) {
  ThreadPool pool(3);
  std::atomic<int> started{0};
  std::atomic<int> returned{0};
  try {
    parallel_for(pool, 0, 3, [&](std::size_t i) {
      if (i == thrower) {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (started.load() < 2 &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
        throw ParseError("chunk");
      }
      started.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      returned.fetch_add(1);
    });
  } catch (const ParseError&) {
    return returned.load();
  }
  return -1;
}

TEST(ParallelFor, CallerChunkErrorSurfacesAfterPoolChunksReturn) {
  EXPECT_EQ(chunks_returned_at_rethrow(0), 2);
}

TEST(ParallelFor, PoolChunkErrorSurfacesAfterCallerChunkReturns) {
  EXPECT_EQ(chunks_returned_at_rethrow(2), 2);
}

TEST(ParallelFor, NestedCallInCallersChunkCompletes) {
  // The caller's chunk does not run on a pool worker, so a parallel_for
  // nested in it is chunked again rather than inlined. It must complete
  // however few workers serve both levels.
  for (const std::size_t workers : {1u, 2u}) {
    ThreadPool pool(workers);
    std::atomic<int> total{0};
    parallel_for(pool, 0, 4, [&](std::size_t) {
      parallel_for(pool, 0, 8, [&](std::size_t) { total.fetch_add(1); });
    });
    EXPECT_EQ(total.load(), 4 * 8) << workers << " workers";
  }
}

TEST(ParallelFor, GrainForcesInlineExecution) {
  ThreadPool pool(4);
  std::vector<int> hits(10, 0);  // no atomics: must run single-threaded
  parallel_for(pool, 0, hits.size(), [&](std::size_t i) { hits[i] = 1; },
               /*grain=*/100);
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(Timer, MeasuresForwardTime) {
  Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  EXPECT_GE(t.seconds(), 0.0);
  EXPECT_GE(t.millis(), t.seconds());  // ms value numerically larger
}

}  // namespace
}  // namespace hpcgpt
