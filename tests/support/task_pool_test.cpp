#include "support/task_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/diagnostics.hpp"

namespace rtlock::support {
namespace {

TEST(TaskPoolTest, ResolveThreadCountPassesExplicitValuesThrough) {
  EXPECT_EQ(resolveThreadCount(1), 1);
  EXPECT_EQ(resolveThreadCount(4), 4);
  EXPECT_EQ(resolveThreadCount(64), 64);
}

TEST(TaskPoolTest, ResolveThreadCountDefaultsToAtLeastOne) {
  EXPECT_GE(resolveThreadCount(0), 1);
  EXPECT_GE(resolveThreadCount(-3), 1);
}

TEST(TaskPoolTest, MapReturnsResultsInSubmissionOrder) {
  TaskPool pool{4};
  // Later tasks finish first (earlier submissions sleep longer), so a pool
  // that collected by completion order would return a reversed vector.
  const auto results = pool.map(16, [](std::size_t index) {
    std::this_thread::sleep_for(std::chrono::microseconds((16 - index) * 200));
    return index;
  });
  ASSERT_EQ(results.size(), 16u);
  for (std::size_t i = 0; i < results.size(); ++i) EXPECT_EQ(results[i], i);
}

TEST(TaskPoolTest, SingleThreadPoolRunsTasksInlineOnCallingThread) {
  TaskPool pool{1};
  EXPECT_EQ(pool.threadCount(), 1);
  const auto caller = std::this_thread::get_id();
  const auto ids =
      pool.map(8, [&](std::size_t) { return std::this_thread::get_id(); });
  for (const auto& id : ids) EXPECT_EQ(id, caller);
}

TEST(TaskPoolTest, MultiThreadPoolUsesWorkerThreads) {
  TaskPool pool{4};
  EXPECT_EQ(pool.threadCount(), 4);
  const auto caller = std::this_thread::get_id();
  const auto ids = pool.map(32, [&](std::size_t) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    return std::this_thread::get_id();
  });
  for (const auto& id : ids) EXPECT_NE(id, caller);
}

TEST(TaskPoolTest, ExceptionPropagatesFromWait) {
  TaskPool pool{4};
  EXPECT_THROW(pool.map(8,
                        [](std::size_t index) {
                          if (index == 5) throw std::runtime_error("task 5 failed");
                          return index;
                        }),
               std::runtime_error);
}

TEST(TaskPoolTest, FirstExceptionBySubmissionOrderWins) {
  for (const int threads : {1, 4}) {
    TaskPool pool{threads};
    try {
      pool.map(8, [](std::size_t index) {
        // Make the *later* submission fail first in wall-clock time; the
        // earlier submission's error must still win.
        if (index == 6) throw std::runtime_error("task 6");
        if (index == 2) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          throw std::runtime_error("task 2");
        }
        return index;
      });
      FAIL() << "expected a task exception (threads=" << threads << ")";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "task 2") << "threads=" << threads;
    }
  }
}

TEST(TaskPoolTest, InlinePoolDefersExceptionsToWait) {
  TaskPool pool{1};
  // submit() must not throw even though the task does; the error surfaces
  // at wait(), matching the threaded pool's contract.
  EXPECT_NO_THROW(pool.submit([] { throw std::runtime_error("deferred"); }));
  EXPECT_THROW(pool.wait(), std::runtime_error);
}

TEST(TaskPoolTest, PoolIsReusableAcrossBatches) {
  TaskPool pool{3};
  for (int batch = 0; batch < 5; ++batch) {
    const auto results =
        pool.map(10, [batch](std::size_t index) { return batch * 100 + static_cast<int>(index); });
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i], batch * 100 + static_cast<int>(i));
    }
  }
}

TEST(TaskPoolTest, PoolIsReusableAfterAFailedBatch) {
  TaskPool pool{3};
  EXPECT_THROW(pool.map(4, [](std::size_t) -> int { throw std::runtime_error("boom"); }),
               std::runtime_error);
  const auto results = pool.map(4, [](std::size_t index) { return index + 1; });
  ASSERT_EQ(results.size(), 4u);
  for (std::size_t i = 0; i < results.size(); ++i) EXPECT_EQ(results[i], i + 1);
}

TEST(TaskPoolTest, SubmitWaitApiTracksSubmissionIndices) {
  TaskPool pool{2};
  std::atomic<int> counter{0};
  EXPECT_EQ(pool.submit([&] { ++counter; }), 0u);
  EXPECT_EQ(pool.submit([&] { ++counter; }), 1u);
  EXPECT_EQ(pool.submit([&] { ++counter; }), 2u);
  pool.wait();
  EXPECT_EQ(counter.load(), 3);
  // Indices restart per batch after wait().
  EXPECT_EQ(pool.submit([&] { ++counter; }), 0u);
  pool.wait();
  EXPECT_EQ(counter.load(), 4);
}

TEST(TaskPoolTest, NullTaskIsRejected) {
  TaskPool pool{2};
  EXPECT_THROW(pool.submit(std::function<void()>{}), ContractViolation);
}

TEST(TaskPoolTest, StressTasksCompletingOutOfOrderStayOrdered) {
  TaskPool pool{8};
  std::atomic<std::size_t> completionStamp{0};
  constexpr std::size_t kTasks = 400;
  // Pseudo-random sleeps decorrelate completion order from submission
  // order; each task records when it finished.
  const auto stamps = pool.map(kTasks, [&](std::size_t index) {
    std::this_thread::sleep_for(std::chrono::microseconds((index * 7919) % 293));
    return completionStamp.fetch_add(1);
  });
  ASSERT_EQ(stamps.size(), kTasks);
  // Every stamp is present exactly once (no lost or duplicated slots)...
  std::vector<std::size_t> sorted = stamps;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(sorted[i], i);
  // ...and with 8 workers the completion order genuinely diverged from the
  // submission order somewhere, which is exactly what map() must hide.
  bool outOfOrder = false;
  for (std::size_t i = 1; i < kTasks && !outOfOrder; ++i) {
    outOfOrder = stamps[i] < stamps[i - 1];
  }
  EXPECT_TRUE(outOfOrder);
}

TEST(TaskPoolTest, MapWithZeroTasksReturnsEmpty) {
  TaskPool pool{4};
  const auto results = pool.map(0, [](std::size_t index) { return index; });
  EXPECT_TRUE(results.empty());
}

TEST(TaskPoolTest, DestructorDrainsOutstandingTasks) {
  std::atomic<int> counter{0};
  {
    TaskPool pool{4};
    for (int i = 0; i < 64; ++i) {
      pool.submit([&counter] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ++counter;
      });
    }
    // No wait(): the destructor must drain the queue before joining.
  }
  EXPECT_EQ(counter.load(), 64);
}

TEST(TaskPoolTrySubmitTest, InlinePoolAlwaysAcceptsAndRunsImmediately) {
  TaskPool pool{1, /*queueCapacity=*/1};
  EXPECT_EQ(pool.queueCapacity(), 1u);
  int ran = 0;
  // The serial path never queues, so capacity can never be exceeded: every
  // trySubmit accepts and the task has already run by the time it returns.
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(pool.trySubmit([&ran] { ++ran; }));
    EXPECT_EQ(ran, i + 1);
  }
  pool.wait();
}

TEST(TaskPoolTrySubmitTest, UnboundedPoolNeverRejects) {
  TaskPool pool{4};  // queueCapacity 0 = unbounded
  EXPECT_EQ(pool.queueCapacity(), 0u);
  std::atomic<int> ran{0};
  for (int i = 0; i < 256; ++i) {
    EXPECT_TRUE(pool.trySubmit([&ran] { ++ran; }));
  }
  pool.wait();
  EXPECT_EQ(ran.load(), 256);
}

TEST(TaskPoolTrySubmitTest, RejectsExactlyAtQueueCapacity) {
  TaskPool pool{2, /*queueCapacity=*/2};
  std::atomic<bool> release{false};
  std::atomic<int> started{0};
  std::atomic<int> ran{0};
  const auto blocker = [&] {
    ++started;
    while (!release.load()) std::this_thread::sleep_for(std::chrono::microseconds(50));
    ++ran;
  };
  // Occupy both workers, then wait until both blockers are *running* (off
  // the queue) so the capacity math below sees an empty queue.
  ASSERT_TRUE(pool.trySubmit(blocker));
  ASSERT_TRUE(pool.trySubmit(blocker));
  while (started.load() < 2) std::this_thread::sleep_for(std::chrono::microseconds(50));

  // Running tasks don't count toward capacity: two more fit in the queue...
  EXPECT_TRUE(pool.trySubmit([&ran] { ++ran; }));
  EXPECT_TRUE(pool.trySubmit([&ran] { ++ran; }));
  // ...and the next one is shed, repeatably, with no bookkeeping damage.
  EXPECT_FALSE(pool.trySubmit([&ran] { ++ran; }));
  EXPECT_FALSE(pool.trySubmit([&ran] { ++ran; }));

  release.store(true);
  pool.wait();
  EXPECT_EQ(ran.load(), 4);  // the two blockers + the two queued, none extra

  // After the drain the queue has room again.
  EXPECT_TRUE(pool.trySubmit([&ran] { ++ran; }));
  pool.wait();
  EXPECT_EQ(ran.load(), 5);
}

TEST(TaskPoolTrySubmitTest, SubmitAndMapIgnoreQueueCapacity) {
  TaskPool pool{2, /*queueCapacity=*/1};
  // Batch producers rely on unconditional enqueueing: submit()/map() must
  // accept far more tasks than the trySubmit bound.
  const auto results = pool.map(64, [](std::size_t index) { return index; });
  ASSERT_EQ(results.size(), 64u);
  for (std::size_t i = 0; i < results.size(); ++i) EXPECT_EQ(results[i], i);
}

TEST(TaskPoolTrySubmitTest, NullTaskIsRejected) {
  TaskPool pool{2, 4};
  EXPECT_THROW((void)pool.trySubmit(std::function<void()>{}), ContractViolation);
}

TEST(TaskPoolTrySubmitTest, FailingTrySubmitTaskSurfacesAtWait) {
  TaskPool pool{2, /*queueCapacity=*/8};
  ASSERT_TRUE(pool.trySubmit([] { throw std::runtime_error("shed me not"); }));
  EXPECT_THROW(pool.wait(), std::runtime_error);
  // The failure was consumed; the pool is reusable.
  std::atomic<int> ran{0};
  ASSERT_TRUE(pool.trySubmit([&ran] { ++ran; }));
  pool.wait();
  EXPECT_EQ(ran.load(), 1);
}

}  // namespace
}  // namespace rtlock::support
