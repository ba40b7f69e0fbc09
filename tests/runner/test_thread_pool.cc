/**
 * @file
 * Tests for the work-stealing thread pool.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runner/thread_pool.hh"

namespace act
{
namespace
{

TEST(WorkStealingPool, RunsEveryTask)
{
    WorkStealingPool pool(4);
    std::atomic<int> counter{0};
    for (int i = 0; i < 1000; ++i)
        pool.submit([&counter] { counter.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(counter.load(), 1000);
}

TEST(WorkStealingPool, SingleThreadPoolStillCompletes)
{
    WorkStealingPool pool(1);
    std::atomic<int> counter{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&counter] { counter.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(counter.load(), 100);
    EXPECT_EQ(pool.threadCount(), 1u);
}

TEST(WorkStealingPool, WaitIsReusable)
{
    WorkStealingPool pool(2);
    std::atomic<int> counter{0};
    pool.submit([&counter] { counter.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(counter.load(), 1);
    for (int i = 0; i < 50; ++i)
        pool.submit([&counter] { counter.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(counter.load(), 51);
}

TEST(WorkStealingPool, WaitWithNoTasksReturnsImmediately)
{
    WorkStealingPool pool(3);
    pool.wait();
    SUCCEED();
}

TEST(WorkStealingPool, UsesMultipleWorkers)
{
    WorkStealingPool pool(4);
    std::mutex mutex;
    std::set<std::thread::id> seen;
    std::atomic<int> gate{0};
    const auto distinct = [&] {
        std::lock_guard<std::mutex> lock(mutex);
        return seen.size();
    };
    for (int i = 0; i < 64; ++i) {
        pool.submit([&] {
            {
                std::lock_guard<std::mutex> lock(mutex);
                seen.insert(std::this_thread::get_id());
            }
            // A little real work so tasks overlap in time.
            gate.fetch_add(1);
            while (gate.load() < 4 && distinct() < 2)
                std::this_thread::yield();
        });
    }
    pool.wait();
    EXPECT_GE(seen.size(), 2u);
}

TEST(WorkStealingPool, TasksSubmittedFromWorkersRun)
{
    WorkStealingPool pool(4);
    std::atomic<int> counter{0};
    for (int i = 0; i < 8; ++i) {
        pool.submit([&pool, &counter] {
            // Fan out a second generation from inside a worker; these
            // land on the worker's own deque and may be stolen.
            for (int j = 0; j < 10; ++j)
                pool.submit([&counter] { counter.fetch_add(1); });
        });
    }
    pool.wait();
    EXPECT_EQ(counter.load(), 80);
}

TEST(WorkStealingPool, DestructorDrainsOutstandingTasks)
{
    std::atomic<int> counter{0};
    {
        WorkStealingPool pool(2);
        for (int i = 0; i < 200; ++i)
            pool.submit([&counter] { counter.fetch_add(1); });
        // No wait(): the destructor must drain before joining.
    }
    EXPECT_EQ(counter.load(), 200);
}

TEST(WorkStealingPool, DestructorNeverLosesItsStopWakeup)
{
    // The destructor's stop notify must reach a worker that is between
    // its wait-predicate check and its wait; a lost one hangs the join.
    // The window is narrow, so the cycle repeats many times, on a
    // helper thread watched against a deadline.
    constexpr int kCycles = 50000;
    std::promise<void> done;
    std::future<void> finished = done.get_future();
    std::thread cycles([&done] {
        for (int i = 0; i < kCycles; ++i) {
            WorkStealingPool pool(2);
            pool.submit([] {});
        }
        done.set_value();
    });
    if (finished.wait_for(std::chrono::minutes(5)) !=
        std::future_status::ready) {
        // The helper is stuck in a join that never returns, so it can
        // be neither joined nor destroyed: end the process with the
        // failure instead of hanging the suite.
        ADD_FAILURE() << "a pool destructor hung within " << kCycles
                      << " cycles";
        std::fflush(stdout);
        std::_Exit(EXIT_FAILURE);
    }
    cycles.join();
}

TEST(WorkStealingPool, ZeroMeansHardwareConcurrency)
{
    WorkStealingPool pool(0);
    EXPECT_GE(pool.threadCount(), 1u);
}

TEST(WorkStealingPool, ThrowingTaskDoesNotTerminateTheProcess)
{
    WorkStealingPool pool(2);
    std::atomic<int> counter{0};
    for (int i = 0; i < 100; ++i) {
        if (i == 37) {
            pool.submit([] { throw std::runtime_error("task 37 died"); });
        } else {
            pool.submit([&counter] { counter.fetch_add(1); });
        }
    }
    pool.wait();
    // Every non-throwing task still ran; the failure is data, not death.
    EXPECT_EQ(counter.load(), 99);
    EXPECT_EQ(pool.exceptionCount(), 1u);
    EXPECT_EQ(pool.firstExceptionMessage(), "task 37 died");
}

TEST(WorkStealingPool, NonStdExceptionIsAbsorbedToo)
{
    WorkStealingPool pool(1);
    pool.submit([] { throw 42; });
    pool.wait();
    EXPECT_EQ(pool.exceptionCount(), 1u);
    EXPECT_EQ(pool.firstExceptionMessage(), "unknown exception");
}

TEST(WorkStealingPool, HelpExecutePathAbsorbsExceptions)
{
    // wait() called from a worker thread executes tasks inline; a
    // throwing task on that path must be absorbed just the same.
    WorkStealingPool pool(2);
    std::atomic<int> counter{0};
    pool.submit([&pool, &counter] {
        for (int i = 0; i < 4; ++i)
            pool.submit([&counter, i] {
                if (i == 1)
                    throw std::runtime_error("inner");
                counter.fetch_add(1);
            });
        pool.wait(); // help-execute from inside the worker
    });
    pool.wait();
    EXPECT_EQ(counter.load(), 3);
    EXPECT_EQ(pool.exceptionCount(), 1u);
}

} // namespace
} // namespace act
