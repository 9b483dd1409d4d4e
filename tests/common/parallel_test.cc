#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"

namespace overgen {
namespace {

TEST(ThreadPool, HardwareThreadsIsPositive)
{
    EXPECT_GE(ThreadPool::hardwareThreads(), 1);
}

TEST(ThreadPool, ZeroSelectsHardwareConcurrency)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.threadCount(), ThreadPool::hardwareThreads());
}

TEST(ThreadPool, SerialPoolRunsInline)
{
    // threads == 1 must execute on the calling thread (the legacy
    // serial path): thread-local state set by tasks is visible here.
    ThreadPool pool(1);
    EXPECT_EQ(pool.threadCount(), 1);
    std::thread::id caller = std::this_thread::get_id();
    std::vector<std::thread::id> seen(5);
    pool.parallelFor(5, [&](size_t i) {
        seen[i] = std::this_thread::get_id();
    });
    for (const auto &id : seen)
        EXPECT_EQ(id, caller);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    constexpr size_t n = 5000;
    // Each index is claimed by exactly one worker, so plain writes
    // are race-free; a double visit would show up as count 2.
    std::vector<int> hits(n, 0);
    pool.parallelFor(n, [&](size_t i) { hits[i] += 1; });
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i], 1) << "index " << i;
}

TEST(ThreadPool, EmptyAndSingletonRegions)
{
    ThreadPool pool(3);
    int calls = 0;
    pool.parallelFor(0, [&](size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    pool.parallelFor(1, [&](size_t i) {
        EXPECT_EQ(i, 0u);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, MapPreservesOrderUnderAdversarialDurations)
{
    // Early indices sleep longest, so completion order is roughly the
    // reverse of index order — the result vector must still be
    // index-ordered.
    ThreadPool pool(4);
    constexpr size_t n = 24;
    std::vector<uint64_t> out = pool.parallelMap(n, [](size_t i) {
        std::this_thread::sleep_for(
            std::chrono::microseconds((n - i) * 250));
        return static_cast<uint64_t>(i * i);
    });
    ASSERT_EQ(out.size(), n);
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, MapSupportsMoveOnlyResults)
{
    ThreadPool pool(2);
    auto out = pool.parallelMap(8, [](size_t i) {
        return std::make_unique<int>(static_cast<int>(i) + 1);
    });
    ASSERT_EQ(out.size(), 8u);
    for (size_t i = 0; i < out.size(); ++i) {
        ASSERT_NE(out[i], nullptr);
        EXPECT_EQ(*out[i], static_cast<int>(i) + 1);
    }
}

TEST(ThreadPool, ExceptionPropagatesFromWorker)
{
    ThreadPool pool(4);
    auto run = [&] {
        pool.parallelFor(16, [](size_t i) {
            if (i == 7)
                throw std::runtime_error("boom at 7");
        });
    };
    EXPECT_THROW(run(), std::runtime_error);
}

TEST(ThreadPool, LowestIndexExceptionWins)
{
    // When several tasks throw in one region, the rethrown exception
    // must be the lowest-index one — deterministic regardless of
    // which worker finished first.
    ThreadPool pool(4);
    for (int round = 0; round < 8; ++round) {
        std::string caught;
        try {
            pool.parallelFor(32, [](size_t i) {
                if (i == 3 || i == 19 || i == 30)
                    throw std::runtime_error(
                        "idx " + std::to_string(i));
            });
        } catch (const std::runtime_error &e) {
            caught = e.what();
        }
        EXPECT_EQ(caught, "idx 3");
    }
}

TEST(ThreadPool, SerialPathStopsAtFirstException)
{
    ThreadPool pool(1);
    int ran = 0;
    EXPECT_THROW(pool.parallelFor(10,
                                  [&](size_t i) {
                                      ++ran;
                                      if (i == 2)
                                          throw std::runtime_error(
                                              "stop");
                                  }),
                 std::runtime_error);
    EXPECT_EQ(ran, 3);  // 0, 1, then the throwing 2 — nothing after
}

TEST(ThreadPool, PoolIsReusableAfterException)
{
    ThreadPool pool(3);
    EXPECT_THROW(pool.parallelFor(
                     8, [](size_t) { throw std::runtime_error("x"); }),
                 std::runtime_error);
    std::atomic<int> sum{ 0 };
    pool.parallelFor(8, [&](size_t i) {
        sum.fetch_add(static_cast<int>(i));
    });
    EXPECT_EQ(sum.load(), 28);
}

TEST(ThreadPool, NestedDistinctPoolsCompose)
{
    // The explorer runs inside bench-level pool tasks; each builds its
    // own inner pool. Distinct pools may nest freely.
    ThreadPool outer(2);
    std::vector<uint64_t> out = outer.parallelMap(4, [](size_t i) {
        ThreadPool inner(2);
        std::atomic<uint64_t> sum{ 0 };
        inner.parallelFor(10, [&](size_t j) {
            sum.fetch_add(i * 100 + j);
        });
        return sum.load();
    });
    for (size_t i = 0; i < 4; ++i)
        EXPECT_EQ(out[i], i * 1000 + 45);
}

TEST(ThreadPoolDeathTest, NestedUseOfSamePoolIsFatal)
{
    EXPECT_DEATH(
        {
            ThreadPool pool(2);
            pool.parallelFor(2, [&pool](size_t) {
                pool.parallelFor(1, [](size_t) {});
            });
        },
        "nested parallelFor");
}

TEST(ThreadPool, LiveCountTracksPoolsWithWorkers)
{
    const int base = liveThreadPools();
    {
        ThreadPool serial(1);
        EXPECT_EQ(liveThreadPools(), base);  // inline pools never count
        ThreadPool two(2);
        EXPECT_EQ(liveThreadPools(), base + 1);
        {
            ThreadPool four(4);
            EXPECT_EQ(liveThreadPools(), base + 2);
        }
        EXPECT_EQ(liveThreadPools(), base + 1);
    }
    EXPECT_EQ(liveThreadPools(), base);
}

TEST(ThreadPool, StressManySmallRegions)
{
    // Back-to-back regions exercise the sleep/wake handshake; a lost
    // wakeup or a stale-job race shows up here (and under TSan).
    ThreadPool pool(4);
    uint64_t expected = 0;
    std::atomic<uint64_t> total{ 0 };
    for (int region = 0; region < 400; ++region) {
        size_t n = static_cast<size_t>(region % 7) + 1;
        pool.parallelFor(n, [&](size_t i) {
            total.fetch_add(i + 1);
        });
        expected += n * (n + 1) / 2;
    }
    EXPECT_EQ(total.load(), expected);
}

} // namespace
} // namespace overgen
