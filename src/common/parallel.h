#ifndef OVERGEN_COMMON_PARALLEL_H
#define OVERGEN_COMMON_PARALLEL_H

/**
 * @file
 * A fixed-size work pool with deterministic result ordering, used by
 * the DSE's batched speculative candidate evaluation and the bench
 * harnesses' per-suite/per-kernel fan-out.
 *
 * Determinism contract (see DESIGN.md "Determinism under
 * parallelism"): `parallelFor(n, fn)` runs `fn(0) .. fn(n-1)` with
 * each index executed exactly once, and `parallelMap` stores every
 * result at its own index — so the *value* of a parallel region never
 * depends on the thread count or on scheduling order, only the
 * wall-clock does. Tasks must not communicate with each other; any
 * shared state they touch must be externally synchronized.
 *
 * Exception contract: if tasks throw, the exception of the
 * lowest-index throwing task is rethrown in the caller once the
 * region completes (indices are claimed in ascending order, so the
 * lowest throwing index always executes before the region is torn
 * down). Whether tasks after a throwing one still run is unspecified.
 *
 * A pool constructed with one thread runs every region inline on the
 * calling thread — the legacy serial path, with no worker threads at
 * all. Nested use of the *same* pool from inside one of its own tasks
 * would deadlock and is a fatal assertion; distinct pools may nest.
 */

#include <cstddef>
#include <exception>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

namespace overgen {

/** See file comment. */
class ThreadPool
{
  public:
    /**
     * @param threads worker count; 0 selects hardwareThreads(). A
     * count of 1 never spawns threads (inline serial execution).
     */
    explicit ThreadPool(int threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** @return the resolved thread count (>= 1). */
    int threadCount() const { return numThreads; }

    /**
     * Run fn(i) for every i in [0, n), blocking until all complete.
     * The calling thread participates in the work. Rethrows the
     * lowest-index task exception, if any.
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &fn);

    /**
     * Map [0, n) through @p fn, returning results in index order
     * regardless of completion order.
     */
    template <typename Fn>
    auto
    parallelMap(size_t n, Fn &&fn)
        -> std::vector<std::invoke_result_t<Fn &, size_t>>
    {
        using T = std::invoke_result_t<Fn &, size_t>;
        std::vector<std::optional<T>> slots(n);
        parallelFor(n, [&](size_t i) { slots[i].emplace(fn(i)); });
        std::vector<T> results;
        results.reserve(n);
        for (auto &slot : slots)
            results.push_back(std::move(*slot));
        return results;
    }

    /** @return the machine's hardware concurrency (>= 1). */
    static int hardwareThreads();

  private:
    struct Impl;  //!< worker threads + job state (none when serial)
    void runRegion(size_t n, const std::function<void(size_t)> &fn);

    int numThreads = 1;
    Impl *impl = nullptr;
};

/**
 * @return the number of ThreadPools in this process that currently
 * own worker threads (pools of one thread run inline and never
 * count). Forking while this is nonzero is unsafe: the child inherits
 * the pool's locks but none of its workers.
 */
int liveThreadPools();

} // namespace overgen

#endif // OVERGEN_COMMON_PARALLEL_H
