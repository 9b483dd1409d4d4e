#include "common/parallel.h"

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "common/logging.h"

namespace overgen {

namespace {

/**
 * The pool (if any) whose region this thread is currently executing
 * tasks for; used to catch the nested-use deadlock at the call site.
 */
thread_local const ThreadPool *tlsActivePool = nullptr;

/** Pools currently owning worker threads (see liveThreadPools). */
std::atomic<int> liveWorkerPools{ 0 };

/**
 * One parallel region. Indices are claimed from `cursor` in ascending
 * order and executed exactly once. `fn` and `errors` live on the
 * caller's stack: a worker that joins after the caller already left
 * the region sees an exhausted cursor and never dereferences them
 * (the shared_ptr only keeps this struct alive, not the caller's
 * frame).
 */
struct Job
{
    const std::function<void(size_t)> *fn = nullptr;
    size_t size = 0;
    std::atomic<size_t> cursor{ 0 };
    std::vector<std::exception_ptr> *errors = nullptr;
    std::mutex errorMutex;
};

void
drainJob(Job &job)
{
    while (true) {
        size_t i = job.cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= job.size)
            return;
        try {
            (*job.fn)(i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(job.errorMutex);
            (*job.errors)[i] = std::current_exception();
        }
    }
}

} // namespace

/** Worker threads parked between jobs; one job is live at a time. */
struct ThreadPool::Impl
{
    std::mutex stateMutex;
    std::condition_variable wake;
    std::condition_variable done;
    uint64_t generation = 0;  //!< bumped per job to wake workers
    bool shuttingDown = false;
    int busyWorkers = 0;
    std::shared_ptr<Job> current;

    std::mutex jobMutex;  //!< serializes concurrent parallelFor calls
    std::vector<std::thread> workers;

    void
    workerLoop(const ThreadPool *pool)
    {
        uint64_t seen = 0;
        while (true) {
            std::shared_ptr<Job> job;
            {
                std::unique_lock<std::mutex> lock(stateMutex);
                wake.wait(lock, [&] {
                    return shuttingDown || generation != seen;
                });
                if (shuttingDown)
                    return;
                seen = generation;
                job = current;
                ++busyWorkers;
            }
            tlsActivePool = pool;
            drainJob(*job);
            tlsActivePool = nullptr;
            {
                std::lock_guard<std::mutex> lock(stateMutex);
                if (--busyWorkers == 0)
                    done.notify_all();
            }
        }
    }
};

ThreadPool::ThreadPool(int threads)
{
    numThreads = threads == 0 ? hardwareThreads() : threads;
    OG_ASSERT(numThreads >= 1, "bad thread count ", threads);
    if (numThreads == 1)
        return;  // inline serial execution, no workers
    impl = new Impl;
    liveWorkerPools.fetch_add(1, std::memory_order_relaxed);
    impl->workers.reserve(numThreads - 1);
    for (int t = 0; t < numThreads - 1; ++t)
        impl->workers.emplace_back(
            [this] { impl->workerLoop(this); });
}

ThreadPool::~ThreadPool()
{
    if (impl == nullptr)
        return;
    {
        std::lock_guard<std::mutex> lock(impl->stateMutex);
        impl->shuttingDown = true;
    }
    impl->wake.notify_all();
    for (std::thread &worker : impl->workers)
        worker.join();
    delete impl;
    liveWorkerPools.fetch_sub(1, std::memory_order_relaxed);
}

int
liveThreadPools()
{
    return liveWorkerPools.load(std::memory_order_relaxed);
}

int
ThreadPool::hardwareThreads()
{
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
}

void
ThreadPool::parallelFor(size_t n,
                        const std::function<void(size_t)> &fn)
{
    OG_ASSERT(tlsActivePool != this,
              "nested parallelFor on the same ThreadPool (would "
              "deadlock); use a separate pool for inner parallelism");
    if (n == 0)
        return;
    runRegion(n, fn);
}

void
ThreadPool::runRegion(size_t n, const std::function<void(size_t)> &fn)
{
    std::vector<std::exception_ptr> errors(n);
    if (impl == nullptr || n == 1) {
        // Serial path: indices in ascending order on this thread,
        // stopping at the first failing task (its exception is the
        // lowest-index one by construction).
        const ThreadPool *saved = tlsActivePool;
        tlsActivePool = this;
        for (size_t i = 0; i < n; ++i) {
            try {
                fn(i);
            } catch (...) {
                errors[i] = std::current_exception();
                break;
            }
        }
        tlsActivePool = saved;
    } else {
        std::lock_guard<std::mutex> jobLock(impl->jobMutex);
        auto job = std::make_shared<Job>();
        job->fn = &fn;
        job->size = n;
        job->errors = &errors;
        {
            std::lock_guard<std::mutex> lock(impl->stateMutex);
            impl->current = job;
            ++impl->generation;
        }
        impl->wake.notify_all();
        const ThreadPool *saved = tlsActivePool;
        tlsActivePool = this;
        drainJob(*job);  // the caller works too
        tlsActivePool = saved;
        // Workers that joined this region incremented busyWorkers
        // under stateMutex before claiming any index; once the count
        // drops to zero no task of this region is still running, and
        // a worker waking later only ever sees an exhausted cursor.
        std::unique_lock<std::mutex> lock(impl->stateMutex);
        impl->done.wait(lock,
                        [&] { return impl->busyWorkers == 0; });
    }
    for (std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
}

} // namespace overgen
