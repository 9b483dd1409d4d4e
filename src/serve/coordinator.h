#ifndef OVERGEN_SERVE_COORDINATOR_H
#define OVERGEN_SERVE_COORDINATOR_H

/**
 * @file
 * The coordinator side of the overlay-generation job server: shard a
 * JobSet across a pool of forked worker processes, stream result rows
 * back over pipes, and survive worker crashes (see DESIGN.md "Serving
 * layer" for the retry state machine).
 *
 * Robustness: each shard has at most one attempt in flight.
 *  - worker crash (pipe EOF / SIGCHLD reap): the in-flight shard is
 *    re-queued with bounded backoff and a replacement worker forked;
 *  - attempts are capped at `maxAttempts` per shard; exhausted shards
 *    surface as not-ok rows with an "abandoned" diagnostic instead of
 *    hanging the batch.
 * There is no deadline: a worker that stays alive but stops answering
 * while it holds an attempt stalls run(). Job lengths range from
 * milliseconds to seconds, so no fixed deadline could tell a wedged
 * worker from a slow job.
 *
 * Row banking: workers stream rows as they finish (never only at
 * shard end), so the coordinator banks partial progress and a
 * re-dispatch carries only the jobs still missing rows. The job a
 * crashed worker was running reruns from cycle 0 on the replacement;
 * rows are a pure function of the job, so the merged output is
 * unchanged.
 *
 * Determinism: rows are stored by job index and serialized in index
 * order; row content is a pure function of the job descriptor, so
 * mergedJsonl() is byte-identical for any worker count and shard size
 * (tests/serve/coordinator_test.cc pins this).
 *
 * Worker lifetime: the workers belong to a WorkerPool and outlive a
 * single run. The pool forks up to `workers` processes at its first
 * run and reuses them for every later run; it also owns an append-only
 * design table, so each worker receives (and decodes) each design
 * once. Per-run state — shard tracks, the respawn budget, the
 * ServeSummary — starts fresh at every run(). At the end of a run a
 * worker still holding an attempt (its "done" still in flight, or a
 * misbehaving worker that sent its rows but never finished) gets
 * `shutdownGraceMs` to finish it, then is SIGKILLed and reaped, never
 * reused; at the start of a run, idle workers that died, stopped or
 * sent anything since the last run are reaped and replaced.
 * So no record from one run is ever applied to another.
 *
 * Worker records are outside input: a line that does not parse, an
 * unknown record type, an id that does not name the attempt the
 * worker holds (its shard, or a job of that shard), or a row for a job
 * that already has one is handled like a crash — the worker is killed
 * and reaped and its shard requeued within the respawn budget.
 *
 * Threading: the coordinator is strictly single-threaded (one poll()
 * loop), which keeps fork() safe — no locks can be held at fork time.
 * Run it before creating harness thread pools, or after they are
 * destroyed: every fork asserts that no ThreadPool owning worker
 * threads is alive (liveThreadPools() == 0).
 */

#include <functional>
#include <memory>
#include <string>
#include <sys/types.h>
#include <vector>

#include "serve/wire.h"

namespace overgen::telemetry {
class Sink;
} // namespace overgen::telemetry

namespace overgen::serve {

/** Coordinator knobs. */
struct CoordinatorOptions
{
    /** Worker processes to fork (clamped to the shard count). */
    int workers = 2;
    /** Jobs per shard (0 = the whole set as one shard). */
    size_t shardSize = 1;
    /** Total attempts per shard before it is abandoned. A re-queued
     * shard waits attempts * 25 ms before re-dispatch, and a worker
     * that dies holding an attempt is replaced within a budget of
     * shards * maxAttempts forks (see ServeSummary::respawns). */
    int maxAttempts = 3;
    /** Grace before SIGKILLing a lingering worker: one still holding
     * an attempt when a run ends, or one that ignores "bye" at pool
     * shutdown. */
    int shutdownGraceMs = 2000;
    /** Telemetry sink: serve/... counters land in its registry. */
    telemetry::Sink *sink = nullptr;
    /** Executor for Match/Warm jobs, inherited by every forked worker
     * (see serve::JobHandler). Fork preserves the closure, so install
     * it before the pool's first run; it must be fork-safe (no locks
     * held, no thread pools captured). */
    JobHandler handler;
    /**
     * Test/observability hook: called for every valid record a
     * worker sends, with the worker's pool index and pid. The
     * robustness tests use it to SIGKILL/SIGSTOP a worker mid-run; it
     * must not write to coordinator state.
     */
    std::function<void(const Json &record, int worker, pid_t pid)>
        onRecord;
};

/** Retry accounting for one run — the payload of the final
 * summary record. */
struct ServeSummary
{
    uint64_t jobs = 0;
    uint64_t shards = 0;
    uint64_t workersSpawned = 0;  //!< forks made during this run
    uint64_t respawns = 0;
    uint64_t retries = 0;     //!< re-dispatches after a crash
    uint64_t crashes = 0;     //!< workers that died with work in flight
    /** Always 0: a shard has one attempt at a time, and a repeated
     * row is a bad record (handled like a crash). Kept only because
     * the benchmark's request_trace still reads it; the next change
     * to the benchmark removes it. */
    uint64_t duplicates = 0;
    uint64_t heartbeats = 0;
    uint64_t abandoned = 0;   //!< jobs failed after maxAttempts
    bool ok = false;          //!< every job produced a real row
};

/** Everything one run produces. */
struct ServeOutcome
{
    /** One row per job, index-ordered (rows[i] is jobs[i]). */
    std::vector<ResultRow> rows;
    ServeSummary summary;

    /** The summary as a JSONL-ready record. */
    Json summaryJson() const;
};

/**
 * Forked workers, their pipes and their design table, kept across
 * runs (see the file comment). Single-threaded; not copyable. The
 * destructor shuts the pool down: "bye" to every worker, then
 * `shutdownGraceMs`, then SIGKILL, then reap — it leaves no child
 * behind.
 */
class WorkerPool
{
  public:
    explicit WorkerPool(CoordinatorOptions options = {});
    ~WorkerPool();
    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /**
     * Run every job of @p set on the pool's workers (forking only
     * those missing) and return the index-ordered rows plus this
     * run's retry accounting. Blocks until every job has a row
     * (real or abandoned); on return no worker holds an attempt.
     */
    ServeOutcome run(const JobSet &set);

    /** Pids of the live workers, all idle between runs. */
    std::vector<pid_t> workerPids() const;

  private:
    class Impl;
    std::unique_ptr<Impl> impl;
};

/**
 * One-shot serving: construct a WorkerPool, run @p set once, shut the
 * pool down. Returns once every worker is reaped.
 */
ServeOutcome serveJobs(const JobSet &set,
                       const CoordinatorOptions &options = {});

} // namespace overgen::serve

#endif // OVERGEN_SERVE_COORDINATOR_H
