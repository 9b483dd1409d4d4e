#ifndef OVERGEN_SERVE_WORKER_H
#define OVERGEN_SERVE_WORKER_H

/**
 * @file
 * The worker side of the job server: a blocking read-execute-stream
 * loop a forked child runs over its coordinator pipes. A shard's jobs
 * run one at a time in job order (heartbeat, then compile + first-fit
 * schedule + simulate for a Generate job, or the JobHandler for a
 * Match/Warm job), and every row streams back as soon as it is
 * computed — so a crash loses only the in-flight job, never rows
 * already computed; a re-dispatch reruns that job from cycle 0 (see
 * serve/wire.h for the record grammar). The coordinator's process
 * pool is the parallelism; each worker is single-threaded.
 */

#include "serve/wire.h"

namespace overgen::serve {

/** Worker execution knobs. Worker simulations run without a telemetry
 * sink. */
struct WorkerOptions
{
    /** Executor for Match/Warm jobs (see serve::JobHandler). Jobs of
     * those kinds fail with a diagnostic row when unset. */
    JobHandler handler;
};

/**
 * Execute one Generate job against @p design (compile, first-fit
 * schedule, simulate). Exposed for in-process reference runs: the
 * coordinator tests compare serveJobs() output against a loop of
 * runJob() calls. Match/Warm jobs go through the JobHandler instead.
 */
ResultRow runJob(const JobSpec &job, const adg::SysAdg &design,
                 const WorkerOptions &options = {});

/**
 * Serve shards from @p inFd until a "bye" record or EOF, writing
 * results to @p outFd. Each Generate job is a runJob() call. @return
 * the process exit code: 0 on "bye" or EOF, 1 when the coordinator
 * pipe breaks, 2 on a coordinator record this worker cannot decode
 * (named on stderr). The caller (a forked child) must _exit() with it
 * rather than return through the parent's stack.
 */
int workerLoop(int inFd, int outFd, const WorkerOptions &options = {});

} // namespace overgen::serve

#endif // OVERGEN_SERVE_WORKER_H
