#ifndef OVERGEN_SERVE_WORKER_H
#define OVERGEN_SERVE_WORKER_H

/**
 * @file
 * The worker side of the job server: a blocking read-execute-stream
 * loop a forked child runs over its coordinator pipes. A shard's jobs
 * run one at a time in job order (heartbeat, then the installed
 * JobHandler), and every row streams back as soon as it is computed —
 * so a crash loses only the in-flight job, never rows already
 * computed; a re-dispatch reruns that job from its start (see
 * serve/wire.h for the record grammar). The coordinator's process
 * pool is the parallelism; each worker is single-threaded.
 */

#include "serve/wire.h"

namespace overgen::serve {

/**
 * Serve shards from @p inFd until a "bye" record or EOF, writing
 * results to @p outFd. Every job is a @p handler call. @return the
 * process exit code: 0 on "bye" or EOF, 1 when the coordinator pipe
 * breaks, 2 on a coordinator record this worker cannot decode (named
 * on stderr). The caller (a forked child) must _exit() with it rather
 * than return through the parent's stack.
 */
int workerLoop(int inFd, int outFd, const JobHandler &handler);

} // namespace overgen::serve

#endif // OVERGEN_SERVE_WORKER_H
