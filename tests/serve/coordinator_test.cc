/**
 * @file
 * Coordinator contract tests: byte-identical merged output across
 * worker counts and shard sizes, and full completion under worker
 * crashes and stragglers with exact retry accounting.
 */

#include "serve/coordinator.h"

#include <signal.h>

#include <gtest/gtest.h>

#include "adg/builders.h"
#include "common/parallel.h"
#include "serve/worker.h"

using namespace overgen;
using namespace overgen::serve;

namespace {

adg::SysAdg
testDesign()
{
    adg::SysAdg design;
    design.adg = adg::buildGeneralOverlayTile();
    design.sys.numTiles = 4;
    design.sys.l2Banks = 4;
    design.sys.l2CapacityKiB = 512;
    design.sys.nocBytes = 32;
    return design;
}

/** Eight shrunken jobs on one interned design. With @p slowFirst,
 * job 0 is a full-size gemm (~200 ms of simulation): the fault-
 * injection tests freeze or kill the worker holding it, and the slow
 * job keeps the injection race-free — the coordinator reacts to the
 * heartbeat long before the shard could finish. */
JobSet
testJobs(bool slowFirst = false)
{
    JobSet set;
    int id = set.addDesign(testDesign());
    if (slowFirst)
        set.addJob("gemm", id, /*applyTuning=*/true,
                   /*smallSize=*/false);
    for (const char *name :
         { "fir", "mm", "accumulate", "vecmax", "blur", "bgr2grey",
           "convert-bit", "acc-sqr" }) {
        if (slowFirst && set.jobs.size() == 8)
            break;  // keep the set at eight jobs (two 4-job shards)
        set.addJob(name, id, /*applyTuning=*/true, /*smallSize=*/true);
    }
    return set;
}

/** The in-process ground truth the server must reproduce. */
std::string
referenceJsonl(const JobSet &set)
{
    adg::SysAdg design = testDesign();
    std::vector<ResultRow> rows;
    for (const JobSpec &job : set.jobs)
        rows.push_back(runJob(job, design));
    return mergedJsonl(set, rows);
}

} // namespace

TEST(Coordinator, MergedOutputIsByteIdenticalAcrossConfigs)
{
    JobSet set = testJobs();
    std::string reference = referenceJsonl(set);
    ASSERT_FALSE(reference.empty());

    struct Config
    {
        int workers;
        size_t shardSize;
    };
    // Covers 1/2/4 workers and shard sizes 1, 4, and "everything".
    for (Config config : { Config{ 1, 0 }, Config{ 2, 1 },
                           Config{ 4, 4 }, Config{ 4, 1 } }) {
        CoordinatorOptions options;
        options.workers = config.workers;
        options.shardSize = config.shardSize;
        ServeOutcome outcome = serveJobs(set, options);
        EXPECT_TRUE(outcome.summary.ok)
            << config.workers << " workers, shard size "
            << config.shardSize;
        EXPECT_EQ(outcome.summary.jobs, set.jobs.size());
        EXPECT_EQ(outcome.summary.abandoned, 0u);
        EXPECT_EQ(mergedJsonl(set, outcome.rows), reference)
            << config.workers << " workers, shard size "
            << config.shardSize;
    }
}

TEST(Coordinator, EmptyJobSetCompletesImmediately)
{
    JobSet set;
    ServeOutcome outcome = serveJobs(set);
    EXPECT_TRUE(outcome.summary.ok);
    EXPECT_TRUE(outcome.rows.empty());
    EXPECT_EQ(outcome.summary.workersSpawned, 0u);
}

TEST(Coordinator, SigkilledWorkerIsRespawnedAndItsShardRetried)
{
    JobSet set = testJobs(/*slowFirst=*/true);
    std::string reference = referenceJsonl(set);

    CoordinatorOptions options;
    options.workers = 2;
    options.shardSize = 4;  // 8 jobs -> 2 shards, one per worker
    bool killed = false;
    // Kill the worker holding shard 0 at its first heartbeat: the
    // heartbeat precedes the job's prepare, and job 0 runs ~200 ms,
    // so the shard is guaranteed in flight with no rows buffered.
    options.onRecord = [&](const Json &record, int, pid_t pid) {
        if (!killed && record.at("t").asString() == "hb" &&
            record.at("shard").asInt() == 0) {
            ::kill(pid, SIGKILL);
            killed = true;
        }
    };
    ServeOutcome outcome = serveJobs(set, options);
    ASSERT_TRUE(killed);
    EXPECT_TRUE(outcome.summary.ok);
    EXPECT_EQ(mergedJsonl(set, outcome.rows), reference);
    // Exact accounting: one crash, one respawn, one re-dispatch, and
    // nothing else went wrong.
    EXPECT_EQ(outcome.summary.crashes, 1u);
    EXPECT_EQ(outcome.summary.respawns, 1u);
    EXPECT_EQ(outcome.summary.retries, 1u);
    EXPECT_EQ(outcome.summary.timeouts, 0u);
    EXPECT_EQ(outcome.summary.duplicates, 0u);
    EXPECT_EQ(outcome.summary.abandoned, 0u);
    EXPECT_EQ(outcome.summary.workersSpawned, 3u);
}

TEST(Coordinator, StragglerDeadlineRedispatchesTheShard)
{
    JobSet set = testJobs(/*slowFirst=*/true);
    std::string reference = referenceJsonl(set);

    CoordinatorOptions options;
    options.workers = 2;
    options.shardSize = 1;
    options.deadlineMs = 400;
    options.backoffMs = 5;
    options.shutdownGraceMs = 200;
    pid_t stopped = -1;
    // Freeze the worker holding the slow shard 0 at its heartbeat
    // (sent before the ~200 ms job starts, so the freeze always wins
    // the race): the shard must get a duplicate attempt on the other
    // worker after the deadline.
    options.onRecord = [&](const Json &record, int, pid_t pid) {
        if (stopped < 0 && record.at("t").asString() == "hb" &&
            record.at("shard").asInt() == 0) {
            ::kill(pid, SIGSTOP);
            stopped = pid;
        }
    };
    ServeOutcome outcome = serveJobs(set, options);
    ASSERT_GT(stopped, 0);
    EXPECT_TRUE(outcome.summary.ok);
    EXPECT_EQ(mergedJsonl(set, outcome.rows), reference);
    EXPECT_GE(outcome.summary.timeouts, 1u);
    EXPECT_GE(outcome.summary.retries, 1u);
    EXPECT_EQ(outcome.summary.abandoned, 0u);
    // The frozen worker never produced rows, so nothing raced: the
    // duplicate attempt's rows were all first arrivals. It is
    // SIGKILLed during shutdown, after its shard completed elsewhere,
    // so it does not count as a mid-work crash.
    EXPECT_EQ(outcome.summary.duplicates, 0u);
    EXPECT_EQ(outcome.summary.crashes, 0u);
}

TEST(Coordinator, CrashLoopExhaustsAttemptsAndAbandons)
{
    // A job no worker can survive (unknown workload -> the worker
    // exits mid-prepare) crash-loops deterministically: every attempt
    // dies, and after maxAttempts the job must surface as an
    // abandoned row instead of respawning forever.
    JobSet set;
    int id = set.addDesign(testDesign());
    set.addJob("__no_such_workload__", id, true, true);

    CoordinatorOptions options;
    options.workers = 1;
    options.shardSize = 1;
    options.maxAttempts = 2;
    options.backoffMs = 1;
    ServeOutcome outcome = serveJobs(set, options);
    EXPECT_FALSE(outcome.summary.ok);
    EXPECT_EQ(outcome.summary.abandoned, 1u);
    EXPECT_EQ(outcome.summary.crashes, 2u);
    EXPECT_EQ(outcome.summary.retries, 1u);
    EXPECT_EQ(outcome.summary.timeouts, 0u);
    ASSERT_EQ(outcome.rows.size(), 1u);
    EXPECT_FALSE(outcome.rows[0].ok);
    EXPECT_NE(outcome.rows[0].diagnostic.find(
                  "abandoned after 2 attempts"),
              std::string::npos);
}

TEST(Coordinator, WedgedFinalAttemptIsAbandonedNotHung)
{
    // The straggler deadline with no retry budget left: the only
    // attempt is frozen mid-job, so the coordinator must abandon the
    // shard at the deadline rather than wait forever on a worker that
    // will never answer. Full-size stencil-3d runs ~2 s, so the
    // freeze always lands before the job could complete.
    JobSet set;
    int id = set.addDesign(testDesign());
    set.addJob("stencil-3d", id, true, false);

    CoordinatorOptions options;
    options.workers = 1;
    options.shardSize = 1;
    options.maxAttempts = 1;
    options.deadlineMs = 100;
    options.shutdownGraceMs = 100;
    options.respawnWorkers = false;
    pid_t stopped = -1;
    options.onRecord = [&](const Json &record, int, pid_t pid) {
        if (stopped < 0 && record.at("t").asString() == "hb") {
            ::kill(pid, SIGSTOP);
            stopped = pid;
        }
    };
    ServeOutcome outcome = serveJobs(set, options);
    ASSERT_GT(stopped, 0);
    EXPECT_FALSE(outcome.summary.ok);
    EXPECT_EQ(outcome.summary.abandoned, 1u);
    EXPECT_GE(outcome.summary.timeouts, 1u);
    EXPECT_EQ(outcome.summary.crashes, 0u);
    ASSERT_EQ(outcome.rows.size(), 1u);
    EXPECT_FALSE(outcome.rows[0].ok);
    EXPECT_NE(outcome.rows[0].diagnostic.find("abandoned"),
              std::string::npos);
}

TEST(Coordinator, PerJobSimOverridesTravelTheWire)
{
    // A deadlock-tight job must come back deadlocked through the
    // server, with its sibling rows untouched — the same contract the
    // in-process watchdog test pins, but across the fork boundary.
    JobSet set;
    adg::SysAdg tight = testDesign();
    tight.sys.l2CapacityKiB = 16;
    int id = set.addDesign(tight);
    set.addJob("fir", id, true, true);
    uint64_t victim = set.addJob("accumulate", id, true, false);
    set.jobs[victim].dramLatency = 2000;
    set.jobs[victim].deadlockCycles = 500;
    set.addJob("vecmax", id, true, true);

    CoordinatorOptions options;
    options.workers = 2;
    options.shardSize = 1;
    ServeOutcome outcome = serveJobs(set, options);
    EXPECT_TRUE(outcome.summary.ok);
    ASSERT_EQ(outcome.rows.size(), 3u);
    EXPECT_TRUE(outcome.rows[0].ok);
    EXPECT_FALSE(outcome.rows[0].deadlocked);
    EXPECT_TRUE(outcome.rows[1].deadlocked);
    EXPECT_FALSE(outcome.rows[1].ok);
    EXPECT_FALSE(outcome.rows[1].diagnostic.empty());
    EXPECT_TRUE(outcome.rows[2].ok);
    EXPECT_FALSE(outcome.rows[2].deadlocked);
}

TEST(Coordinator, SigkilledWorkerReplacementResumesFromCheckpoint)
{
    JobSet set = testJobs(/*slowFirst=*/true);
    std::string reference = referenceJsonl(set);

    CoordinatorOptions options;
    options.workers = 2;
    options.shardSize = 4;  // 8 jobs -> 2 shards, one per worker
    // Full-size gemm runs ~17k cycles, so a 2k-cycle cadence streams
    // its first checkpoint well before the job can finish.
    options.checkpointEvery = 2000;
    bool killed = false;
    // Kill the worker holding shard 0 at its first mid-run
    // checkpoint: job 0 (the slow gemm) is provably mid-simulation,
    // with no rows banked yet. The replacement must pick the shard up
    // from the banked checkpoint, not from cycle 0.
    options.onRecord = [&](const Json &record, int, pid_t pid) {
        if (!killed && record.at("t").asString() == "ckpt" &&
            record.at("shard").asInt() == 0) {
            ::kill(pid, SIGKILL);
            killed = true;
        }
    };
    ServeOutcome outcome = serveJobs(set, options);
    ASSERT_TRUE(killed);
    EXPECT_TRUE(outcome.summary.ok);
    // The resumed suffix is bit-identical to an uninterrupted run, so
    // the merged stream matches the in-process reference byte for
    // byte even though job 0 was simulated in two pieces.
    EXPECT_EQ(mergedJsonl(set, outcome.rows), reference);
    EXPECT_EQ(outcome.summary.crashes, 1u);
    EXPECT_EQ(outcome.summary.respawns, 1u);
    EXPECT_EQ(outcome.summary.retries, 1u);
    EXPECT_GE(outcome.summary.checkpoints, 1u);
    // Exactly one row (the interrupted gemm) came from a resume; its
    // shard-mates ran fresh on the replacement.
    EXPECT_EQ(outcome.summary.resumed, 1u);
    EXPECT_EQ(outcome.summary.duplicates, 0u);
    EXPECT_EQ(outcome.summary.abandoned, 0u);
    EXPECT_EQ(outcome.summary.workersSpawned, 3u);
}

TEST(Coordinator, RedispatchSkipsRowsAlreadyBanked)
{
    // Workers stream rows per job, so a crash after some rows arrived
    // must re-run only the remainder — the banked rows' jobs are
    // never dispatched again, and no duplicates can arise. The slow
    // gemm up front keeps the kill race-free: the third row lands
    // ~150 ms in, with five small jobs (~25 ms) still outstanding.
    JobSet set = testJobs(/*slowFirst=*/true);
    std::string reference = referenceJsonl(set);

    CoordinatorOptions options;
    options.workers = 1;
    options.shardSize = 0;  // one shard holding all eight jobs
    uint64_t rows_seen = 0;
    bool killed = false;
    options.onRecord = [&](const Json &record, int, pid_t pid) {
        if (record.at("t").asString() == "result" && !killed &&
            ++rows_seen == 3) {
            ::kill(pid, SIGKILL);
            killed = true;
        }
    };
    ServeOutcome outcome = serveJobs(set, options);
    ASSERT_TRUE(killed);
    EXPECT_TRUE(outcome.summary.ok);
    EXPECT_EQ(mergedJsonl(set, outcome.rows), reference);
    EXPECT_EQ(outcome.summary.crashes, 1u);
    EXPECT_EQ(outcome.summary.retries, 1u);
    // First-arrival rows stay banked across the crash: the
    // re-dispatch carries only the missing jobs, so the replacement
    // cannot produce duplicates.
    EXPECT_EQ(outcome.summary.duplicates, 0u);
    EXPECT_EQ(outcome.summary.abandoned, 0u);
    // Checkpointing was off: recovery here is row-skipping alone.
    EXPECT_EQ(outcome.summary.checkpoints, 0u);
    EXPECT_EQ(outcome.summary.resumed, 0u);
}

TEST(CoordinatorDeathTest, ForkWithALiveThreadPoolIsFatal)
{
    // A forked worker inherits a pool's locks but not its threads, so
    // serving while a multi-threaded pool is alive is a named failure
    // rather than a possible deadlock in the child.
    JobSet set = testJobs();
    EXPECT_DEATH(
        {
            ThreadPool pool(2);
            serveJobs(set);
        },
        "live ThreadPool");
}
