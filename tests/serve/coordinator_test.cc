/**
 * @file
 * Coordinator contract tests: byte-identical merged output across
 * worker counts and shard sizes, full completion under worker
 * crashes and malformed worker records with exact retry accounting,
 * and the WorkerPool lifecycle across runs. The workers run a small
 * deterministic Match handler (tileCountRow): these tests check the
 * shard, crash, respawn, banking and merge mechanics, not what a job
 * computes.
 */

#include "serve/coordinator.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <ostream>
#include <set>

#include <gtest/gtest.h>

#include "adg/builders.h"
#include "common/parallel.h"

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

/** A Match-job handler whose rows are a pure function of the job and
 * the designs (no scheduling or simulation, so it is fast). */
ResultRow
tileCountRow(const JobSpec &job,
             const std::vector<std::shared_ptr<const adg::SysAdg>> &designs)
{
    ResultRow row;
    for (int id : job.matchDesigns) {
        WireScore score;
        score.design = id;
        score.feasible = true;
        score.score = designs.at(static_cast<size_t>(id))->sys.numTiles +
                      0.5 * static_cast<double>(job.workload.size());
        row.scores.push_back(score);
    }
    row.ok = true;
    return row;
}

/** Pool options whose workers run tileCountRow. */
CoordinatorOptions
testOptions(int workers, size_t shardSize)
{
    CoordinatorOptions options;
    options.workers = workers;
    options.shardSize = shardSize;
    options.handler = tileCountRow;
    return options;
}

/** Eight Match jobs on one interned design. */
JobSet
testJobs()
{
    JobSet set;
    int id = set.addDesign(testDesign());
    for (const char *name :
         { "fir", "mm", "accumulate", "vecmax", "blur", "bgr2grey",
           "convert-bit", "acc-sqr" })
        set.addMatchJob(name, { id }, /*applyTuning=*/true,
                        /*smallSize=*/true);
    return set;
}

/** The in-process ground truth the server must reproduce: a loop of
 * tileCountRow calls over the set's decoded design table. */
std::string
referenceJsonl(const JobSet &set)
{
    std::vector<std::shared_ptr<const adg::SysAdg>> designs;
    for (const std::string &text : set.designs)
        designs.push_back(std::make_shared<const adg::SysAdg>(
            adg::SysAdg::fromJson(Json::parse(text))));
    std::vector<ResultRow> rows;
    for (const JobSpec &job : set.jobs)
        rows.push_back(tileCountRow(job, designs));
    return mergedJsonl(set, rows);
}

/** Four Match jobs on the test design (the fault-injection tests run
 * them one per shard). */
JobSet
matchJobs()
{
    JobSet set;
    int id = set.addDesign(testDesign());
    for (const char *name : { "fir", "mm", "vecmax", "blur" })
        set.addMatchJob(name, { id });
    return set;
}

/** The write end of this worker's pipe to the coordinator: the one
 * write-only FIFO the worker holds that the test process did not
 * already have open before the pool forked. */
int
coordinatorPipe(const std::set<int> &preexisting)
{
    for (int fd = 3; fd < 1024; ++fd) {
        struct stat st;
        if (preexisting.count(fd) > 0 || ::fstat(fd, &st) != 0 ||
            !S_ISFIFO(st.st_mode))
            continue;
        int flags = ::fcntl(fd, F_GETFL);
        if (flags >= 0 && (flags & O_ACCMODE) == O_WRONLY)
            return fd;
    }
    return -1;
}

std::set<int>
openFds()
{
    std::set<int> fds;
    for (int fd = 0; fd < 1024; ++fd)
        if (::fcntl(fd, F_GETFD) != -1)
            fds.insert(fd);
    return fds;
}

/** From inside a worker: send @p row for job @p job on the worker's
 * coordinator pipe, as the worker itself would; exit with status 3 if
 * the pipe is not found or the write falls short. */
void
sendRow(const std::set<int> &preexisting, uint64_t job,
        const ResultRow &row)
{
    Json record = Json::makeObject();
    record.set("t", Json("result"));
    record.set("job", Json(job));
    record.set("row", resultToJson(row));
    std::string line = record.dump() + "\n";
    int fd = coordinatorPipe(preexisting);
    if (fd < 0 || ::write(fd, line.data(), line.size()) !=
                      static_cast<ssize_t>(line.size()))
        ::_exit(3);
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
        ServeOutcome outcome =
            serveJobs(set, testOptions(config.workers, config.shardSize));
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
    ServeOutcome outcome = serveJobs(set, testOptions(2, 1));
    EXPECT_TRUE(outcome.summary.ok);
    EXPECT_TRUE(outcome.rows.empty());
    EXPECT_EQ(outcome.summary.workersSpawned, 0u);
}

TEST(Coordinator, SigkilledWorkerIsRespawnedAndItsShardRetried)
{
    JobSet set = testJobs();
    std::string reference = referenceJsonl(set);

    // Shared across fork: the pid of the first worker to run job 0.
    auto *first = static_cast<pid_t *>(
        ::mmap(nullptr, sizeof(pid_t), PROT_READ | PROT_WRITE,
               MAP_SHARED | MAP_ANONYMOUS, -1, 0));
    ASSERT_NE(first, MAP_FAILED);
    *first = 0;

    // 8 jobs -> 2 shards, one per worker.
    CoordinatorOptions options = testOptions(2, 4);
    // The first worker to run job 0 blocks in it until killed, so its
    // shard stays in flight with no rows sent; the replacement runs
    // job 0 straight through. Bounded, so a coordinator that never
    // kills fails the assertions below, not the timeout.
    options.handler = [&](const JobSpec &job, const auto &table) {
        if (job.index == 0 &&
            __atomic_exchange_n(first, ::getpid(), __ATOMIC_SEQ_CST) == 0)
            for (int i = 0; i < 1000; ++i)
                ::usleep(10000);
        return tileCountRow(job, table);
    };
    bool killed = false;
    // Kill the worker holding shard 0 at its first heartbeat: the
    // heartbeat precedes job 0, which blocks in that worker.
    options.onRecord = [&](const Json &record, int, pid_t pid) {
        if (!killed && record.at("t").asString() == "hb" &&
            record.at("shard").asInt() == 0) {
            ::kill(pid, SIGKILL);
            killed = true;
        }
    };
    ServeOutcome outcome = serveJobs(set, options);
    ::munmap(first, sizeof(pid_t));
    ASSERT_TRUE(killed);
    EXPECT_TRUE(outcome.summary.ok);
    EXPECT_EQ(mergedJsonl(set, outcome.rows), reference);
    // Exact accounting: one crash, one respawn, one re-dispatch, and
    // nothing else went wrong.
    EXPECT_EQ(outcome.summary.crashes, 1u);
    EXPECT_EQ(outcome.summary.respawns, 1u);
    EXPECT_EQ(outcome.summary.retries, 1u);
    EXPECT_EQ(outcome.summary.duplicates, 0u);
    EXPECT_EQ(outcome.summary.abandoned, 0u);
    EXPECT_EQ(outcome.summary.workersSpawned, 3u);
}

TEST(Coordinator, CrashLoopExhaustsAttemptsAndAbandons)
{
    // A job no worker can survive (the handler exits on the poison
    // workload) crash-loops deterministically: every attempt dies,
    // and after maxAttempts the job must surface as an abandoned row
    // instead of respawning forever.
    JobSet set;
    int id = set.addDesign(testDesign());
    set.addMatchJob("__poison__", { id });

    CoordinatorOptions options = testOptions(1, 1);
    options.maxAttempts = 2;
    options.handler = [](const JobSpec &job, const auto &table) {
        if (job.workload == "__poison__")
            ::_exit(1);
        return tileCountRow(job, table);
    };
    ServeOutcome outcome = serveJobs(set, options);
    EXPECT_FALSE(outcome.summary.ok);
    EXPECT_EQ(outcome.summary.abandoned, 1u);
    EXPECT_EQ(outcome.summary.crashes, 2u);
    EXPECT_EQ(outcome.summary.retries, 1u);
    ASSERT_EQ(outcome.rows.size(), 1u);
    EXPECT_FALSE(outcome.rows[0].ok);
    EXPECT_NE(outcome.rows[0].diagnostic.find(
                  "abandoned after 2 attempts"),
              std::string::npos);
}

TEST(Coordinator, RedispatchSkipsRowsAlreadyBanked)
{
    // Workers stream rows per job, so a crash after some rows arrived
    // must re-run only the remainder — the banked rows' jobs are
    // never dispatched again, and no duplicates can arise. The first
    // worker records its pid at job 0 and blocks at job 3, so when it
    // is killed at the third row it has streamed exactly three rows,
    // however far the coordinator falls behind. The replacement never
    // runs job 0, so it does not block.
    JobSet set = testJobs();
    std::string reference = referenceJsonl(set);

    // Shared across fork: the pid of the worker that ran job 0.
    auto *first = static_cast<pid_t *>(
        ::mmap(nullptr, sizeof(pid_t), PROT_READ | PROT_WRITE,
               MAP_SHARED | MAP_ANONYMOUS, -1, 0));
    ASSERT_NE(first, MAP_FAILED);
    *first = 0;

    // One shard holding all eight jobs.
    CoordinatorOptions options = testOptions(1, 0);
    options.handler = [&](const JobSpec &job, const auto &table) {
        if (job.index == 0) {
            *first = ::getpid();
        } else if (job.index == 3 && ::getpid() == *first) {
            // Blocks until killed; bounded, so a coordinator that
            // never kills fails the assertions below, not the timeout.
            for (int i = 0; i < 1000; ++i)
                ::usleep(10000);
        }
        return tileCountRow(job, table);
    };
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
    ::munmap(first, sizeof(pid_t));
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
            serveJobs(set, testOptions(2, 1));
        },
        "live ThreadPool");
}

TEST(CoordinatorDeathTest, PoolWithoutAHandlerIsFatal)
{
    // The installed handler is the workers' only job executor, so a
    // pool without one fails at construction, before any fork.
    EXPECT_DEATH({ WorkerPool pool(CoordinatorOptions{}); },
                 "needs a JobHandler");
}

namespace {

/** Block until worker @p pid has exited, without reaping it (the
 * pool's waitpid stays the one that reaps): the next run then sees
 * the death deterministically. */
void
awaitExitUnreaped(pid_t pid)
{
    siginfo_t info = {};
    ASSERT_EQ(::waitid(P_PID, static_cast<id_t>(pid), &info,
                       WEXITED | WNOWAIT),
              0);
}

/** A second job set on a different design plus the first one, so a
 * later run's design ids map onto a grown pool table. */
JobSet
otherJobs()
{
    JobSet set;
    adg::SysAdg small = testDesign();
    small.sys.numTiles = 2;
    int a = set.addDesign(small);
    int b = set.addDesign(testDesign());
    set.addMatchJob("vecmax", { a }, true, true);
    set.addMatchJob("fir", { b }, true, true);
    set.addMatchJob("mm", { a, b }, true, true);
    return set;
}

/** @return whether this process has no child left (reaped or not). */
bool
noChildrenLeft()
{
    int status = 0;
    return ::waitpid(-1, &status, WNOHANG) == -1 && errno == ECHILD;
}

} // namespace

TEST(WorkerPool, SecondRunForksNothingAndMatchesOneShot)
{
    JobSet set = testJobs();
    JobSet other = otherJobs();
    CoordinatorOptions options = testOptions(2, 1);
    {
        WorkerPool pool(options);
        ServeOutcome first = pool.run(set);
        EXPECT_EQ(first.summary.workersSpawned, 2u);
        EXPECT_EQ(mergedJsonl(set, first.rows), referenceJsonl(set));

        ServeOutcome second = pool.run(set);
        EXPECT_TRUE(second.summary.ok);
        EXPECT_EQ(second.summary.workersSpawned, 0u);
        EXPECT_EQ(second.summary.respawns, 0u);
        EXPECT_EQ(mergedJsonl(set, second.rows),
                  mergedJsonl(set, serveJobs(set, options).rows));

        // New designs ship to the live workers; the run's ids map onto
        // the pool's append-only table.
        ServeOutcome third = pool.run(other);
        EXPECT_TRUE(third.summary.ok);
        EXPECT_EQ(third.summary.workersSpawned, 0u);
        EXPECT_EQ(mergedJsonl(other, third.rows),
                  mergedJsonl(other, serveJobs(other, options).rows));
        EXPECT_EQ(pool.workerPids().size(), 2u);
    }
    EXPECT_TRUE(noChildrenLeft());
}

TEST(WorkerPool, IdleWorkerKilledBetweenRunsIsReplaced)
{
    JobSet set = testJobs();
    std::string reference = referenceJsonl(set);
    CoordinatorOptions options = testOptions(2, 1);
    {
        WorkerPool pool(options);
        ASSERT_EQ(mergedJsonl(set, pool.run(set).rows), reference);
        std::vector<pid_t> before = pool.workerPids();
        ASSERT_EQ(before.size(), 2u);
        ::kill(before[0], SIGKILL);
        awaitExitUnreaped(before[0]);

        ServeOutcome outcome = pool.run(set);
        EXPECT_TRUE(outcome.summary.ok);
        EXPECT_EQ(mergedJsonl(set, outcome.rows), reference);
        // Replaced at run start: one fork, and no work was lost.
        EXPECT_EQ(outcome.summary.workersSpawned, 1u);
        EXPECT_EQ(outcome.summary.respawns, 0u);
        EXPECT_EQ(outcome.summary.crashes, 0u);
        EXPECT_EQ(outcome.summary.retries, 0u);
        std::vector<pid_t> after = pool.workerPids();
        EXPECT_EQ(after.size(), 2u);
        EXPECT_EQ(std::count(after.begin(), after.end(), before[0]), 0);
        EXPECT_EQ(std::count(after.begin(), after.end(), before[1]), 1);
    }
    EXPECT_TRUE(noChildrenLeft());
}

TEST(WorkerPool, StoppedIdleWorkerIsReplaced)
{
    JobSet set = testJobs();
    std::string reference = referenceJsonl(set);
    CoordinatorOptions options = testOptions(2, 1);
    {
        WorkerPool pool(options);
        ASSERT_EQ(mergedJsonl(set, pool.run(set).rows), reference);
        pid_t frozen = pool.workerPids()[1];
        ::kill(frozen, SIGSTOP);
        siginfo_t info = {};
        ASSERT_EQ(::waitid(P_PID, static_cast<id_t>(frozen), &info,
                           WSTOPPED | WNOWAIT),
                  0);

        // Handing the frozen worker a shard would wedge the run; it is
        // killed, reaped and replaced instead.
        ServeOutcome outcome = pool.run(set);
        EXPECT_TRUE(outcome.summary.ok);
        EXPECT_EQ(mergedJsonl(set, outcome.rows), reference);
        EXPECT_EQ(outcome.summary.workersSpawned, 1u);
        std::vector<pid_t> after = pool.workerPids();
        EXPECT_EQ(std::count(after.begin(), after.end(), frozen), 0);
        EXPECT_EQ(::kill(frozen, 0), -1);  // reaped: the pid is gone
    }
    EXPECT_TRUE(noChildrenLeft());
}

TEST(WorkerPool, WorkerHoldingAnAttemptAtRunEndIsKilledNotReused)
{
    // A misbehaving worker: the first attempt at job 0 sends job 0's
    // row from inside the handler and then stops itself, so it never
    // sends its done record. The other worker finishes the rest, and
    // the stopped worker still holds its attempt when the run ends,
    // so it is killed and reaped: its records can never reach the
    // next run.
    JobSet set = matchJobs();
    std::string reference = referenceJsonl(set);

    // Shared across fork: a once-only gate, then the stopped pid.
    struct Stop
    {
        int gate;
        pid_t pid;
    };
    auto *stop = static_cast<Stop *>(
        ::mmap(nullptr, sizeof(Stop), PROT_READ | PROT_WRITE,
               MAP_SHARED | MAP_ANONYMOUS, -1, 0));
    ASSERT_NE(stop, MAP_FAILED);
    *stop = Stop{ 0, 0 };
    std::set<int> preexisting = openFds();

    CoordinatorOptions options = testOptions(2, 1);
    options.shutdownGraceMs = 200;
    options.handler = [&](const JobSpec &job, const auto &table) {
        ResultRow row = tileCountRow(job, table);
        if (job.index == 0 &&
            __atomic_fetch_add(&stop->gate, 1, __ATOMIC_SEQ_CST) == 0) {
            stop->pid = ::getpid();
            sendRow(preexisting, job.index, row);
            ::raise(SIGSTOP);
        }
        return row;
    };
    {
        WorkerPool pool(options);
        ServeOutcome first = pool.run(set);
        pid_t stopped = stop->pid;
        ASSERT_GT(stopped, 0);
        EXPECT_TRUE(first.summary.ok);
        EXPECT_EQ(mergedJsonl(set, first.rows), reference);
        EXPECT_EQ(first.summary.crashes, 0u);
        std::vector<pid_t> pids = pool.workerPids();
        EXPECT_EQ(pids.size(), 1u);
        EXPECT_EQ(std::count(pids.begin(), pids.end(), stopped), 0);
        EXPECT_EQ(::kill(stopped, 0), -1);  // reaped: the pid is gone

        // The next run refills the pool with one fork.
        ServeOutcome second = pool.run(set);
        EXPECT_TRUE(second.summary.ok);
        EXPECT_EQ(mergedJsonl(set, second.rows), reference);
        EXPECT_EQ(second.summary.workersSpawned, 1u);
    }
    ::munmap(stop, sizeof(Stop));
    EXPECT_TRUE(noChildrenLeft());
}

namespace {

/** Fault-injection cases: a bad line a worker sends for job @p job
 * (one job per shard, so the worker's shard id is @p job too). */
struct BadRecord
{
    const char *name;
    std::string (*line)(uint64_t job);
};

/** Print a case by name, so test names stay stable across builds. */
void
PrintTo(const BadRecord &bad, std::ostream *os)
{
    *os << bad.name;
}

std::string
validRow()
{
    ResultRow row;
    row.ok = true;
    return resultToJson(row).dump();
}

const BadRecord kBadRecords[] = {
    { "unparseable",
      [](uint64_t job) {
          return R"({"t":"result","job":)" + std::to_string(job) +
                 R"(,"ro)";
      } },
    { "no_type",
      [](uint64_t job) {
          return R"({"shard":)" + std::to_string(job) + "}";
      } },
    { "unknown_type",
      [](uint64_t job) {
          return R"({"t":"gossip","shard":)" + std::to_string(job) + "}";
      } },
    { "shard_out_of_range",
      [](uint64_t) {
          return std::string(R"({"t":"hb","shard":99,"done":0,"total":1})");
      } },
    { "another_shard",
      [](uint64_t job) {
          return R"({"t":"done","shard":)" + std::to_string(job + 1) +
                 "}";
      } },
    { "job_out_of_range",
      [](uint64_t) {
          return R"({"t":"result","job":9999,"row":)" + validRow() + "}";
      } },
    { "job_of_another_shard",
      [](uint64_t job) {
          return R"({"t":"result","job":)" + std::to_string(job + 1) +
                 R"(,"row":)" + validRow() + "}";
      } },
    { "row_missing_fields",
      [](uint64_t job) {
          return R"({"t":"result","job":)" + std::to_string(job) +
                 R"(,"row":{"ok":true}})";
      } },
    { "checkpoint",
      [](uint64_t job) {
          return R"({"t":"ckpt","shard":)" + std::to_string(job) +
                 R"(,"job":)" + std::to_string(job) +
                 R"(,"cycle":1,"snap":"00"})";
      } },
};

} // namespace

TEST(Coordinator, RepeatedRowIsHandledLikeACrash)
{
    // A shard has one attempt in flight, and a re-dispatch carries
    // only the jobs still missing rows, so no well-behaved worker
    // sends a row twice. Here the first attempt at job 0 sends its
    // real row from inside the handler and then returns the same row,
    // which the worker sends again: the first copy is banked, and the
    // repeat retires the worker before its done record is read.
    JobSet set = matchJobs();
    std::string reference = referenceJsonl(set);

    // Shared across fork: how many times job 0 ran, in any worker.
    auto *runs = static_cast<int *>(
        ::mmap(nullptr, sizeof(int), PROT_READ | PROT_WRITE,
               MAP_SHARED | MAP_ANONYMOUS, -1, 0));
    ASSERT_NE(runs, MAP_FAILED);
    *runs = 0;
    std::set<int> preexisting = openFds();

    CoordinatorOptions options = testOptions(2, 1);
    options.handler = [&](const JobSpec &job, const auto &table) {
        ResultRow row = tileCountRow(job, table);
        if (job.index == 0 &&
            __atomic_fetch_add(runs, 1, __ATOMIC_SEQ_CST) == 0)
            sendRow(preexisting, job.index, row);
        return row;
    };
    ServeOutcome outcome = serveJobs(set, options);
    EXPECT_EQ(*runs, 1);  // the banked row stands: job 0 never reruns
    ::munmap(runs, sizeof(int));
    EXPECT_TRUE(outcome.summary.ok);
    EXPECT_EQ(mergedJsonl(set, outcome.rows), reference);
    // The retired worker held a shard with every row in but no done
    // record: one crash, and nothing to re-dispatch or replace.
    EXPECT_EQ(outcome.summary.crashes, 1u);
    EXPECT_EQ(outcome.summary.respawns, 0u);
    EXPECT_EQ(outcome.summary.retries, 0u);
    EXPECT_EQ(outcome.summary.workersSpawned, 2u);
    EXPECT_EQ(outcome.summary.abandoned, 0u);
    EXPECT_TRUE(noChildrenLeft());
}

TEST(Coordinator, RepeatedRowReadAtRunEndIsStillACrash)
{
    // The settle-time interleaving of the test above, forced: the
    // repeat of job 0's row reaches the coordinator only after every
    // row is banked, while run end waits for the last done records.
    // Jobs 1-3 wait until job 0's first copy is banked, so that copy
    // is never the run's last row, and the repeat is held until the
    // coordinator has seen all four rows. A bad record costs one
    // crash whether or not the rows are all in.
    JobSet set = matchJobs();
    std::string reference = referenceJsonl(set);

    // Shared across fork: job 0's run count (workers), and the rows
    // the coordinator has seen (onRecord).
    struct Gate
    {
        int runs;
        int firstCopySeen;
        int rowsSeen;
    };
    auto *gate = static_cast<Gate *>(
        ::mmap(nullptr, sizeof(Gate), PROT_READ | PROT_WRITE,
               MAP_SHARED | MAP_ANONYMOUS, -1, 0));
    ASSERT_NE(gate, MAP_FAILED);
    *gate = Gate{ 0, 0, 0 };
    std::set<int> preexisting = openFds();
    // Bounded, so a coordinator that never advances the gate fails
    // the assertions below, not the test timeout.
    auto waitUntil = [](const int *value, int target) {
        for (int i = 0; i < 10000 &&
                        __atomic_load_n(value, __ATOMIC_SEQ_CST) < target;
             ++i)
            ::usleep(1000);
    };

    CoordinatorOptions options = testOptions(2, 1);
    options.handler = [&](const JobSpec &job, const auto &table) {
        ResultRow row = tileCountRow(job, table);
        if (job.index != 0) {
            waitUntil(&gate->firstCopySeen, 1);
        } else if (__atomic_fetch_add(&gate->runs, 1,
                                      __ATOMIC_SEQ_CST) == 0) {
            sendRow(preexisting, job.index, row);
            // The row returned below is the repeat.
            waitUntil(&gate->rowsSeen, 4);
        }
        return row;
    };
    options.onRecord = [&](const Json &record, int, pid_t) {
        if (record.at("t").asString() != "result")
            return;
        if (record.at("job").asInt() == 0)
            __atomic_store_n(&gate->firstCopySeen, 1, __ATOMIC_SEQ_CST);
        __atomic_add_fetch(&gate->rowsSeen, 1, __ATOMIC_SEQ_CST);
    };
    ServeOutcome outcome = serveJobs(set, options);
    EXPECT_EQ(gate->runs, 1);  // the banked row stands
    EXPECT_EQ(gate->rowsSeen, 4);
    ::munmap(gate, sizeof(Gate));
    EXPECT_TRUE(outcome.summary.ok);
    EXPECT_EQ(mergedJsonl(set, outcome.rows), reference);
    EXPECT_EQ(outcome.summary.crashes, 1u);
    EXPECT_EQ(outcome.summary.respawns, 0u);
    EXPECT_EQ(outcome.summary.retries, 0u);
    EXPECT_EQ(outcome.summary.workersSpawned, 2u);
    EXPECT_EQ(outcome.summary.abandoned, 0u);
    EXPECT_TRUE(noChildrenLeft());
}

class BadWorkerRecord : public ::testing::TestWithParam<BadRecord>
{
};

TEST_P(BadWorkerRecord, IsHandledLikeACrash)
{
    JobSet set;
    adg::SysAdg small = testDesign();
    small.sys.numTiles = 2;
    int a = set.addDesign(testDesign());
    int b = set.addDesign(small);
    for (const char *name : { "fir", "mm", "vecmax", "blur" })
        set.addMatchJob(name, { a, b });
    std::string reference = referenceJsonl(set);

    // Shared across fork, so only the first attempt at job 0 — in
    // whichever worker runs it — sends the bad line.
    auto *injected = static_cast<int *>(
        ::mmap(nullptr, sizeof(int), PROT_READ | PROT_WRITE,
               MAP_SHARED | MAP_ANONYMOUS, -1, 0));
    ASSERT_NE(injected, MAP_FAILED);
    *injected = 0;
    std::set<int> preexisting = openFds();
    BadRecord bad = GetParam();

    CoordinatorOptions options = testOptions(2, 1);
    // The bad line follows job 0's heartbeat and precedes its row, so
    // the coordinator retires the worker before any row of the shard
    // is banked: exactly one crash, one respawn, one re-dispatch.
    options.handler = [&](const JobSpec &job, const auto &table) {
        if (job.index == 0 && __atomic_fetch_add(injected, 1,
                                                 __ATOMIC_SEQ_CST) == 0) {
            std::string line = bad.line(job.index) + "\n";
            int fd = coordinatorPipe(preexisting);
            if (fd < 0 ||
                ::write(fd, line.data(), line.size()) !=
                    static_cast<ssize_t>(line.size()))
                ::_exit(3);
        }
        return tileCountRow(job, table);
    };
    ServeOutcome outcome = serveJobs(set, options);
    EXPECT_EQ(*injected, 2);  // injected once, then ran clean
    ::munmap(injected, sizeof(int));
    EXPECT_TRUE(outcome.summary.ok);
    EXPECT_EQ(mergedJsonl(set, outcome.rows), reference);
    EXPECT_EQ(outcome.summary.crashes, 1u);
    EXPECT_EQ(outcome.summary.respawns, 1u);
    EXPECT_EQ(outcome.summary.retries, 1u);
    EXPECT_EQ(outcome.summary.workersSpawned, 3u);
    EXPECT_EQ(outcome.summary.duplicates, 0u);
    EXPECT_EQ(outcome.summary.abandoned, 0u);
    EXPECT_TRUE(noChildrenLeft());
}

INSTANTIATE_TEST_SUITE_P(
    Coordinator, BadWorkerRecord, ::testing::ValuesIn(kBadRecords),
    [](const ::testing::TestParamInfo<BadRecord> &info) {
        return std::string(info.param.name);
    });
