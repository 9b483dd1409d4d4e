/**
 * @file
 * Warming determinism tests: replaying a request trace — in-process,
 * through the forked-worker serve coordinator at several worker
 * counts, and under a SIGKILL injected mid-warm or mid-match — always
 * produces byte-identical library files and merged serve rows (the
 * batched-admission contract of library/service.h). A digest pin
 * holds the replay fixed across commits, and an oracle check holds
 * the memoized records to fresh scoring.
 */

#include "library/service.h"

#include <signal.h>
#include <sys/wait.h>

#include <cstdio>
#include <functional>
#include <set>

#include <gtest/gtest.h>

#include "serve/coordinator.h"
#include "workloads/suites.h"

using namespace overgen;
using namespace overgen::library;

namespace {

/** A short skewed trace: four distinct workloads, with repeats that
 * must hit once their overlay is warmed. */
std::vector<std::string>
testTrace()
{
    return { "fir", "mm",  "fir", "vecmax", "mm",
             "fir", "mm",  "acc-sqr", "vecmax", "fir" };
}

/** A follow-up batch for a library warmed by testTrace(): repeats
 * plus workloads that have no record on any entry yet. */
std::vector<std::string>
growTrace()
{
    return { "mm", "gemm", "stencil-2d", "fir", "bgr2grey", "gemm",
             "derivative" };
}

ServiceOptions
testOptions(bool useServer = false, int workers = 1,
            int warmIterations = 4)
{
    ServiceOptions options;
    options.smallSize = true;
    options.match.applyTuning = true;
    options.warmIterations = warmIterations;
    options.useServer = useServer;
    options.serve.workers = workers;
    return options;
}

struct Replay
{
    std::string libraryBytes;
    std::string serveLog;
    std::vector<RequestOutcome> outcomes;
    std::vector<serve::ServeSummary> summaries;
    /** serveSummaries().size() after each batch. */
    std::vector<size_t> serveCalls;
};

/** Run @p batches through one fresh service; @p beforeBatch (when
 * set) is called with each batch's index before it is admitted. */
Replay
replayBatches(ServiceOptions options,
              const std::vector<std::vector<std::string>> &batches,
              const std::function<void(size_t)> &beforeBatch = {})
{
    LibraryService service(std::move(options));
    Replay replay;
    for (size_t b = 0; b < batches.size(); ++b) {
        if (beforeBatch)
            beforeBatch(b);
        std::vector<RequestOutcome> outcomes =
            service.processBatch(batches[b]);
        replay.outcomes.insert(replay.outcomes.end(), outcomes.begin(),
                               outcomes.end());
        replay.serveCalls.push_back(service.serveSummaries().size());
    }
    replay.libraryBytes = service.library().toJsonl();
    replay.serveLog = service.serveLog();
    replay.summaries = service.serveSummaries();
    return replay;
}

Replay
replayTrace(ServiceOptions options)
{
    return replayBatches(std::move(options), { testTrace() });
}

/** FNV-1a of the library bytes followed by every outcome field
 * (doubles at %.17g, so the digest is bit-exact). */
uint64_t
replayDigest(const Replay &replay)
{
    std::string text = replay.libraryBytes;
    for (const RequestOutcome &outcome : replay.outcomes) {
        char line[512];
        std::snprintf(line, sizeof(line),
                      "%s %d %d %d %s %d %.17g %.17g %s %s\n",
                      outcome.workload.c_str(), outcome.hit,
                      outcome.warmed, outcome.entryIndex,
                      outcome.record.kernel.c_str(),
                      outcome.record.feasible, outcome.record.score,
                      outcome.record.ipc,
                      outcome.record.variant.c_str(),
                      outcome.record.bottleneck.c_str());
        text += line;
    }
    uint64_t h = 1469598103934665603ull;
    for (char c : text) {
        h ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
        h *= 1099511628211ull;
    }
    return h;
}

void
expectSameRecord(const KernelRecord &got, const KernelRecord &want,
                 const std::string &what)
{
    EXPECT_EQ(got.kernel, want.kernel) << what;
    EXPECT_EQ(got.feasible, want.feasible) << what;
    // Bit-exact doubles: the same pure function must have run.
    EXPECT_EQ(got.score, want.score) << what;
    EXPECT_EQ(got.ipc, want.ipc) << what;
    EXPECT_EQ(got.variant, want.variant) << what;
    EXPECT_EQ(got.bottleneck, want.bottleneck) << what;
}

void
expectSameOutcomes(const std::vector<RequestOutcome> &got,
                   const std::vector<RequestOutcome> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].workload, want[i].workload) << i;
        EXPECT_EQ(got[i].hit, want[i].hit) << i;
        EXPECT_EQ(got[i].warmed, want[i].warmed) << i;
        EXPECT_EQ(got[i].entryIndex, want[i].entryIndex) << i;
        expectSameRecord(got[i].record, want[i].record,
                         "outcome " + std::to_string(i));
    }
}

} // namespace

TEST(LibraryWarming, EmptyLibraryReplayIsByteIdentical)
{
    Replay first = replayTrace(testOptions());
    Replay second = replayTrace(testOptions());
    ASSERT_FALSE(first.libraryBytes.empty());
    EXPECT_EQ(first.libraryBytes, second.libraryBytes);
    expectSameOutcomes(second.outcomes, first.outcomes);

    // The batch admits against the pre-batch (empty) library, so
    // every request misses at admission; the distinct workloads are
    // warmed once each and the re-match routes every request.
    for (const RequestOutcome &outcome : first.outcomes) {
        EXPECT_FALSE(outcome.hit);
        EXPECT_TRUE(outcome.warmed);
        EXPECT_GE(outcome.entryIndex, 0) << outcome.workload;
    }

    // A second batch over the same trace is all hits, no growth.
    LibraryService service(testOptions());
    service.processBatch(testTrace());
    std::string warmed = service.library().toJsonl();
    std::vector<RequestOutcome> outcomes =
        service.processBatch(testTrace());
    for (const RequestOutcome &outcome : outcomes) {
        EXPECT_TRUE(outcome.hit) << outcome.workload;
        EXPECT_FALSE(outcome.warmed);
    }
    EXPECT_EQ(service.library().toJsonl(), warmed);
}

TEST(LibraryWarming, ServerWorkerCountsProduceIdenticalBytes)
{
    Replay inProcess = replayTrace(testOptions());
    std::string firstLog;
    for (int workers : { 1, 2 }) {
        Replay server = replayTrace(testOptions(true, workers));
        EXPECT_EQ(server.libraryBytes, inProcess.libraryBytes)
            << workers << " workers";
        expectSameOutcomes(server.outcomes, inProcess.outcomes);
        ASSERT_FALSE(server.summaries.empty());
        for (const serve::ServeSummary &summary : server.summaries)
            EXPECT_TRUE(summary.ok);
        // The merged serve rows are byte-identical across worker
        // counts (pure rows, index-ordered merge).
        if (firstLog.empty())
            firstLog = server.serveLog;
        else
            EXPECT_EQ(server.serveLog, firstLog);
        EXPECT_FALSE(server.serveLog.empty());
    }
}

TEST(LibraryWarming, SigkillMidWarmStillConvergesToIdenticalBytes)
{
    // A bigger warm budget (~tens of ms per DSE run) keeps the kill
    // race-free: the shard is still mid-warm when the SIGKILL lands,
    // long before its row could have been written.
    const int warmIterations = 64;
    Replay reference = replayTrace(testOptions(false, 1,
                                               warmIterations));

    ServiceOptions options = testOptions(true, 2, warmIterations);
    bool killed = false;
    // Kill one worker at its first heartbeat: the heartbeat precedes
    // the warm job's DSE, so the shard dies in flight and must be
    // re-dispatched (the retried warm reuses the same seed, so the
    // recovered run reproduces the crash-free bytes).
    options.serve.onRecord = [&killed](const Json &record, int,
                                       pid_t pid) {
        if (!killed && record.at("t").asString() == "hb") {
            ::kill(pid, SIGKILL);
            killed = true;
        }
    };
    Replay crashed = replayTrace(std::move(options));
    ASSERT_TRUE(killed);
    EXPECT_EQ(crashed.libraryBytes, reference.libraryBytes);
    expectSameOutcomes(crashed.outcomes, reference.outcomes);
    uint64_t crashes = 0;
    uint64_t retries = 0;
    for (const serve::ServeSummary &summary : crashed.summaries) {
        crashes += summary.crashes;
        retries += summary.retries;
    }
    EXPECT_GE(crashes, 1u);
    EXPECT_GE(retries, 1u);
}

TEST(LibraryWarming, ReplayIsPinnedAcrossCommits)
{
    // Two in-process batches: a cold warm-up, then an all-hit repeat.
    // The digest covers the library bytes and every outcome field, so
    // any change to scoring, warm seeds, insertion order or routing
    // moves it. Re-pin only for an intended behaviour change.
    Replay replay =
        replayBatches(testOptions(), { testTrace(), testTrace() });
    EXPECT_EQ(replayDigest(replay), 0xf9ad4e2736c04c46ull);
}

TEST(LibraryWarming, ServerTwoBatchReplayMatchesInProcess)
{
    Replay inProcess =
        replayBatches(testOptions(), { testTrace(), testTrace() });
    for (int workers : { 1, 2 }) {
        Replay server = replayBatches(testOptions(true, workers),
                                      { testTrace(), testTrace() });
        EXPECT_EQ(server.libraryBytes, inProcess.libraryBytes)
            << workers << " workers";
        expectSameOutcomes(server.outcomes, inProcess.outcomes);
        for (const serve::ServeSummary &summary : server.summaries)
            EXPECT_TRUE(summary.ok);
        // Every (workload, entry) pair of the repeat was recorded by
        // the first batch, so the repeat ships nothing to the server.
        ASSERT_EQ(server.serveCalls.size(), 2u);
        EXPECT_GT(server.serveCalls[0], 0u);
        EXPECT_EQ(server.serveCalls[1], server.serveCalls[0])
            << workers << " workers";
    }
}

TEST(LibraryWarming, SigkilledMatchShardIsBackfilledInline)
{
    std::vector<std::vector<std::string>> batches = { testTrace(),
                                                      growTrace() };
    Replay reference = replayBatches(testOptions(), batches);

    // The second batch opens with one serve call scoring its four new
    // workloads against the warmed library: four one-job Match shards
    // on two workers. Kill a worker that holds a shard it has not
    // started, deterministically: freeze the first worker to finish a
    // shard while it is idle (SIGSTOP), so it can never run the shard
    // the coordinator hands it next, then SIGKILL it once the other
    // worker heartbeats one of the last two shards — which are
    // dispatched no earlier than the frozen worker's. With a single
    // attempt per shard the lost row is abandoned, and the service
    // must re-score it inline.
    ServiceOptions options = testOptions(true, 2);
    options.serve.maxAttempts = 1;
    bool armed = false;
    int frozen = -1;
    pid_t frozenPid = -1;
    bool killed = false;
    options.serve.onRecord = [&](const Json &record, int worker,
                                 pid_t pid) {
        if (!armed || killed)
            return;
        const std::string &type = record.at("t").asString();
        if (frozen < 0 && type == "done") {
            ::kill(pid, SIGSTOP);
            frozen = worker;
            frozenPid = pid;
        } else if (frozen >= 0 && worker != frozen && type == "hb" &&
                   record.at("shard").asInt() >= 2) {
            ::kill(frozenPid, SIGKILL);
            killed = true;
        }
    };
    Replay crashed = replayBatches(std::move(options), batches,
                                   [&armed](size_t b) {
                                       armed = b == 1;
                                   });
    ASSERT_TRUE(killed);
    EXPECT_EQ(crashed.libraryBytes, reference.libraryBytes);
    expectSameOutcomes(crashed.outcomes, reference.outcomes);
    uint64_t crashes = 0;
    uint64_t abandoned = 0;
    for (const serve::ServeSummary &summary : crashed.summaries) {
        crashes += summary.crashes;
        abandoned += summary.abandoned;
    }
    EXPECT_EQ(crashes, 1u);
    EXPECT_EQ(abandoned, 1u);
}

TEST(LibraryWarming, WorkerKilledBetweenBatchesIsReplacedSameBytes)
{
    // The service's workers outlive a batch. SIGKILL one while it is
    // idle between two batches: the next batch's first run replaces
    // it (one fork, no crash on the books) and the library converges
    // to the in-process bytes.
    std::vector<std::vector<std::string>> batches = { testTrace(),
                                                      growTrace() };
    Replay reference = replayBatches(testOptions(), batches);

    ServiceOptions options = testOptions(true, 2);
    std::set<pid_t> pids;
    options.serve.onRecord = [&pids](const Json &, int, pid_t pid) {
        pids.insert(pid);
    };
    pid_t victim = -1;
    Replay killed = replayBatches(
        std::move(options), batches, [&](size_t b) {
            if (b != 1)
                return;
            ASSERT_EQ(pids.size(), 2u);
            victim = *pids.begin();
            ::kill(victim, SIGKILL);
            // Wait for the exit without reaping: the pool reaps.
            siginfo_t info = {};
            ASSERT_EQ(::waitid(P_PID, static_cast<id_t>(victim), &info,
                               WEXITED | WNOWAIT),
                      0);
        });
    ASSERT_GT(victim, 0);
    EXPECT_EQ(killed.libraryBytes, reference.libraryBytes);
    expectSameOutcomes(killed.outcomes, reference.outcomes);
    uint64_t spawned = 0;
    uint64_t crashes = 0;
    for (const serve::ServeSummary &summary : killed.summaries) {
        EXPECT_TRUE(summary.ok);
        spawned += summary.workersSpawned;
        crashes += summary.crashes;
    }
    EXPECT_EQ(spawned, 3u);  // two at the first run, one replacement
    EXPECT_EQ(crashes, 0u);
}

TEST(LibraryWarming, MemoizedPicksEqualFreshScoring)
{
    // Independent of the service's job building and ingestion: after a
    // replay, every memoized record equals a fresh score of its entry,
    // and the pick on the final library equals the pick on a copy with
    // every record stripped, for every replayed workload.
    LibraryService service(testOptions());
    std::set<std::string> workloads;
    for (const std::vector<std::string> &batch :
         { testTrace(), growTrace() }) {
        service.processBatch(batch);
        workloads.insert(batch.begin(), batch.end());
    }
    const OverlayLibrary &memoized = service.library();
    OverlayLibrary stripped = memoized;
    for (LibraryEntry &entry : stripped.entries)
        entry.records.clear();

    MatchOptions options;
    options.applyTuning = true;
    size_t records = 0;
    for (const std::string &workload : workloads) {
        wl::KernelSpec spec = wl::smallWorkloadByName(workload);
        for (const LibraryEntry &entry : memoized.entries) {
            const KernelRecord *record = entry.findRecord(spec.name);
            if (record == nullptr)
                continue;
            ++records;
            expectSameRecord(
                *record,
                scoreKernelOnDesign(spec, entry.design, options),
                workload + " on " + entry.origin);
        }
        MatchResult lookup = matchKernel(memoized, spec, options);
        MatchResult fresh = matchKernel(stripped, spec, options);
        EXPECT_EQ(lookup.entryIndex, fresh.entryIndex) << workload;
        expectSameRecord(lookup.record, fresh.record, workload);
    }
    // The replay must actually have memoized most pairs.
    EXPECT_GE(records, workloads.size() * memoized.entries.size() / 2);
}
