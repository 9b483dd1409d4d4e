#include "serve/coordinator.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <deque>

#include "common/logging.h"
#include "common/parallel.h"
#include "serve/shard.h"
#include "serve/worker.h"
#include "telemetry/sink.h"

namespace overgen::serve {

namespace {

using Clock = std::chrono::steady_clock;

int64_t
msBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               to - from)
        .count();
}

/** One forked worker and its pipes (parent-side view). */
struct WorkerState
{
    pid_t pid = -1;
    int toFd = -1;    //!< coordinator -> worker
    int fromFd = -1;  //!< worker -> coordinator
    LineReader reader;
    int shard = -1;  //!< in-flight shard id, -1 when idle
    bool alive = false;
};

/** Dispatch/retry state of one shard. */
struct ShardTrack
{
    Shard shard;
    int attempts = 0;  //!< dispatches so far
    int inFlight = 0;  //!< concurrently running attempts
    bool completed = false;
    Clock::time_point lastProgress;  //!< last hb/ckpt/result seen
    Clock::time_point notBefore;     //!< backoff gate for re-dispatch
    /** Latest streamed checkpoint per unfinished job (job index ->
     * hex snapshot), handed back on re-dispatch so a replacement
     * worker resumes mid-simulation. Cleared on completion. */
    std::map<uint64_t, std::string> checkpoints;
};

/** The single-threaded coordinator event loop (see header). */
class Coordinator
{
  public:
    Coordinator(const JobSet &jobSet, const CoordinatorOptions &opts)
        : set(jobSet), options(opts)
    {
        Json record = Json::makeObject();
        record.set("t", Json("designs"));
        record.set("designs",
                   Json(Json::Array(set.designs.begin(),
                                    set.designs.end())));
        designsLine = record.dump();
    }

    ServeOutcome
    run()
    {
        outcome.rows.resize(set.jobs.size());
        haveRow.assign(set.jobs.size(), false);
        summary().jobs = set.jobs.size();
        if (set.jobs.empty()) {
            summary().ok = true;
            return std::move(outcome);
        }

        // A worker dying mid-write must surface as EPIPE, not SIGPIPE.
        struct sigaction ignore = {};
        struct sigaction saved = {};
        ignore.sa_handler = SIG_IGN;
        ::sigaction(SIGPIPE, &ignore, &saved);

        std::vector<Shard> shards =
            planShards(set.jobs.size(), options.shardSize);
        summary().shards = shards.size();
        tracks.reserve(shards.size());
        for (const Shard &shard : shards) {
            ShardTrack track;
            track.shard = shard;
            track.notBefore = Clock::now();
            tracks.push_back(track);
            pending.push_back(shard.id);
        }
        respawnBudget = static_cast<int>(shards.size()) *
                        std::max(options.maxAttempts, 1);

        int poolSize = std::max(
            1, std::min<int>(options.workers,
                             static_cast<int>(shards.size())));
        for (int i = 0; i < poolSize; ++i)
            spawnWorker();

        while (filledRows < set.jobs.size()) {
            dispatch();
            pollWorkers(nextTimeoutMs());
            checkDeadlines();
            ensureLiveness();
        }
        shutdown();
        ::sigaction(SIGPIPE, &saved, nullptr);

        summary().ok = summary().abandoned == 0;
        count("serve/jobs/completed",
              filledRows - summary().abandoned);
        return std::move(outcome);
    }

  private:
    ServeSummary &summary() { return outcome.summary; }

    void
    count(const std::string &path, uint64_t n = 1)
    {
        if (options.sink != nullptr && n > 0)
            options.sink->registry().counter(path).add(n);
    }

    void
    spawnWorker()
    {
        OG_ASSERT(liveThreadPools() == 0,
                  "serveJobs forked with ", liveThreadPools(),
                  " live ThreadPool(s); join every pool before "
                  "serving (see serve/coordinator.h)");
        int toChild[2];
        int fromChild[2];
        OG_ASSERT(::pipe(toChild) == 0 && ::pipe(fromChild) == 0,
                  "pipe() failed");
        pid_t pid = ::fork();
        OG_ASSERT(pid >= 0, "fork() failed");
        if (pid == 0) {
            // Child: drop every inherited coordinator fd except this
            // worker's own pipe ends, then serve until "bye"/EOF.
            ::close(toChild[1]);
            ::close(fromChild[0]);
            for (const WorkerState &other : workers) {
                if (other.toFd >= 0)
                    ::close(other.toFd);
                if (other.fromFd >= 0)
                    ::close(other.fromFd);
            }
            WorkerOptions wopts;
            wopts.handler = options.handler;
            wopts.checkpointEvery = options.checkpointEvery;
            ::_exit(workerLoop(toChild[0], fromChild[1], wopts));
        }
        ::close(toChild[0]);
        ::close(fromChild[1]);
        int flags = ::fcntl(fromChild[0], F_GETFL, 0);
        ::fcntl(fromChild[0], F_SETFL, flags | O_NONBLOCK);

        WorkerState worker;
        worker.pid = pid;
        worker.toFd = toChild[1];
        worker.fromFd = fromChild[0];
        worker.alive = true;
        int index = idleSlot();
        if (index >= 0) {
            workers[index] = std::move(worker);
        } else {
            index = static_cast<int>(workers.size());
            workers.push_back(std::move(worker));
        }
        ++summary().workersSpawned;
        count("serve/workers/spawned");
        if (!writeLine(workers[index].toFd, designsLine))
            onWorkerGone(index);
    }

    /** @return a dead slot to reuse for a respawn, or -1. */
    int
    idleSlot() const
    {
        for (size_t i = 0; i < workers.size(); ++i)
            if (!workers[i].alive)
                return static_cast<int>(i);
        return -1;
    }

    void
    dispatch()
    {
        while (true) {
            int workerIndex = -1;
            for (size_t i = 0; i < workers.size(); ++i) {
                if (workers[i].alive && workers[i].shard < 0) {
                    workerIndex = static_cast<int>(i);
                    break;
                }
            }
            if (workerIndex < 0)
                return;
            int shardId = popDispatchable();
            if (shardId < 0)
                return;
            sendShard(workerIndex, shardId);
        }
    }

    /** Pop the first pending shard that is not completed and whose
     * backoff gate has passed; -1 when none is ready. */
    int
    popDispatchable()
    {
        Clock::time_point now = Clock::now();
        for (auto it = pending.begin(); it != pending.end();) {
            ShardTrack &track = tracks[*it];
            if (!track.completed && shardFilled(track)) {
                // Every row arrived before the attempt's done record
                // (e.g. the worker crashed between its last result
                // and shard-done): nothing left to dispatch.
                track.completed = true;
                track.checkpoints.clear();
            }
            if (track.completed) {
                // Completed while queued (a duplicate attempt won).
                it = pending.erase(it);
                continue;
            }
            if (track.notBefore <= now) {
                int id = *it;
                pending.erase(it);
                return id;
            }
            ++it;
        }
        return -1;
    }

    void
    sendShard(int workerIndex, int shardId)
    {
        ShardTrack &track = tracks[shardId];
        Json record = Json::makeObject();
        record.set("t", Json("shard"));
        record.set("shard", Json(shardId));
        // Only the jobs still missing rows: a re-dispatch after a
        // mid-shard crash carries the unfinished remainder, plus the
        // latest banked checkpoint for any job interrupted mid-run.
        Json jobs = Json::makeArray();
        Json resume = Json::makeArray();
        size_t resumable = 0;
        for (size_t j = 0; j < track.shard.count; ++j) {
            size_t index = track.shard.first + j;
            if (haveRow[index])
                continue;
            jobs.push(jobToJson(set.jobs[index]));
            auto it = track.checkpoints.find(index);
            if (it == track.checkpoints.end())
                continue;
            Json entry = Json::makeObject();
            entry.set("job", Json(static_cast<uint64_t>(index)));
            entry.set("snap", Json(it->second));
            resume.push(std::move(entry));
            ++resumable;
        }
        record.set("jobs", std::move(jobs));
        if (resumable > 0)
            record.set("resume", std::move(resume));

        if (track.attempts > 0) {
            ++summary().retries;
            count("serve/retries");
        }
        ++track.attempts;
        ++track.inFlight;
        track.lastProgress = Clock::now();
        workers[workerIndex].shard = shardId;
        count("serve/shards/dispatched");
        if (!writeLine(workers[workerIndex].toFd, record.dump())) {
            // The worker died before reading: the crash path sees the
            // in-flight shard and requeues/respawns as usual.
            onWorkerGone(workerIndex);
        }
    }

    int
    nextTimeoutMs() const
    {
        int64_t timeout = 250;  // liveness ceiling
        Clock::time_point now = Clock::now();
        if (options.deadlineMs > 0) {
            for (const ShardTrack &track : tracks) {
                if (track.completed || track.inFlight == 0)
                    continue;
                int64_t remain =
                    options.deadlineMs -
                    msBetween(track.lastProgress, now);
                timeout = std::min(timeout, std::max<int64_t>(remain,
                                                              1));
            }
        }
        for (int id : pending) {
            const ShardTrack &track = tracks[id];
            if (track.completed)
                continue;
            int64_t remain = msBetween(now, track.notBefore);
            if (remain > 0)
                timeout = std::min(timeout, remain);
        }
        return static_cast<int>(std::max<int64_t>(timeout, 1));
    }

    void
    pollWorkers(int timeoutMs)
    {
        std::vector<struct pollfd> fds;
        std::vector<int> fdWorker;
        for (size_t i = 0; i < workers.size(); ++i) {
            if (!workers[i].alive)
                continue;
            struct pollfd pfd;
            pfd.fd = workers[i].fromFd;
            pfd.events = POLLIN;
            pfd.revents = 0;
            fds.push_back(pfd);
            fdWorker.push_back(static_cast<int>(i));
        }
        if (fds.empty())
            return;
        int ready = ::poll(fds.data(),
                           static_cast<nfds_t>(fds.size()), timeoutMs);
        if (ready <= 0)
            return;
        for (size_t f = 0; f < fds.size(); ++f) {
            if (fds[f].revents == 0)
                continue;
            drainWorker(fdWorker[f]);
        }
    }

    void
    drainWorker(int workerIndex)
    {
        WorkerState &worker = workers[workerIndex];
        while (worker.alive) {
            LineReader::Fill fill = worker.reader.fill(worker.fromFd);
            std::string line;
            while (worker.reader.next(line))
                handleRecord(workerIndex, line);
            if (fill == LineReader::Fill::Eof) {
                onWorkerGone(workerIndex);
                return;
            }
            if (fill == LineReader::Fill::WouldBlock)
                return;
        }
    }

    void
    handleRecord(int workerIndex, const std::string &line)
    {
        Json record = Json::parse(line);
        if (options.onRecord) {
            options.onRecord(record, workerIndex,
                             workers[workerIndex].pid);
        }
        const std::string &type = record.at("t").asString();
        if (type == "hello")
            return;
        if (type == "hb") {
            ++summary().heartbeats;
            count("serve/heartbeats");
            int shardId =
                static_cast<int>(record.at("shard").asInt());
            if (!tracks[shardId].completed)
                tracks[shardId].lastProgress = Clock::now();
            return;
        }
        if (type == "ckpt") {
            // A mid-run checkpoint: bank the latest per job so a
            // replacement attempt resumes instead of restarting. Also
            // progress for the straggler clock — the simulation is
            // demonstrably advancing.
            ++summary().checkpoints;
            count("serve/checkpoints");
            int shardId =
                static_cast<int>(record.at("shard").asInt());
            size_t index =
                static_cast<size_t>(record.at("job").asInt());
            OG_ASSERT(index < set.jobs.size(),
                      "worker sent a checkpoint for unknown job ",
                      index);
            ShardTrack &track = tracks[shardId];
            if (track.completed)
                return;
            track.lastProgress = Clock::now();
            if (!haveRow[index])
                track.checkpoints[index] =
                    record.at("snap").asString();
            return;
        }
        if (type == "result") {
            size_t index =
                static_cast<size_t>(record.at("job").asInt());
            OG_ASSERT(index < set.jobs.size(),
                      "worker sent a row for unknown job ", index);
            if (haveRow[index]) {
                ++summary().duplicates;
                count("serve/duplicates");
                return;
            }
            outcome.rows[index] =
                resultFromJson(record.at("row"));
            haveRow[index] = true;
            ++filledRows;
            if (record.contains("resumed") &&
                record.at("resumed").asBool()) {
                ++summary().resumed;
                count("serve/resumed");
            }
            int shardId = workers[workerIndex].shard;
            if (shardId >= 0 && !tracks[shardId].completed) {
                tracks[shardId].lastProgress = Clock::now();
                tracks[shardId].checkpoints.erase(index);
            }
            return;
        }
        OG_ASSERT(type == "done", "unexpected worker record '", type,
                  "'");
        int shardId = static_cast<int>(record.at("shard").asInt());
        ShardTrack &track = tracks[shardId];
        track.inFlight = std::max(track.inFlight - 1, 0);
        workers[workerIndex].shard = -1;
        if (!track.completed && shardFilled(track)) {
            track.completed = true;
            track.checkpoints.clear();
        }
        if (!track.completed && track.inFlight == 0)
            requeueOrAbandon(shardId);
    }

    bool
    shardFilled(const ShardTrack &track) const
    {
        for (size_t j = 0; j < track.shard.count; ++j)
            if (!haveRow[track.shard.first + j])
                return false;
        return true;
    }

    void
    onWorkerGone(int workerIndex)
    {
        WorkerState &worker = workers[workerIndex];
        if (!worker.alive)
            return;
        worker.alive = false;
        ::close(worker.toFd);
        ::close(worker.fromFd);
        worker.toFd = worker.fromFd = -1;
        int status = 0;
        ::waitpid(worker.pid, &status, 0);
        int shardId = worker.shard;
        worker.shard = -1;
        if (shardId >= 0 && !tracks[shardId].completed) {
            ++summary().crashes;
            count("serve/crashes");
            ShardTrack &track = tracks[shardId];
            track.inFlight = std::max(track.inFlight - 1, 0);
            if (track.inFlight == 0)
                requeueOrAbandon(shardId);
            if (options.respawnWorkers && respawnBudget > 0) {
                --respawnBudget;
                ++summary().respawns;
                count("serve/respawns");
                spawnWorker();
            }
        }
    }

    void
    requeueOrAbandon(int shardId)
    {
        ShardTrack &track = tracks[shardId];
        if (track.attempts < options.maxAttempts) {
            track.notBefore =
                Clock::now() +
                std::chrono::milliseconds(
                    static_cast<int64_t>(options.backoffMs) *
                    track.attempts);
            if (std::find(pending.begin(), pending.end(), shardId) ==
                pending.end())
                pending.push_back(shardId);
            return;
        }
        for (size_t j = 0; j < track.shard.count; ++j) {
            size_t index = track.shard.first + j;
            if (haveRow[index])
                continue;
            ResultRow row;
            row.diagnostic =
                "abandoned after " + std::to_string(track.attempts) +
                " attempts";
            outcome.rows[index] = std::move(row);
            haveRow[index] = true;
            ++filledRows;
            ++summary().abandoned;
            count("serve/abandoned");
        }
        track.completed = true;
        track.checkpoints.clear();
    }

    void
    checkDeadlines()
    {
        if (options.deadlineMs <= 0)
            return;
        Clock::time_point now = Clock::now();
        for (ShardTrack &track : tracks) {
            if (track.completed || track.inFlight == 0)
                continue;
            if (msBetween(track.lastProgress, now) <
                options.deadlineMs)
                continue;
            ++summary().timeouts;
            count("serve/timeouts");
            track.lastProgress = now;  // one firing per deadline
            if (track.attempts < options.maxAttempts) {
                // Straggler: race a duplicate attempt; first result
                // per job wins, the loser's rows count as duplicates.
                if (std::find(pending.begin(), pending.end(),
                              track.shard.id) == pending.end())
                    pending.push_back(track.shard.id);
            } else {
                // Every allowed attempt is wedged: abandon now rather
                // than wait on workers that will never answer (any
                // late rows they do send drop as duplicates).
                requeueOrAbandon(track.shard.id);
            }
        }
    }

    /** Dead-pool backstop: with work left but nobody to run it (all
     * workers dead, respawns exhausted or disabled), fail the
     * remaining shards instead of spinning forever. */
    void
    ensureLiveness()
    {
        bool anyAlive = false;
        for (const WorkerState &worker : workers)
            anyAlive |= worker.alive;
        if (anyAlive)
            return;
        if (filledRows < set.jobs.size() &&
            (!options.respawnWorkers || respawnBudget <= 0)) {
            for (ShardTrack &track : tracks) {
                if (!track.completed) {
                    track.attempts = options.maxAttempts;
                    requeueOrAbandon(track.shard.id);
                }
            }
            return;
        }
        if (filledRows < set.jobs.size()) {
            --respawnBudget;
            ++summary().respawns;
            count("serve/respawns");
            spawnWorker();
        }
    }

    void
    shutdown()
    {
        Json bye = Json::makeObject();
        bye.set("t", Json("bye"));
        std::string byeLine = bye.dump();
        for (WorkerState &worker : workers) {
            if (worker.alive)
                writeLine(worker.toFd, byeLine);
        }
        Clock::time_point start = Clock::now();
        while (true) {
            bool anyAlive = false;
            for (size_t i = 0; i < workers.size(); ++i) {
                if (workers[i].alive) {
                    anyAlive = true;
                    drainWorker(static_cast<int>(i));
                }
            }
            if (!anyAlive)
                return;
            if (msBetween(start, Clock::now()) >
                options.shutdownGraceMs)
                break;
            pollWorkers(20);
        }
        // Grace expired: SIGKILL whatever lingers (a SIGSTOPped or
        // wedged worker) and reap it.
        for (size_t i = 0; i < workers.size(); ++i) {
            if (!workers[i].alive)
                continue;
            ::kill(workers[i].pid, SIGKILL);
            onWorkerGone(static_cast<int>(i));
        }
    }

    const JobSet &set;
    const CoordinatorOptions &options;
    std::string designsLine;
    ServeOutcome outcome;
    std::vector<bool> haveRow;
    size_t filledRows = 0;
    std::vector<WorkerState> workers;
    std::vector<ShardTrack> tracks;
    std::deque<int> pending;
    int respawnBudget = 0;
};

} // namespace

Json
ServeOutcome::summaryJson() const
{
    Json obj = Json::makeObject();
    obj.set("type", Json("serve_summary"));
    obj.set("jobs", Json(summary.jobs));
    obj.set("shards", Json(summary.shards));
    obj.set("workers_spawned", Json(summary.workersSpawned));
    obj.set("respawns", Json(summary.respawns));
    obj.set("retries", Json(summary.retries));
    obj.set("timeouts", Json(summary.timeouts));
    obj.set("crashes", Json(summary.crashes));
    obj.set("duplicates", Json(summary.duplicates));
    obj.set("heartbeats", Json(summary.heartbeats));
    obj.set("checkpoints", Json(summary.checkpoints));
    obj.set("resumed", Json(summary.resumed));
    obj.set("abandoned", Json(summary.abandoned));
    obj.set("ok", Json(summary.ok));
    return obj;
}

ServeOutcome
serveJobs(const JobSet &set, const CoordinatorOptions &options)
{
    Coordinator coordinator(set, options);
    return coordinator.run();
}

} // namespace overgen::serve
