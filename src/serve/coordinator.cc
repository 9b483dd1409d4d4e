#include "serve/coordinator.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <map>
#include <optional>

#include "common/json_fields.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "serve/shard.h"
#include "serve/worker.h"
#include "telemetry/sink.h"

namespace overgen::serve {

namespace {

using Clock = std::chrono::steady_clock;

/** Backoff base: a re-queued shard waits attempts * kBackoffMs before
 * re-dispatch. */
constexpr int64_t kBackoffMs = 25;

int64_t
msBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               to - from)
        .count();
}

/** Ignore SIGPIPE while in scope: a worker dying mid-write must
 * surface as EPIPE, not kill the coordinator. Workers forked in scope
 * inherit the disposition. */
class IgnoreSigpipe
{
  public:
    IgnoreSigpipe()
    {
        struct sigaction ignore = {};
        ignore.sa_handler = SIG_IGN;
        ::sigaction(SIGPIPE, &ignore, &saved);
    }
    ~IgnoreSigpipe() { ::sigaction(SIGPIPE, &saved, nullptr); }

  private:
    struct sigaction saved = {};
};

/** One forked worker and its pipes (parent-side view). */
struct WorkerState
{
    pid_t pid = -1;
    int toFd = -1;    //!< coordinator -> worker
    int fromFd = -1;  //!< worker -> coordinator
    LineReader reader;
    int shard = -1;  //!< in-flight shard id, -1 when idle
    bool alive = false;
    size_t shipped = 0;  //!< pool-table designs this worker holds
};

/** Dispatch/retry state of one shard. */
struct ShardTrack
{
    Shard shard;
    int attempts = 0;  //!< dispatches so far
    bool completed = false;
    Clock::time_point notBefore;  //!< backoff gate for re-dispatch
};

} // namespace

/** The single-threaded coordinator event loop (see header). */
class WorkerPool::Impl
{
  public:
    explicit Impl(CoordinatorOptions opts) : options(std::move(opts)) {}
    ~Impl() { shutdown(); }
    Impl(const Impl &) = delete;
    Impl &operator=(const Impl &) = delete;

    ServeOutcome
    run(const JobSet &jobSet)
    {
        outcome = ServeOutcome();
        outcome.rows.resize(jobSet.jobs.size());
        haveRow.assign(jobSet.jobs.size(), false);
        filledRows = 0;
        summary().jobs = jobSet.jobs.size();
        if (jobSet.jobs.empty()) {
            summary().ok = true;
            return std::move(outcome);
        }
        IgnoreSigpipe sigpipe;
        set = &jobSet;
        internDesigns();

        std::vector<Shard> shards =
            planShards(set->jobs.size(), options.shardSize);
        summary().shards = shards.size();
        tracks.clear();
        pending.clear();
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

        reapIdleWorkers();
        for (size_t i = 0; i < workers.size(); ++i)
            if (workers[i].alive)
                shipDesigns(static_cast<int>(i));
        int poolSize = std::max(
            1, std::min<int>(options.workers,
                             static_cast<int>(shards.size())));
        for (int n = poolSize - aliveWorkers(); n > 0; --n)
            spawnWorker();

        while (filledRows < set->jobs.size()) {
            dispatch();
            pollWorkers(nextTimeoutMs());
            ensureLiveness();
        }
        settle();

        summary().ok = summary().abandoned == 0;
        count("serve/jobs/completed",
              filledRows - summary().abandoned);
        set = nullptr;
        tracks.clear();
        pending.clear();
        return std::move(outcome);
    }

    std::vector<pid_t>
    workerPids() const
    {
        std::vector<pid_t> pids;
        for (const WorkerState &worker : workers)
            if (worker.alive)
                pids.push_back(worker.pid);
        return pids;
    }

  private:
    ServeSummary &summary() { return outcome.summary; }

    void
    count(const std::string &path, uint64_t n = 1)
    {
        if (options.sink != nullptr && n > 0)
            options.sink->registry().counter(path).add(n);
    }

    int
    aliveWorkers() const
    {
        int alive = 0;
        for (const WorkerState &worker : workers)
            alive += worker.alive ? 1 : 0;
        return alive;
    }

    /** Append the run's designs the pool has not seen to the pool
     * table, and map the run's design ids onto it (view). */
    void
    internDesigns()
    {
        view.clear();
        for (const std::string &text : set->designs) {
            auto [it, added] = tableIds.try_emplace(
                text, static_cast<int>(table.size()));
            if (added)
                table.push_back(&it->first);
            view.push_back(it->second);
        }
    }

    /** Send worker @p index the pool-table designs it lacks plus this
     * run's view, as one "designs" record. */
    void
    shipDesigns(int index)
    {
        WorkerState &worker = workers[index];
        std::string line = "{\"t\":\"designs\",\"designs\":[";
        for (size_t i = worker.shipped; i < table.size(); ++i) {
            if (i > worker.shipped)
                line += ',';
            line += *table[i];
        }
        line += "],\"table\":[";
        for (size_t i = 0; i < view.size(); ++i) {
            if (i > 0)
                line += ',';
            line += std::to_string(view[i]);
        }
        line += "]}";
        worker.shipped = table.size();
        if (!writeLine(worker.toFd, line))
            onWorkerGone(index);
    }

    void
    spawnWorker()
    {
        OG_ASSERT(liveThreadPools() == 0,
                  "serve layer forked with ", liveThreadPools(),
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
        shipDesigns(index);
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

    /** Run start: an idle worker that exited, stopped, or sent
     * anything but its hello since the last run is reaped (and later
     * replaced), never handed work. */
    void
    reapIdleWorkers()
    {
        for (size_t i = 0; i < workers.size(); ++i) {
            if (!workers[i].alive)
                continue;
            int status = 0;
            pid_t changed = ::waitpid(workers[i].pid, &status,
                                      WNOHANG | WUNTRACED);
            if (changed != 0) {
                // Exited (now reaped, so never signalled again: its
                // pid may be reused) or stopped (killed, then reaped).
                if (changed > 0 && WIFSTOPPED(status))
                    ::kill(workers[i].pid, SIGKILL);
                onWorkerGone(static_cast<int>(i));
                continue;
            }
            drainWorker(static_cast<int>(i));
        }
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

    /** Pop the first pending shard that still misses rows and whose
     * backoff gate has passed; -1 when none is ready. */
    int
    popDispatchable()
    {
        Clock::time_point now = Clock::now();
        for (auto it = pending.begin(); it != pending.end();) {
            ShardTrack &track = tracks[*it];
            // Every row is in: the worker crashed between its last
            // result and its done record, or the dead-pool backstop
            // abandoned the shard while it was queued.
            if (shardFilled(track)) {
                track.completed = true;
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
        // mid-shard crash carries the unfinished remainder.
        Json jobs = Json::makeArray();
        for (size_t j = 0; j < track.shard.count; ++j) {
            size_t index = track.shard.first + j;
            if (!haveRow[index])
                jobs.push(jobToJson(set->jobs[index]));
        }
        record.set("jobs", std::move(jobs));

        if (track.attempts > 0) {
            ++summary().retries;
            count("serve/retries");
        }
        ++track.attempts;
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
        for (int id : pending) {
            const ShardTrack &track = tracks[id];
            if (track.completed || track.notBefore <= now)
                continue;
            // Round up: waking before the gate opens would find nothing
            // to dispatch and fall back to the liveness ceiling.
            timeout = std::min(timeout,
                               msBetween(now, track.notBefore) + 1);
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
            // Skip a slot whose worker was retired (and possibly
            // replaced) while an earlier fd was drained.
            const WorkerState &worker = workers[fdWorker[f]];
            if (fds[f].revents == 0 || !worker.alive ||
                worker.fromFd != fds[f].fd)
                continue;
            drainWorker(fdWorker[f]);
        }
    }

    void
    drainWorker(int workerIndex)
    {
        // A bad record retires the worker, and a respawn may reuse
        // its slot: stop as soon as the slot holds another process.
        pid_t pid = workers[workerIndex].pid;
        auto same = [&] {
            return workers[workerIndex].alive &&
                   workers[workerIndex].pid == pid;
        };
        while (same()) {
            WorkerState &worker = workers[workerIndex];
            LineReader::Fill fill = worker.reader.fill(worker.fromFd);
            std::string line;
            while (same() && workers[workerIndex].reader.next(line))
                handleRecord(workerIndex, line);
            if (!same())
                return;
            if (fill == LineReader::Fill::Eof) {
                onWorkerGone(workerIndex);
                return;
            }
            if (fill == LineReader::Fill::WouldBlock)
                return;
        }
    }

    /**
     * Check @p record against the attempt worker @p workerIndex
     * holds: a shard id must be that attempt's shard and a job id one
     * of its jobs still missing a row, so no record can touch another
     * shard or another run, or overwrite a banked row. Decodes a
     * result's row into @p row. @return false with a named @p error
     * otherwise.
     */
    bool
    checkRecord(int workerIndex, const Json &record,
                std::optional<ResultRow> &row, std::string &error) const
    {
        std::string type;
        if (!getString(record, "t", type, &error))
            return false;
        if (type == "hello")
            return true;
        if (type != "hb" && type != "result" && type != "done") {
            error = "unknown record type '" + type + "'";
            return false;
        }
        int shardId = workers[workerIndex].shard;
        if (shardId < 0) {
            error = "'" + type + "' record from a worker holding no "
                    "attempt";
            return false;
        }
        const Shard &shard = tracks[shardId].shard;
        int64_t id = 0;
        if (type != "result" &&
            !getInteger(record, "shard", shardId, shardId, id, &error))
            return false;
        if (type == "result") {
            int64_t first = static_cast<int64_t>(shard.first);
            int64_t last =
                first + static_cast<int64_t>(shard.count) - 1;
            if (!getInteger(record, "job", first, last, id, &error))
                return false;
            if (haveRow[static_cast<size_t>(id)]) {
                // The one attempt in flight carries only jobs missing
                // rows, so a well-behaved worker never repeats one.
                error = "repeated row for job " + std::to_string(id);
                return false;
            }
            if (!record.contains("row")) {
                error = "result record without a row";
                return false;
            }
            row = resultFromJson(record.at("row"), &error);
            return row.has_value();
        }
        return true;
    }

    void
    handleRecord(int workerIndex, const std::string &line)
    {
        std::string error;
        std::optional<ResultRow> row;
        std::optional<Json> parsed = Json::tryParse(line, &error);
        if (!parsed || !checkRecord(workerIndex, *parsed, row, error)) {
            // Outside input gone wrong: handle it like a crash.
            OG_WARN("serve worker ", workers[workerIndex].pid,
                    " sent a bad record (", error, "); retiring it");
            ::kill(workers[workerIndex].pid, SIGKILL);
            onWorkerGone(workerIndex);
            return;
        }
        const Json &record = *parsed;
        if (options.onRecord) {
            options.onRecord(record, workerIndex,
                             workers[workerIndex].pid);
        }
        const std::string &type = record.at("t").asString();
        if (type == "hello")
            return;
        int shardId = workers[workerIndex].shard;
        ShardTrack &track = tracks[shardId];
        if (type == "hb") {
            ++summary().heartbeats;
            count("serve/heartbeats");
            return;
        }
        if (type == "result") {
            size_t index =
                static_cast<size_t>(record.at("job").asInt());
            outcome.rows[index] = std::move(*row);
            haveRow[index] = true;
            ++filledRows;
            return;
        }
        // "done": the attempt is over and the worker is idle again.
        workers[workerIndex].shard = -1;
        if (shardFilled(track))
            track.completed = true;
        else
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

    /** Close worker @p workerIndex's pipes and reap it; an attempt it
     * held on an unfinished shard counts as a crash (requeue, then a
     * respawn within the budget). */
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
            requeueOrAbandon(shardId);
            if (respawnBudget > 0) {
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
                std::chrono::milliseconds(kBackoffMs * track.attempts);
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
    }

    /** Dead-pool backstop: with work left but nobody to run it (all
     * workers dead, respawns exhausted), fail the remaining shards
     * instead of spinning forever. */
    void
    ensureLiveness()
    {
        if (aliveWorkers() > 0)
            return;
        if (filledRows < set->jobs.size() && respawnBudget <= 0) {
            for (ShardTrack &track : tracks) {
                if (!track.completed) {
                    track.attempts = options.maxAttempts;
                    requeueOrAbandon(track.shard.id);
                }
            }
            return;
        }
        if (filledRows < set->jobs.size()) {
            --respawnBudget;
            ++summary().respawns;
            count("serve/respawns");
            spawnWorker();
        }
    }

    bool
    anyAttemptHeld() const
    {
        for (const WorkerState &worker : workers)
            if (worker.alive && worker.shard >= 0)
                return true;
        return false;
    }

    /** Run end: every row is in. Give workers still holding an
     * attempt (usually just a "done" in flight) the grace period,
     * then SIGKILL and reap the rest — a worker that sent its rows
     * but never finished is never reused by a later run. */
    void
    settle()
    {
        for (ShardTrack &track : tracks)
            track.completed = true;
        Clock::time_point start = Clock::now();
        while (anyAttemptHeld() &&
               msBetween(start, Clock::now()) <=
                   options.shutdownGraceMs)
            pollWorkers(20);
        for (size_t i = 0; i < workers.size(); ++i) {
            if (!workers[i].alive || workers[i].shard < 0)
                continue;
            ::kill(workers[i].pid, SIGKILL);
            onWorkerGone(static_cast<int>(i));
        }
    }

    void
    shutdown()
    {
        if (aliveWorkers() == 0)
            return;
        IgnoreSigpipe sigpipe;
        Json bye = Json::makeObject();
        bye.set("t", Json("bye"));
        std::string byeLine = bye.dump();
        for (WorkerState &worker : workers) {
            if (worker.alive)
                writeLine(worker.toFd, byeLine);
        }
        Clock::time_point start = Clock::now();
        while (aliveWorkers() > 0 &&
               msBetween(start, Clock::now()) <=
                   options.shutdownGraceMs) {
            for (size_t i = 0; i < workers.size(); ++i)
                if (workers[i].alive)
                    drainWorker(static_cast<int>(i));
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

    const CoordinatorOptions options;
    std::vector<WorkerState> workers;
    /** Append-only design table: design text -> pool id, and pool id
     * -> that text (map keys are address-stable). */
    std::map<std::string, int> tableIds;
    std::vector<const std::string *> table;

    /** @name Per-run state (reset by run()) */
    /// @{
    const JobSet *set = nullptr;
    std::vector<int> view;  //!< run design id -> pool table id
    ServeOutcome outcome;
    std::vector<bool> haveRow;
    size_t filledRows = 0;
    std::vector<ShardTrack> tracks;
    std::deque<int> pending;
    int respawnBudget = 0;
    /// @}
};

WorkerPool::WorkerPool(CoordinatorOptions options)
    : impl(std::make_unique<Impl>(std::move(options)))
{
}

WorkerPool::~WorkerPool() = default;

ServeOutcome
WorkerPool::run(const JobSet &set)
{
    return impl->run(set);
}

std::vector<pid_t>
WorkerPool::workerPids() const
{
    return impl->workerPids();
}

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
    obj.set("crashes", Json(summary.crashes));
    obj.set("heartbeats", Json(summary.heartbeats));
    obj.set("abandoned", Json(summary.abandoned));
    obj.set("ok", Json(summary.ok));
    return obj;
}

ServeOutcome
serveJobs(const JobSet &set, const CoordinatorOptions &options)
{
    WorkerPool pool(options);
    return pool.run(set);
}

} // namespace overgen::serve
