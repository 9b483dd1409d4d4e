#ifndef OVERGEN_SERVE_WIRE_H
#define OVERGEN_SERVE_WIRE_H

/**
 * @file
 * Wire protocol of the overlay-generation job server: newline-
 * delimited JSON records exchanged between the coordinator and its
 * worker processes over pipes (see DESIGN.md "Serving layer").
 *
 * Record types (every record is one line, discriminated by "t"):
 *
 *   coordinator -> worker
 *     {"t":"designs","designs":[<sysadg json>, ...],
 *      "table":[P, ...]}                               design table
 *     {"t":"shard","shard":K,"jobs":[<job>, ...]}      work assignment
 *     {"t":"bye"}                                      orderly shutdown
 *
 *   worker -> coordinator
 *     {"t":"hello","pid":P}                            post-fork handshake
 *     {"t":"hb","shard":K,"done":D,"total":N}          progress heartbeat
 *     {"t":"result","job":J,"row":{...}}               one OverlayRun row
 *     {"t":"done","shard":K}                           shard complete
 *
 * A worker's design table is append-only (see serve/coordinator.h,
 * WorkerPool): a "designs" record appends the designs the worker has
 * not seen yet, and its "table" maps each design id of the current
 * run's JobSet to a position in that append-only table. So a worker
 * decodes each design once, however many runs reference it.
 *
 * A shard record's "jobs" array holds only the jobs that still need
 * rows — a re-dispatch after a crash carries just the unfinished
 * remainder, and an interrupted job reruns from cycle 0. No simulator
 * state crosses the pipe, so a worker never decodes another process's
 * snapshot bytes.
 *
 * Determinism contract: a job's result row is a pure function of the
 * job descriptor (the simulator is single-threaded-deterministic), and
 * rows carry no wall-clock, pid, or worker-identity fields — so the
 * merged, index-ordered output is byte-identical for any worker count
 * and shard size. Progress counts live only in heartbeat records and
 * the final summary, which are not part of the merged stream.
 */

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adg/adg.h"
#include "common/json.h"

namespace overgen::serve {

/**
 * What a job asks the worker to do. Generate is the original serve
 * contract (compile + schedule + simulate one workload on one
 * design). Match and Warm are the overlay-library job types
 * (src/library/): the serve layer carries them generically and hands
 * them to the installed JobHandler — it never depends on the library.
 */
enum class JobKind : uint8_t {
    Generate,  //!< simulate job.workload on job.designId
    Match,     //!< score job.workload against job.matchDesigns
    Warm,      //!< bounded DSE for job.workload (seed/iterations below)
};

/** One (design, workload) simulation job, the unit of retry and of
 * the merged output ordering. */
struct JobSpec
{
    /** Position of this job's row in the merged output. */
    uint64_t index = 0;
    /** Workload name (wl::workloadByName / smallWorkloadByName key). */
    std::string workload;
    /** Run the shrunken test-size instance instead of the paper size. */
    bool smallSize = false;
    /** Index into the JobSet design table. */
    int designId = 0;
    /** Compile with OverGen's source tuning (fig13/17 convention). */
    bool applyTuning = false;
    /** @name SimConfig overrides (defaults keep the stock values) */
    /// @{
    int dramLatency = 0;          //!< 0 keeps SimConfig::dramLatency
    int64_t deadlockCycles = -1;  //!< -1 keeps SimConfig::deadlockCycles
    /// @}
    /** @name Library job types (see JobKind; defaults = Generate) */
    /// @{
    JobKind kind = JobKind::Generate;
    /** Match: design-table ids to score the workload against. */
    std::vector<int> matchDesigns;
    /** Warm: DSE seed (hex on the wire — doubles cannot carry it). */
    uint64_t warmSeed = 0;
    /** Warm: DSE iteration budget. */
    int warmIterations = 0;
    /// @}
};

/**
 * A batch of jobs plus the interned design table they reference.
 * Designs are held as serialized JSON text and deduplicated by it, so
 * the fig13/17/19 pattern — every job on one shared design —
 * serializes the design once, not once per job.
 */
struct JobSet
{
    std::vector<std::string> designs;  //!< sysADG JSON text per id
    std::vector<JobSpec> jobs;

    /** Intern @p design, returning its table id (existing on dedup). */
    int addDesign(const adg::SysAdg &design);

    /** Intern an already-serialized design (the overlay library
     * encodes each entry's design once and reuses the text). */
    int addDesignText(std::string text);

    /** Append a job for @p workload on design @p designId; @return its
     * merged-output index. */
    uint64_t addJob(const std::string &workload, int designId,
                    bool applyTuning = false, bool smallSize = false);

    /** Append a Match job scoring @p workload against every design in
     * @p designIds; @return its merged-output index. */
    uint64_t addMatchJob(const std::string &workload,
                         std::vector<int> designIds,
                         bool applyTuning = false,
                         bool smallSize = false);

    /** Append a Warm job (bounded DSE, seed/iterations fixed on the
     * wire so the row is a pure function of the job); @return its
     * merged-output index. */
    uint64_t addWarmJob(const std::string &workload, uint64_t seed,
                        int iterations, bool applyTuning = false,
                        bool smallSize = false);

  private:
    std::map<std::string, int> designIds;  //!< dump() -> table id
};

/** One per-design match score inside a Match result row. */
struct WireScore
{
    int design = 0;         //!< design-table id this score is for
    bool feasible = false;  //!< some variant scheduled onto it
    double score = 0.0;     //!< model IPC x schedule throughput factor
    double ipc = 0.0;       //!< split-perf-model IPC estimate
    std::string variant;    //!< first-fit variant name (feasible only)
    std::string bottleneck; //!< perf-model limiting level
};

/** One result row: the scalar OverlayRun fields (per-component stats
 * stay in-process; see DESIGN.md "Serving layer"). */
struct ResultRow
{
    bool ok = false;
    bool deadlocked = false;
    /** Watchdog diagnostic / abandonment reason (empty when ok). */
    std::string diagnostic;
    std::string variant;
    uint64_t cycles = 0;
    double ipc = 0.0;
    /** Match rows: one score per matchDesigns entry, in order. */
    std::vector<WireScore> scores;
    /** Warm rows: the handler's result payload (a library entry);
     * null otherwise. Omitted from the wire when null, so Generate
     * rows serialize exactly as before. */
    Json payload;
};

/**
 * Executor for non-Generate jobs, installed via WorkerOptions /
 * CoordinatorOptions. Runs inside the (forked) worker process with
 * the shard's decoded design table; must be a pure function of the
 * job + designs so a retry after a crash stays byte-identical. The
 * overlay library installs one that scores Match jobs and runs
 * bounded DSE for Warm jobs (library/service.h).
 */
using JobHandler = std::function<ResultRow(
    const JobSpec &,
    const std::vector<std::shared_ptr<const adg::SysAdg>> &)>;

/** @name Record codecs
 * The decoders take bytes from another process: a missing or
 * ill-typed field, an out-of-range integer or an unknown job kind
 * returns nullopt with a named error in @p error (when non-null),
 * never a fatal error. */
/// @{
Json jobToJson(const JobSpec &job);
std::optional<JobSpec> jobFromJson(const Json &json,
                                   std::string *error = nullptr);
Json scoreToJson(const WireScore &score);
std::optional<WireScore> scoreFromJson(const Json &json,
                                       std::string *error = nullptr);
Json resultToJson(const ResultRow &row);
std::optional<ResultRow> resultFromJson(const Json &json,
                                        std::string *error = nullptr);

/** The canonical merged-output line for job @p job with result
 * @p row (no trailing newline). */
std::string mergedLine(const JobSpec &job, const ResultRow &row);

/** The full merged JSONL stream: one mergedLine per job, in job-index
 * order — byte-identical for every worker count and shard size. */
std::string mergedJsonl(const JobSet &set,
                        const std::vector<ResultRow> &rows);
/// @}

/** @name Line framing over pipes */
/// @{

/** Write @p line plus a newline to @p fd, retrying short writes and
 * EINTR. @return false on EPIPE/other errors (peer gone). */
bool writeLine(int fd, const std::string &line);

/** Incremental line splitter over a pipe fd. fill() pulls whatever
 * the fd has; next() pops complete lines in arrival order. */
class LineReader
{
  public:
    enum class Fill
    {
        Data,        //!< read at least one byte
        WouldBlock,  //!< nonblocking fd had nothing
        Eof,         //!< peer closed (or unrecoverable error)
    };

    /** Read once from @p fd into the buffer. */
    Fill fill(int fd);

    /** Pop the next complete line into @p line. */
    bool next(std::string &line);

  private:
    std::string buf;
    size_t scanned = 0;  //!< prefix of buf known to hold no newline
};

/** Blocking convenience: fill from @p fd until a full line or EOF. */
bool readLineBlocking(int fd, LineReader &reader, std::string &line);
/// @}

} // namespace overgen::serve

#endif // OVERGEN_SERVE_WIRE_H
