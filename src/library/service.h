#ifndef OVERGEN_LIBRARY_SERVICE_H
#define OVERGEN_LIBRARY_SERVICE_H

/**
 * @file
 * The request-serving layer over the overlay library. processBatch
 * admits a batch of kernel requests and runs one sequence for it:
 *  1. score the (workload, entry) pairs that have no record yet, for
 *     the batch's distinct workloads;
 *  2. pick each workload's winner from the records (matchKernel,
 *     library/matcher.h, is then a pure lookup);
 *  3. warm the distinct misses — a bounded DSE run each — and insert
 *     the new entries in first-miss order;
 *  4. score the pairs still missing for those misses and pick again.
 *
 * Steps 1, 3 and 4 each build a serve::JobSet of Match or Warm jobs
 * and hand it to one executor, the only place the two modes differ:
 * server mode (ServiceOptions::useServer) runs the set on the
 * service's serve::WorkerPool (forked workers, crash recovery);
 * in-process mode runs the same library job handler
 * (makeLibraryHandler) on each job inline. The pool is created
 * at the first server run, after the resource model has trained (so
 * workers inherit it), lives as long as the service, and receives each
 * entry's design once; the service's destructor shuts it down. Any row the server loses
 * (a shard abandoned after repeated crashes) is recomputed inline by
 * that handler, so even a degraded run converges to the same library.
 * The handler reaches the serve layer through
 * CoordinatorOptions::handler, keeping serve free of any library
 * dependency.
 *
 * Batched-admission determinism contract: the library file produced
 * by replaying a request trace is a pure function of the trace —
 * independent of worker count, in-process vs server execution, and
 * crash/retry scheduling. The pieces that make that true:
 *  - warm DSE seeds are a pure function of the workload name, and
 *    the DSE trajectory is thread-count-invariant;
 *  - new entries are inserted in first-miss order (job order), never
 *    completion order;
 *  - per-kernel records are memoized values of pure scoring functions
 *    and kept name-sorted inside each entry, so the record *set* —
 *    not the computation schedule — determines the bytes;
 *  - job rows are pure functions of their JobSpec, so crash retries
 *    and inline recomputation both reproduce the same row.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "library/matcher.h"
#include "serve/coordinator.h"

namespace overgen::library {

/** Service knobs. */
struct ServiceOptions
{
    MatchOptions match;
    /** DSE iteration budget of one warm run. */
    int warmIterations = 8;
    /** Use the shrunken test-size workload table (serve smallSize
     * convention; scoring and DSE never simulate, so this mostly
     * affects compile/variant shapes). */
    bool smallSize = false;
    /** Run Match/Warm jobs through the serve coordinator (forked
     * workers) instead of in-process. */
    bool useServer = false;
    /** Coordinator knobs for server mode (handler is installed by the
     * service; anything set here is preserved). */
    serve::CoordinatorOptions serve;
};

/** Per-request outcome of one processBatch call. */
struct RequestOutcome
{
    std::string workload;
    /** The request matched an existing entry at admission time. */
    bool hit = false;
    /** The request's workload was warmed by this batch (every
     * request of a missed workload in the batch shares the warm). */
    bool warmed = false;
    /** Final routing: the library entry serving this request (-1 when
     * even the warmed overlay cannot schedule the kernel). */
    int entryIndex = -1;
    KernelRecord record;
};

/**
 * The DSE fallback of one miss: explore an overlay for @p workload
 * with a fixed (seed, iterations) budget and package the result as a
 * library entry (canonical design, fingerprints, resource footprint,
 * and the kernel's own score record). Pure: identical arguments give
 * identical entries, in any process.
 */
LibraryEntry warmOverlay(const std::string &workload, bool smallSize,
                         bool applyTuning, uint64_t seed,
                         int iterations,
                         const MatchOptions &options = {});

/**
 * The serve-layer executor for library jobs: scores Match jobs
 * against the shard's design table and runs warmOverlay for Warm
 * jobs (payload = the entry's JSON). Install on
 * CoordinatorOptions::handler.
 */
serve::JobHandler makeLibraryHandler(MatchOptions options = {});

/** A long-lived library + matcher + warmer (see file comment). */
class LibraryService
{
  public:
    explicit LibraryService(ServiceOptions options = {},
                            OverlayLibrary lib = {});

    /**
     * Admit a batch of requests (workload names, duplicates allowed),
     * run the sequence of the file comment, and return one outcome
     * per request (input order).
     */
    std::vector<RequestOutcome>
    processBatch(const std::vector<std::string> &workloads);

    OverlayLibrary &library() { return lib; }
    const OverlayLibrary &library() const { return lib; }

    /** One summary per pool run made in server mode (a batch whose
     * pairs are all recorded and that misses nothing makes none). */
    const std::vector<serve::ServeSummary> &
    serveSummaries() const
    {
        return summaries;
    }

    /** Concatenated merged JSONL of every pool run (byte-stable
     * across worker counts; the warming tests compare it). */
    const std::string &serveLog() const { return mergedLog; }

  private:
    /** Run @p set (server or inline, see the file comment); @return
     * one ok row per job, index-ordered. */
    std::vector<serve::ResultRow> executeJobs(const serve::JobSet &set);
    /** Record every entry's score for each of @p workloads that has
     * no record yet. */
    void scoreMissing(const std::vector<std::string> &workloads);
    /** Warm each of @p misses and insert the entries in order. */
    void warm(const std::vector<std::string> &misses);
    MatchResult pick(const std::string &workload) const;

    OverlayLibrary lib;
    ServiceOptions options;
    serve::JobHandler handler;
    /** Server mode's workers, forked at the first server run. */
    std::unique_ptr<serve::WorkerPool> pool;
    /** Entry i's design as JSON text, encoded once per entry. */
    std::vector<std::string> designText;
    std::vector<serve::ServeSummary> summaries;
    std::string mergedLog;
};

} // namespace overgen::library

#endif // OVERGEN_LIBRARY_SERVICE_H
