#ifndef OVERGEN_LIBRARY_MATCHER_H
#define OVERGEN_LIBRARY_MATCHER_H

/**
 * @file
 * Routing an incoming KernelSpec to the best feasible stored overlay.
 *
 * Scoring reuses the pieces that are already cheap: schedule
 * feasibility via the first-fit variant walk (paper Fig. 3's "relax
 * DFG complexity" loop) and the split performance model
 * (precomputeTilePerf + combineSystemPerf, the halves estimateIpc
 * composes). The score is the model IPC derated by the schedule's
 * pipeline-imbalance throughput factor — exactly the per-kernel
 * quantity the DSE objective aggregates, so the matcher's ranking
 * agrees with what the explorer optimizes for.
 *
 * Determinism: per-entry scores are pure functions of (entry,
 * kernel) and the argmax scan is sequential with a lowest-index tie
 * break, so a memoized record and a fresh score give the same pick
 * (tests/library/matcher_test.cc pins this against an exhaustive
 * oracle scan). Parallelism lives one level up: the library service
 * ships scoring to the serve worker pool (library/service.h).
 */

#include <functional>

#include "library/store.h"
#include "model/perf.h"
#include "workloads/kernelspec.h"

namespace overgen::library {

/** Matcher knobs. */
struct MatchOptions
{
    /** Compile variants with OverGen source tuning. */
    bool applyTuning = false;
    model::PerfConfig perf;
};

/** The matcher's verdict for one request. */
struct MatchResult
{
    /** Index of the winning library entry; -1 on miss (no feasible
     * entry, or an empty library). */
    int entryIndex = -1;
    /** The winning entry's score record (default-initialized on
     * miss). */
    KernelRecord record;

    bool hit() const { return entryIndex >= 0; }
};

/**
 * Score one kernel against one stored design: compile the variant
 * family, first-fit schedule it, and evaluate the split perf model
 * with the schedule-implied stream backings. Infeasible (no variant
 * schedules) yields feasible=false, score 0.
 */
KernelRecord scoreKernelOnDesign(const wl::KernelSpec &spec,
                                 const adg::SysAdg &design,
                                 const MatchOptions &options = {});

/**
 * Route the kernel named @p kernel to the best feasible entry of
 * @p lib. Entries with a memoized record for it cost a lookup; the
 * rest are scored inline, without mutating the library, on the spec
 * that @p resolve builds once, only if some entry lacks a record. The
 * library service records every pair before it picks, so its picks
 * are pure lookups that build no spec. The second form takes a built
 * @p spec.
 */
MatchResult matchKernel(const OverlayLibrary &lib,
                        const std::string &kernel,
                        const std::function<wl::KernelSpec()> &resolve,
                        const MatchOptions &options = {});
inline MatchResult
matchKernel(const OverlayLibrary &lib, const wl::KernelSpec &spec,
            const MatchOptions &options = {})
{
    return matchKernel(
        lib, spec.name, [&spec] { return spec; }, options);
}

} // namespace overgen::library

#endif // OVERGEN_LIBRARY_MATCHER_H
