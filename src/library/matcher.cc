#include "library/matcher.h"

#include <optional>
#include <utility>

#include "compiler/compile.h"
#include "sched/schedule.h"
#include "sched/scheduler.h"

namespace overgen::library {

KernelRecord
scoreKernelOnDesign(const wl::KernelSpec &spec,
                    const adg::SysAdg &design,
                    const MatchOptions &options)
{
    KernelRecord record;
    record.kernel = spec.name;
    compiler::CompileOptions copts;
    copts.applyTuning = options.applyTuning;
    auto variants = compiler::compileVariants(spec, copts);
    sched::SpatialScheduler scheduler(design.adg);
    auto fit = scheduler.scheduleFirstFit(variants);
    if (!fit)
        return record;
    const dfg::Mdfg &mdfg = variants[fit->second];
    record.feasible = true;
    record.variant = mdfg.name;
    model::BackingVec backing =
        sched::backingFromSchedule(fit->first, design.adg, mdfg);
    model::TilePerfSummary summary =
        model::precomputeTilePerf(mdfg, backing, design.adg);
    model::PerfBreakdown perf =
        model::combineSystemPerf(summary, design.sys, options.perf);
    record.ipc = perf.ipc;
    record.bottleneck = perf.bottleneck;
    record.score = perf.ipc * fit->first.throughputFactor();
    return record;
}

MatchResult
matchKernel(const OverlayLibrary &lib, const std::string &kernel,
            const std::function<wl::KernelSpec()> &resolve,
            const MatchOptions &options)
{
    // Sequential argmax over feasible entries; strict > means the
    // lowest index wins ties, however each score was obtained.
    MatchResult result;
    std::optional<wl::KernelSpec> spec;
    for (size_t i = 0; i < lib.entries.size(); ++i) {
        const KernelRecord *memo = lib.entries[i].findRecord(kernel);
        if (memo == nullptr && !spec)
            spec = resolve();
        KernelRecord record =
            memo != nullptr
                ? *memo
                : scoreKernelOnDesign(*spec, lib.entries[i].design,
                                      options);
        if (!record.feasible)
            continue;
        if (result.entryIndex < 0 || record.score > result.record.score) {
            result.entryIndex = static_cast<int>(i);
            result.record = std::move(record);
        }
    }
    return result;
}

} // namespace overgen::library
