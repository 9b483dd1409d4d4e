/**
 * @file
 * Top-down cycle-accounting report: simulate a workload suite on the
 * general overlay and break every component's cycles down by the
 * stall taxonomy (telemetry/ledger.h). Each row sums to 100% of the
 * run's cycles — the ledger invariant — and the dominant non-busy
 * category is flagged as the component's bottleneck.
 *
 * A per-phase breakdown follows each workload's component rows: the
 * run is segmented into startup/ramp/steady/drain from the interval
 * time-series (telemetry/phases.h) and each phase gets its cycle
 * span, busy fraction, and dominant bottleneck. `--phase-interval=N`
 * sets the sampling cadence (default 512 cycles; rows stay in memory
 * unless `--stats-jsonl` also asks for the file).
 *
 * Usage: report_cycles [--suite=dsp|mach|vision|all]
 *        [--phase-interval=N] [harness flags]
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common.h"
#include "telemetry/ledger.h"

using namespace overgen;

namespace {

/** The dominant non-busy category, or Busy when nothing stalls. */
telemetry::CycleCategory
bottleneckOf(const telemetry::CycleLedger &ledger)
{
    using telemetry::CycleCategory;
    auto best = CycleCategory::Busy;
    uint64_t most = 0;
    for (int c = 0; c < telemetry::kNumCycleCategories; ++c) {
        auto cat = static_cast<CycleCategory>(c);
        if (cat == CycleCategory::Busy)
            continue;
        if (ledger[cat] > most) {
            most = ledger[cat];
            best = cat;
        }
    }
    return best;
}

void
printLedgerRow(const char *component,
               const telemetry::CycleLedger &ledger, uint64_t cycles,
               bool flag_bottleneck)
{
    OG_ASSERT(ledger.total() == cycles, "ledger sums to ",
              ledger.total(), " of ", cycles, " cycles (", component,
              ")");
    std::printf("  %-8s", component);
    double denom = cycles > 0 ? static_cast<double>(cycles) : 1.0;
    for (int c = 0; c < telemetry::kNumCycleCategories; ++c) {
        auto cat = static_cast<telemetry::CycleCategory>(c);
        std::printf(" %6.1f%%",
                    100.0 * static_cast<double>(ledger[cat]) / denom);
    }
    if (flag_bottleneck && cycles > 0) {
        std::printf("   <- %s",
                    telemetry::cycleCategoryName(bottleneckOf(ledger)));
    }
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    // Common flags plus our own --suite= (anything else stays fatal
    // via the Harness's rejectExtraFlags).
    bench::CommonFlags flags =
        bench::parseCommonFlags(argc, argv, /*allowExtra=*/true);
    std::string suite_name = "dsp";
    bench::takeExtraFlag(flags.extra, "--suite=", suite_name);
    // Phase segmentation needs an interval time-series; default to an
    // in-memory one at 512 cycles unless --stats-interval already
    // configured sampling.
    std::string phase_interval = "512";
    bench::takeExtraFlag(flags.extra, "--phase-interval=",
                         phase_interval);
    if (flags.sink.statsInterval == 0) {
        int interval = std::atoi(phase_interval.c_str());
        OG_ASSERT(interval >= 1, "bad --phase-interval value '",
                  phase_interval, "'");
        flags.sink.statsInterval = static_cast<uint64_t>(interval);
    }
    bench::Harness harness(flags);

    std::vector<wl::KernelSpec> workloads;
    if (suite_name == "dsp")
        workloads = wl::dspSuite();
    else if (suite_name == "mach")
        workloads = wl::machSuite();
    else if (suite_name == "vision")
        workloads = wl::visionSuite();
    else if (suite_name == "all")
        workloads = wl::allWorkloads();
    else
        OG_FATAL("unknown --suite '", suite_name,
                 "' (expected dsp, mach, vision, or all)");

    bench::banner("report_cycles",
                  "top-down cycle accounting on the general overlay");
    std::printf("suite: %s (%zu workloads)\n\n", suite_name.c_str(),
                workloads.size());

    auto design = bench::shareDesign(bench::generalOverlay());
    std::vector<bench::PreparedSim> prepared;
    for (const wl::KernelSpec &spec : workloads)
        prepared.push_back(bench::prepareOverlayRun(spec, design));
    std::vector<sim::SimResult> runs =
        bench::runPreparedBatch(prepared, harness);

    // Header: one column per taxonomy category.
    std::printf("%-10s", "");
    for (int c = 0; c < telemetry::kNumCycleCategories; ++c) {
        auto cat = static_cast<telemetry::CycleCategory>(c);
        std::printf(" %7.7s", telemetry::cycleCategoryName(cat));
    }
    std::printf("\n");

    for (size_t i = 0; i < workloads.size(); ++i) {
        const sim::SimResult &run = runs[i];
        if (!prepared[i].ok) {
            std::printf("%s: does not map\n\n",
                        workloads[i].name.c_str());
            continue;
        }
        std::printf("%s: %llu cycles%s%s\n",
                    workloads[i].name.c_str(),
                    static_cast<unsigned long long>(run.cycles),
                    run.completed ? "" : " (incomplete)",
                    run.deadlocked ? " [deadlock]" : "");
        printLedgerRow("memory", run.memory.ledger, run.cycles,
                       /*flag_bottleneck=*/false);
        telemetry::CycleLedger whole_tile;
        for (size_t t = 0; t < run.tiles.size(); ++t) {
            std::string name = "tile" + std::to_string(t);
            printLedgerRow(name.c_str(), run.tiles[t].ledger,
                           run.cycles, /*flag_bottleneck=*/true);
            for (int c = 0; c < telemetry::kNumCycleCategories; ++c) {
                auto cat = static_cast<telemetry::CycleCategory>(c);
                whole_tile.add(cat, run.tiles[t].ledger[cat]);
            }
        }
        // Workload verdict: the dominant stall across all tiles.
        if (!run.tiles.empty() && run.cycles > 0) {
            double busy =
                static_cast<double>(
                    whole_tile[telemetry::CycleCategory::Busy]) /
                static_cast<double>(whole_tile.total());
            std::printf("  => dominant bottleneck: %s (tiles %.1f%% "
                        "busy)\n",
                        telemetry::cycleCategoryName(
                            bottleneckOf(whole_tile)),
                        100.0 * busy);
        }
        // Per-phase breakdown: where the cycles went within each
        // execution regime, with the phase-local bottleneck flagged.
        telemetry::PhaseProfile phases = sim::analyzeRunPhases(run);
        if (!phases.spans.empty()) {
            std::printf("  phases (ramp %llu cycles, %s",
                        static_cast<unsigned long long>(
                            phases.rampCycles),
                        phases.reachedSteady ? "steady reached"
                                             : "no steady state");
            if (phases.reachedSteady && phases.steadyIpc > 0.0)
                std::printf(", steady IPC %.2f", phases.steadyIpc);
            std::printf("):\n");
            for (const telemetry::PhaseSpan &span : phases.spans) {
                std::printf("    %-8s %9llu..%-9llu %5.1f%% of run, "
                            "%5.1f%% busy   <- %s\n",
                            telemetry::phaseKindName(span.kind),
                            static_cast<unsigned long long>(
                                span.beginCycle),
                            static_cast<unsigned long long>(
                                span.endCycle),
                            100.0 *
                                static_cast<double>(span.cycles()) /
                                static_cast<double>(
                                    std::max<uint64_t>(phases.cycles,
                                                       1)),
                            100.0 * span.busyFraction,
                            telemetry::cycleCategoryName(
                                span.bottleneck));
            }
        }
        std::printf("\n");
    }

    harness.finish();
    return 0;
}
