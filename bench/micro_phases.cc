/**
 * @file
 * Phase segmentation benchmark (DESIGN.md "Phase-aware analysis"):
 * profiles are informative. A long kernel reaches steady state and
 * spends most cycles there; a short variant of the same kernel
 * spends proportionally more of its run ramping. Prints both
 * profiles, asserts the split, and writes BENCH_phases.json to the
 * working directory.
 */

#include <cstdio>
#include <string>

#include "common.h"

#include "common/stats.h"
#include "telemetry/phases.h"

using namespace overgen;

namespace {

/** Simulate @p spec on the general overlay with an in-memory timeline
 * at @p interval cycles and return its phase profile. */
telemetry::PhaseProfile
profileOf(const wl::KernelSpec &spec, uint64_t interval)
{
    telemetry::SinkOptions opts;
    opts.statsInterval = interval;
    telemetry::Sink sink(opts);
    sim::SimConfig config;
    config.sink = &sink;
    bench::PreparedSim prepared = bench::prepareOverlayRun(
        spec, bench::shareDesign(bench::generalOverlay()),
        /*apply_tuning=*/true);
    OG_ASSERT(prepared.ok, "'", spec.name, "' does not map");
    wl::Memory memory;
    memory.init(spec);
    sim::SimResult run =
        sim::simulate(spec, prepared.mdfg, prepared.schedule,
                      *prepared.design, memory, config);
    OG_ASSERT(run.completed, "'", spec.name, "' did not complete");
    return sim::analyzeRunPhases(run);
}

void
printProfile(const char *tag, const telemetry::PhaseProfile &profile)
{
    std::printf("%-18s %8llu cycles, ramp %6llu (%5.1f%%), %s",
                tag,
                static_cast<unsigned long long>(profile.cycles),
                static_cast<unsigned long long>(profile.rampCycles),
                100.0 * static_cast<double>(profile.rampCycles) /
                    static_cast<double>(
                        std::max<uint64_t>(profile.cycles, 1)),
                profile.reachedSteady ? "steady reached"
                                      : "no steady state");
    if (profile.reachedSteady && profile.steadyIpc > 0.0)
        std::printf(", steady IPC %.2f", profile.steadyIpc);
    if (!profile.busyFractions.empty()) {
        std::printf(", busy p10/p50/p90 %.2f/%.2f/%.2f",
                    percentile(profile.busyFractions, 10.0),
                    percentile(profile.busyFractions, 50.0),
                    percentile(profile.busyFractions, 90.0));
    }
    std::printf("\n");
    for (const telemetry::PhaseSpan &span : profile.spans) {
        std::printf("    %-8s %8llu..%-8llu %5.1f%% busy  <- %s\n",
                    telemetry::phaseKindName(span.kind),
                    static_cast<unsigned long long>(span.beginCycle),
                    static_cast<unsigned long long>(span.endCycle),
                    100.0 * span.busyFraction,
                    telemetry::cycleCategoryName(span.bottleneck));
    }
}

Json
profileJson(const std::string &tag,
            const telemetry::PhaseProfile &profile)
{
    Json obj = profile.toJson();
    obj.set("kernel", Json(tag));
    return obj;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Harness harness(argc, argv);
    bench::banner("micro_phases", "phase segmentation");

    // Long vs short phase structure.
    std::printf("\nphase profiles (general overlay, interval 128):\n");
    wl::KernelSpec long_fir = wl::makeFir(2048, 64);
    long_fir.name = "fir-long";
    wl::KernelSpec short_fir = wl::makeFir(64, 16);
    short_fir.name = "fir-short";
    telemetry::PhaseProfile long_profile = profileOf(long_fir, 128);
    telemetry::PhaseProfile short_profile = profileOf(short_fir, 128);
    printProfile("fir(2048,64)", long_profile);
    printProfile("fir(64,16)", short_profile);
    OG_ASSERT(long_profile.reachedSteady,
              "the long kernel never reached steady state");
    double long_ramp_share =
        static_cast<double>(long_profile.rampCycles) /
        static_cast<double>(std::max<uint64_t>(long_profile.cycles, 1));
    double short_ramp_share =
        static_cast<double>(short_profile.rampCycles) /
        static_cast<double>(
            std::max<uint64_t>(short_profile.cycles, 1));
    OG_ASSERT(short_ramp_share > long_ramp_share,
              "the short kernel should spend a larger run fraction "
              "ramping (short ", short_ramp_share, " vs long ",
              long_ramp_share, ")");

    Json report = Json::makeObject();
    report.set("bench", Json("micro_phases"));
    Json profiles = Json::makeArray();
    profiles.push(profileJson("fir(2048,64)", long_profile));
    profiles.push(profileJson("fir(64,16)", short_profile));
    report.set("profiles", std::move(profiles));
    std::string text = report.dump(2);
    const char *path = "BENCH_phases.json";
    std::FILE *f = std::fopen(path, "w");
    OG_ASSERT(f != nullptr, "cannot open '", path, "'");
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::printf("\n[bench] report written to %s\n", path);

    harness.finish();
    return 0;
}
