/**
 * @file
 * Bottleneck attribution report: simulate the 19 workloads on the
 * hand-designed general overlay, classify each as compute- vs
 * memory-bound from the simulator's stall counters, and cross-check
 * the classification against the analytical bottleneck model
 * (paper Eq. 1-2). Disagreements flag where the model's limiting-
 * factor decomposition and the simulated machine part ways.
 */

#include "common.h"

#include "model/perf.h"
#include "sched/scheduler.h"
#include "telemetry/attribution.h"

using namespace overgen;

int
main(int argc, char **argv)
{
    bench::Harness harness(argc, argv);
    bench::banner("Bottleneck attribution",
                  "model vs simulator, general overlay");

    adg::SysAdg design = bench::generalOverlay();
    std::vector<wl::KernelSpec> suite = wl::allWorkloads();
    std::vector<telemetry::KernelObservation> observations;
    sim::SimConfig config = harness.simConfig();

    for (const wl::KernelSpec &spec : suite) {
        compiler::CompileOptions copts;
        copts.applyTuning = true;
        auto variants = compiler::compileVariants(spec, copts);
        adg::SysAdg target = design;
        sched::SpatialScheduler scheduler(target.adg);
        auto fit = scheduler.scheduleFirstFit(variants);
        if (!fit) {
            // Kernels the general overlay cannot host still get
            // classified, on their capability-complete seed tile.
            target.adg = dse::seedTile({ spec });
            sched::SpatialScheduler fallback(target.adg);
            fit = fallback.scheduleFirstFit(variants);
        }
        if (!fit) {
            std::printf("  %-16s (unschedulable, skipped)\n",
                        spec.name.c_str());
            continue;
        }
        const dfg::Mdfg &mdfg = variants[fit->second];
        const sched::Schedule &schedule = fit->first;

        model::PerfInput input;
        input.mdfg = &mdfg;
        input.backing =
            sched::backingFromSchedule(schedule, target.adg, mdfg);
        model::PerfBreakdown prediction =
            model::estimateIpc(input, target.adg, target.sys);

        wl::Memory memory;
        memory.init(spec);
        sim::SimResult result = sim::simulate(
            spec, mdfg, schedule, target, memory, config);
        if (!result.completed) {
            std::printf("  %-16s (did not complete, skipped)\n",
                        spec.name.c_str());
            continue;
        }
        observations.push_back(telemetry::observeKernel(
            spec.name, result, config, target.sys, prediction));
    }

    telemetry::AttributionReport report =
        telemetry::buildReport(observations);
    std::printf("%s", report.format().c_str());

    harness.finish();
    return 0;
}
