/**
 * @file
 * Regenerates paper Figure 17: "leave-one-out" flexibility on
 * MachSuite. For each workload, generate an overlay for the *other
 * four*, then map the held-out workload: report performance relative
 * to the full-suite overlay, compile-time speedup over HLS synthesis,
 * and reconfiguration-time speedup over a full FPGA reflash. The five
 * leave-one-out explorations (and their held-out compile + simulate
 * steps) run concurrently on the harness pool; rows print in suite
 * order once all complete.
 */

#include <chrono>

#include "common.h"

using namespace overgen;

namespace {

struct LooRow
{
    bool maps = false;
    double relative = 0.0;
    double compileSpeedup = 0.0;
    double reconfSpeedup = 0.0;
};

/**
 * Per-held-out phase-1 output: the leave-one-out exploration and
 * compile-time measurements, plus the two mappings (held-out kernel
 * on the LOO overlay and on the full-suite overlay) awaiting the
 * phase-2 batched simulation.
 */
struct LooPrep
{
    bool maps = false;
    double compileSpeedup = 0.0;
    double reconfSpeedup = 0.0;
    bench::PreparedSim onLoo;
    bench::PreparedSim onFull;
};

} // namespace

int
main(int argc, char **argv)
{
    bench::Harness harness(argc, argv);
    int iters = bench::benchIterations();
    bench::banner("Figure 17", "leave-one-out flexibility (MachSuite)",
                  iters);
    std::vector<wl::KernelSpec> suite = wl::machSuite();

    dse::DseOptions options =
        harness.dseOptions(iters, 77, "full-suite");
    dse::DseResult full = dse::exploreOverlay(suite, options);
    auto full_design = bench::shareDesign(full.design);

    // Phase 1 (harness pool): the five leave-one-out explorations and
    // held-out compile/schedule steps, timed individually.
    std::vector<LooPrep> preps = harness.pool().parallelMap(
        suite.size(), [&](size_t held) {
            LooPrep prep;
            std::vector<wl::KernelSpec> rest;
            for (size_t k = 0; k < suite.size(); ++k) {
                if (k != held)
                    rest.push_back(suite[k]);
            }
            dse::DseOptions loo_options = harness.dseOptions(
                iters, 200 + held, "without-" + suite[held].name);
            dse::DseResult loo = dse::exploreOverlay(rest, loo_options);

            // Compile + schedule the held-out workload; measure the
            // real wall-clock of that compile.
            auto t0 = std::chrono::steady_clock::now();
            auto variants = compiler::compileVariants(suite[held]);
            sched::SpatialScheduler scheduler(loo.design.adg);
            auto fit = scheduler.scheduleFirstFit(variants);
            double compile_seconds =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            if (!fit)
                return prep;
            prep.maps = true;
            // HLS path: synthesis hours for this kernel vs our
            // compile.
            hls::AutoDseResult ad =
                hls::runAutoDse(suite[held], false);
            prep.compileSpeedup = ad.synthHours * 3600.0 /
                                  std::max(compile_seconds, 1e-4);
            // Reconfiguration: full-FPGA reflash ~1.2 s vs spatial
            // config.
            double flash_cycles = 1.2 * bench::overlayClockMhz * 1e6;
            prep.reconfSpeedup =
                flash_cycles /
                static_cast<double>(sim::reconfigurationCycles(
                    fit->first, loo.design.adg));

            prep.onLoo.ok = true;
            prep.onLoo.spec = &suite[held];
            prep.onLoo.design = bench::shareDesign(loo.design);
            prep.onLoo.mdfg = std::move(variants[fit->second]);
            prep.onLoo.schedule = std::move(fit->first);
            prep.onFull = bench::prepareMapped(suite[held], full, held,
                                               full_design);
            return prep;
        });

    // Phase 2: one batched simulation of the ten mappings.
    std::vector<bench::PreparedSim> prepared;
    for (const LooPrep &prep : preps) {
        prepared.push_back(prep.onLoo);
        prepared.push_back(prep.onFull);
    }
    std::vector<sim::SimResult> runs =
        bench::runPreparedBatch(prepared, harness);

    std::vector<LooRow> rows(suite.size());
    for (size_t held = 0; held < suite.size(); ++held) {
        LooRow &row = rows[held];
        if (!preps[held].maps)
            continue;
        const sim::SimResult &on_loo = runs[2 * held];
        const sim::SimResult &on_full = runs[2 * held + 1];
        row.maps = true;
        row.relative = on_full.completed && on_loo.completed
                           ? static_cast<double>(on_full.cycles) /
                                 on_loo.cycles
                           : 0.0;
        row.compileSpeedup = preps[held].compileSpeedup;
        row.reconfSpeedup = preps[held].reconfSpeedup;
    }

    std::printf("%-12s %10s %14s %14s\n", "held-out", "rel.perf",
                "compile-spdup", "reconf-spdup");
    std::vector<double> rel, comp, reconf;
    for (size_t held = 0; held < suite.size(); ++held) {
        const LooRow &row = rows[held];
        if (!row.maps) {
            std::printf("%-12s  does not map\n",
                        suite[held].name.c_str());
            continue;
        }
        bool deadlocked = runs[2 * held].deadlocked ||
                          runs[2 * held + 1].deadlocked;
        std::printf("%-12s %9.0f%% %13.0fx %13.0fx%s\n",
                    suite[held].name.c_str(), row.relative * 100.0,
                    row.compileSpeedup, row.reconfSpeedup,
                    deadlocked ? " [deadlock]" : "");
        if (row.relative > 0)
            rel.push_back(row.relative);
        comp.push_back(row.compileSpeedup);
        reconf.push_back(row.reconfSpeedup);
    }
    std::printf("\ngeomeans: relative perf %.0f%%, compile speedup "
                "%.0fx, reconfig speedup %.0fx\n",
                100.0 * bench::geomean(rel), bench::geomean(comp),
                bench::geomean(reconf));
    std::printf("paper shape: ~50%% mean relative performance, "
                "~10^4x compile, ~5x10^4x reconfig.\n");
    harness.finish();
    return 0;
}
