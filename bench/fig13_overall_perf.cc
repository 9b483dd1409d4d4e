/**
 * @file
 * Regenerates paper Figure 13: overall performance of the three
 * overlay flavors — the hand-designed General overlay, the
 * suite-specialized overlay, and the per-workload overlay — as
 * speedups over the AutoDSE baseline (untuned), with tuned AutoDSE as
 * the strongest baseline. Per-workload bars and per-suite geomeans.
 *
 * Each suite's exploration parallelizes its candidate evaluation
 * (`--threads`); the per-kernel column work (AutoDSE baselines,
 * per-workload DSE, and the three simulations) then fans out across
 * the harness pool, with each fanned task exploring serially so the
 * machine is not oversubscribed twice.
 */

#include "common.h"

using namespace overgen;

namespace {

struct KernelRow
{
    double base = 0.0;
    double spTuned = 0.0;
    double spGeneral = 0.0;
    double spSuite = 0.0;
    double spWl = 0.0;
};

/**
 * Per-kernel phase-1 output: the AutoDSE baselines plus the three
 * compiled/scheduled overlay mappings, awaiting the phase-2 batched
 * simulation.
 */
struct KernelPrep
{
    hls::AutoDseResult ad;
    hls::AutoDseResult adTuned;
    bench::PreparedSim onGeneral;
    bench::PreparedSim onSuite;
    bench::PreparedSim onWl;
};

} // namespace

int
main(int argc, char **argv)
{
    bench::Harness harness(argc, argv);
    int iters = bench::benchIterations();
    bench::banner("Figure 13",
                  "overall performance vs AutoDSE (speedup > 1 means "
                  "OverGen is faster)",
                  iters);
    // One shared copy of the general overlay serves every kernel's
    // prepared mapping (PreparedSim shares designs, not copies them).
    auto general = bench::shareDesign(bench::generalOverlay());

    std::printf("%-12s %9s %9s %10s %9s %9s\n", "workload",
                "AD(s)", "tuned-AD", "general-OG", "suite-OG",
                "w/l-OG");

    std::vector<std::string> suite_names = { "dsp", "machsuite",
                                             "vision" };
    std::vector<std::vector<wl::KernelSpec>> suites = {
        wl::dspSuite(), wl::machSuite(), wl::visionSuite()
    };
    std::vector<double> all_general, all_suite, all_wl, all_tuned;
    for (size_t s = 0; s < suites.size(); ++s) {
        // One suite-specialized overlay per suite.
        // Paper convention (Q2 hatching): kernels are implemented with
        // OverGen's source tuning where it exists (fft peel, gemm 2D
        // unroll, stencil/blur overlap unroll).
        dse::DseOptions options = harness.dseOptions(
            iters, 7 + s, suite_names[s] + "-suite");
        options.applyTuning = true;
        dse::DseResult suite_dse =
            dse::exploreOverlay(suites[s], options);
        auto suite_design = bench::shareDesign(suite_dse.design);

        // Phase 1 (harness pool): per-kernel AutoDSE baselines,
        // per-workload exploration, and compile/schedule of the three
        // overlay mappings.
        std::vector<KernelPrep> preps = harness.pool().parallelMap(
            suites[s].size(), [&](size_t k) {
                const wl::KernelSpec &spec = suites[s][k];
                KernelPrep prep;
                prep.ad = hls::runAutoDse(spec, false);
                prep.adTuned = hls::runAutoDse(spec, true);

                prep.onGeneral =
                    bench::prepareOverlayRun(spec, general, true);
                prep.onSuite = bench::prepareMapped(spec, suite_dse,
                                                    k, suite_design);

                dse::DseOptions wl_options = harness.dseOptions(
                    iters, 100 + k, spec.name + "-wl");
                wl_options.applyTuning = true;
                wl_options.threads = 1;  // the fan-out is the
                                         // parallelism here
                dse::DseResult wl_dse =
                    dse::exploreOverlay({ spec }, wl_options);
                prep.onWl = bench::prepareMapped(
                    spec, wl_dse, 0, bench::shareDesign(wl_dse.design));
                return prep;
            });

        // Phase 2: simulate every mapping in one batch
        // (`--threads` workers, index-ordered results).
        std::vector<bench::PreparedSim> prepared;
        for (const KernelPrep &prep : preps) {
            prepared.push_back(prep.onGeneral);
            prepared.push_back(prep.onSuite);
            prepared.push_back(prep.onWl);
        }
        std::vector<sim::SimResult> runs =
            bench::runPreparedBatch(prepared, harness);

        std::vector<KernelRow> rows(suites[s].size());
        for (size_t k = 0; k < suites[s].size(); ++k) {
            KernelRow &row = rows[k];
            row.base = preps[k].ad.perf.seconds;
            row.spTuned = row.base / preps[k].adTuned.perf.seconds;
            auto speedup = [&](const sim::SimResult &run) {
                return run.completed
                           ? row.base / bench::overlaySeconds(run.cycles)
                           : 0.0;
            };
            row.spGeneral = speedup(runs[3 * k]);
            row.spSuite = speedup(runs[3 * k + 1]);
            row.spWl = speedup(runs[3 * k + 2]);
        }

        std::vector<double> g_general, g_suite, g_wl, g_tuned;
        for (size_t k = 0; k < suites[s].size(); ++k) {
            const KernelRow &row = rows[k];
            // Mark watchdog aborts: a 0.00x with [deadlock] hung in
            // simulation (dump on stderr), without it never mapped.
            bool deadlocked = runs[3 * k].deadlocked ||
                              runs[3 * k + 1].deadlocked ||
                              runs[3 * k + 2].deadlocked;
            std::printf("%-12s %9.2e %8.2fx %9.2fx %8.2fx %8.2fx%s\n",
                        suites[s][k].name.c_str(), row.base,
                        row.spTuned, row.spGeneral, row.spSuite,
                        row.spWl, deadlocked ? " [deadlock]" : "");
            if (row.spGeneral > 0)
                g_general.push_back(row.spGeneral);
            if (row.spSuite > 0)
                g_suite.push_back(row.spSuite);
            if (row.spWl > 0)
                g_wl.push_back(row.spWl);
            g_tuned.push_back(row.spTuned);
        }
        std::printf("%-12s %9s %8.2fx %9.2fx %8.2fx %8.2fx   <- %s "
                    "geomean\n",
                    "gm", "", bench::geomean(g_tuned),
                    bench::geomean(g_general), bench::geomean(g_suite),
                    bench::geomean(g_wl), suite_names[s].c_str());
        all_general.insert(all_general.end(), g_general.begin(),
                           g_general.end());
        all_suite.insert(all_suite.end(), g_suite.begin(),
                         g_suite.end());
        all_wl.insert(all_wl.end(), g_wl.begin(), g_wl.end());
        all_tuned.insert(all_tuned.end(), g_tuned.begin(),
                         g_tuned.end());
    }
    std::printf("\noverall geomeans: tuned-AD %.2fx | general-OG "
                "%.2fx | suite-OG %.2fx | w/l-OG %.2fx\n",
                bench::geomean(all_tuned), bench::geomean(all_general),
                bench::geomean(all_suite), bench::geomean(all_wl));
    std::printf("paper shape: suite-OG ~1.1-1.25x over untuned "
                "AutoDSE; ~0.37-0.71x of tuned AutoDSE (i.e. "
                "suite-OG/tuned-AD); general-OG trails suite-OG.\n");
    harness.finish();
    return 0;
}
