/**
 * @file
 * Regenerates paper Figure 20 (Q8): DSE convergence with and without
 * schedule-preserving transformations (node collapsing, edge-delay
 * preservation, module-capability pruning). With them the DSE
 * converges faster and to better estimated IPC (paper: ~15% less DSE
 * time, 1.09x estimated IPC). The six explorations (3 suites x
 * with/without) run concurrently on the harness pool.
 */

#include "common.h"

using namespace overgen;

int
main(int argc, char **argv)
{
    bench::Harness harness(argc, argv);
    bench::banner("Figure 20",
                  "schedule-preserving transformations ablation",
                  bench::benchIterations());
    int iters = std::max(2 * bench::benchIterations(), 24);

    std::vector<std::string> names = { "dsp", "machsuite", "vision" };
    std::vector<std::vector<wl::KernelSpec>> suites = {
        wl::dspSuite(), wl::machSuite(), wl::visionSuite()
    };
    // Flat task list: suite s with (task % 2 == 0) and without
    // (task % 2 == 1) schedule preservation.
    std::vector<dse::DseResult> runs = harness.pool().parallelMap(
        2 * suites.size(), [&](size_t task) {
            size_t s = task / 2;
            bool preserved = task % 2 == 0;
            dse::DseOptions options = harness.dseOptions(
                iters, 5 + s, names[s] + (preserved ? "+sp" : "-sp"));
            options.schedulePreserving = preserved;
            return dse::exploreOverlay(suites[s], options);
        });

    std::vector<double> ipc_ratio, time_ratio;
    for (size_t s = 0; s < suites.size(); ++s) {
        const dse::DseResult &on = runs[2 * s];
        const dse::DseResult &off = runs[2 * s + 1];

        // Iterations-to-quality: when does each run first reach the
        // worse run's final estimated IPC? (The paper reports DSE
        // time; we count iterations, since our repair path re-prices
        // candidates that the paper's incremental compiler skips.)
        double target = std::min(on.objective, off.objective);
        auto iters_to = [&](const dse::DseResult &r) {
            for (const auto &point : r.convergence) {
                if (point.estimatedIpc >= target)
                    return static_cast<double>(point.iteration);
            }
            return static_cast<double>(r.iterationsRun);
        };
        double t_on = std::max(iters_to(on), 1.0);
        double t_off = std::max(iters_to(off), 1.0);
        std::printf("\n[%s] final est. IPC: preserved %.1f vs "
                    "non-preserved %.1f (%.2fx); iterations-to-"
                    "quality %.0f vs %.0f (%.0f%% saved)\n",
                    names[s].c_str(), on.objective, off.objective,
                    on.objective / off.objective, t_on, t_off,
                    100.0 * (1.0 - t_on / std::max(t_off, 1e-9)));
        std::printf("  convergence (sec: est-IPC), preserved:   ");
        for (size_t p = 0; p < on.convergence.size();
             p += std::max<size_t>(1, on.convergence.size() / 6)) {
            std::printf(" %.0fs:%.0f", on.convergence[p].seconds,
                        on.convergence[p].estimatedIpc);
        }
        std::printf("\n  convergence (sec: est-IPC), non-preserved:");
        for (size_t p = 0; p < off.convergence.size();
             p += std::max<size_t>(1, off.convergence.size() / 6)) {
            std::printf(" %.0fs:%.0f", off.convergence[p].seconds,
                        off.convergence[p].estimatedIpc);
        }
        std::printf("\n  abandoned candidates: preserved %d vs "
                    "non-preserved %d\n",
                    on.abandoned, off.abandoned);
        ipc_ratio.push_back(on.objective / off.objective);
        time_ratio.push_back(t_on / t_off);
    }
    std::printf("\nmeans: est. IPC ratio %.2fx (paper 1.09x), "
                "iterations-to-quality ratio %.2f (paper DSE-time "
                "~0.85)\n",
                bench::geomean(ipc_ratio), bench::geomean(time_ratio));
    harness.finish();
    return 0;
}
