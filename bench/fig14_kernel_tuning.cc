/**
 * @file
 * Regenerates paper Figure 14: the effect of manual kernel tuning on
 * both frameworks, for the tuning-sensitive workloads. AutoDSE gains
 * heavily from source tuning (Table IV patterns); OverGen's ISA and
 * compiler handle most of those patterns natively, with a smaller set
 * of kernels benefiting from its own source tuning (fft / gemm /
 * stencil-2d / blur).
 */

#include "common.h"

using namespace overgen;

int
main(int argc, char **argv)
{
    bench::Harness harness(argc, argv);
    bench::banner("Figure 14", "impact of kernel tuning");
    auto general = bench::shareDesign(bench::generalOverlay());

    const char *workloads[] = { "cholesky", "fft",      "stencil-3d",
                                "crs",      "gemm",     "stencil-2d",
                                "channel-ext", "bgr2grey", "blur" };
    // Stable spec storage: PreparedSim keeps a pointer to its spec.
    std::vector<wl::KernelSpec> specs;
    for (const char *name : workloads)
        specs.push_back(wl::workloadByName(name));

    // Compile + schedule every (workload, tuning) pair, then simulate
    // all of them in one batched fan-out across `--threads`.
    std::vector<bench::PreparedSim> prepared;
    for (const wl::KernelSpec &spec : specs) {
        prepared.push_back(bench::prepareOverlayRun(spec, general,
                                                    false));
        prepared.push_back(bench::prepareOverlayRun(spec, general,
                                                    true));
    }
    std::vector<sim::SimResult> runs =
        bench::runPreparedBatch(prepared, harness);

    std::printf("%-12s | %13s | %13s | %13s\n", "workload",
                "AD tuned gain", "OG tuned gain", "OG/AD untuned");
    std::vector<double> ad_gains, og_gains;
    for (size_t i = 0; i < specs.size(); ++i) {
        const wl::KernelSpec &spec = specs[i];
        hls::AutoDseResult ad = hls::runAutoDse(spec, false);
        hls::AutoDseResult ad_tuned = hls::runAutoDse(spec, true);
        const sim::SimResult &og = runs[2 * i];
        const sim::SimResult &og_tuned = runs[2 * i + 1];
        double og_seconds = bench::overlaySeconds(og.cycles);
        double ad_gain = ad.perf.seconds / ad_tuned.perf.seconds;
        double og_gain =
            og.completed && og_tuned.completed
                ? og_seconds / bench::overlaySeconds(og_tuned.cycles)
                : 1.0;
        double ratio = og.completed ? ad.perf.seconds / og_seconds : 0.0;
        bool deadlocked = og.deadlocked || og_tuned.deadlocked;
        std::printf("%-12s | %12.2fx | %12.2fx | %12.2fx%s\n",
                    spec.name.c_str(), ad_gain, og_gain, ratio,
                    deadlocked ? " [deadlock]" : "");
        ad_gains.push_back(ad_gain);
        og_gains.push_back(og_gain);
    }
    std::printf("\ngeomean tuning gain: AutoDSE %.2fx, OverGen "
                "%.2fx\n",
                bench::geomean(ad_gains), bench::geomean(og_gains));
    std::printf("paper takeaway: HLS benefits far more from manual "
                "tuning; OverGen handles the patterns natively.\n");
    harness.finish();
    return 0;
}
