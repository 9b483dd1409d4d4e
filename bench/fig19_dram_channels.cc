/**
 * @file
 * Regenerates paper Figure 19 (Q7): the effect of DRAM channel count
 * (1/2/4) on both frameworks, normalized to single-channel. Memory-
 * intensive, element-wise workloads benefit; compute-bound kernels do
 * not. OverGen runs on the general overlay via the cycle-level
 * simulator; AutoDSE uses the HLS model's bandwidth term. The
 * per-workload channel sweeps are independent, so they fan out across
 * the harness pool (`--threads`).
 */

#include "common.h"

using namespace overgen;

namespace {

struct ChannelRow
{
    double ad2 = 0.0;
    double ad4 = 0.0;
    double og2 = 0.0;
    double og4 = 0.0;
};

} // namespace

int
main(int argc, char **argv)
{
    bench::Harness harness(argc, argv);
    bench::banner("Figure 19", "DRAM channel scaling (speedup vs 1ch)");
    // The paper's OverGen side uses per-workload overlays whose many
    // tiles demand more than one channel supplies; our stand-in widens
    // the general overlay's NoC links and L2 banking so the aggregate
    // tile demand exceeds a single channel the same way.
    adg::SysAdg base = bench::generalOverlay();
    base.sys.numTiles = 10;  // workload overlays pack ~10 tiles
    base.sys.nocBytes = 64;
    base.sys.l2Banks = 16;

    std::printf("%-12s | %7s %7s | %7s %7s\n", "workload", "ad-2",
                "ad-4", "og-2", "og-4");
    std::vector<wl::KernelSpec> workloads = wl::allWorkloads();

    // Phase 1 (harness pool): AutoDSE model sweeps, plus one compile
    // + schedule per workload — the channel count is a system knob
    // that leaves the tile ADG (and thus the mapping) untouched, so
    // the three channel points share the mapping and differ only in
    // `sys.dramChannels`.
    std::vector<ChannelRow> rows = harness.pool().parallelMap(
        workloads.size(), [&](size_t i) {
            const wl::KernelSpec &k = workloads[i];
            ChannelRow row;
            // AutoDSE side (model).
            hls::AutoDseOptions one;
            hls::AutoDseOptions two = one;
            two.dramChannels = 2;
            hls::AutoDseOptions four = one;
            four.dramChannels = 4;
            double ad1 = hls::runAutoDse(k, true, one).perf.seconds;
            row.ad2 =
                ad1 / hls::runAutoDse(k, true, two).perf.seconds;
            row.ad4 =
                ad1 / hls::runAutoDse(k, true, four).perf.seconds;
            return row;
        });

    // One shared design per channel count; every workload's points
    // reference these three instead of carrying 57 SysAdg copies.
    const int channel_counts[] = { 1, 2, 4 };
    std::vector<std::shared_ptr<const adg::SysAdg>> channel_designs;
    for (int channels : channel_counts) {
        adg::SysAdg design = base;
        design.sys.dramChannels = channels;
        channel_designs.push_back(
            bench::shareDesign(std::move(design)));
    }
    std::vector<bench::PreparedSim> prepared;
    for (const wl::KernelSpec &k : workloads) {
        bench::PreparedSim mapping =
            bench::prepareOverlayRun(k, channel_designs[0], true);
        for (size_t c = 0; c < channel_designs.size(); ++c) {
            bench::PreparedSim point = mapping;
            point.design = channel_designs[c];
            prepared.push_back(std::move(point));
        }
    }

    // Phase 2: the whole 19-workload x 3-channel sweep as one batch.
    std::vector<sim::SimResult> runs =
        bench::runPreparedBatch(prepared, harness);
    for (size_t i = 0; i < workloads.size(); ++i) {
        auto cycles = [&](size_t point) {
            const sim::SimResult &r = runs[3 * i + point];
            return r.completed ? static_cast<double>(r.cycles) : 0.0;
        };
        double og1 = cycles(0);
        rows[i].og2 = og1 > 0 ? og1 / cycles(1) : 0.0;
        rows[i].og4 = og1 > 0 ? og1 / cycles(2) : 0.0;
    }
    std::vector<double> og2_all, og4_all, ad2_all, ad4_all;
    for (size_t i = 0; i < workloads.size(); ++i) {
        const ChannelRow &row = rows[i];
        bool deadlocked = runs[3 * i].deadlocked ||
                          runs[3 * i + 1].deadlocked ||
                          runs[3 * i + 2].deadlocked;
        std::printf("%-12s | %6.2fx %6.2fx | %6.2fx %6.2fx%s\n",
                    workloads[i].name.c_str(), row.ad2, row.ad4,
                    row.og2, row.og4,
                    deadlocked ? " [deadlock]" : "");
        ad2_all.push_back(row.ad2);
        ad4_all.push_back(row.ad4);
        if (row.og2 > 0)
            og2_all.push_back(row.og2);
        if (row.og4 > 0)
            og4_all.push_back(row.og4);
    }
    std::printf("\nmeans: ad-2 %.2fx ad-4 %.2fx | og-2 %.2fx og-4 "
                "%.2fx\n",
                bench::geomean(ad2_all), bench::geomean(ad4_all),
                bench::geomean(og2_all), bench::geomean(og4_all));
    std::printf("paper shape: element-wise memory-intensive kernels "
                "(mm, gemm, vecmax, accumulate, acc_sqr, acc_wei, "
                "deri.) gain ~19-25%%; compute-bound kernels are "
                "flat.\n");
    harness.finish();
    return 0;
}
