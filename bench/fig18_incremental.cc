/**
 * @file
 * Regenerates paper Figure 18: incremental design optimization.
 * Workloads are added to the target set one at a time and the DSE is
 * re-run: the per-tile datapath grows more general (more LUTs per
 * tile), the tile count drops, and supporting the whole suite costs
 * only a modest slowdown on the original workload. The five
 * explorations (one per prefix of the pool) are independent, so they
 * run concurrently on the harness pool; rows print in paper order.
 * stencil-2d's mapping on each final design is then simulated, all
 * five in one batch, and those are the step's stencil-2d cycles.
 */

#include "common.h"

#include "model/resource_model.h"

using namespace overgen;

int
main(int argc, char **argv)
{
    bench::Harness harness(argc, argv);
    int iters = bench::benchIterations();
    bench::banner("Figure 18", "incremental workload addition", iters);
    const auto &prices = model::FpgaResourceModel::defaultModel();
    model::FpgaDevice device = model::FpgaDevice::xcvu9p();

    // Paper order: stencil-2d, +gemm, +stencil-3d, +ellpack, +crs.
    std::vector<wl::KernelSpec> pool = {
        wl::makeStencil2d(), wl::makeGemm(), wl::makeStencil3d(),
        wl::makeEllpack(), wl::makeCrs()
    };
    struct Step
    {
        int tiles = 0;
        double tileLut = 0.0;
        double objective = 0.0;
        bench::PreparedSim stencil;
    };
    std::vector<Step> steps = harness.pool().parallelMap(
        pool.size(), [&](size_t n) {
            std::vector<wl::KernelSpec> target(
                pool.begin(), pool.begin() + n + 1);
            dse::DseOptions options = harness.dseOptions(
                iters, 50 + n, "upto-" + pool[n].name);
            dse::DseResult result =
                dse::exploreOverlay(target, options);
            Step step;
            step.tiles = result.design.sys.numTiles;
            step.tileLut = prices.tileResources(result.design.adg).lut /
                           device.total.lut * 100.0;
            step.objective = result.objective;
            // stencil-2d is the first kernel of every target set.
            step.stencil = bench::prepareMapped(
                pool[0], result, 0, bench::shareDesign(result.design));
            return step;
        });
    std::vector<bench::PreparedSim> prepared;
    for (Step &step : steps)
        prepared.push_back(std::move(step.stencil));
    std::vector<sim::SimResult> runs =
        bench::runPreparedBatch(prepared, harness);

    std::printf("%-14s %6s %12s %14s %12s\n", "target set", "tiles",
                "LUT/tile(%)", "stencil-2d cyc", "est.IPC");
    for (size_t n = 0; n < pool.size(); ++n) {
        std::printf("+%-13s %6d %11.2f%% %14llu %12.1f\n",
                    pool[n].name.c_str(), steps[n].tiles,
                    steps[n].tileLut,
                    static_cast<unsigned long long>(runs[n].cycles),
                    steps[n].objective);
    }
    uint64_t first_cycles = runs.front().cycles;
    uint64_t last_cycles = runs.back().cycles;
    double cost = first_cycles > 0
                      ? 100.0 * (static_cast<double>(last_cycles) /
                                     first_cycles -
                                 1.0)
                      : 0.0;
    std::printf("\nstencil-2d cost of supporting the whole suite: "
                "%+.0f%% cycles (paper: mean 8%% performance cost; "
                "tile count drops as the datapath generalizes)\n",
                cost);
    harness.finish();
    return 0;
}
