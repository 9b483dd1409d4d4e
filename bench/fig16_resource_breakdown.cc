/**
 * @file
 * Regenerates paper Figure 16: FPGA resource occupancy. (a) overlay
 * designs broken down by component class (PEs, switch network, vector
 * ports, scratchpads, DMA/engines, control cores, NoC+L2) — overlays
 * greedily consume most of the device with LUTs as the limiting
 * resource; (b) AutoDSE fixed-function designs use far less.
 */

#include "common.h"

#include "model/oracle.h"
#include "model/resource_model.h"

using namespace overgen;

namespace {

void
printOverlayRow(const char *name, const adg::SysAdg &design)
{
    const auto &prices = model::FpgaResourceModel::defaultModel();
    model::FpgaDevice device = model::FpgaDevice::xcvu9p();
    auto breakdown = prices.tileBreakdown(design.adg);
    double tiles = design.sys.numTiles;
    model::Resources core = model::synthesizeControlCore() * tiles;
    model::Resources uncore = model::synthesizeUncore(design.sys);
    model::Resources total = (breakdown.pe + breakdown.network +
                              breakdown.ports + breakdown.spad +
                              breakdown.dma) *
                                 tiles +
                             core + uncore;
    auto pct = [&](double lut) { return 100.0 * lut / device.total.lut; };
    std::printf("%-10s %2.0f tiles | pe %4.1f%% n/w %4.1f%% vp %4.1f%% "
                "spad %4.1f%% dma %4.1f%% core %4.1f%% noc+l2 %4.1f%% "
                "| lut %4.1f%% ff %4.1f%% bram %4.1f%% dsp %4.1f%%\n",
                name, tiles, pct(breakdown.pe.lut * tiles),
                pct(breakdown.network.lut * tiles),
                pct(breakdown.ports.lut * tiles),
                pct(breakdown.spad.lut * tiles),
                pct(breakdown.dma.lut * tiles), pct(core.lut),
                pct(uncore.lut), 100.0 * total.lut / device.total.lut,
                100.0 * total.ff / device.total.ff,
                100.0 * total.bram / device.total.bram,
                100.0 * total.dsp / device.total.dsp);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Harness harness(argc, argv);
    int iters = bench::benchIterations();
    bench::banner("Figure 16", "FPGA resource breakdown", iters);
    model::FpgaDevice device = model::FpgaDevice::xcvu9p();

    std::printf("(a) overlay designs (component %% of device LUTs)\n");
    printOverlayRow("general", bench::generalOverlay());
    std::vector<std::string> names = { "dsp", "machsuite", "vision" };
    std::vector<std::vector<wl::KernelSpec>> suites = {
        wl::dspSuite(), wl::machSuite(), wl::visionSuite()
    };
    for (size_t s = 0; s < suites.size(); ++s) {
        dse::DseOptions options;
        options.iterations = iters;
        options.seed = 31 + s;
        options.threads = harness.threads();
        options.sink = harness.sink();
        options.telemetryLabel = names[s];
        dse::DseResult result = dse::exploreOverlay(suites[s], options);
        printOverlayRow(names[s].c_str(), result.design);
    }

    std::printf("\n(b) AutoDSE fixed-function designs (%% of "
                "device)\n");
    std::printf("%-12s %6s %6s %6s %6s\n", "app", "lut", "ff", "bram",
                "dsp");
    for (const auto &k : wl::allWorkloads()) {
        hls::AutoDseResult ad = hls::runAutoDse(k, true);
        std::printf("%-12s %5.1f%% %5.1f%% %5.1f%% %5.1f%%\n",
                    k.name.c_str(),
                    100.0 * ad.resources.lut / device.total.lut,
                    100.0 * ad.resources.ff / device.total.ff,
                    100.0 * ad.resources.bram / device.total.bram,
                    100.0 * ad.resources.dsp / device.total.dsp);
    }
    std::printf("\npaper shape: overlays consume 81-97%% of LUTs "
                "(the binding resource, NoC among the largest "
                "pieces); AutoDSE designs mostly stay under ~25%%.\n");
    harness.finish();
    return 0;
}
