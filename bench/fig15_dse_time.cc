/**
 * @file
 * Regenerates paper Figure 15: DSE + synthesis time. AutoDSE explores
 * and synthesizes per application; OverGen runs one domain DSE per
 * suite and synthesizes a single overlay (paper: 47% of AutoDSE's
 * combined time while producing a *more general* accelerator).
 *
 * Our DSE runs a reduced iteration budget; its wall-clock is scaled
 * to the paper's iteration count (2000) to model the full run, and
 * the final overlay synthesis uses the same synthesis-time model as
 * the HLS candidates. The three per-suite explorations run
 * concurrently on the harness pool and each evaluates its annealing
 * candidates in parallel (`--threads`); results are printed in suite
 * order once all complete.
 */

#include "common.h"

using namespace overgen;

namespace {

struct SuiteTiming
{
    std::vector<hls::AutoDseResult> perApp;
    double adTotal = 0.0;
    double ogDseHours = 0.0;
    double ogSynthHours = 0.0;
};

} // namespace

int
main(int argc, char **argv)
{
    bench::Harness harness(argc, argv);
    constexpr int paper_iterations = 2000;
    int iters = bench::benchIterations();
    bench::banner("Figure 15", "DSE and synthesis time (hours)", iters);

    std::vector<std::string> names = { "dsp", "machsuite", "vision" };
    std::vector<std::vector<wl::KernelSpec>> suites = {
        wl::dspSuite(), wl::machSuite(), wl::visionSuite()
    };
    std::vector<SuiteTiming> timings = harness.pool().parallelMap(
        suites.size(), [&](size_t s) {
            SuiteTiming timing;
            for (const auto &k : suites[s]) {
                hls::AutoDseResult ad = hls::runAutoDse(k, false);
                timing.adTotal += ad.dseHours + ad.synthHours;
                timing.perApp.push_back(std::move(ad));
            }
            dse::DseOptions options =
                harness.dseOptions(iters, 21 + s, names[s]);
            dse::DseResult og =
                dse::exploreOverlay(suites[s], options);
            timing.ogDseHours =
                og.elapsedSeconds *
                (static_cast<double>(paper_iterations) / iters) /
                3600.0;
            timing.ogSynthHours = hls::synthesisHours(og.resources);
            return timing;
        });

    double grand_ad = 0.0, grand_og = 0.0;
    for (size_t s = 0; s < suites.size(); ++s) {
        const SuiteTiming &timing = timings[s];
        std::printf("\n[%s]\n", names[s].c_str());
        std::printf("  %-12s %8s %8s %8s\n", "app", "dse(h)",
                    "syn(h)", "total");
        for (size_t k = 0; k < suites[s].size(); ++k) {
            const hls::AutoDseResult &ad = timing.perApp[k];
            std::printf("  %-12s %8.2f %8.2f %8.2f\n",
                        suites[s][k].name.c_str(), ad.dseHours,
                        ad.synthHours, ad.dseHours + ad.synthHours);
        }
        double og_total = timing.ogDseHours + timing.ogSynthHours;
        std::printf("  %-12s %8.2f %8.2f %8.2f   <- one overlay for "
                    "the whole suite\n",
                    "suite-OG", timing.ogDseHours,
                    timing.ogSynthHours, og_total);
        std::printf("  AutoDSE total %.1fh vs OverGen %.1fh -> "
                    "OverGen uses %.0f%% of the time\n",
                    timing.adTotal, og_total,
                    100.0 * og_total / timing.adTotal);
        grand_ad += timing.adTotal;
        grand_og += og_total;
    }
    std::printf("\nacross all suites: OverGen %.1fh / AutoDSE %.1fh "
                "= %.0f%% (paper: 47%%)\n",
                grand_og, grand_ad, 100.0 * grand_og / grand_ad);
    harness.finish();
    return 0;
}
