/**
 * @file
 * DSE candidate-evaluation throughput microbenchmark: runs the full
 * annealer on the DSP suite with the default system grids and reports
 * scored candidates per second plus the system-grid pruning count.
 * The rate divides DseResult::scored (candidates actually mutated,
 * scheduled and priced), not `evaluated` (candidates drawn, including
 * speculative ones discarded unscored), so it measures host work.
 * Writes BENCH_dse_eval.json next to the binary.
 *
 * Methodology: the resource model is trained before any timer starts
 * (training is a one-time cost, not part of candidate evaluation);
 * the bench runs several repetitions of an identical seeded
 * exploration and the best (minimum-time) repetition is the headline
 * number — a 30 ms exploration is easily perturbed by the OS, and the
 * least-disturbed run is the truest measure of the code. The bench
 * asserts that every repetition reaches the same objective: the
 * factored perf model changes wall-clock, never the trajectory
 * (DESIGN.md "Model split").
 */

#include <chrono>
#include <cstdio>

#include "common.h"

#include "common/json.h"
#include "model/resource_model.h"

using namespace overgen;

int
main(int argc, char **argv)
{
    bench::Harness harness(argc, argv);
    const int iterations = bench::benchIterations(40);
    bench::banner("micro_dse_eval",
                  "DSE candidate-evaluation throughput (DSP suite, "
                  "default grids)",
                  iterations);

    // Train outside the timed region: candidate evaluation never
    // trains, it only prices.
    (void)model::FpgaResourceModel::defaultModel();

    const int reps = 5;
    std::vector<wl::KernelSpec> domain = wl::dspSuite();
    double best_eps = 0.0;
    double total_eps = 0.0;
    double objective = 0.0;
    int evaluated = 0;
    int scored = 0;
    uint64_t grid_pruned = 0;
    for (int rep = 0; rep < reps; ++rep) {
        dse::DseOptions options =
            harness.dseOptions(iterations, 11, "micro_dse_eval");
        auto t0 = std::chrono::steady_clock::now();
        dse::DseResult result = dse::exploreOverlay(domain, options);
        double seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        double eps = result.scored / seconds;
        total_eps += eps;
        best_eps = std::max(best_eps, eps);
        if (rep == 0) {
            objective = result.objective;
            evaluated = result.evaluated;
            scored = result.scored;
            grid_pruned = result.gridPruned;
        } else {
            OG_ASSERT(result.objective == objective,
                      "trajectory drifted between repetitions");
        }
    }
    double mean_eps = total_eps / reps;

    std::printf("\nconfig: seed=11 iterations=%d threads=%d reps=%d\n",
                iterations, harness.threads(), reps);
    std::printf("%14s %14s %12s\n", "best scored/s", "mean scored/s",
                "objective");
    std::printf("%14.1f %14.1f %12.6f\n", best_eps, mean_eps,
                objective);
    std::printf("system grid: %llu points pruned by monotone "
                "resource bounds\n",
                static_cast<unsigned long long>(grid_pruned));

    Json report = Json::makeObject();
    report.set("bench", Json("micro_dse_eval"));
    report.set("suite", Json("dsp"));
    report.set("seed", Json(11));
    report.set("iterations", Json(iterations));
    report.set("threads", Json(harness.threads()));
    report.set("reps", Json(reps));
    report.set("best_evals_per_sec", Json(best_eps));
    report.set("mean_evals_per_sec", Json(mean_eps));
    report.set("objective", Json(objective));
    report.set("evaluated", Json(evaluated));
    report.set("scored", Json(scored));
    report.set("grid_pruned", Json(grid_pruned));
    std::string text = report.dump(2);
    const char *path = "BENCH_dse_eval.json";
    std::FILE *f = std::fopen(path, "w");
    OG_ASSERT(f != nullptr, "cannot open '", path, "'");
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::printf("\n[bench] report written to %s\n", path);

    harness.finish();
    return 0;
}
