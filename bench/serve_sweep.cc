/**
 * @file
 * Full-suite sweep through the overlay-generation job server: every
 * workload on the general overlay, sharded across forked worker
 * processes, with the merged result stream written as JSONL. The
 * merged file is byte-identical for every --workers / --shard-size
 * combination (the serving layer's determinism contract; see
 * DESIGN.md "Serving layer"), so diffing two runs is a one-line
 * health check of the whole pipeline.
 *
 * Usage: serve_sweep [--workers=N] [--shard-size=N] [--deadline-ms=N]
 *                    [--out=<path>] [harness flags]
 */

#include <cstdio>

#include "common.h"

#include "serve/coordinator.h"

using namespace overgen;

int
main(int argc, char **argv)
{
    bench::CommonFlags flags =
        bench::parseCommonFlags(argc, argv, /*allowExtra=*/true);
    serve::CoordinatorOptions options;
    options.workers = 4;
    options.shardSize = 1;
    std::string out_path = "serve_sweep.jsonl";
    std::string value;
    if (bench::takeExtraFlag(flags.extra, "--workers=", value))
        options.workers = std::atoi(value.c_str());
    if (bench::takeExtraFlag(flags.extra, "--shard-size=", value))
        options.shardSize =
            static_cast<size_t>(std::atoll(value.c_str()));
    if (bench::takeExtraFlag(flags.extra, "--deadline-ms=", value))
        options.deadlineMs = std::atoi(value.c_str());
    bench::takeExtraFlag(flags.extra, "--out=", out_path);
    OG_ASSERT(options.workers >= 1, "bad --workers value");

    // IMPORTANT: fork workers before the harness builds any thread
    // pool (the coordinator's fork-safety contract), so construct the
    // Harness but never touch pool() before serveJobs() returns.
    bench::Harness harness(flags);
    options.sink = harness.sink();

    bench::banner("serve_sweep",
                  "full workload suite through the job server");
    std::vector<wl::KernelSpec> workloads = wl::allWorkloads();
    serve::JobSet set = bench::makeJobSet(
        workloads, bench::generalOverlay(), /*apply_tuning=*/true);
    std::printf("jobs: %zu | workers: %d | shard size: %zu\n\n",
                set.jobs.size(), options.workers, options.shardSize);

    serve::ServeOutcome outcome = serve::serveJobs(set, options);

    std::printf("%-12s %12s %8s %-10s\n", "workload", "cycles", "ipc",
                "status");
    for (size_t i = 0; i < outcome.rows.size(); ++i) {
        const serve::ResultRow &row = outcome.rows[i];
        const char *status = row.ok ? "ok"
                             : row.deadlocked ? "deadlock"
                                              : "failed";
        std::printf("%-12s %12llu %8.3f %-10s\n",
                    set.jobs[i].workload.c_str(),
                    static_cast<unsigned long long>(row.cycles),
                    row.ipc, status);
    }

    std::string merged = serve::mergedJsonl(set, outcome.rows);
    std::FILE *f = std::fopen(out_path.c_str(), "w");
    OG_ASSERT(f != nullptr, "cannot open '", out_path, "'");
    std::fwrite(merged.data(), 1, merged.size(), f);
    std::fclose(f);

    Json summary = outcome.summaryJson();
    std::printf("\nsummary: %s\n", summary.dump().c_str());
    std::printf("[serve] merged result stream written to %s "
                "(byte-identical for any --workers/--shard-size)\n",
                out_path.c_str());
    harness.finish();
    return outcome.summary.ok ? 0 : 1;
}
