/**
 * @file
 * Job-server throughput micro: jobs per second of the forked-worker
 * coordinator at 1/2/4 workers against the in-process runPreparedBatch
 * baseline on the same job list (shrunken workload sizes, so the
 * fork/pipe/merge overhead is a visible fraction of each job). Also
 * checks the serving layer's correctness contract along the way: every
 * server configuration must reproduce the in-process cycle counts
 * exactly. Writes BENCH_serve.json next to the binary.
 */

#include <chrono>
#include <cstdio>

#include "common.h"

#include "serve/coordinator.h"

using namespace overgen;

int
main(int argc, char **argv)
{
    // The coordinator forks; keep the parent free of thread pools
    // until all serving is done (fork-safety contract), so the
    // harness is built but pool() is never touched before the sweeps.
    // Both sides run one simulation at a time: the scaling axis under
    // test is worker processes, not in-process threads.
    bench::CommonFlags flags = bench::parseCommonFlags(argc, argv);
    flags.threads = 1;
    bench::Harness harness(flags);
    bench::banner("serve_bench",
                  "job-server throughput vs in-process batching");

    std::vector<wl::KernelSpec> workloads;
    for (const wl::KernelSpec &spec : wl::allWorkloads())
        workloads.push_back(wl::smallWorkloadByName(spec.name));
    adg::SysAdg design = bench::generalOverlay();
    serve::JobSet set = bench::makeJobSet(workloads, design,
                                          /*apply_tuning=*/true,
                                          /*small_size=*/true);
    const int reps = 3;

    // In-process baseline: same jobs, same serial per-job execution
    // (one thread, like each single-threaded worker), no processes.
    auto t0 = std::chrono::steady_clock::now();
    std::vector<sim::SimResult> reference;
    double base_seconds = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
        auto shared = bench::shareDesign(design);
        std::vector<bench::PreparedSim> prepared;
        for (const wl::KernelSpec &spec : workloads)
            prepared.push_back(
                bench::prepareOverlayRun(spec, shared, true));
        reference = bench::runPreparedBatch(prepared, harness);
        base_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count() /
                       (rep + 1);
    }
    double base_jps =
        static_cast<double>(set.jobs.size()) / base_seconds;
    std::printf("%-22s %10.2f jobs/s (%.0f ms/batch)\n", "in-process",
                base_jps, base_seconds * 1e3);

    Json rows = Json::makeArray();
    {
        Json row = Json::makeObject();
        row.set("config", Json("in-process"));
        row.set("jobs_per_sec", Json(base_jps));
        row.set("seconds_per_batch", Json(base_seconds));
        rows.push(std::move(row));
    }

    for (int workers : { 1, 2, 4 }) {
        serve::CoordinatorOptions options;
        options.workers = workers;
        options.shardSize = 1;
        options.sink = harness.sink();
        double seconds = 0.0;
        serve::ServeOutcome outcome;
        for (int rep = 0; rep < reps; ++rep) {
            auto s0 = std::chrono::steady_clock::now();
            outcome = serve::serveJobs(set, options);
            seconds += std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - s0)
                           .count();
            OG_ASSERT(outcome.summary.ok, "serve run failed at ",
                      workers, " workers");
        }
        seconds /= reps;
        // Correctness gate: the server must reproduce the in-process
        // batch bit-for-bit (cycles are the sensitive field).
        for (size_t i = 0; i < outcome.rows.size(); ++i) {
            OG_ASSERT(outcome.rows[i].ok == reference[i].completed &&
                          outcome.rows[i].cycles ==
                              reference[i].cycles,
                      "server row ", i, " ('",
                      set.jobs[i].workload,
                      "') differs from the in-process batch");
        }
        double jps = static_cast<double>(set.jobs.size()) / seconds;
        std::printf("%-22s %10.2f jobs/s (%.0f ms/batch, %.2fx "
                    "in-process)\n",
                    (std::to_string(workers) + " workers").c_str(),
                    jps, seconds * 1e3, jps / base_jps);
        Json row = Json::makeObject();
        row.set("config",
                Json(std::to_string(workers) + "-workers"));
        row.set("workers", Json(static_cast<int64_t>(workers)));
        row.set("jobs_per_sec", Json(jps));
        row.set("seconds_per_batch", Json(seconds));
        row.set("vs_in_process", Json(jps / base_jps));
        row.set("summary", outcome.summaryJson());
        rows.push(std::move(row));
    }

    Json report = Json::makeObject();
    report.set("bench", Json("serve_bench"));
    report.set("jobs", Json(static_cast<int64_t>(set.jobs.size())));
    report.set("reps", Json(reps));
    report.set("rows", std::move(rows));
    std::string text = report.dump(2);
    const char *path = "BENCH_serve.json";
    std::FILE *f = std::fopen(path, "w");
    OG_ASSERT(f != nullptr, "cannot open '", path, "'");
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::printf("\n[bench] report written to %s\n", path);
    harness.finish();
    return 0;
}
