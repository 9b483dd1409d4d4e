/**
 * @file
 * Request-level serving benchmark for the overlay library: a seeded
 * Zipf-skewed request trace over the 19-workload suite is admitted
 * one request at a time through LibraryService — match against the
 * library, warm a fresh overlay (bounded DSE) on a miss, re-match.
 * Reports the hit rate (overall and post-warm-up), the hit/miss
 * latency split, and the library growth curve, then pins the
 * determinism contract: replaying the trace in-process twice and
 * through the forked-worker server at 1/2/4 workers must produce
 * byte-identical library files (and an identical serve log across
 * worker counts), and reports each server replay's worker forks.
 * Writes BENCH_requests.json next to the binary.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "common.h"

#include "common/rng.h"
#include "common/stats.h"
#include "library/service.h"

using namespace overgen;

namespace {

double
nextUnit(uint64_t &state)
{
    return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

/**
 * The request trace: @p count arrivals over the full workload suite,
 * Zipf-skewed (alpha ~1.1, the classic popularity shape for serving
 * traces) with the rank->workload mapping scrambled by a seeded
 * shuffle so popularity does not follow suite order.
 */
std::vector<std::string>
makeTrace(size_t count, uint64_t seed)
{
    std::vector<std::string> names;
    for (const wl::KernelSpec &spec : wl::allWorkloads())
        names.push_back(spec.name);
    uint64_t state = seed;
    for (size_t i = names.size(); i > 1; --i)
        std::swap(names[i - 1], names[splitmix64(state) % i]);

    const double alpha = 1.1;
    std::vector<double> cdf(names.size());
    double total = 0.0;
    for (size_t rank = 0; rank < names.size(); ++rank) {
        total += 1.0 / std::pow(static_cast<double>(rank + 1), alpha);
        cdf[rank] = total;
    }
    std::vector<std::string> trace;
    for (size_t i = 0; i < count; ++i) {
        double u = nextUnit(state) * total;
        size_t rank =
            static_cast<size_t>(std::lower_bound(cdf.begin(),
                                                 cdf.end(), u) -
                                cdf.begin());
        trace.push_back(names[std::min(rank, names.size() - 1)]);
    }
    return trace;
}

/** Fraction-p convenience over the shared overgen::percentile
 * (nearest-rank, same indexing); empty-safe because an all-hit trace
 * leaves the miss list empty. */
double
percentile(const std::vector<double> &values, double p)
{
    if (values.empty())
        return 0.0;
    return overgen::percentile(values, p * 100.0);
}

library::ServiceOptions
serviceOptions(int warmIterations, bool useServer, int workers)
{
    library::ServiceOptions options;
    options.smallSize = true;
    options.match.applyTuning = true;
    options.warmIterations = warmIterations;
    options.useServer = useServer;
    options.serve.workers = workers;
    return options;
}

/** Replay @p trace through a fresh service in fixed-size batches and
 * return the library JSONL (the determinism comparand). Server mode
 * can report its serve log and the worker forks of the whole replay
 * (the service's workers persist across batches). */
std::string
replay(const std::vector<std::string> &trace, size_t batchSize,
       int warmIterations, bool useServer, int workers,
       std::string *serveLog = nullptr,
       uint64_t *workersSpawned = nullptr)
{
    library::LibraryService service(
        serviceOptions(warmIterations, useServer, workers));
    for (size_t start = 0; start < trace.size(); start += batchSize) {
        size_t end = std::min(start + batchSize, trace.size());
        service.processBatch(std::vector<std::string>(
            trace.begin() + static_cast<long>(start),
            trace.begin() + static_cast<long>(end)));
    }
    if (serveLog != nullptr)
        *serveLog = service.serveLog();
    if (workersSpawned != nullptr) {
        *workersSpawned = 0;
        for (const serve::ServeSummary &summary :
             service.serveSummaries())
            *workersSpawned += summary.workersSpawned;
    }
    return service.library().toJsonl();
}

} // namespace

int
main(int argc, char **argv)
{
    // The server-mode replays fork; keep this process free of live
    // thread pools (harness pool() is never touched, and the
    // library's transient scoring pools are joined before any fork).
    bench::CommonFlags flags =
        bench::parseCommonFlags(argc, argv, /*allowExtra=*/true);
    std::string requestsArg;
    bench::takeExtraFlag(flags.extra, "--requests=", requestsArg);
    bench::rejectExtraFlags(flags.extra);
    size_t requestCount = 160;
    if (!requestsArg.empty()) {
        requestCount =
            static_cast<size_t>(std::atoi(requestsArg.c_str()));
        OG_ASSERT(requestCount >= 2, "bad --requests value '",
                  requestsArg, "'");
    }
    bench::Harness harness(flags);
    bench::banner("serve_requests",
                  "request-level overlay-library serving",
                  bench::benchIterations(8));

    const int warmIterations = std::max(4, bench::benchIterations(8));
    std::vector<std::string> trace =
        makeTrace(requestCount, 0x5e17ce2026080801ull);

    // Measurement pass: one request per batch (pure arrival order),
    // in-process, wall-clock per request.
    library::LibraryService service(
        serviceOptions(warmIterations, false, 0));
    std::vector<double> hitMs;
    std::vector<double> missMs;
    size_t hits = 0;
    size_t secondHalfHits = 0;
    size_t secondHalfCount = 0;
    Json growth = Json::makeArray();
    for (size_t i = 0; i < trace.size(); ++i) {
        auto t0 = std::chrono::steady_clock::now();
        library::RequestOutcome outcome =
            service.processBatch({ trace[i] }).front();
        double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
        (outcome.hit ? hitMs : missMs).push_back(ms);
        hits += outcome.hit ? 1 : 0;
        if (i >= trace.size() / 2) {
            ++secondHalfCount;
            secondHalfHits += outcome.hit ? 1 : 0;
        }
        if ((i + 1) % 20 == 0 || i + 1 == trace.size()) {
            Json point = Json::makeObject();
            point.set("requests", Json(static_cast<int64_t>(i + 1)));
            point.set("entries",
                      Json(static_cast<int64_t>(
                          service.library().entries.size())));
            growth.push(std::move(point));
        }
    }
    double hitRate =
        static_cast<double>(hits) / static_cast<double>(trace.size());
    double secondHalfRate =
        static_cast<double>(secondHalfHits) /
        static_cast<double>(std::max<size_t>(secondHalfCount, 1));
    double hitP50 = percentile(hitMs, 0.5);
    double missP50 = percentile(missMs, 0.5);
    double speedup = missP50 / std::max(hitP50, 1e-9);

    std::printf("%zu requests over %zu workloads, warm budget %d "
                "DSE iters\n",
                trace.size(), wl::allWorkloads().size(),
                warmIterations);
    std::printf("hit rate       %5.1f%% overall, %5.1f%% second "
                "half\n",
                hitRate * 100.0, secondHalfRate * 100.0);
    std::printf("hit latency    p50 %8.3f ms  p90 %8.3f ms  p99 "
                "%8.3f ms\n",
                hitP50, percentile(hitMs, 0.9),
                percentile(hitMs, 0.99));
    std::printf("miss latency   p50 %8.3f ms  p90 %8.3f ms  p99 "
                "%8.3f ms\n",
                missP50, percentile(missMs, 0.9),
                percentile(missMs, 0.99));
    std::printf("miss/hit p50   %.1fx\n", speedup);
    std::printf("library        %zu entries after %zu requests\n",
                service.library().entries.size(), trace.size());

    // Acceptance gates (ISSUE 7): a warmed library serves the skewed
    // tail from memory, and the hit path never pays the DSE.
    OG_ASSERT(secondHalfRate >= 0.8,
              "post-warm-up hit rate ", secondHalfRate,
              " below the 0.8 gate");
    OG_ASSERT(speedup >= 10.0, "hit path only ", speedup,
              "x faster than the miss path (gate: 10x)");

    // Determinism: the library file is a pure function of the trace
    // and its batching — in-process replays agree with each other...
    std::string baseline = service.library().toJsonl();
    std::string inProcessAgain =
        replay(trace, 1, warmIterations, false, 0);
    bool replayIdentical = inProcessAgain == baseline;
    OG_ASSERT(replayIdentical,
              "in-process replay produced different library bytes");

    // ...and the forked-worker server agrees for every worker count
    // (batched admission: same batching for every compared run).
    const size_t batchSize = 16;
    std::string batchedBaseline =
        replay(trace, batchSize, warmIterations, false, 0);
    bool serverIdentical = true;
    bool logsIdentical = true;
    std::string firstLog;
    Json serverReplays = Json::makeArray();
    for (int workers : { 1, 2, 4 }) {
        std::string log;
        uint64_t spawned = 0;
        std::string bytes = replay(trace, batchSize, warmIterations,
                                   true, workers, &log, &spawned);
        Json entry = Json::makeObject();
        entry.set("workers", Json(workers));
        entry.set("workers_spawned", Json(spawned));
        serverReplays.push(std::move(entry));
        if (bytes != batchedBaseline)
            serverIdentical = false;
        if (firstLog.empty())
            firstLog = log;
        else if (log != firstLog)
            logsIdentical = false;
        std::printf("server x%d      library %s, serve log %s, "
                    "%llu worker fork(s)\n",
                    workers,
                    bytes == batchedBaseline ? "identical"
                                             : "DIFFERENT",
                    log == firstLog ? "identical" : "DIFFERENT",
                    static_cast<unsigned long long>(spawned));
    }
    OG_ASSERT(serverIdentical,
              "server-mode library bytes differ from in-process");
    OG_ASSERT(logsIdentical,
              "serve logs differ across worker counts");

    Json report = Json::makeObject();
    report.set("bench", Json("serve_requests"));
    report.set("requests",
               Json(static_cast<int64_t>(trace.size())));
    report.set("workloads",
               Json(static_cast<int64_t>(wl::allWorkloads().size())));
    report.set("warm_iterations",
               Json(static_cast<int64_t>(warmIterations)));
    report.set("hit_rate", Json(hitRate));
    report.set("hit_rate_second_half", Json(secondHalfRate));
    // The full percentile set, both sides of the hit/miss split, so
    // CI can gate on tail latency (p99/max), not just medians.
    Json latency = Json::makeObject();
    latency.set("hit_count",
                Json(static_cast<int64_t>(hitMs.size())));
    latency.set("hit_p50_ms", Json(hitP50));
    latency.set("hit_p90_ms", Json(percentile(hitMs, 0.9)));
    latency.set("hit_p95_ms", Json(percentile(hitMs, 0.95)));
    latency.set("hit_p99_ms", Json(percentile(hitMs, 0.99)));
    latency.set("hit_max_ms", Json(percentile(hitMs, 1.0)));
    latency.set("miss_count",
                Json(static_cast<int64_t>(missMs.size())));
    latency.set("miss_p50_ms", Json(missP50));
    latency.set("miss_p90_ms", Json(percentile(missMs, 0.9)));
    latency.set("miss_p95_ms", Json(percentile(missMs, 0.95)));
    latency.set("miss_p99_ms", Json(percentile(missMs, 0.99)));
    latency.set("miss_max_ms", Json(percentile(missMs, 1.0)));
    latency.set("miss_over_hit_p50", Json(speedup));
    report.set("latency", std::move(latency));
    report.set("library_entries",
               Json(static_cast<int64_t>(
                   service.library().entries.size())));
    report.set("growth", std::move(growth));
    Json determinism = Json::makeObject();
    determinism.set("in_process_replay_identical",
                    Json(replayIdentical));
    determinism.set("server_library_identical",
                    Json(serverIdentical));
    determinism.set("server_logs_identical", Json(logsIdentical));
    report.set("determinism", std::move(determinism));
    // Workers persist across a replay's batches, so a crash-free
    // replay forks at most its worker count.
    report.set("server_replays", std::move(serverReplays));

    std::string text = report.dump(2);
    const char *path = "BENCH_requests.json";
    std::FILE *f = std::fopen(path, "w");
    OG_ASSERT(f != nullptr, "cannot open '", path, "'");
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::printf("\n[bench] report written to %s\n", path);
    harness.finish();
    return 0;
}
