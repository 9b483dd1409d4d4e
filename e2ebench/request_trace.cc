/**
 * @file
 * request_trace: a seeded Poisson/Zipf request stream over the 19
 * paper-size kernels, grouped into fixed admission windows and served
 * by the overlay library in server mode (forked workers) from a cold
 * library. Three passes over the same batches: open loop at the trace's
 * rate (latency from each request's due time), closed loop back to back
 * (capacity), and an in-process replay whose library bytes both server
 * passes must reproduce.
 */

#include <cstdio>
#include <set>
#include <thread>

#include "library/service.h"
#include "workloads.h"
#include "workloads/suites.h"

namespace e2e {

namespace {

using namespace overgen;

/** Seeded requests after the catalogue prefix; with it, the nearest-rank
 * p99 has 20 samples beyond it. */
constexpr size_t kRequests = 2000;
constexpr double kRatePerSec = 250.0;
constexpr double kZipfAlpha = 1.1;
/** The popular set is re-drawn every 100 requests, so one trace covers
 * thirty popularity orders. */
constexpr size_t kEpoch = 100;
constexpr double kWindowMs = 50.0;
constexpr int kWorkers = 2;
constexpr int kWarmIterations = 8;

double
msBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

library::ServiceOptions
serviceOptions(bool useServer)
{
    library::ServiceOptions options;
    options.smallSize = false;
    options.match.applyTuning = true;
    options.warmIterations = kWarmIterations;
    options.useServer = useServer;
    options.serve.workers = kWorkers;
    return options;
}

/** One replay of the batches through a fresh, cold service. */
struct Replay
{
    std::string libraryBytes;
    size_t hits = 0;
    size_t unserved = 0;
    size_t entries = 0;
    /** Distinct misses warmed, summed over batches. */
    size_t warms = 0;
    /** processBatch durations (ms) and whether each batch was all-hit. */
    std::vector<double> batchMs;
    std::vector<bool> allHit;
    std::vector<serve::ServeSummary> summaries;
};

class RequestTrace : public Workload
{
  public:
    void
    prepare(uint64_t seed) override
    {
        names.clear();
        for (const wl::KernelSpec &spec : wl::allWorkloads())
            names.push_back(spec.name);
        // Catalogue prefix: every kernel once, in catalogue order, one
        // admission window each. Every hit is matched against every
        // library entry, so the entries the first misses create set the
        // cost of all later hits; when the seeded stream made them, a
        // pass took 5.3 s at 9 entries and 9.5 s at 15, depending on the
        // seed. After the prefix the library is the same for every seed.
        trace.clear();
        for (size_t k = 0; k < names.size(); ++k)
            trace.push_back({ (static_cast<double>(k) + 0.5) * kWindowMs,
                              static_cast<int>(k) });
        double offset = static_cast<double>(names.size()) * kWindowMs;
        for (Request request : makeTrace(names.size(), kRequests,
                                         kRatePerSec, kZipfAlpha, kEpoch,
                                         seed)) {
            request.dueMs += offset;
            trace.push_back(request);
        }
        batches = admissionWindows(trace, kWindowMs);
    }

    PassResult
    pass(SpanRecorder &spans) override
    {
        PassResult result;
        ScopedSpan root(&spans, "bench.pass");

        // Open loop (traced passes only; it feeds per-layer latencies):
        // each window is admitted when it closes, whatever the state of
        // the previous one.
        std::vector<double> latencyMs, queueWaitMs;
        std::vector<Replay> server;
        if (spans.enabled()) {
            ScopedSpan span(&spans, "bench.open_loop");
            server.push_back(replay(spans, &latencyMs, &queueWaitMs));
        }
        // Closed loop: the same batches back to back.
        double cpu0 = cpuSeconds();
        auto t0 = Clock::now();
        {
            ScopedSpan span(&spans, "bench.closed_loop");
            server.push_back(replay(spans));
        }
        const Replay &closed = server.back();
        result.wallS = secondsSince(t0);
        result.cpuS = cpuSeconds() - cpu0;
        // In-process replay: the bytes both server passes must match.
        Replay local;
        {
            ScopedSpan span(&spans, "bench.replay");
            local = replay(spans, nullptr, nullptr, /*useServer=*/false);
        }

        ScopedSpan check(&spans, "bench.check");
        result.attempted += trace.size();
        result.failed += local.unserved;
        for (const Replay &r : server) {
            result.attempted += trace.size() + 1;
            result.failed += r.unserved;
            bool differs = r.libraryBytes != local.libraryBytes ||
                           r.hits != local.hits;
            result.failed += differs;
            if (r.unserved + local.unserved != 0 || differs)
                std::fprintf(stderr,
                             "request_trace: %zu + %zu requests unserved, "
                             "server library %s the in-process replay\n",
                             r.unserved, local.unserved,
                             differs ? "differs from" : "equals");
        }

        double hitRate = static_cast<double>(closed.hits) /
                         static_cast<double>(trace.size());
        result.exact["hit_rate"] = hitRate;
        result.exact["library.entries"] = static_cast<double>(closed.entries);

        if (spans.enabled()) {
            Metrics &m = result.layers;
            m["request_p50_ms"] = { percentile(latencyMs, 50.0).value_or(0.0),
                                    "ms" };
            m["request_p99_ms"] = { percentile(latencyMs, 99.0).value_or(0.0),
                                    "ms" };
            m["requests_per_s"] = {
                static_cast<double>(trace.size()) / result.wallS, "1/s"
            };
            m["hit_rate"] = { hitRate, "ratio" };
            std::vector<double> hitOnly, withMiss;
            for (size_t b = 0; b < closed.batchMs.size(); ++b)
                (closed.allHit[b] ? hitOnly : withMiss)
                    .push_back(closed.batchMs[b]);
            m["library.batch_ms.hit_only"] = { median(hitOnly), "ms" };
            m["library.batch_ms.with_miss"] = { median(withMiss), "ms" };
            m["library.warms"] = { static_cast<double>(closed.warms),
                                   "count" };
            m["library.entries"] = { static_cast<double>(closed.entries),
                                     "count" };
            serve::ServeSummary sum;
            for (const serve::ServeSummary &s : closed.summaries) {
                sum.jobs += s.jobs;
                sum.workersSpawned += s.workersSpawned;
                sum.retries += s.retries;
                sum.duplicates += s.duplicates;
                sum.abandoned += s.abandoned;
            }
            m["serve.calls"] = {
                static_cast<double>(closed.summaries.size()), "count"
            };
            m["serve.workers_spawned"] = {
                static_cast<double>(sum.workersSpawned), "count"
            };
            m["serve.jobs"] = { static_cast<double>(sum.jobs), "count" };
            m["serve.retries"] = { static_cast<double>(sum.retries), "count" };
            m["serve.duplicates"] = { static_cast<double>(sum.duplicates),
                                      "count" };
            m["serve.abandoned"] = { static_cast<double>(sum.abandoned),
                                     "count" };
            m["trace.queue_wait_ms.p50"] = {
                percentile(queueWaitMs, 50.0).value_or(0.0), "ms"
            };
            m["trace.queue_wait_ms.p99"] = {
                percentile(queueWaitMs, 99.0).value_or(0.0), "ms"
            };
        }
        return result;
    }

  private:
    /**
     * Serve every batch through a fresh service. With @p latencyMs the
     * replay is open loop: batch b is dispatched at its due time, and
     * each request's latency runs from its own due time to its batch's
     * completion; @p queueWaitMs gets dispatch minus due per request.
     */
    Replay
    replay(SpanRecorder &spans, std::vector<double> *latencyMs = nullptr,
           std::vector<double> *queueWaitMs = nullptr, bool useServer = true)
    {
        bool openLoop = latencyMs != nullptr;
        library::LibraryService service(serviceOptions(useServer));
        Replay out;
        auto start = Clock::now();
        for (size_t b = 0; b < batches.size(); ++b) {
            const Batch &batch = batches[b];
            std::vector<std::string> workloads;
            for (size_t r : batch.requests)
                workloads.push_back(names[static_cast<size_t>(
                    trace[r].kernel)]);
            if (openLoop) {
                auto due = start + std::chrono::duration_cast<
                                       Clock::duration>(
                                       std::chrono::duration<double,
                                                             std::milli>(
                                           batch.dueMs));
                std::this_thread::sleep_until(due);
                double late = msBetween(due, Clock::now());
                queueWaitMs->insert(queueWaitMs->end(), workloads.size(),
                                    late);
            }
            auto t0 = Clock::now();
            std::vector<library::RequestOutcome> outcomes;
            {
                ScopedSpan span(&spans, "library.process_batch",
                                static_cast<int64_t>(b));
                outcomes = service.processBatch(workloads);
            }
            auto t1 = Clock::now();
            out.batchMs.push_back(msBetween(t0, t1));
            bool allHit = true;
            std::set<std::string> warmed;
            for (const library::RequestOutcome &outcome : outcomes) {
                out.hits += outcome.hit;
                out.unserved += outcome.entryIndex < 0;
                allHit = allHit && outcome.hit;
                if (outcome.warmed)
                    warmed.insert(outcome.workload);
            }
            out.allHit.push_back(allHit);
            out.warms += warmed.size();
            if (openLoop)
                for (size_t r : batch.requests)
                    latencyMs->push_back(msBetween(start, t1) -
                                         trace[r].dueMs);
        }
        out.libraryBytes = service.library().toJsonl();
        out.entries = service.library().entries.size();
        out.summaries = service.serveSummaries();
        return out;
    }

    std::vector<std::string> names;
    std::vector<Request> trace;
    std::vector<Batch> batches;
};

} // namespace

std::unique_ptr<Workload>
makeRequestTrace()
{
    return std::make_unique<RequestTrace>();
}

} // namespace e2e
