/**
 * @file
 * Self-tests of the benchmark's own helpers (util.h). run.py runs this
 * before every benchmark run; it exits nonzero on the first broken
 * helper so no result is printed from a broken benchmark.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util.h"

using namespace e2e;

namespace {

int failures = 0;

#define CHECK(cond)                                                          \
    do {                                                                     \
        if (!(cond)) {                                                       \
            std::fprintf(stderr, "selftest: %s:%d: CHECK(%s) failed\n",      \
                         __FILE__, __LINE__, #cond);                         \
            ++failures;                                                      \
        }                                                                    \
    } while (0)

bool
sameTrace(const std::vector<Request> &a, const std::vector<Request> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (a[i].dueMs != b[i].dueMs || a[i].kernel != b[i].kernel)
            return false;
    return true;
}

void
traceIsPureFunctionOfSeed()
{
    auto a = makeTrace(19, 2000, 250.0, 1.1, 0, 42);
    auto b = makeTrace(19, 2000, 250.0, 1.1, 0, 42);
    auto c = makeTrace(19, 2000, 250.0, 1.1, 0, 43);
    CHECK(sameTrace(a, b));
    CHECK(!sameTrace(a, c));
    std::vector<int> counts(19);
    for (size_t i = 0; i < a.size(); ++i) {
        CHECK(a[i].kernel >= 0 && a[i].kernel < 19);
        CHECK(i == 0 || a[i].dueMs > a[i - 1].dueMs);
        ++counts[static_cast<size_t>(a[i].kernel)];
    }
    // Zipf(1.1) over 19 ranks gives the top rank about 30% of requests
    // and the mean rate holds (2000 arrivals at 250/s ~ 8 s).
    int top = *std::max_element(counts.begin(), counts.end());
    CHECK(top > 450 && top < 750);
    CHECK(a.back().dueMs > 7000.0 && a.back().dueMs < 9000.0);

    // With drift, each epoch has its own popular kernel; the prefix
    // before the first re-draw is the undrifted trace.
    auto d = makeTrace(19, 2000, 250.0, 1.1, 500, 42);
    CHECK(sameTrace(d, makeTrace(19, 2000, 250.0, 1.1, 500, 42)));
    CHECK(std::equal(a.begin(), a.begin() + 500, d.begin(),
                     [](const Request &x, const Request &y) {
                         return x.dueMs == y.dueMs && x.kernel == y.kernel;
                     }));
    std::vector<int> tops;
    for (size_t e = 0; e < 4; ++e) {
        std::vector<int> epochCounts(19);
        for (size_t i = e * 500; i < (e + 1) * 500; ++i)
            ++epochCounts[static_cast<size_t>(d[i].kernel)];
        tops.push_back(static_cast<int>(
            std::max_element(epochCounts.begin(), epochCounts.end()) -
            epochCounts.begin()));
    }
    std::sort(tops.begin(), tops.end());
    CHECK(std::unique(tops.begin(), tops.end()) - tops.begin() > 1);
}

void
batchingIsDeterministic()
{
    std::vector<Request> trace = { { 1.0, 0 }, { 49.0, 1 }, { 50.0, 2 },
                                   { 120.0, 3 } };
    auto batches = admissionWindows(trace, 50.0);
    CHECK(batches.size() == 3);
    CHECK(batches[0].dueMs == 50.0 && batches[0].requests.size() == 2);
    CHECK(batches[1].dueMs == 100.0 && batches[1].requests.size() == 1 &&
          batches[1].requests[0] == 2);
    CHECK(batches[2].dueMs == 150.0 && batches[2].requests[0] == 3);

    auto big = makeTrace(19, 1000, 250.0, 1.1, 125, 7);
    auto x = admissionWindows(big, 50.0);
    auto y = admissionWindows(big, 50.0);
    CHECK(x.size() == y.size());
    size_t next = 0;
    for (size_t b = 0; b < x.size(); ++b) {
        CHECK(x[b].dueMs == y[b].dueMs && x[b].requests == y[b].requests);
        CHECK(!x[b].requests.empty());
        for (size_t r : x[b].requests) {
            CHECK(r == next++);  // every request once, in arrival order
            CHECK(big[r].dueMs < x[b].dueMs &&
                  big[r].dueMs >= x[b].dueMs - 50.0);
        }
    }
    CHECK(next == big.size());
}

void
percentileHonoursTenBeyond()
{
    std::vector<double> values;
    for (int i = 1000; i >= 1; --i)
        values.push_back(i);
    CHECK(percentile(values, 99.0) == std::optional<double>(990.0));
    CHECK(percentile(values, 50.0) == std::optional<double>(500.0));
    CHECK(!percentile(values, 99.5).has_value());  // 5 beyond
    values.pop_back();                             // 999 samples
    CHECK(!percentile(values, 99.0).has_value());  // 9 beyond
    std::vector<double> twenty(20, 1.0), nineteen(19, 1.0);
    CHECK(percentile(twenty, 50.0).has_value());
    CHECK(!percentile(nineteen, 50.0).has_value());
    CHECK(!percentile({}, 50.0).has_value());
    CHECK(median({ 3.0, 1.0, 2.0 }) == 2.0);
    CHECK(median({ 4.0, 1.0, 2.0, 3.0 }) == 2.5);
}

void
selfTimeSubtractsChildren()
{
    // root [0,100] > a [10,40] > a1 [15,20]; root > b [30,60] overlaps a;
    // root > c [90,130] runs past its parent and is clipped.
    std::vector<Span> spans = {
        { "bench.pass", 0, 100, -1, -1 }, { "dse.explore", 10, 40, 0, -1 },
        { "sim.run", 15, 20, 1, -1 },     { "dse.explore", 30, 60, 0, 7 },
        { "library.x", 90, 130, 0, -1 },
    };
    std::vector<int64_t> self = selfTimesNs(spans);
    CHECK(self[0] == 100 - 50 - 10);
    CHECK(self[1] == 25);
    CHECK(self[2] == 5);
    CHECK(self[3] == 30);
    CHECK(self[4] == 40);
    auto layers = layerSelfSeconds(spans);
    CHECK(std::abs(layers["dse"] - 55e-9) < 1e-15);
    CHECK(std::abs(layers["bench"] - 40e-9) < 1e-15);
    CHECK(std::abs(spanSeconds(spans, "dse.explore") - 60e-9) < 1e-15);

    SpanRecorder rec(true);
    {
        ScopedSpan outer(&rec, "bench.pass");
        ScopedSpan inner(&rec, "sim.run", 3);
    }
    CHECK(rec.spans().size() == 2 && rec.spans()[1].parent == 0 &&
          rec.spans()[1].batch == 3);
    SpanRecorder off(false);
    {
        ScopedSpan ignored(&off, "bench.pass");
    }
    CHECK(off.spans().empty());
}

void
argumentHygiene()
{
    const std::vector<std::string> names = { "overlay_gen", "kernel_sweep" };
    Args args;
    CHECK(!parseArgs({ "--workload", "kernel_sweep", "--seed", "5",
                       "--seconds=3", "--trace", "1" },
                     names, args));
    CHECK(args.workload == "kernel_sweep" && args.seed == 5 &&
          args.seconds == 3 && args.trace);
    CHECK(parseArgs({ "--seed", "5" }, names, args));
    CHECK(parseArgs({ "--workload", "kernel_sweep" }, names, args));
    CHECK(parseArgs({ "--workload", "nope", "--seed", "1" }, names, args));
    CHECK(parseArgs({ "--workload", "overlay_gen", "--seed", "x1" }, names,
                    args));
    CHECK(parseArgs({ "--workload", "overlay_gen", "--seed", "1", "--seed=2" },
                    names, args));
    CHECK(parseArgs({ "--workload", "overlay_gen", "--seed", "1", "--trace",
                      "2" },
                    names, args));
    CHECK(parseArgs({ "--workload", "overlay_gen", "--seed", "1", "--extra" },
                    names, args));
    CHECK(parseArgs({ "--workload", "overlay_gen", "--seed" }, names, args));
}

} // namespace

int
main()
{
    traceIsPureFunctionOfSeed();
    batchingIsDeterministic();
    percentileHonoursTenBeyond();
    selfTimeSubtractsChildren();
    argumentHygiene();
    if (failures != 0) {
        std::fprintf(stderr, "selftest: %d check(s) failed\n", failures);
        return 1;
    }
    std::printf("selftest: ok\n");
    return 0;
}
