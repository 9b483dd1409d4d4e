#include <gtest/gtest.h>

#include "adg/builders.h"
#include "compiler/compile.h"
#include "sched/scheduler.h"
#include "sim/batch.h"
#include "telemetry/sink.h"
#include "telemetry/timeline.h"
#include "workloads/suites.h"

// Interval time-series sampling (telemetry/timeline.h): rows are
// byte-identical for every sim::runBatch thread count, every row is
// valid compact JSON whose ledger sums to the sampled cycle, and the
// whole path is inert when `statsInterval` is zero. This binary runs
// under tsan in CI (one TimelineRun per concurrent job).

namespace overgen::telemetry {
namespace {

adg::SysAdg
testDesign(int tiles)
{
    adg::SysAdg design;
    design.adg = adg::buildGeneralOverlayTile();
    design.sys.numTiles = tiles;
    design.sys.l2Banks = 4;
    design.sys.nocBytes = 32;
    return design;
}

struct Prepared
{
    wl::KernelSpec spec;
    adg::SysAdg design;
    dfg::Mdfg mdfg;
    sched::Schedule schedule;
};

std::vector<Prepared>
prepareJobs()
{
    std::vector<wl::KernelSpec> specs = {
        wl::makeFir(128, 16),
        wl::makeAccumulate(32),
        wl::makeVecMax(32),
        wl::makeDerivative(18),
    };
    std::vector<Prepared> prepared;
    for (size_t i = 0; i < specs.size(); ++i) {
        Prepared p;
        p.spec = specs[i];
        p.design = testDesign(1 + static_cast<int>(i % 3));
        auto variants = compiler::compileVariants(p.spec);
        sched::SpatialScheduler scheduler(p.design.adg);
        auto fit = scheduler.scheduleFirstFit(variants);
        OG_ASSERT(fit.has_value(), "no schedule for ", p.spec.name);
        p.mdfg = std::move(variants[fit->second]);
        p.schedule = std::move(fit->first);
        prepared.push_back(std::move(p));
    }
    return prepared;
}

/** Jobs sharing @p sink, each with the unique per-index run label the
 * bench harness stamps (bench/common.h runPreparedBatch). */
std::vector<sim::SimJob>
toJobs(const std::vector<Prepared> &prepared, Sink *sink)
{
    std::vector<sim::SimJob> jobs;
    for (size_t i = 0; i < prepared.size(); ++i) {
        const Prepared &p = prepared[i];
        sim::SimJob job;
        job.spec = &p.spec;
        job.mdfg = &p.mdfg;
        job.schedule = &p.schedule;
        job.design = &p.design;
        job.config.sink = sink;
        job.config.runLabel =
            std::to_string(i) + ":" + p.spec.name;
        jobs.push_back(job);
    }
    return jobs;
}

TEST(TimelineRun, RowBufferRoundTrips)
{
    TimelineRun run("r");
    run.append("{\"a\":1}");
    std::string &row = run.beginRow();
    row += "{\"b\":2}";
    run.endRow();
    EXPECT_EQ(run.bytes(), "{\"a\":1}\n{\"b\":2}\n");
    std::vector<std::string> lines = run.lines();
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], "{\"a\":1}");
    EXPECT_EQ(lines[1], "{\"b\":2}");
}

TEST(TimelineRun, LedgerCompactFormMatchesJsonDump)
{
    // Rows embed the ledger through the hand-formatted appendCompact;
    // its bytes must equal the generic JSON writer's, every category
    // included (distinct counts catch a key/value mismatch).
    CycleLedger ledger;
    for (int c = 0; c < kNumCycleCategories; ++c)
        ledger.add(static_cast<CycleCategory>(c), 1000 + 7 * c);
    std::string compact;
    ledger.appendCompact(compact);
    EXPECT_EQ(compact, ledger.toJson().dump());
    std::string empty;
    CycleLedger{}.appendCompact(empty);
    EXPECT_EQ(empty, CycleLedger{}.toJson().dump());
}

TEST(Timeline, LinesSortByLabelNotCompletionOrder)
{
    Timeline timeline;
    TimelineRun *b = timeline.beginRun("1:b");
    TimelineRun *a = timeline.beginRun("0:a");
    b->append("{\"row\":\"b\"}");
    a->append("{\"row\":\"a\"}");
    EXPECT_EQ(timeline.rowCount(), 2u);
    std::vector<std::string> lines = timeline.lines();
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], "{\"row\":\"a\"}");
    EXPECT_EQ(lines[1], "{\"row\":\"b\"}");
}

TEST(Timeline, ThreadCountLeavesBytesIdentical)
{
    std::vector<Prepared> prepared = prepareJobs();

    auto jsonl_with = [&](int threads) {
        SinkOptions opts;
        opts.statsInterval = 64;
        Sink sink(opts);
        std::vector<sim::SimJob> jobs = toJobs(prepared, &sink);
        sim::BatchOptions batch;
        batch.threads = threads;
        std::vector<sim::SimResult> results =
            sim::runBatch(jobs, batch);
        for (const sim::SimResult &r : results)
            EXPECT_TRUE(r.completed);
        EXPECT_GT(sink.timeline().rowCount(), 0u);
        std::string joined;
        for (const std::string &line : sink.timeline().lines()) {
            joined += line;
            joined += '\n';
        }
        return joined;
    };
    std::string serial = jsonl_with(1);
    std::string parallel = jsonl_with(4);
    EXPECT_EQ(serial, parallel);
}

TEST(Timeline, RowsParseAndLedgersSumToTheSampledCycle)
{
    std::vector<Prepared> prepared = prepareJobs();
    SinkOptions opts;
    opts.statsInterval = 32;
    Sink sink(opts);
    std::vector<sim::SimJob> jobs = toJobs(prepared, &sink);
    std::vector<sim::SimResult> results = sim::runBatch(jobs, {});
    for (const sim::SimResult &r : results)
        ASSERT_TRUE(r.completed);

    size_t rows = 0;
    for (const std::string &line : sink.timeline().lines()) {
        Json row = Json::parse(line);
        ASSERT_TRUE(row.isObject()) << line;
        ASSERT_TRUE(row.contains("comp")) << line;
        ASSERT_TRUE(row.contains("run")) << line;
        uint64_t cycle =
            static_cast<uint64_t>(row.at("cycle").asNumber());
        EXPECT_EQ(cycle % opts.statsInterval, 0u) << line;
        // With a sink attached every component ticks every cycle, so
        // a ledger snapshot at cycle c accounts exactly c cycles.
        const Json &ledger = row.at("ledger");
        ASSERT_TRUE(ledger.isObject()) << line;
        EXPECT_EQ(ledger.asObject().size(),
                  static_cast<size_t>(kNumCycleCategories))
            << line;
        uint64_t total = 0;
        for (const auto &[name, count] : ledger.asObject())
            total += static_cast<uint64_t>(count.asNumber());
        EXPECT_EQ(total, cycle) << line;
        ++rows;
    }
    EXPECT_GT(rows, 0u);
}

TEST(Timeline, ZeroIntervalSamplesNothing)
{
    std::vector<Prepared> prepared = prepareJobs();
    SinkOptions opts;
    ASSERT_EQ(opts.statsInterval, 0u);
    Sink sink(opts);
    EXPECT_FALSE(sink.timelineEnabled());
    std::vector<sim::SimJob> jobs = toJobs(prepared, &sink);
    std::vector<sim::SimResult> results = sim::runBatch(jobs, {});
    for (const sim::SimResult &r : results)
        EXPECT_TRUE(r.completed);
    EXPECT_EQ(sink.timeline().rowCount(), 0u);
}

} // namespace
} // namespace overgen::telemetry
