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
    b->add({ 64, 0, {} });
    a->add({ 64, TimelineSample::kMemory, {} });
    EXPECT_EQ(timeline.rowCount(), 2u);
    std::vector<std::string> lines = timeline.lines();
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], a->lines().at(0));
    EXPECT_EQ(lines[1], b->lines().at(0));
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

// ---------------------------------------------------------------------------
// Cross-commit pin. The cases above compare runs against each other,
// so a change to the row format that every run shares passes them all.
// This pins the JSONL bytes themselves: a refactor of how rows are
// produced or rendered must leave them unchanged.

TEST(TimelinePin, RowBytesArePinnedAcrossCommits)
{
    // fir on the 4-tile general overlay runs from scratchpads; vecmax
    // streams through the L2 and DRAM, so between them every gauge of
    // both row kinds is exercised.
    adg::SysAdg general;
    general.adg = adg::buildGeneralOverlayTile();
    general.sys.numTiles = 4;
    general.sys.l2Banks = 4;
    general.sys.l2CapacityKiB = 512;
    general.sys.nocBytes = 32;
    std::vector<Prepared> prepared;
    for (const wl::KernelSpec &spec :
         { wl::makeFir(128, 16), wl::makeVecMax(64) }) {
        Prepared p;
        p.spec = spec;
        p.design = general;
        auto variants = compiler::compileVariants(p.spec);
        sched::SpatialScheduler scheduler(p.design.adg);
        auto fit = scheduler.scheduleFirstFit(variants);
        ASSERT_TRUE(fit.has_value()) << spec.name;
        p.mdfg = std::move(variants[fit->second]);
        p.schedule = std::move(fit->first);
        prepared.push_back(std::move(p));
    }

    SinkOptions opts;
    opts.statsInterval = 64;
    Sink sink(opts);
    for (const sim::SimResult &r :
         sim::runBatch(toJobs(prepared, &sink), {}))
        ASSERT_TRUE(r.completed);

    // The first rows of each kind sit in fir's startup window; the
    // last ones close vecmax's run, after its DRAM traffic.
    std::vector<std::string> lines = sink.timeline().lines();
    size_t bytes = 0;
    uint64_t digest = 1469598103934665603ull;  // FNV-1a over all bytes
    const std::string *first_memory = nullptr;
    const std::string *first_tile = nullptr;
    const std::string *last_memory = nullptr;
    const std::string *last_tile = nullptr;
    for (const std::string &line : lines) {
        bytes += line.size() + 1;
        for (char ch : line + '\n') {
            digest ^= static_cast<unsigned char>(ch);
            digest *= 1099511628211ull;
        }
        bool memory =
            line.find("\"comp\":\"memory\"") != std::string::npos;
        const std::string *&first = memory ? first_memory : first_tile;
        if (first == nullptr)
            first = &line;
        (memory ? last_memory : last_tile) = &line;
    }
    ASSERT_NE(first_memory, nullptr);
    ASSERT_NE(first_tile, nullptr);
    EXPECT_EQ(lines.size(), 100u);
    EXPECT_EQ(bytes, 26916u);
    EXPECT_EQ(digest, 9879673993058144217ull);
    EXPECT_EQ(*first_memory,
              "{\"bank_queue_depth\":0,\"comp\":\"memory\",\"cycle\":64,"
              "\"dram_bytes_read\":0,\"dram_bytes_written\":0,"
              "\"l2_hits\":0,\"l2_misses\":0,\"ledger\":{\"barrier\":0,"
              "\"busy\":0,\"dram_fill\":0,\"idle\":64,\"ii_gate\":0,"
              "\"noc_contention\":0,\"port_stall\":0,\"startup\":0},"
              "\"mshr_stall_cycles\":0,\"mshrs_in_use\":0,"
              "\"noc_bytes\":0,\"outstanding\":0,\"run\":\"0:fir\"}");
    EXPECT_EQ(*first_tile,
              "{\"comp\":\"tile0\",\"cycle\":64,\"dma_bytes\":0,"
              "\"fabric_stall_cycles\":17,\"firings\":20,"
              "\"iterations\":160,\"ledger\":{\"barrier\":0,\"busy\":53,"
              "\"dram_fill\":0,\"idle\":0,\"ii_gate\":0,"
              "\"noc_contention\":0,\"port_stall\":4,\"startup\":7},"
              "\"run\":\"0:fir\",\"spad_bytes\":1664}");
    EXPECT_EQ(*last_memory,
              "{\"bank_queue_depth\":0,\"comp\":\"memory\",\"cycle\":1152,"
              "\"dram_bytes_read\":65536,\"dram_bytes_written\":0,"
              "\"l2_hits\":553,\"l2_misses\":1536,\"ledger\":{"
              "\"barrier\":0,\"busy\":1000,\"dram_fill\":145,\"idle\":7,"
              "\"ii_gate\":0,\"noc_contention\":0,\"port_stall\":0,"
              "\"startup\":0},\"mshr_stall_cycles\":337,"
              "\"mshrs_in_use\":0,\"noc_bytes\":133696,"
              "\"outstanding\":3,\"run\":\"1:vecmax\"}");
    EXPECT_EQ(*last_tile,
              "{\"comp\":\"tile3\",\"cycle\":1152,\"dma_bytes\":33536,"
              "\"fabric_stall_cycles\":562,\"firings\":512,"
              "\"iterations\":4096,\"ledger\":{\"barrier\":0,"
              "\"busy\":822,\"dram_fill\":324,\"idle\":0,\"ii_gate\":0,"
              "\"noc_contention\":0,\"port_stall\":0,\"startup\":6},"
              "\"run\":\"1:vecmax\",\"spad_bytes\":0}");
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
