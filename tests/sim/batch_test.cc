#include <gtest/gtest.h>

#include "adg/builders.h"
#include "compiler/compile.h"
#include "sched/scheduler.h"
#include "sim/batch.h"
#include "telemetry/sink.h"
#include "workloads/suites.h"

// sim::runBatch determinism: index-ordered results, bit-identical to
// a serial simulate() loop at every thread count, and safe to run
// with a shared telemetry sink (this binary runs under tsan in CI).

namespace overgen::sim {
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
        wl::makeFir(128, 16),  wl::makeAccumulate(32),
        wl::makeBlur(16),      wl::makeVecMax(32),
        wl::makeDerivative(18), wl::makeAccWeight(16),
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

std::vector<SimJob>
toJobs(const std::vector<Prepared> &prepared,
       const SimConfig &config = {})
{
    std::vector<SimJob> jobs;
    for (const Prepared &p : prepared) {
        SimJob job;
        job.spec = &p.spec;
        job.mdfg = &p.mdfg;
        job.schedule = &p.schedule;
        job.design = &p.design;
        job.config = config;
        jobs.push_back(job);
    }
    return jobs;
}

void
expectIdentical(const SimResult &a, const SimResult &b,
                const std::string &label)
{
    EXPECT_EQ(a.completed, b.completed) << label;
    EXPECT_EQ(a.cycles, b.cycles) << label;
    EXPECT_EQ(a.totalIterations, b.totalIterations) << label;
    EXPECT_EQ(a.ipc, b.ipc) << label;
    EXPECT_EQ(a.memory.nocBytes, b.memory.nocBytes) << label;
    EXPECT_EQ(a.memory.l2Hits, b.memory.l2Hits) << label;
    EXPECT_EQ(a.memory.l2Misses, b.memory.l2Misses) << label;
    ASSERT_EQ(a.tiles.size(), b.tiles.size()) << label;
    for (size_t t = 0; t < a.tiles.size(); ++t) {
        EXPECT_EQ(a.tiles[t].firings, b.tiles[t].firings) << label;
        EXPECT_EQ(a.tiles[t].finishCycle, b.tiles[t].finishCycle)
            << label;
    }
}

TEST(Batch, MatchesSerialSimulateLoop)
{
    std::vector<Prepared> prepared = prepareJobs();
    std::vector<SimJob> jobs = toJobs(prepared);

    std::vector<SimResult> serial;
    for (const Prepared &p : prepared) {
        wl::Memory memory;
        memory.init(p.spec);
        serial.push_back(simulate(p.spec, p.mdfg, p.schedule,
                                  p.design, memory, {}));
    }

    BatchOptions options;
    options.threads = 4;
    std::vector<SimResult> batched = runBatch(jobs, options);
    ASSERT_EQ(batched.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_TRUE(batched[i].completed) << prepared[i].spec.name;
        expectIdentical(serial[i], batched[i],
                        prepared[i].spec.name);
    }
}

TEST(Batch, ThreadCountInvariant)
{
    std::vector<Prepared> prepared = prepareJobs();
    std::vector<SimJob> jobs = toJobs(prepared);
    BatchOptions one;
    one.threads = 1;
    BatchOptions four;
    four.threads = 4;
    std::vector<SimResult> a = runBatch(jobs, one);
    std::vector<SimResult> b = runBatch(jobs, four);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        expectIdentical(a[i], b[i], prepared[i].spec.name);
}

TEST(Batch, SharedSinkCountersAreDeterministic)
{
    // Counter adds commute, so a shared sink must accumulate the same
    // registry totals batched as serial (and not trip tsan).
    std::vector<Prepared> prepared = prepareJobs();

    auto registry_with = [&](int threads) {
        telemetry::SinkOptions sink_opts;
        telemetry::Sink sink(sink_opts);
        SimConfig config;
        config.sink = &sink;
        std::vector<SimJob> jobs = toJobs(prepared, config);
        BatchOptions options;
        options.threads = threads;
        std::vector<SimResult> results = runBatch(jobs, options);
        for (const SimResult &r : results)
            EXPECT_TRUE(r.completed);
        return sink.registry().toJson().dump(2);
    };
    EXPECT_EQ(registry_with(1), registry_with(4));
}

TEST(Batch, CallerMemoryImageIsUsed)
{
    std::vector<Prepared> prepared = prepareJobs();
    const Prepared &p = prepared.front();
    wl::Memory memory;
    memory.init(p.spec);
    SimJob job;
    job.spec = &p.spec;
    job.mdfg = &p.mdfg;
    job.schedule = &p.schedule;
    job.design = &p.design;
    job.memory = &memory;
    std::vector<SimResult> results = runBatch({ job }, {});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].completed);

    wl::Memory reference;
    reference.init(p.spec);
    wl::interpret(p.spec, reference);
    for (const auto &array : p.spec.arrays) {
        EXPECT_EQ(memory.array(array.name),
                  reference.array(array.name))
            << array.name;
    }
}

TEST(Batch, EmptyBatchIsFine)
{
    EXPECT_TRUE(runBatch({}, {}).empty());
}

} // namespace
} // namespace overgen::sim
