#include <gtest/gtest.h>

#include "adg/builders.h"
#include "compiler/compile.h"
#include "sched/scheduler.h"
#include "sim/batch.h"
#include "sim/simulate.h"
#include "telemetry/phases.h"
#include "telemetry/sink.h"
#include "workloads/suites.h"

// Phase segmentation (telemetry/phases.h): the synthetic cases pin the
// segmentation algorithm itself — startup prefix, hysteresis-held
// steady span, drain, the no-steady degenerate — and the simulation
// cases pin the determinism contract: analyzeRunPhases produces a
// bit-identical PhaseProfile for every sim::runBatch thread count and
// every engine mode, with spans summing exactly to the run's cycles
// and terminal ledgers.

namespace overgen {
namespace {

using telemetry::CycleCategory;
using telemetry::CycleLedger;
using telemetry::PhaseKind;
using telemetry::PhaseProfile;
using telemetry::PhaseSample;
using telemetry::PhaseSpan;

// ---------------------------------------------------------------------------
// Synthetic series helpers

/** Append one interval to a cumulative series: the new sample's
 * ledgers are the previous sample's plus the given per-interval tile
 * deltas (memory mirrors the tile total in Idle so the series stays
 * monotone without mattering to segmentation). */
void
addInterval(std::vector<PhaseSample> &samples, uint64_t interval_cycles,
            std::initializer_list<std::pair<CycleCategory, uint64_t>>
                tile_delta,
            uint64_t firings_delta = 0)
{
    PhaseSample next;
    if (!samples.empty())
        next = samples.back();
    next.cycle += interval_cycles;
    for (const auto &[cat, count] : tile_delta)
        next.tiles.counts[static_cast<int>(cat)] += count;
    next.memory.counts[static_cast<int>(CycleCategory::Idle)] +=
        interval_cycles;
    next.firings += firings_delta;
    samples.push_back(std::move(next));
}

TEST(AnalyzePhases, EmptySeriesYieldsEmptyProfile)
{
    PhaseProfile profile = telemetry::analyzePhases({});
    EXPECT_EQ(profile.cycles, 0u);
    EXPECT_TRUE(profile.spans.empty());
    EXPECT_FALSE(profile.reachedSteady);
    EXPECT_EQ(profile.rampCycles, 0u);
    EXPECT_EQ(profile.steadyIpc, 0.0);
}

TEST(AnalyzePhases, SingleSampleIsOneSteadySpan)
{
    // A run with no sampled rows collapses to one terminal sample:
    // its busy fraction is the peak by construction, so the whole run
    // is one steady span with the dominant stall as bottleneck.
    std::vector<PhaseSample> samples;
    addInterval(samples, 100,
                { { CycleCategory::Busy, 90 },
                  { CycleCategory::PortStall, 10 } },
                /*firings_delta=*/50);
    PhaseProfile profile =
        telemetry::analyzePhases(samples, /*instsPerFiring=*/2.0);
    EXPECT_EQ(profile.cycles, 100u);
    ASSERT_EQ(profile.spans.size(), 1u);
    EXPECT_EQ(profile.spans[0].kind, PhaseKind::Steady);
    EXPECT_EQ(profile.spans[0].beginCycle, 0u);
    EXPECT_EQ(profile.spans[0].endCycle, 100u);
    EXPECT_DOUBLE_EQ(profile.spans[0].busyFraction, 0.9);
    EXPECT_EQ(profile.spans[0].bottleneck, CycleCategory::PortStall);
    EXPECT_TRUE(profile.reachedSteady);
    EXPECT_EQ(profile.rampCycles, 0u);
    // 50 firings * 2 insts / 100 cycles.
    EXPECT_DOUBLE_EQ(profile.steadyIpc, 1.0);
}

TEST(AnalyzePhases, SegmentsStartupRampSteadyDrain)
{
    std::vector<PhaseSample> samples;
    // Startup-majority prefix (startup fraction 0.8 >= 0.5).
    addInterval(samples, 100,
                { { CycleCategory::Startup, 80 },
                  { CycleCategory::Busy, 10 },
                  { CycleCategory::Idle, 10 } });
    // Ramp: busy 0.5 is below the enter threshold (0.85 * 0.95).
    addInterval(samples, 100,
                { { CycleCategory::Busy, 50 },
                  { CycleCategory::PortStall, 50 } });
    // Steady: the peak interval and one held above the exit threshold.
    addInterval(samples, 100,
                { { CycleCategory::Busy, 95 },
                  { CycleCategory::PortStall, 5 } },
                /*firings_delta=*/95);
    addInterval(samples, 100,
                { { CycleCategory::Busy, 90 },
                  { CycleCategory::PortStall, 10 } },
                /*firings_delta=*/90);
    // Drain: busy 0.3 falls below the exit threshold (0.70 * 0.95).
    addInterval(samples, 100,
                { { CycleCategory::Busy, 30 },
                  { CycleCategory::Barrier, 70 } });

    PhaseProfile profile =
        telemetry::analyzePhases(samples, /*instsPerFiring=*/1.0);
    EXPECT_EQ(profile.cycles, 500u);
    ASSERT_EQ(profile.spans.size(), 4u);
    const PhaseSpan &startup = profile.spans[0];
    EXPECT_EQ(startup.kind, PhaseKind::Startup);
    EXPECT_EQ(startup.beginCycle, 0u);
    EXPECT_EQ(startup.endCycle, 100u);
    EXPECT_EQ(startup.bottleneck, CycleCategory::Startup);
    const PhaseSpan &ramp = profile.spans[1];
    EXPECT_EQ(ramp.kind, PhaseKind::Ramp);
    EXPECT_EQ(ramp.beginCycle, 100u);
    EXPECT_EQ(ramp.endCycle, 200u);
    EXPECT_EQ(ramp.bottleneck, CycleCategory::PortStall);
    const PhaseSpan &steady = profile.spans[2];
    EXPECT_EQ(steady.kind, PhaseKind::Steady);
    EXPECT_EQ(steady.beginCycle, 200u);
    EXPECT_EQ(steady.endCycle, 400u);
    EXPECT_DOUBLE_EQ(steady.busyFraction, 185.0 / 200.0);
    const PhaseSpan &drain = profile.spans[3];
    EXPECT_EQ(drain.kind, PhaseKind::Drain);
    EXPECT_EQ(drain.beginCycle, 400u);
    EXPECT_EQ(drain.endCycle, 500u);
    EXPECT_EQ(drain.bottleneck, CycleCategory::Barrier);

    EXPECT_TRUE(profile.reachedSteady);
    EXPECT_EQ(profile.rampCycles, 200u);  // startup + ramp
    EXPECT_EQ(profile.cyclesIn(PhaseKind::Steady), 200u);
    // (95 + 90) firings over the 200 steady cycles.
    EXPECT_DOUBLE_EQ(profile.steadyIpc, 185.0 / 200.0);
    ASSERT_EQ(profile.busyFractions.size(), 5u);
    EXPECT_DOUBLE_EQ(profile.busyFractions[0], 0.1);
    EXPECT_DOUBLE_EQ(profile.busyFractions[2], 0.95);
}

TEST(AnalyzePhases, HysteresisBridgesDipsInsideSteady)
{
    // A dip to 0.75 sits between the exit threshold (0.70 * peak) and
    // the enter threshold (0.85 * peak) for peak 1.0: it must not
    // fragment the steady span.
    std::vector<PhaseSample> samples;
    addInterval(samples, 100, { { CycleCategory::Busy, 100 } });
    addInterval(samples, 100,
                { { CycleCategory::Busy, 75 },
                  { CycleCategory::DramFill, 25 } });
    addInterval(samples, 100, { { CycleCategory::Busy, 100 } });
    PhaseProfile profile = telemetry::analyzePhases(samples);
    ASSERT_EQ(profile.spans.size(), 1u);
    EXPECT_EQ(profile.spans[0].kind, PhaseKind::Steady);
    EXPECT_EQ(profile.spans[0].endCycle, 300u);
    EXPECT_EQ(profile.rampCycles, 0u);
}

TEST(AnalyzePhases, NoSteadyStateMeansWholeRunRamps)
{
    // The busy peak sits inside the startup prefix; nothing after it
    // reaches the enter threshold, so no steady phase exists and the
    // whole run counts as ramp cycles.
    std::vector<PhaseSample> samples;
    addInterval(samples, 100,
                { { CycleCategory::Startup, 60 },
                  { CycleCategory::Busy, 40 } });
    addInterval(samples, 100,
                { { CycleCategory::Busy, 20 },
                  { CycleCategory::Idle, 80 } });
    PhaseProfile profile =
        telemetry::analyzePhases(samples, /*instsPerFiring=*/1.0);
    EXPECT_FALSE(profile.reachedSteady);
    EXPECT_EQ(profile.rampCycles, profile.cycles);
    EXPECT_EQ(profile.steadyIpc, 0.0);
    ASSERT_EQ(profile.spans.size(), 2u);
    EXPECT_EQ(profile.spans[0].kind, PhaseKind::Startup);
    EXPECT_EQ(profile.spans[1].kind, PhaseKind::Ramp);
}

// ---------------------------------------------------------------------------
// Folding timeline rows and the terminal sample

TEST(PhaseSamples, TypedRowsFoldIntoOneSamplePerCycle)
{
    // A run adds each boundary's rows memory first, then one per tile.
    // Tile ledgers and gauges sum; the memory ledger stays separate.
    using telemetry::TimelineSample;
    auto ledger = [](std::initializer_list<
                      std::pair<CycleCategory, uint64_t>> counts) {
        CycleLedger l;
        for (const auto &[cat, n] : counts)
            l.add(cat, n);
        return l;
    };
    auto tile = [](uint64_t cycle, int index, CycleLedger l,
                   uint64_t iterations, uint64_t firings) {
        TimelineSample row{ cycle, index, l };
        row.gauges[TimelineSample::Iterations] = iterations;
        row.gauges[TimelineSample::Firings] = firings;
        row.gauges[TimelineSample::SpadBytes] = 999;  // not folded
        return row;
    };
    std::vector<TimelineSample> rows = {
        { 64, TimelineSample::kMemory,
          ledger({ { CycleCategory::Busy, 4 },
                   { CycleCategory::Idle, 60 } }) },
        tile(64, 0,
             ledger({ { CycleCategory::Busy, 60 },
                      { CycleCategory::IiGate, 4 } }),
             5, 11),
        tile(64, 1,
             ledger({ { CycleCategory::Busy, 50 },
                      { CycleCategory::PortStall, 14 } }),
             3, 7),
        { 128, TimelineSample::kMemory,
          ledger({ { CycleCategory::Busy, 8 },
                   { CycleCategory::Idle, 120 } }) },
        tile(128, 0,
             ledger({ { CycleCategory::Busy, 124 },
                      { CycleCategory::IiGate, 4 } }),
             9, 20),
        tile(128, 1,
             ledger({ { CycleCategory::Busy, 110 },
                      { CycleCategory::PortStall, 18 } }),
             6, 13),
    };

    std::vector<PhaseSample> samples = telemetry::foldPhaseSamples(rows);
    ASSERT_EQ(samples.size(), 2u);
    EXPECT_EQ(samples[0].cycle, 64u);
    EXPECT_EQ(samples[0].tiles[CycleCategory::Busy], 110u);
    EXPECT_EQ(samples[0].tiles[CycleCategory::PortStall], 14u);
    EXPECT_EQ(samples[0].tiles[CycleCategory::IiGate], 4u);
    EXPECT_EQ(samples[0].tiles.total(), 128u);
    EXPECT_EQ(samples[0].memory, rows[0].ledger);
    EXPECT_EQ(samples[0].iterations, 8u);
    EXPECT_EQ(samples[0].firings, 18u);
    EXPECT_EQ(samples[1].cycle, 128u);
    EXPECT_EQ(samples[1].tiles[CycleCategory::Busy], 234u);
    EXPECT_EQ(samples[1].tiles.total(), 256u);
    EXPECT_EQ(samples[1].memory, rows[3].ledger);
    EXPECT_EQ(samples[1].iterations, 15u);
    EXPECT_EQ(samples[1].firings, 33u);
    EXPECT_TRUE(telemetry::foldPhaseSamples({}).empty());
}

TEST(PhaseSamples, TerminalSampleClosesTheSeriesExactlyOnce)
{
    std::vector<PhaseSample> samples;
    addInterval(samples, 100, { { CycleCategory::Busy, 100 } });

    CycleLedger tiles;
    tiles.counts[static_cast<int>(CycleCategory::Busy)] = 130;
    tiles.counts[static_cast<int>(CycleCategory::Barrier)] = 20;
    CycleLedger memory;
    memory.counts[static_cast<int>(CycleCategory::Idle)] = 150;
    telemetry::appendTerminalSample(samples, 150, tiles, memory, 40,
                                    70);
    ASSERT_EQ(samples.size(), 2u);
    EXPECT_EQ(samples.back().cycle, 150u);
    EXPECT_EQ(samples.back().tiles, tiles);
    EXPECT_EQ(samples.back().firings, 70u);

    // A terminal boundary that coincides with the last row is a no-op.
    telemetry::appendTerminalSample(samples, 150, tiles, memory, 40,
                                    70);
    EXPECT_EQ(samples.size(), 2u);

    // A zero-cycle run has no intervals to segment.
    std::vector<PhaseSample> empty;
    telemetry::appendTerminalSample(empty, 0, {}, {}, 0, 0);
    EXPECT_TRUE(empty.empty());

    // A run with no sampled rows gets a single whole-run sample.
    telemetry::appendTerminalSample(empty, 150, tiles, memory, 40, 70);
    ASSERT_EQ(empty.size(), 1u);
    EXPECT_EQ(empty[0].cycle, 150u);
}

// ---------------------------------------------------------------------------
// Simulation invariance: thread counts, engine modes

adg::Adg
richTile()
{
    adg::MeshConfig config;
    config.rows = 5;
    config.cols = 5;
    config.tracks = 2;
    config.numPes = 20;
    config.numInPorts = 12;
    config.numOutPorts = 6;
    config.datapathBytes = 64;
    config.spadCapacityKiB = 64;
    config.indirect = true;
    config.dmaBandwidthBytes = 64;
    std::set<FuCapability> caps = adg::intCapabilities(DataType::I64);
    for (DataType t : { DataType::I16, DataType::I32 }) {
        auto sub = adg::intCapabilities(t);
        caps.insert(sub.begin(), sub.end());
    }
    for (DataType t : { DataType::F32, DataType::F64 }) {
        auto sub = adg::floatCapabilities(t);
        caps.insert(sub.begin(), sub.end());
    }
    config.peCapabilities = caps;
    return adg::buildMeshTile(config);
}

adg::SysAdg
testDesign(int tiles)
{
    adg::SysAdg design;
    design.adg = richTile();
    design.sys.numTiles = tiles;
    design.sys.l2Banks = 8;
    design.sys.nocBytes = 64;
    return design;
}

const char *const kAllWorkloads[] = {
    "cholesky",   "fft",      "fir",        "solver",
    "mm",         "stencil-3d", "crs",      "gemm",
    "stencil-2d", "ellpack",  "channel-ext", "bgr2grey",
    "blur",       "accumulate", "acc-sqr",  "vecmax",
    "acc-weight", "convert-bit", "derivative",
};

struct Compiled
{
    wl::KernelSpec spec;
    adg::SysAdg design;
    dfg::Mdfg mdfg;
    sched::Schedule schedule;
};

Compiled
compileFor(const std::string &name, int tiles)
{
    Compiled c;
    c.spec = wl::smallWorkloadByName(name);
    c.design = testDesign(tiles);
    auto variants = compiler::compileVariants(c.spec);
    sched::SpatialScheduler scheduler(c.design.adg);
    auto fit = scheduler.scheduleFirstFit(variants);
    OG_ASSERT(fit.has_value(), "no schedule for ", name);
    c.mdfg = std::move(variants[fit->second]);
    c.schedule = std::move(fit->first);
    return c;
}

/** Simulate @p c with a fresh sink sampling at @p interval. */
sim::SimResult
runSampled(const Compiled &c, uint64_t interval, sim::SimConfig config)
{
    telemetry::SinkOptions opts;
    opts.statsInterval = interval;
    telemetry::Sink sink(opts);
    config.sink = &sink;
    config.runLabel = "0:" + c.spec.name;
    wl::Memory memory;
    memory.init(c.spec);
    return sim::simulate(c.spec, c.mdfg, c.schedule, c.design, memory,
                         config);
}

/** The profile must tile the run exactly: spans cover (0, cycles]
 * contiguously and their ledgers sum to the run's terminal ledgers. */
void
expectExactCoverage(const PhaseProfile &profile,
                    const sim::SimResult &result,
                    const std::string &label)
{
    EXPECT_EQ(profile.cycles, result.cycles) << label;
    uint64_t covered = 0;
    uint64_t previous_end = 0;
    CycleLedger tiles;
    CycleLedger memory;
    for (const PhaseSpan &span : profile.spans) {
        EXPECT_EQ(span.beginCycle, previous_end) << label;
        previous_end = span.endCycle;
        covered += span.cycles();
        for (int cat = 0; cat < telemetry::kNumCycleCategories;
             ++cat) {
            tiles.counts[cat] += span.tiles.counts[cat];
            memory.counts[cat] += span.memory.counts[cat];
        }
    }
    EXPECT_EQ(covered, result.cycles) << label;
    CycleLedger terminal_tiles;
    for (const sim::TileStats &tile : result.tiles)
        for (int cat = 0; cat < telemetry::kNumCycleCategories; ++cat)
            terminal_tiles.counts[cat] += tile.ledger.counts[cat];
    EXPECT_EQ(tiles, terminal_tiles) << label;
    EXPECT_EQ(memory, result.memory.ledger) << label;
}

class PhaseInvariance : public ::testing::TestWithParam<const char *>
{
};

TEST_P(PhaseInvariance, ProfileIsIdenticalInEveryEngineMode)
{
    Compiled c = compileFor(GetParam(), 2);

    sim::SimResult fast = runSampled(c, 64, sim::SimConfig{});
    ASSERT_TRUE(fast.completed) << GetParam();
    PhaseProfile reference = sim::analyzeRunPhases(fast);
    expectExactCoverage(reference, fast, GetParam());

    sim::SimConfig naive;
    naive.noFastForward = true;
    sim::SimConfig checked;
    checked.checkFastForward = true;
    for (const auto &[config, label] :
         { std::pair<sim::SimConfig, const char *>{ naive, "naive" },
           { checked, "checked" } }) {
        sim::SimResult result = runSampled(c, 64, config);
        const std::string tag =
            std::string(GetParam()) + " " + label;
        EXPECT_EQ(result.timelineRows, fast.timelineRows) << tag;
        EXPECT_EQ(sim::analyzeRunPhases(result), reference) << tag;
    }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, PhaseInvariance,
                         ::testing::ValuesIn(kAllWorkloads),
                         [](const auto &info) {
                             std::string name = info.param;
                             for (char &ch : name)
                                 if (ch == '-')
                                     ch = '_';
                             return name;
                         });

TEST(PhaseRun, ThreadCountLeavesProfilesIdentical)
{
    std::vector<Compiled> prepared;
    for (const char *name :
         { "fir", "accumulate", "vecmax", "derivative" })
        prepared.push_back(compileFor(name, 2));

    auto profiles_with = [&](int threads) {
        telemetry::SinkOptions opts;
        opts.statsInterval = 64;
        telemetry::Sink sink(opts);
        std::vector<sim::SimJob> jobs;
        for (size_t i = 0; i < prepared.size(); ++i) {
            const Compiled &c = prepared[i];
            sim::SimJob job;
            job.spec = &c.spec;
            job.mdfg = &c.mdfg;
            job.schedule = &c.schedule;
            job.design = &c.design;
            job.config.sink = &sink;
            job.config.runLabel =
                std::to_string(i) + ":" + c.spec.name;
            jobs.push_back(job);
        }
        sim::BatchOptions batch;
        batch.threads = threads;
        std::vector<sim::SimResult> results =
            sim::runBatch(jobs, batch);
        std::vector<PhaseProfile> profiles;
        for (const sim::SimResult &r : results) {
            EXPECT_TRUE(r.completed);
            EXPECT_FALSE(r.timelineRows.empty());
            profiles.push_back(sim::analyzeRunPhases(r));
        }
        return profiles;
    };
    std::vector<PhaseProfile> serial = profiles_with(1);
    std::vector<PhaseProfile> two = profiles_with(2);
    std::vector<PhaseProfile> four = profiles_with(4);
    ASSERT_EQ(serial.size(), prepared.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i], two[i]) << prepared[i].spec.name;
        EXPECT_EQ(serial[i], four[i]) << prepared[i].spec.name;
    }
}

TEST(PhaseRun, NoSampledRowsCollapseToOneWholeRunSpan)
{
    Compiled c = compileFor("fir", 1);
    wl::Memory memory;
    memory.init(c.spec);
    sim::SimResult result = sim::simulate(c.spec, c.mdfg, c.schedule,
                                          c.design, memory);
    ASSERT_TRUE(result.completed);
    ASSERT_TRUE(result.timelineRows.empty());
    PhaseProfile profile = sim::analyzeRunPhases(result);
    EXPECT_EQ(profile.cycles, result.cycles);
    ASSERT_EQ(profile.spans.size(), 1u);
    EXPECT_EQ(profile.spans[0].beginCycle, 0u);
    EXPECT_EQ(profile.spans[0].endCycle, result.cycles);
    expectExactCoverage(profile, result, "no-rows");
}

} // namespace
} // namespace overgen
