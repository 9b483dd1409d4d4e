#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "adg/builders.h"
#include "compiler/compile.h"
#include "sched/scheduler.h"
#include "sim/simulate.h"
#include "telemetry/sink.h"
#include "workloads/suites.h"

// Cycle-exactness of event-horizon fast-forward: every workload must
// produce a bitwise-identical SimResult through the naive tick loop
// (SimConfig::noFastForward), the fast-forwarding engine, and the
// checked engine that executes skipped cycles anyway while asserting
// quiescence. Only tickedCycles/skippedCycles — wall-clock
// observability — may differ.

namespace overgen::sim {
namespace {

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
testDesign(int tiles = 1)
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

struct SimRun
{
    SimResult result;
    wl::Memory memory;
};

SimRun
runWith(const Compiled &c, SimConfig config)
{
    SimRun run;
    run.memory.init(c.spec);
    run.result = simulate(c.spec, c.mdfg, c.schedule, c.design,
                          run.memory, config);
    return run;
}

void
expectIdentical(const SimResult &a, const SimResult &b,
                const std::string &label)
{
    EXPECT_EQ(a.completed, b.completed) << label;
    EXPECT_EQ(a.deadlocked, b.deadlocked) << label;
    EXPECT_EQ(a.cycles, b.cycles) << label;
    EXPECT_EQ(a.totalIterations, b.totalIterations) << label;
    EXPECT_EQ(a.ipc, b.ipc) << label;
    EXPECT_EQ(a.memory.l2Hits, b.memory.l2Hits) << label;
    EXPECT_EQ(a.memory.l2Misses, b.memory.l2Misses) << label;
    EXPECT_EQ(a.memory.dramBytesRead, b.memory.dramBytesRead)
        << label;
    EXPECT_EQ(a.memory.dramBytesWritten, b.memory.dramBytesWritten)
        << label;
    EXPECT_EQ(a.memory.nocBytes, b.memory.nocBytes) << label;
    EXPECT_EQ(a.memory.mshrStallCycles, b.memory.mshrStallCycles)
        << label;
    EXPECT_EQ(a.memory.peakOutstandingTxns,
              b.memory.peakOutstandingTxns)
        << label;
    // Cycle ledgers must be bit-identical across execution modes, and
    // the taxonomy must account for every clocked cycle exactly once.
    EXPECT_EQ(a.memory.ledger, b.memory.ledger) << label;
    EXPECT_EQ(a.memory.ledger.total(), a.cycles) << label;
    ASSERT_EQ(a.tiles.size(), b.tiles.size()) << label;
    for (size_t t = 0; t < a.tiles.size(); ++t) {
        const TileStats &ta = a.tiles[t];
        const TileStats &tb = b.tiles[t];
        const std::string at = label + " tile" + std::to_string(t);
        EXPECT_EQ(ta.firings, tb.firings) << at;
        EXPECT_EQ(ta.iterations, tb.iterations) << at;
        EXPECT_EQ(ta.fabricStallCycles, tb.fabricStallCycles) << at;
        EXPECT_EQ(ta.startupCycles, tb.startupCycles) << at;
        EXPECT_EQ(ta.spadBytes, tb.spadBytes) << at;
        EXPECT_EQ(ta.dmaBytes, tb.dmaBytes) << at;
        EXPECT_EQ(ta.recurrenceBytes, tb.recurrenceBytes) << at;
        EXPECT_EQ(ta.finishCycle, tb.finishCycle) << at;
        EXPECT_EQ(ta.ledger, tb.ledger) << at;
        EXPECT_EQ(ta.ledger.total(), a.cycles) << at;
    }
}

/** What a live sink recorded of one run. */
struct Observed
{
    SimResult result;
    std::string registry;
    std::vector<std::string> timeline;
    std::string trace;
};

/** Run @p c with a sink that traces and samples a timeline every
 * @p interval cycles. */
Observed
observeWith(const Compiled &c, SimConfig config, uint64_t interval)
{
    telemetry::SinkOptions opts;
    opts.enableTrace = true;
    opts.statsInterval = interval;
    telemetry::Sink sink(opts);
    config.sink = &sink;
    Observed out;
    out.result = runWith(c, config).result;
    out.registry = sink.registry().toJson().dump(2);
    out.timeline = sink.timeline().lines();
    out.trace = sink.trace().toJson().dump();
    return out;
}

/**
 * Observe @p c traced and sampled every 7 cycles through the naive,
 * fast-forwarding and checked engines: the registry, the timeline rows
 * and the trace (counter tracks included) must be identical, since
 * sample cycles are horizon events rather than a reason to tick every
 * cycle. @return the cycles the fast-forwarding engine skipped.
 */
uint64_t
expectObservationMatchesAcrossModes(const Compiled &c,
                                    const SimConfig &config,
                                    const std::string &label)
{
    SimConfig naive = config;
    naive.noFastForward = true;
    Observed reference = observeWith(c, naive, 7);
    EXPECT_TRUE(reference.result.completed) << label;
    EXPECT_FALSE(reference.timeline.empty()) << label;
    EXPECT_NE(reference.trace.find("\"ph\":\"C\""), std::string::npos)
        << label;

    SimConfig checked = config;
    checked.checkFastForward = true;
    uint64_t skipped = 0;
    for (const auto &[mode, modeConfig] :
         { std::pair{ "fast", config }, std::pair{ "checked", checked } }) {
        Observed other = observeWith(c, modeConfig, 7);
        const std::string at = label + " " + mode + "-vs-naive";
        expectIdentical(reference.result, other.result, at);
        EXPECT_EQ(reference.registry, other.registry) << at;
        EXPECT_EQ(reference.timeline, other.timeline) << at;
        EXPECT_EQ(reference.trace, other.trace) << at;
        skipped += other.result.skippedCycles;  // checked skips none
    }
    return skipped;
}

class EngineExactness
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(EngineExactness, FastForwardIsBitIdentical)
{
    Compiled c = compileFor(GetParam(), 2);

    SimConfig naive;
    naive.noFastForward = true;
    SimRun reference = runWith(c, naive);
    EXPECT_TRUE(reference.result.completed) << GetParam();

    SimRun fast = runWith(c, SimConfig{});
    expectIdentical(reference.result, fast.result,
                    std::string(GetParam()) + " ff-vs-naive");

    // Debug mode: execute the skipped ranges anyway and assert every
    // cycle was quiescent (OG_ASSERTs fire inside on violation).
    SimConfig checked;
    checked.checkFastForward = true;
    SimRun check = runWith(c, checked);
    expectIdentical(reference.result, check.result,
                    std::string(GetParam()) + " check-vs-naive");
    EXPECT_EQ(check.result.skippedCycles, 0u);

    // Functional identity: the simulated memory images match too.
    for (const auto &array : c.spec.arrays) {
        EXPECT_EQ(reference.memory.array(array.name),
                  fast.memory.array(array.name))
            << GetParam() << " array " << array.name;
    }
}

TEST_P(EngineExactness, TelemetryCountersMatchAcrossModes)
{
    expectObservationMatchesAcrossModes(compileFor(GetParam(), 1), {},
                                        GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, EngineExactness,
                         ::testing::ValuesIn(kAllWorkloads),
                         [](const auto &info) {
                             std::string name = info.param;
                             for (char &ch : name)
                                 if (ch == '-')
                                     ch = '_';
                             return name;
                         });

TEST(Engine, FastForwardSkipsMostCyclesWhenMemoryBound)
{
    // A DRAM-limited point: 10 tiles share one channel, the L2 is too
    // small for the streamed array (miss-dominated) and fills take
    // 1000 cycles, so tiles spend most cycles ROB-stalled waiting on
    // DRAM. The engine must skip far more cycles than it executes.
    Compiled c = compileFor("accumulate", 10);
    c.spec = wl::makeAccumulate(64);
    c.design.sys.l2CapacityKiB = 16;
    c.design.sys.dramChannels = 1;
    auto variants = compiler::compileVariants(c.spec);
    sched::SpatialScheduler scheduler(c.design.adg);
    auto fit = scheduler.scheduleFirstFit(variants);
    ASSERT_TRUE(fit.has_value());
    c.mdfg = std::move(variants[fit->second]);
    c.schedule = std::move(fit->first);

    SimConfig config;
    config.dramLatency = 1000;
    SimRun fast = runWith(c, config);
    ASSERT_TRUE(fast.result.completed);
    EXPECT_EQ(fast.result.tickedCycles + fast.result.skippedCycles,
              fast.result.cycles);
    EXPECT_GE(fast.result.skippedCycles,
              2 * fast.result.tickedCycles);

    SimConfig naive = config;
    naive.noFastForward = true;
    SimRun reference = runWith(c, naive);
    EXPECT_EQ(reference.result.skippedCycles, 0u);
    EXPECT_EQ(reference.result.tickedCycles, reference.result.cycles);
    expectIdentical(reference.result, fast.result, "memory-bound");

    // Observing the run (trace plus a timeline) must not turn
    // fast-forward off. A sample cycle is a horizon event, so the only
    // cycles it may cost are the sampled ones that the bare run
    // skipped: they are ticked instead, at most one per sample.
    Observed observed = observeWith(c, config, 64);
    const SimResult &seen = observed.result;
    expectIdentical(fast.result, seen, "memory-bound observed");
    EXPECT_EQ(seen.tickedCycles + seen.skippedCycles, seen.cycles);
    ASSERT_LE(seen.skippedCycles, fast.result.skippedCycles);
    EXPECT_LE(fast.result.skippedCycles - seen.skippedCycles,
              seen.cycles / 64);
    EXPECT_GE(seen.skippedCycles, 2 * seen.tickedCycles);
}

// ---------------------------------------------------------------------------
// Bandwidth-bound exactness: under channel/link saturation the memory
// system progresses nearly every cycle, so horizon jumps only open
// across the short gaps in which a byte budget accrues toward a queue
// head. The whole taxonomy must stay bit-identical across naive /
// fast-forward / checked execution on a grid of latency x
// channel-bandwidth x channel-count points. (The test keeps its
// historical name so the grid's ids stay stable.)

struct BandwidthPoint
{
    const char *name;
    int dramLatency;
    int channelBandwidthBytes;
    int dramChannels;
    int tiles = 2;
};

const BandwidthPoint kBandwidthGrid[] = {
    { "lat60_bw8_1ch", 60, 8, 1 },
    { "lat60_bw8_4ch", 60, 8, 4 },
    { "lat60_bw16_1ch", 60, 16, 1 },
    { "lat60_bw16_4ch", 60, 16, 4 },
    { "lat600_bw8_1ch", 600, 8, 1 },
    { "lat600_bw8_4ch", 600, 8, 4 },
    { "lat600_bw16_1ch", 600, 16, 1 },
    { "lat600_bw16_4ch", 600, 16, 4 },
    // Four tiles behind slow DRAM at the default channel bandwidth:
    // several engines' completion rings hold pushed-but-not-yet-due
    // entries at once.
    { "lat600_bw192_1ch_4tiles", 600, 192, 1, 4 },
};

Compiled
compileBandwidthBound(int channels, int tiles = 2)
{
    Compiled c = compileFor("accumulate", tiles);
    // Starve the cache so the stream misses to DRAM throughout.
    c.design.sys.l2CapacityKiB = 16;
    c.design.sys.dramChannels = channels;
    return c;
}

class BandwidthExactness
    : public ::testing::TestWithParam<BandwidthPoint>
{
};

TEST_P(BandwidthExactness, DrainReplayIsBitIdentical)
{
    const BandwidthPoint &point = GetParam();
    Compiled c = compileBandwidthBound(point.dramChannels, point.tiles);

    SimConfig config;
    config.dramLatency = point.dramLatency;
    config.dramChannelBandwidthBytes = point.channelBandwidthBytes;

    SimConfig naive = config;
    naive.noFastForward = true;
    SimRun reference = runWith(c, naive);
    EXPECT_TRUE(reference.result.completed) << point.name;

    SimRun fast = runWith(c, config);
    expectIdentical(reference.result, fast.result,
                    std::string(point.name) + " ff-vs-naive");

    SimConfig checked = config;
    checked.checkFastForward = true;
    SimRun check = runWith(c, checked);
    expectIdentical(reference.result, check.result,
                    std::string(point.name) + " check-vs-naive");
    // Check mode executes every skipped cycle for real.
    EXPECT_EQ(check.result.skippedCycles, 0u) << point.name;

    for (const auto &array : c.spec.arrays) {
        EXPECT_EQ(reference.memory.array(array.name),
                  fast.memory.array(array.name))
            << point.name << " array " << array.name;
    }
}

TEST_P(BandwidthExactness, TelemetryMatchesAcrossModes)
{
    const BandwidthPoint &point = GetParam();
    SimConfig config;
    config.dramLatency = point.dramLatency;
    config.dramChannelBandwidthBytes = point.channelBandwidthBytes;
    uint64_t skipped = expectObservationMatchesAcrossModes(
        compileBandwidthBound(point.dramChannels, point.tiles), config,
        point.name);
    // Every grid point leaves quiescent windows between samples, so
    // the observed run still fast-forwards.
    EXPECT_GT(skipped, 0u) << point.name;
}

INSTANTIATE_TEST_SUITE_P(BandwidthGrid, BandwidthExactness,
                         ::testing::ValuesIn(kBandwidthGrid),
                         [](const auto &info) {
                             return std::string(info.param.name);
                         });

TEST(Engine, WatchdogAbortIdenticalWhenBandwidthBound)
{
    // A deadlock allowance shorter than the inter-dispatch gap: a
    // horizon jump must stop at last_progress + deadlock and let the
    // engine's per-cycle loop reach the abort cycle itself.
    // bw=4 bytes/cycle on a 64-byte line means one dispatch per 16
    // cycles; deadlock=8 trips first.
    Compiled c = compileBandwidthBound(1, 1);
    SimConfig config;
    config.dramLatency = 600;
    config.dramChannelBandwidthBytes = 4;
    config.deadlockCycles = 8;

    SimRun fast = runWith(c, config);
    EXPECT_TRUE(fast.result.deadlocked);

    SimConfig naive = config;
    naive.noFastForward = true;
    SimRun reference = runWith(c, naive);
    EXPECT_TRUE(reference.result.deadlocked);
    expectIdentical(reference.result, fast.result, "bandwidth-watchdog");
    EXPECT_EQ(reference.result.diagnostic, fast.result.diagnostic);

    SimConfig checked = config;
    checked.checkFastForward = true;
    SimRun check = runWith(c, checked);
    expectIdentical(reference.result, check.result,
                    "bandwidth-watchdog-check");
    EXPECT_EQ(reference.result.diagnostic, check.result.diagnostic);
}

TEST(Engine, WatchdogAbortIdenticalWhenChannelsAreStarved)
{
    // Zero channel bandwidth: read misses queue forever, the memory
    // system eventually reports no future event (kNoEventCycle), and
    // the watchdog must abort at the same cycle in every mode.
    Compiled c = compileBandwidthBound(1, 1);
    SimConfig config;
    config.dramChannelBandwidthBytes = 0;
    config.deadlockCycles = 2'000;

    SimRun fast = runWith(c, config);
    EXPECT_TRUE(fast.result.deadlocked);

    SimConfig naive = config;
    naive.noFastForward = true;
    SimRun reference = runWith(c, naive);
    EXPECT_TRUE(reference.result.deadlocked);
    expectIdentical(reference.result, fast.result, "starved-watchdog");
    EXPECT_EQ(reference.result.diagnostic, fast.result.diagnostic);
}

TEST(Engine, WatchdogAbortsAtTheSameCycleInBothModes)
{
    // A deadlock allowance shorter than the DRAM round-trip turns the
    // first cold-miss wait into a watchdog abort; both modes must
    // abort at the identical cycle with identical partial stats.
    Compiled c = compileFor("accumulate", 1);
    c.design.sys.l2CapacityKiB = 16;
    SimConfig config;
    config.dramLatency = 2000;
    config.deadlockCycles = 500;

    SimRun fast = runWith(c, config);
    EXPECT_TRUE(fast.result.deadlocked);
    EXPECT_FALSE(fast.result.completed);
    EXPECT_LT(fast.result.cycles, 100'000u);

    config.noFastForward = true;
    SimRun reference = runWith(c, config);
    EXPECT_TRUE(reference.result.deadlocked);
    expectIdentical(reference.result, fast.result, "watchdog");
}

TEST(Engine, CycleBudgetCutsTheRunShortInEveryMode)
{
    // A maxCycles budget shorter than the run: every engine mode
    // stops at the budget with identical partial stats, and the run
    // reports neither completion nor a deadlock.
    Compiled c = compileBandwidthBound(1);
    SimConfig config;
    config.dramLatency = 600;
    SimRun full = runWith(c, config);
    ASSERT_TRUE(full.result.completed);
    config.maxCycles = full.result.cycles / 2;

    SimRun fast = runWith(c, config);
    EXPECT_FALSE(fast.result.completed);
    EXPECT_FALSE(fast.result.deadlocked);
    EXPECT_EQ(fast.result.cycles, config.maxCycles);

    SimConfig naive = config;
    naive.noFastForward = true;
    SimRun reference = runWith(c, naive);
    expectIdentical(reference.result, fast.result, "budget");

    SimConfig checked = config;
    checked.checkFastForward = true;
    SimRun check = runWith(c, checked);
    expectIdentical(reference.result, check.result, "budget-check");
}

TEST(Engine, WatchdogDisabledByZero)
{
    Compiled c = compileFor("fir", 1);
    SimConfig config;
    config.deadlockCycles = 0;
    SimRun run = runWith(c, config);
    EXPECT_TRUE(run.result.completed);
    EXPECT_FALSE(run.result.deadlocked);
}

// ---------------------------------------------------------------------------
// Cross-commit pin. The exactness suites above compare engine modes
// within one build, so a change that shifts cycles identically in every
// mode passes them all. This digest pins the simulated outcome itself:
// a refactor of the simulator's mechanics must leave it unchanged, and
// a deliberate timing-model change must update it (and say why).

TEST(SimPin, CyclesAndLedgersArePinnedAcrossCommits)
{
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    auto mix_result = [&mix](const SimResult &r) {
        mix(r.cycles);
        mix(static_cast<uint64_t>(r.completed));
        mix(static_cast<uint64_t>(r.deadlocked));
        for (uint64_t c : r.memory.ledger.counts)
            mix(c);
        mix(r.memory.peakOutstandingTxns);
        mix(r.tiles.size());
        for (const TileStats &ts : r.tiles)
            for (uint64_t c : ts.ledger.counts)
                mix(c);
    };

    // Each kernel on the 4-tile general overlay and on the 4-tile rich
    // test mesh (which also maps the kernels the general overlay does
    // not), both at default memory timing and starved behind one slow,
    // narrow DRAM channel.
    adg::SysAdg general;
    general.adg = adg::buildGeneralOverlayTile();
    general.sys.numTiles = 4;
    general.sys.l2Banks = 4;
    general.sys.nocBytes = 32;
    SimConfig starved_config;
    starved_config.dramLatency = 4000;
    starved_config.dramChannelBandwidthBytes = 16;
    for (const adg::SysAdg &overlay : { general, testDesign(4) }) {
        adg::SysAdg starved = overlay;
        starved.sys.l2CapacityKiB = 16;
        starved.sys.dramChannels = 1;
        sched::SpatialScheduler scheduler(overlay.adg);
        for (const char *name : kAllWorkloads) {
            wl::KernelSpec spec = wl::smallWorkloadByName(name);
            auto variants = compiler::compileVariants(spec);
            auto fit = scheduler.scheduleFirstFit(variants);
            mix(static_cast<uint64_t>(fit.has_value()));
            if (!fit)
                continue;
            const dfg::Mdfg &mdfg = variants[fit->second];
            for (const auto &[design, config] :
                 { std::pair{ &overlay, SimConfig{} },
                   std::pair{ &std::as_const(starved),
                              starved_config } }) {
                wl::Memory memory;
                memory.init(spec);
                mix_result(simulate(spec, mdfg, fit->first, *design,
                                    memory, config));
            }
        }
    }

    // Watchdog abort cycle: a deadlock allowance shorter than the
    // inter-dispatch gap on a starved channel.
    Compiled c = compileBandwidthBound(1, 1);
    SimConfig watchdog;
    watchdog.dramLatency = 600;
    watchdog.dramChannelBandwidthBytes = 4;
    watchdog.deadlockCycles = 8;
    SimRun aborted = runWith(c, watchdog);
    EXPECT_TRUE(aborted.result.deadlocked);
    mix_result(aborted.result);

    // Recorded on a Release build before the memory system switched
    // from polling completions to per-engine completion rings.
    EXPECT_EQ(h, 16824187195920127609ull);
}

} // namespace
} // namespace overgen::sim
