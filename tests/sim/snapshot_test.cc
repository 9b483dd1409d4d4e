#include <gtest/gtest.h>

#include "adg/builders.h"
#include "compiler/compile.h"
#include "sched/scheduler.h"
#include "sim/simulate.h"
#include "snapshot_edit.h"
#include "workloads/suites.h"

// Snapshot/restore exactness: a run that checkpoints must be
// bit-identical to one that does not (checkpointing only observes),
// and resuming from any checkpoint must reproduce the uninterrupted
// run bitwise — cycles, stats, cycle ledgers, memory images, even
// watchdog abort cycles — under the naive, fast-forwarding, and
// checked engines alike.

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

wl::KernelSpec
smallWorkload(const std::string &name)
{
    if (name == "cholesky")
        return wl::makeCholesky(16);
    if (name == "fft")
        return wl::makeFft(7);
    if (name == "fir")
        return wl::makeFir(128, 16);
    if (name == "solver")
        return wl::makeSolver(16);
    if (name == "mm")
        return wl::makeMm(8);
    if (name == "stencil-3d")
        return wl::makeStencil3d(8, 2);
    if (name == "crs")
        return wl::makeCrs(32, 4);
    if (name == "gemm")
        return wl::makeGemm(8);
    if (name == "stencil-2d")
        return wl::makeStencil2d(8, 2);
    if (name == "ellpack")
        return wl::makeEllpack(32, 4);
    if (name == "channel-ext")
        return wl::makeChannelExtract(16);
    if (name == "bgr2grey")
        return wl::makeBgr2Grey(16);
    if (name == "blur")
        return wl::makeBlur(16);
    if (name == "accumulate")
        return wl::makeAccumulate(16);
    if (name == "acc-sqr")
        return wl::makeAccSqr(16);
    if (name == "vecmax")
        return wl::makeVecMax(16);
    if (name == "acc-weight")
        return wl::makeAccWeight(16);
    if (name == "convert-bit")
        return wl::makeConvertBit(16);
    if (name == "derivative")
        return wl::makeDerivative(18);
    OG_FATAL("unknown small workload ", name);
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
    c.spec = smallWorkload(name);
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

SimRun
resumeWith(const Compiled &c, const Snapshot &snap, SimConfig config)
{
    SimRun run;
    run.memory.init(c.spec);
    run.result = resumeFrom(snap, c.spec, c.mdfg, c.schedule,
                            c.design, run.memory, config);
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
    EXPECT_EQ(a.memory.ledger, b.memory.ledger) << label;
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
    }
}

void
expectSameArrays(const Compiled &c, const wl::Memory &a,
                 const wl::Memory &b, const std::string &label)
{
    for (const auto &array : c.spec.arrays) {
        EXPECT_EQ(a.array(array.name), b.array(array.name))
            << label << " array " << array.name;
    }
}

// ---------------------------------------------------------------------------
// Codec

TEST(SnapshotCodec, TypedValuesRoundTripInWriteOrder)
{
    Snapshot snap;
    snap.beginSection("unit");
    snap.putU64(~uint64_t{0});
    snap.putI64(-42);
    snap.putDouble(0.1 + 0.2); // exact bit pattern must survive
    snap.putBool(true);
    snap.putBool(false);
    snap.putString("hello snapshot");
    snap.putString("");
    snap.seal();
    EXPECT_TRUE(snap.verify());
    EXPECT_GT(snap.sizeBytes(), 0u);

    snap.rewind();
    snap.expectSection("unit");
    EXPECT_EQ(snap.getU64(), ~uint64_t{0});
    EXPECT_EQ(snap.getI64(), -42);
    EXPECT_EQ(snap.getDouble(), 0.1 + 0.2);
    EXPECT_TRUE(snap.getBool());
    EXPECT_FALSE(snap.getBool());
    EXPECT_EQ(snap.getString(), "hello snapshot");
    EXPECT_EQ(snap.getString(), "");
}

TEST(SnapshotCodec, UnsealedSnapshotDoesNotVerify)
{
    Snapshot snap;
    snap.putU64(7);
    EXPECT_FALSE(snap.verify());
}

TEST(SnapshotCodec, EncodeDecodeRoundTripsAndDigestsAgree)
{
    Snapshot snap;
    snap.beginSection("transport");
    snap.putU64(123456789);
    snap.putString("payload");
    snap.seal();

    std::vector<uint8_t> bytes = snap.encode();
    Snapshot back;
    ASSERT_TRUE(Snapshot::decode(bytes, back));
    EXPECT_TRUE(back.verify());
    EXPECT_EQ(back.digest(), snap.digest());
    back.rewind();
    back.expectSection("transport");
    EXPECT_EQ(back.getU64(), 123456789u);
    EXPECT_EQ(back.getString(), "payload");
}

TEST(SnapshotCodec, DecodeRejectsCorruptionTruncationAndBadMagic)
{
    Snapshot snap;
    snap.beginSection("transport");
    for (uint64_t i = 0; i < 64; ++i)
        snap.putU64(i * 0x9e3779b97f4a7c15ull);
    snap.seal();
    std::vector<uint8_t> bytes = snap.encode();

    Snapshot out;
    // Any single flipped payload bit must fail the digest.
    for (size_t pos : { bytes.size() - 1, bytes.size() / 2 }) {
        std::vector<uint8_t> bad = bytes;
        bad[pos] ^= 0x01;
        EXPECT_FALSE(Snapshot::decode(bad, out)) << pos;
    }
    // Truncation at every boundary class.
    for (size_t keep : { size_t{0}, size_t{7}, size_t{31},
                         bytes.size() - 1 }) {
        std::vector<uint8_t> bad(bytes.begin(),
                                 bytes.begin() +
                                     static_cast<ptrdiff_t>(keep));
        EXPECT_FALSE(Snapshot::decode(bad, out)) << keep;
    }
    std::vector<uint8_t> bad = bytes;
    bad[0] = 'X';
    EXPECT_FALSE(Snapshot::decode(bad, out));
}

TEST(SnapshotCodec, DecodeRejectsPreviousFormatVersion)
{
    // The memory system's completion-ring layout is format 02: an image
    // tagged 01 carries the old layout and must not decode.
    Snapshot snap;
    snap.beginSection("transport");
    snap.putU64(42);
    snap.seal();
    std::vector<uint8_t> bytes = snap.encode();
    ASSERT_EQ(std::string(bytes.begin(), bytes.begin() + 8), "OGSNAP02");
    Snapshot out;
    ASSERT_TRUE(Snapshot::decode(bytes, out));
    bytes[7] = '1';
    EXPECT_FALSE(Snapshot::decode(bytes, out));
}

using SnapshotCodecDeathTest = ::testing::Test;

TEST(SnapshotCodecDeathTest, TypeTagMismatchIsFatal)
{
    Snapshot snap;
    snap.putU64(1);
    snap.seal();
    snap.rewind();
    EXPECT_DEATH((void)snap.getI64(), "type mismatch");
}

TEST(SnapshotCodecDeathTest, ReadPastTheEndIsFatal)
{
    Snapshot snap;
    snap.putU64(1);
    snap.seal();
    snap.rewind();
    (void)snap.getU64();
    EXPECT_DEATH((void)snap.getU64(), "past the end");
}

TEST(SnapshotCodecDeathTest, SectionNameMismatchIsFatal)
{
    Snapshot snap;
    snap.beginSection("memsys");
    snap.seal();
    snap.rewind();
    EXPECT_DEATH(snap.expectSection("tile0"), "section mismatch");
}

// ---------------------------------------------------------------------------
// Whole-system resume exactness across all workloads

class SnapshotResume : public ::testing::TestWithParam<const char *>
{
};

TEST_P(SnapshotResume, ResumeIsBitIdenticalInEveryMode)
{
    Compiled c = compileFor(GetParam(), 2);

    // The reference run never checkpoints.
    SimRun reference = runWith(c, SimConfig{});
    EXPECT_TRUE(reference.result.completed) << GetParam();

    // The capture run checkpoints; checkpointing must only observe.
    SnapshotCollector collector;
    SimConfig capture;
    capture.checkpointEvery = 64;
    capture.checkpointSink = &collector;
    SimRun captured = runWith(c, capture);
    expectIdentical(reference.result, captured.result,
                    std::string(GetParam()) + " checkpointing-run");
    expectSameArrays(c, reference.memory, captured.memory,
                     std::string(GetParam()) + " checkpointing-run");
    ASSERT_GE(collector.snaps.size(), 2u)
        << GetParam() << ": too few checkpoints to test resume";
    for (const Snapshot &snap : collector.snaps)
        EXPECT_TRUE(snap.verify()) << GetParam();

    // Resume from the middle checkpoint under all three engines, and
    // from the first and last under the default engine. Checkpoints
    // are captured with fast-forward on, so naive/checked resumes also
    // prove the snapshot state is mode-independent.
    size_t mid = collector.snaps.size() / 2;
    struct Case
    {
        size_t index;
        bool noFastForward;
        bool checkFastForward;
        const char *label;
    };
    const Case cases[] = {
        { mid, false, false, "resume-mid-fast" },
        { mid, true, false, "resume-mid-naive" },
        { mid, false, true, "resume-mid-check" },
        { 0, false, false, "resume-first" },
        { collector.snaps.size() - 1, false, false, "resume-last" },
    };
    for (const Case &cs : cases) {
        SimConfig config;
        config.noFastForward = cs.noFastForward;
        config.checkFastForward = cs.checkFastForward;
        SimRun resumed =
            resumeWith(c, collector.snaps[cs.index], config);
        const std::string label =
            std::string(GetParam()) + " " + cs.label + " @cycle" +
            std::to_string(collector.cycles[cs.index]);
        expectIdentical(reference.result, resumed.result, label);
        expectSameArrays(c, reference.memory, resumed.memory, label);
        // Wall-clock counters continue from the checkpoint's values,
        // so a same-mode resume reproduces the capture run's whole
        // taxonomy — including the prefix it never re-executed.
        if (!cs.noFastForward && !cs.checkFastForward) {
            EXPECT_EQ(resumed.result.tickedCycles,
                      captured.result.tickedCycles)
                << label;
            EXPECT_EQ(resumed.result.skippedCycles,
                      captured.result.skippedCycles)
                << label;
            EXPECT_EQ(resumed.result.drainedCycles,
                      captured.result.drainedCycles)
                << label;
            EXPECT_EQ(resumed.result.drainJumps,
                      captured.result.drainJumps)
                << label;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, SnapshotResume,
                         ::testing::ValuesIn(kAllWorkloads),
                         [](const auto &info) {
                             std::string name = info.param;
                             for (char &ch : name)
                                 if (ch == '-')
                                     ch = '_';
                             return name;
                         });

TEST(SnapshotResumeExtra, NaiveCaptureResumesUnderFastForward)
{
    // The mirror of the parameterized cross-mode case: checkpoints
    // captured by the naive per-cycle loop feed a fast-forwarding
    // resume.
    Compiled c = compileFor("fir", 2);
    SimRun reference = runWith(c, SimConfig{});

    SnapshotCollector collector;
    SimConfig capture;
    capture.noFastForward = true;
    capture.checkpointEvery = 64;
    capture.checkpointSink = &collector;
    SimRun captured = runWith(c, capture);
    expectIdentical(reference.result, captured.result,
                    "naive-capture");
    ASSERT_GE(collector.snaps.size(), 2u);

    SimRun resumed = resumeWith(
        c, collector.snaps[collector.snaps.size() / 2], SimConfig{});
    expectIdentical(reference.result, resumed.result,
                    "naive-capture-fast-resume");
    expectSameArrays(c, reference.memory, resumed.memory,
                     "naive-capture-fast-resume");
}

TEST(SnapshotResumeExtra, WatchdogAbortIsIdenticalAfterResume)
{
    // A run the deadlock watchdog aborts: resuming from a checkpoint
    // taken before the stall must reach the same abort cycle with the
    // same partial stats and the same diagnostic dump.
    Compiled c = compileFor("accumulate", 1);
    c.design.sys.l2CapacityKiB = 16;
    SimConfig config;
    config.dramLatency = 2000;
    config.deadlockCycles = 500;

    SimRun reference = runWith(c, config);
    ASSERT_TRUE(reference.result.deadlocked);

    SnapshotCollector collector;
    SimConfig capture = config;
    capture.checkpointEvery = 64;
    capture.checkpointSink = &collector;
    SimRun captured = runWith(c, capture);
    EXPECT_TRUE(captured.result.deadlocked);
    expectIdentical(reference.result, captured.result,
                    "watchdog-capture");
    ASSERT_GE(collector.snaps.size(), 1u);

    for (size_t index : { size_t{0}, collector.snaps.size() - 1 }) {
        SimRun resumed =
            resumeWith(c, collector.snaps[index], config);
        const std::string label =
            "watchdog-resume @cycle" +
            std::to_string(collector.cycles[index]);
        EXPECT_TRUE(resumed.result.deadlocked) << label;
        expectIdentical(reference.result, resumed.result, label);
        EXPECT_EQ(reference.result.diagnostic,
                  resumed.result.diagnostic)
            << label;
    }
}

TEST(SnapshotResumeExtra, ResumesWithPendingCompletionsOnSeveralSlots)
{
    // Four tiles streaming from a starved cache behind slow DRAM: most
    // checkpoints catch several engines' completion rings holding
    // pushed-but-not-yet-due entries. Resume from the one with the
    // most non-empty rings under every engine mode.
    Compiled c = compileFor("accumulate", 4);
    c.design.sys.l2CapacityKiB = 16;
    SimConfig config;
    config.dramLatency = 600;
    SimRun reference = runWith(c, config);
    ASSERT_TRUE(reference.result.completed);

    SnapshotCollector collector;
    SimConfig capture = config;
    capture.checkpointEvery = 64;
    capture.checkpointSink = &collector;
    SimRun captured = runWith(c, capture);
    expectIdentical(reference.result, captured.result,
                    "pending-rings-capture");
    // Completion section: pending count, non-empty ring count, ...
    size_t best = 0;
    uint64_t best_rings = 0;
    for (size_t i = 0; i < collector.snaps.size(); ++i) {
        uint64_t rings = test::sectionValues(collector.snaps[i],
                                             "memsys.completions")[1];
        if (rings > best_rings) {
            best = i;
            best_rings = rings;
        }
    }
    ASSERT_GE(best_rings, 2u);

    for (bool naive : { false, true }) {
        for (bool checked : { false, true }) {
            if (naive && checked)
                continue;
            SimConfig mode = config;
            mode.noFastForward = naive;
            mode.checkFastForward = checked;
            SimRun resumed = resumeWith(c, collector.snaps[best], mode);
            const std::string label =
                std::string("pending-rings-resume naive=") +
                (naive ? "1" : "0") + " checked=" + (checked ? "1" : "0") +
                " @cycle" + std::to_string(collector.cycles[best]);
            expectIdentical(reference.result, resumed.result, label);
            expectSameArrays(c, reference.memory, resumed.memory, label);
        }
    }
}

TEST(SnapshotResumeExtra, ResumedRunEmitsOnlySuffixCheckpoints)
{
    Compiled c = compileFor("fir", 2);
    SnapshotCollector collector;
    SimConfig capture;
    capture.checkpointEvery = 64;
    capture.checkpointSink = &collector;
    SimRun captured = runWith(c, capture);
    ASSERT_TRUE(captured.result.completed);
    ASSERT_GE(collector.snaps.size(), 3u);

    // Resuming with checkpointing on again must re-emit only
    // checkpoints strictly after the resume point — never the state
    // it was restored from.
    size_t mid = collector.snaps.size() / 2;
    SnapshotCollector suffix;
    SimConfig resume_cfg;
    resume_cfg.checkpointEvery = 64;
    resume_cfg.checkpointSink = &suffix;
    SimRun resumed =
        resumeWith(c, collector.snaps[mid], resume_cfg);
    EXPECT_TRUE(resumed.result.completed);
    for (uint64_t cycle : suffix.cycles)
        EXPECT_GT(cycle, collector.cycles[mid]);
}

TEST(SnapshotResumeExtra, TruncatedRunResumesUnderLargerBudget)
{
    // configDigest leaves maxCycles out: the budget bounds the engine's
    // loop, never the per-cycle evolution, so the last checkpoint of a
    // run cut short is a state the full-budget run passes through.
    Compiled c = compileFor("accumulate", 2);
    c.design.sys.l2CapacityKiB = 16;  // miss-dominated behind slow DRAM
    SimConfig config;
    config.dramLatency = 600;
    SimRun cold = runWith(c, config);
    ASSERT_TRUE(cold.result.completed);
    ASSERT_GT(cold.result.cycles, 400u)
        << "workload too short to truncate meaningfully";

    SnapshotCollector collector;
    SimConfig truncated = config;
    truncated.maxCycles = cold.result.cycles / 2;
    truncated.checkpointEvery = 32;
    truncated.checkpointSink = &collector;
    SimRun cut = runWith(c, truncated);
    EXPECT_FALSE(cut.result.completed);
    EXPECT_FALSE(cut.result.deadlocked);
    ASSERT_GE(collector.snaps.size(), 1u);
    EXPECT_LE(collector.cycles.back(), truncated.maxCycles);

    SimRun resumed = resumeWith(c, collector.snaps.back(), config);
    expectIdentical(cold.result, resumed.result,
                    "truncated-resume @cycle" +
                        std::to_string(collector.cycles.back()));
    expectSameArrays(c, cold.memory, resumed.memory, "truncated-resume");

    SimConfig longer;
    longer.maxCycles *= 2;
    EXPECT_EQ(configDigest(longer), configDigest(SimConfig{}));
    SimConfig slower;
    slower.dramLatency += 1;
    EXPECT_NE(configDigest(slower), configDigest(SimConfig{}));
}

using SnapshotResumeDeathTest = ::testing::Test;

TEST(SnapshotResumeDeathTest, UnsealedSnapshotIsFatal)
{
    Compiled c = compileFor("fir", 1);
    wl::Memory memory;
    memory.init(c.spec);
    Snapshot unsealed;
    EXPECT_DEATH((void)resumeFrom(unsealed, c.spec, c.mdfg,
                                  c.schedule, c.design, memory,
                                  SimConfig{}),
                 "digest");
}

TEST(SnapshotResumeDeathTest, WrongKernelIsFatal)
{
    Compiled fir = compileFor("fir", 1);
    SnapshotCollector collector;
    SimConfig capture;
    capture.checkpointEvery = 64;
    capture.checkpointSink = &collector;
    (void)runWith(fir, capture);
    ASSERT_GE(collector.snaps.size(), 1u);

    Compiled other = compileFor("accumulate", 1);
    wl::Memory memory;
    memory.init(other.spec);
    EXPECT_DEATH((void)resumeFrom(collector.snaps[0], other.spec,
                                  other.mdfg, other.schedule,
                                  other.design, memory, SimConfig{}),
                 "kernel");
}

TEST(SnapshotResumeDeathTest, DifferentConfigurationIsFatal)
{
    Compiled c = compileFor("fir", 1);
    SnapshotCollector collector;
    SimConfig capture;
    capture.checkpointEvery = 64;
    capture.checkpointSink = &collector;
    (void)runWith(c, capture);
    ASSERT_GE(collector.snaps.size(), 1u);

    wl::Memory memory;
    memory.init(c.spec);
    SimConfig other;
    other.dramLatency += 17;
    EXPECT_DEATH((void)resumeFrom(collector.snaps[0], c.spec, c.mdfg,
                                  c.schedule, c.design, memory,
                                  other),
                 "configuration");
}

TEST(SnapshotResumeDeathTest, ArraysOutOfNameOrderAreFatal)
{
    // The arrays section must list the kernel's names once each, in
    // name order. A repeated name with the right count used to restore
    // silently, leaving the array it displaced at its init values
    // (accumulate's `a` and `b` have the same length).
    Compiled c = compileFor("accumulate", 1);
    SnapshotCollector collector;
    SimConfig capture;
    capture.checkpointEvery = 64;
    capture.checkpointSink = &collector;
    (void)runWith(c, capture);
    ASSERT_GE(collector.snaps.size(), 1u);
    auto rename_b = [&collector](const std::string &to) {
        return test::patchSection(
            collector.snaps[0], "arrays", [](size_t, uint64_t &) {},
            [&to](std::string &name) {
                if (name == "b")
                    name = to;
            });
    };

    Snapshot repeated = rename_b("a");
    Snapshot foreign = rename_b("zz");
    ASSERT_TRUE(repeated.verify());
    ASSERT_TRUE(foreign.verify());
    wl::Memory memory;
    memory.init(c.spec);
    EXPECT_DEATH((void)resumeFrom(repeated, c.spec, c.mdfg, c.schedule,
                                  c.design, memory, SimConfig{}),
                 "arrays section lists 'a' where 'b' is due");
    EXPECT_DEATH((void)resumeFrom(foreign, c.spec, c.mdfg, c.schedule,
                                  c.design, memory, SimConfig{}),
                 "arrays section lists 'zz' where 'b' is due");
}

// ---------------------------------------------------------------------------
// Cross-commit pin. The resume suites compare a run against its own
// checkpoints within one build, so a change to what a checkpoint holds
// or how it is laid out passes them all. This digest pins the encoded
// bytes of one mid-run checkpoint of an indirect kernel on two tiles.

TEST(SnapshotPin, CheckpointBytesArePinnedAcrossCommits)
{
    Compiled c = compileFor("crs", 2);
    SnapshotCollector collector;
    SimConfig capture;
    capture.checkpointEvery = 16;
    capture.checkpointSink = &collector;
    SimRun run = runWith(c, capture);
    ASSERT_TRUE(run.result.completed);
    ASSERT_GE(collector.snaps.size(), 3u);
    size_t mid = collector.snaps.size() / 2;
    uint64_t h = 1469598103934665603ull;
    for (uint8_t byte : collector.snaps[mid].encode()) {
        h ^= byte;
        h *= 1099511628211ull;
    }
    // Recorded on a Release build before array names were bound to
    // integer ids.
    EXPECT_EQ(collector.cycles[mid], 136u);
    EXPECT_EQ(collector.snaps.size(), 8u);
    EXPECT_EQ(h, 5274668158046027729ull);
}

} // namespace
} // namespace overgen::sim
