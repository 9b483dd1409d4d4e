#include <gtest/gtest.h>

#include "adg/builders.h"
#include "compiler/compile.h"
#include "sched/scheduler.h"
#include "sim/simulate.h"
#include "workloads/suites.h"

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

/** Compile + schedule + simulate; verify against the interpreter. */
SimResult
runAndVerify(const wl::KernelSpec &spec, int tiles,
             bool verify_functional = true,
             const SimConfig &config = {})
{
    adg::SysAdg design = testDesign(tiles);
    sched::SpatialScheduler scheduler(design.adg);
    auto variants = compiler::compileVariants(spec);
    auto fit = scheduler.scheduleFirstFit(variants);
    EXPECT_TRUE(fit.has_value()) << spec.name;
    if (!fit)
        return {};
    wl::Memory sim_mem, ref_mem;
    sim_mem.init(spec);
    ref_mem.init(spec);
    SimResult result = simulate(spec, variants[fit->second],
                                fit->first, design, sim_mem, config);
    EXPECT_TRUE(result.completed) << spec.name << " timed out";
    if (verify_functional) {
        wl::interpret(spec, ref_mem);
        for (const auto &array : spec.arrays) {
            EXPECT_EQ(sim_mem.array(array.name),
                      ref_mem.array(array.name))
                << spec.name << " array " << array.name;
        }
    }
    return result;
}

/** Parameterized functional-equivalence sweep over every workload. */
class SimFunctional : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SimFunctional, SingleTileMatchesInterpreter)
{
    runAndVerify(wl::smallWorkloadByName(GetParam()), 1);
}

TEST_P(SimFunctional, IterationCountMatchesSpec)
{
    wl::KernelSpec spec = wl::smallWorkloadByName(GetParam());
    SimResult result = runAndVerify(spec, 1);
    // Count exact iterations via the interpreter-equivalent walker.
    IterationWalker walker(spec, 1, 0, spec.loops[0].tripBase);
    int64_t expected = 0;
    while (!walker.done()) {
        expected += walker.count();
        walker.advance();
    }
    EXPECT_EQ(result.totalIterations,
              static_cast<uint64_t>(expected));
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, SimFunctional,
    ::testing::Values("cholesky", "fft", "fir", "solver", "mm",
                      "stencil-3d", "crs", "gemm", "stencil-2d",
                      "ellpack", "channel-ext", "bgr2grey", "blur",
                      "accumulate", "acc-sqr", "vecmax", "acc-weight",
                      "convert-bit", "derivative"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

/** Multi-tile functional equivalence for partitionable kernels
 * (cholesky/solver carry outer-loop dependences: timing-only). */
class SimMultiTile : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SimMultiTile, FourTilesMatchInterpreter)
{
    runAndVerify(wl::smallWorkloadByName(GetParam()), 4);
}

INSTANTIATE_TEST_SUITE_P(
    PartitionableWorkloads, SimMultiTile,
    ::testing::Values("fir", "mm", "gemm", "stencil-3d", "crs",
                      "ellpack", "accumulate", "blur", "bgr2grey"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

TEST(Simulate, MoreTilesNotSlower)
{
    wl::KernelSpec spec = wl::makeFir(512, 16);
    SimResult one = runAndVerify(spec, 1);
    SimResult four = runAndVerify(spec, 4);
    EXPECT_LE(four.cycles, one.cycles);
    EXPECT_GE(one.cycles, four.cycles * 2);  // real scaling
}

TEST(Simulate, StreamingKernelHitsDramWall)
{
    // accumulate at 8 tiles is DRAM-bound: cycles bounded below by
    // bytes moved / channel bandwidth.
    wl::KernelSpec spec = wl::makeAccumulate(64);
    SimResult result = runAndVerify(spec, 8);
    uint64_t dram_bytes = result.memory.dramBytesRead;
    SimConfig config;
    EXPECT_GE(result.cycles,
              dram_bytes / config.dramChannelBandwidthBytes);
    EXPECT_GT(result.memory.l2Misses, 0u);
}

TEST(Simulate, MoreDramChannelsHelpStreaming)
{
    wl::KernelSpec spec = wl::makeAccumulate(64);
    adg::SysAdg design = testDesign(8);
    design.sys.l2Banks = 16;  // keep the L2 off the critical path
    sched::SpatialScheduler scheduler(design.adg);
    auto variants = compiler::compileVariants(spec);
    auto fit = scheduler.scheduleFirstFit(variants);
    ASSERT_TRUE(fit.has_value());
    auto run = [&](int channels) {
        adg::SysAdg d = design;
        d.sys.dramChannels = channels;
        wl::Memory mem;
        mem.init(spec);
        SimConfig narrow;  // make DRAM the binding resource
        narrow.dramChannelBandwidthBytes = 32;
        return simulate(spec, variants[fit->second], fit->first, d,
                        mem, narrow)
            .cycles;
    };
    EXPECT_LT(run(4), run(1));
}

TEST(Simulate, OneHotBypassImprovesSingleStreamIssue)
{
    // A strided scale kernel with each array alone on its own
    // scratchpad: every firing needs exactly one stream-table issue
    // per engine, so the issue rate binds. Without the one-hot bypass
    // a lone stream issues every other cycle (paper Fig. 11), halving
    // throughput end-to-end.
    wl::KernelSpec spec;
    spec.name = "scale-strided";
    spec.suite = wl::Suite::Dsp;
    spec.loops = { { "i", 512, {}, false } };
    spec.arrays = { { "a", DataType::F64, 4096, false, "" },
                    { "c", DataType::F64, 4096, false, "" } };
    spec.accesses = { { "a", { 8 }, 0, false, "" },
                      { "c", { 8 }, 0, true, "" } };
    spec.ops = { { Opcode::Mul, DataType::F64,
                   wl::Operand::access(0), wl::Operand::imm64(2.0),
                   1 } };
    spec.scratchpadHints = { "a", "c" };
    spec.maxUnroll = 1;

    adg::MeshConfig config;
    config.rows = 3;
    config.cols = 3;
    config.numPes = 4;
    config.numInPorts = 4;
    config.numOutPorts = 2;
    config.datapathBytes = 64;
    config.numScratchpads = 2;
    config.spadCapacityKiB = 64;
    config.peCapabilities = adg::floatCapabilities(DataType::F64);
    adg::SysAdg design;
    design.adg = adg::buildMeshTile(config);
    design.sys.numTiles = 1;

    sched::SpatialScheduler scheduler(design.adg);
    dfg::Mdfg mdfg = compiler::compileOne(spec, 1, false, false);
    auto schedule = scheduler.schedule(mdfg);
    ASSERT_TRUE(schedule.has_value());

    auto run = [&](bool bypass) {
        wl::Memory mem;
        mem.init(spec);
        SimConfig cfg;
        cfg.oneHotBypass = bypass;
        SimResult r =
            simulate(spec, mdfg, *schedule, design, mem, cfg);
        EXPECT_TRUE(r.completed);
        return r.cycles;
    };
    uint64_t fast = run(true);
    uint64_t slow = run(false);
    EXPECT_LT(fast * 3, slow * 2);  // >= 1.5x faster with the bypass
}

TEST(Simulate, RecurrenceVariantBeatsMemoryVariant)
{
    // fir's reduction via the recurrence engine avoids the L2
    // round-trip of the read/write pair.
    wl::KernelSpec spec = wl::makeFir(512, 64);
    adg::SysAdg design = testDesign(1);
    sched::SpatialScheduler scheduler(design.adg);
    dfg::Mdfg rec = compiler::compileOne(spec, 4, true, false);
    dfg::Mdfg mem_variant = compiler::compileOne(spec, 4, false, false);
    auto s_rec = scheduler.schedule(rec);
    auto s_mem = scheduler.schedule(mem_variant);
    ASSERT_TRUE(s_rec && s_mem);
    wl::Memory m1, m2;
    m1.init(spec);
    m2.init(spec);
    uint64_t rec_cycles =
        simulate(spec, rec, *s_rec, design, m1).cycles;
    uint64_t mem_cycles =
        simulate(spec, mem_variant, *s_mem, design, m2).cycles;
    EXPECT_LT(rec_cycles, mem_cycles);
    // Both still compute the right answer.
    EXPECT_EQ(m1.array("c"), m2.array("c"));
}

TEST(Simulate, HigherUnrollFasterWhenComputeBound)
{
    wl::KernelSpec spec = wl::makeBlur(32);
    adg::SysAdg design = testDesign(1);
    sched::SpatialScheduler scheduler(design.adg);
    dfg::Mdfg u1 = compiler::compileOne(spec, 1, false, false);
    dfg::Mdfg u8 = compiler::compileOne(spec, 8, false, false);
    auto s1 = scheduler.schedule(u1);
    auto s8 = scheduler.schedule(u8);
    ASSERT_TRUE(s1 && s8);
    wl::Memory m1, m8;
    m1.init(spec);
    m8.init(spec);
    uint64_t c1 = simulate(spec, u1, *s1, design, m1).cycles;
    uint64_t c8 = simulate(spec, u8, *s8, design, m8).cycles;
    EXPECT_LT(c8 * 2, c1);
}

TEST(Simulate, ReconfigurationOrdersOfMagnitudeUnderFpgaFlash)
{
    wl::KernelSpec spec = wl::makeAccumulate(16);
    adg::SysAdg design = testDesign(1);
    sched::SpatialScheduler scheduler(design.adg);
    dfg::Mdfg mdfg = compiler::compileOne(spec, 2, false, false);
    auto schedule = scheduler.schedule(mdfg);
    ASSERT_TRUE(schedule.has_value());
    uint64_t cycles = reconfigurationCycles(*schedule, design.adg);
    // ~93 MHz: a full FPGA reflash (> 1 s) is > 93M cycles; spatial
    // reconfiguration must be about four orders of magnitude less.
    EXPECT_LT(cycles, 93'000'000ull / 10'000ull);
    EXPECT_GT(cycles, 0ull);
}

TEST(Simulate, IpcPositiveAndBounded)
{
    SimResult result = runAndVerify(wl::makeBgr2Grey(32), 1);
    EXPECT_GT(result.ipc, 0.0);
    // A single tile cannot exceed its instruction bandwidth.
    EXPECT_LT(result.ipc, 200.0);
}

} // namespace
} // namespace overgen::sim

namespace overgen::sim {
namespace {

TEST(Simulate, GenerateEngineDeliversInductionValues)
{
    // c[i] = a[i] * i: the induction variable flows through the
    // generate engine into the fabric (paper §III-B "Generate").
    wl::KernelSpec spec;
    spec.name = "ramp";
    spec.suite = wl::Suite::Dsp;
    spec.loops = { { "i", 256, {}, false } };
    spec.arrays = { { "a", DataType::I64, 256, false, "" },
                    { "c", DataType::I64, 256, false, "" } };
    spec.accesses = { { "a", { 1 }, 0, false, "" },
                      { "c", { 1 }, 0, true, "" } };
    spec.ops = { { Opcode::Mul, DataType::I64, wl::Operand::access(0),
                   wl::Operand::indexVar(0), 1 } };
    spec.maxUnroll = 4;
    SimResult result = runAndVerify(spec, 1);
    EXPECT_GT(result.totalIterations, 0u);
}

} // namespace
} // namespace overgen::sim
