#include <gtest/gtest.h>

#include <algorithm>

#include "adg/builders.h"
#include "compiler/compile.h"
#include "model/perf.h"
#include "workloads/suites.h"

namespace overgen::model {
namespace {

adg::Adg
testTile(int spad_kib = 32, bool recurrence = true)
{
    adg::MeshConfig config;
    config.rows = 3;
    config.cols = 3;
    config.numPes = 6;
    config.numInPorts = 6;
    config.numOutPorts = 3;
    config.datapathBytes = 32;
    config.spadCapacityKiB = spad_kib;
    config.recurrenceEngine = recurrence;
    config.indirect = true;
    config.dmaBandwidthBytes = 32;
    std::set<FuCapability> caps = adg::intCapabilities(DataType::I64);
    auto f64 = adg::floatCapabilities(DataType::F64);
    caps.insert(f64.begin(), f64.end());
    auto f32 = adg::floatCapabilities(DataType::F32);
    caps.insert(f32.begin(), f32.end());
    auto i16 = adg::intCapabilities(DataType::I16);
    caps.insert(i16.begin(), i16.end());
    config.peCapabilities = caps;
    return adg::buildMeshTile(config);
}

adg::SystemParams
testSys(int tiles = 2)
{
    adg::SystemParams sys;
    sys.numTiles = tiles;
    sys.l2Banks = 16;
    sys.nocBytes = 64;
    return sys;
}

TEST(Perf, IpcPositiveForAllWorkloads)
{
    adg::Adg tile = testTile();
    for (const auto &k : wl::allWorkloads()) {
        dfg::Mdfg mdfg = compiler::compileOne(k, 1, false, false);
        PerfInput input{ &mdfg, {} };
        PerfBreakdown out = estimateIpc(input, tile, testSys());
        EXPECT_GT(out.ipc, 0.0) << k.name;
        EXPECT_FALSE(out.bottleneck.empty()) << k.name;
    }
}

TEST(Perf, MoreTilesMoreIpcWhenComputeBound)
{
    // fir with scratchpad-resident input is compute/port bound.
    adg::Adg tile = testTile();
    dfg::Mdfg mdfg =
        compiler::compileOne(wl::makeFir(1024, 199), 2, true, false);
    PerfInput input{ &mdfg, {} };
    double one = estimateIpc(input, tile, testSys(1)).ipc;
    double four = estimateIpc(input, tile, testSys(4)).ipc;
    EXPECT_GT(four, one * 2.0);
}

TEST(Perf, MemoryBoundKernelSaturates)
{
    // accumulate is pure streaming: with a deliberately narrow DRAM
    // configuration, channel bandwidth caps multi-tile scaling.
    adg::Adg tile = testTile();
    dfg::Mdfg mdfg =
        compiler::compileOne(wl::makeAccumulate(128), 8, false, false);
    PerfInput input{ &mdfg, {} };
    PerfConfig narrow;
    narrow.dramChannelBandwidthBytes = 48.0;
    double one = estimateIpc(input, tile, testSys(1), narrow).ipc;
    double eight = estimateIpc(input, tile, testSys(8), narrow).ipc;
    EXPECT_LT(eight, one * 4.0);
    EXPECT_EQ(
        estimateIpc(input, tile, testSys(8), narrow).bottleneck,
        "dram");
}

TEST(Perf, DramChannelsHelpMemoryBound)
{
    adg::Adg tile = testTile();
    dfg::Mdfg mdfg =
        compiler::compileOne(wl::makeAccumulate(128), 8, false, false);
    PerfInput input{ &mdfg, {} };
    PerfConfig narrow;
    narrow.dramChannelBandwidthBytes = 48.0;
    adg::SystemParams sys = testSys(8);
    double one_ch = estimateIpc(input, tile, sys, narrow).ipc;
    sys.dramChannels = 4;
    double four_ch = estimateIpc(input, tile, sys, narrow).ipc;
    EXPECT_GT(four_ch, one_ch * 1.5);
}

TEST(Perf, ReuseReducesBandwidthPressure)
{
    // fir: the recurrence + stationary variant demands less DRAM than
    // the plain memory variant, so it scales further.
    adg::Adg tile = testTile();
    dfg::Mdfg rec =
        compiler::compileOne(wl::makeFir(1024, 199), 4, true, false);
    dfg::Mdfg mem =
        compiler::compileOne(wl::makeFir(1024, 199), 4, false, false);
    adg::SystemParams sys = testSys(8);
    PerfInput in_rec{ &rec, {} };
    PerfInput in_mem{ &mem, {} };
    // Compare iteration throughput, not IPC: IPC rewards the extra
    // memory ops of the non-recurrence variant as "work". At equal
    // vectorization, throughput orders as the limiting factor does.
    ASSERT_EQ(rec.vectorization(), mem.vectorization());
    auto limit = [&](const PerfInput &in) {
        PerfBreakdown b = estimateIpc(in, tile, sys);
        return std::min({ b.fabricFactor, b.spadFactor, b.l2Factor,
                          b.dramFactor });
    };
    EXPECT_GE(limit(in_rec), limit(in_mem));
}

TEST(Perf, DeriveBackingHonorsScratchpadHint)
{
    adg::Adg tile = testTile();
    dfg::Mdfg mdfg =
        compiler::compileOne(wl::makeFir(1024, 199), 2, true, false);
    auto backing = deriveBacking(mdfg, tile);
    EXPECT_EQ(backing.size(),
              static_cast<size_t>(mdfg.numNodes()));
    // The 'a' array (hinted) stream should sit on the scratchpad.
    bool spad_used = false;
    for (Backing b : backing)
        spad_used |= (b == Backing::Scratchpad);
    EXPECT_TRUE(spad_used);
}

TEST(Perf, DeriveBackingFallsBackWithoutSpace)
{
    adg::Adg tile = testTile(1);  // 1 KiB scratchpad: nothing fits
    dfg::Mdfg mdfg =
        compiler::compileOne(wl::makeFir(1024, 199), 2, true, false);
    auto backing = deriveBacking(mdfg, tile);
    for (Backing b : backing)
        EXPECT_NE(b, Backing::Scratchpad);
}

TEST(Perf, RecurrenceRequiresEngine)
{
    adg::Adg no_rec = testTile(32, false);
    dfg::Mdfg mdfg =
        compiler::compileOne(wl::makeMm(32), 2, true, false);
    auto backing = deriveBacking(mdfg, no_rec);
    for (Backing b : backing)
        EXPECT_NE(b, Backing::Recurrence);
}

TEST(Perf, FasterScratchpadLiftsSpadBottleneck)
{
    adg::Adg tile = testTile();
    dfg::Mdfg mdfg =
        compiler::compileOne(wl::makeFir(1024, 199), 8, true, false);
    PerfInput input{ &mdfg, {} };
    PerfBreakdown base = estimateIpc(input, tile, testSys(1));
    // Double every scratchpad's read bandwidth.
    for (adg::NodeId id :
         tile.nodeIdsOfKind(adg::NodeKind::Scratchpad)) {
        tile.node(id).spad().readBandwidthBytes *= 4;
    }
    PerfBreakdown faster = estimateIpc(input, tile, testSys(1));
    EXPECT_GE(faster.ipc, base.ipc);
}

TEST(Perf, ObjectiveIsWeightedGeomean)
{
    PerfBreakdown a;
    a.ipc = 4.0;
    PerfBreakdown b;
    b.ipc = 16.0;
    double obj = performanceObjective({ a, b }, { 1.0, 1.0 });
    EXPECT_NEAR(obj, 8.0, 1e-9);
}

TEST(Perf, StridedStreamsLowerIpc)
{
    // bgr2grey untuned-style: penalized efficiency raises demand.
    adg::Adg tile = testTile();
    dfg::Mdfg mdfg =
        compiler::compileOne(wl::makeBgr2Grey(128), 4, false, false);
    // Coalescing gives efficiency 1; force a strided copy to compare.
    dfg::Mdfg strided = mdfg;
    for (auto id : strided.nodeIdsOfKind(dfg::NodeKind::InputStream))
        strided.node(id).stream.bandwidthEfficiency = 0.33;
    PerfInput in_a{ &mdfg, {} };
    PerfInput in_b{ &strided, {} };
    adg::SystemParams sys = testSys(4);
    EXPECT_GT(estimateIpc(in_a, tile, sys).ipc,
              estimateIpc(in_b, tile, sys).ipc);
}

} // namespace
} // namespace overgen::model
