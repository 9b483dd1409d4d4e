#include <gtest/gtest.h>

#include <set>

#include "sim/memory_system.h"

namespace overgen::sim {
namespace {

adg::SystemParams
smallSys(int tiles = 1, int banks = 2, int channels = 1)
{
    adg::SystemParams sys;
    sys.numTiles = tiles;
    sys.l2Banks = banks;
    sys.l2CapacityKiB = 64;
    sys.nocBytes = 32;
    sys.dramChannels = channels;
    return sys;
}

/**
 * A registered memory engine: submits through its own completion slot
 * with tags it numbers itself from @p first_tag, and remembers popped
 * completions the test has not asked about yet (one pop hands back
 * every due tag at once).
 */
struct Engine
{
    explicit Engine(MemorySystem &mem, int tile = 0, int rob = 256,
                    uint64_t first_tag = 1)
        : mem(mem), slot(mem.registerEngine(tile, rob)),
          nextTag(first_tag)
    {
    }

    uint64_t
    submit(uint64_t addr, int bytes, bool write)
    {
        uint64_t tag = nextTag++;
        mem.submit(slot, addr, bytes, write, tag);
        return tag;
    }

    /** @return whether @p tag has completed (and forget it). */
    bool
    retire(uint64_t tag)
    {
        mem.popCompleted(slot, popped);
        due.insert(popped.begin(), popped.end());
        return due.erase(tag) > 0;
    }

    MemorySystem &mem;
    int slot;
    uint64_t nextTag;
    std::vector<uint64_t> popped;
    std::set<uint64_t> due;
};

/** Run until @p tag completes; @return cycles taken (or -1). */
int64_t
runUntilDone(Engine &engine, uint64_t tag, int limit = 10000)
{
    for (int c = 0; c < limit; ++c) {
        engine.mem.tick();
        if (engine.retire(tag))
            return c + 1;
    }
    return -1;
}

TEST(MemorySystem, ColdReadMissesToDram)
{
    SimConfig config;
    MemorySystem mem(smallSys(), config);
    Engine engine(mem);
    uint64_t tag = engine.submit(0, 64, false);
    int64_t cycles = runUntilDone(engine, tag);
    ASSERT_GT(cycles, 0);
    EXPECT_GE(cycles, config.dramLatency);
    EXPECT_EQ(mem.stats().l2Misses, 1u);
    EXPECT_EQ(mem.stats().dramBytesRead, 64u);
}

TEST(MemorySystem, SecondReadHits)
{
    SimConfig config;
    MemorySystem mem(smallSys(), config);
    Engine engine(mem);
    runUntilDone(engine, engine.submit(0, 64, false));
    uint64_t second = engine.submit(0, 64, false);
    int64_t cycles = runUntilDone(engine, second);
    ASSERT_GT(cycles, 0);
    EXPECT_LT(cycles, config.dramLatency);
    EXPECT_EQ(mem.stats().l2Hits, 1u);
    EXPECT_EQ(mem.stats().dramBytesRead, 64u);  // no second fetch
}

TEST(MemorySystem, MshrMergeAvoidsDoubleFetch)
{
    SimConfig config;
    MemorySystem mem(smallSys(), config);
    Engine engine(mem);
    uint64_t a = engine.submit(0, 32, false);
    uint64_t b = engine.submit(32, 32, false);  // same line
    ASSERT_GT(runUntilDone(engine, a), 0);
    EXPECT_TRUE(engine.retire(b));
    EXPECT_EQ(mem.stats().dramBytesRead, 64u);
    EXPECT_EQ(mem.stats().l2Misses, 1u);
    EXPECT_EQ(mem.stats().l2Hits, 1u);  // merged into the fill
}

TEST(MemorySystem, WriteAllocateNoFetch)
{
    SimConfig config;
    MemorySystem mem(smallSys(), config);
    Engine engine(mem);
    uint64_t tag = engine.submit(0, 64, true);
    int64_t cycles = runUntilDone(engine, tag);
    ASSERT_GT(cycles, 0);
    EXPECT_LT(cycles, config.dramLatency);  // no fetch on write
    EXPECT_EQ(mem.stats().dramBytesRead, 0u);
}

TEST(MemorySystem, DirtyEvictionWritesBack)
{
    SimConfig config;
    // Tiny cache: 8 KiB, 1 bank, 8 ways -> 16 sets; fill > capacity.
    adg::SystemParams sys = smallSys(1, 1);
    sys.l2CapacityKiB = 8;
    MemorySystem mem(sys, config);
    Engine engine(mem);
    // Dirty many distinct lines (> capacity of 128 lines).
    for (int i = 0; i < 256; ++i) {
        uint64_t tag =
            engine.submit(static_cast<uint64_t>(i) * 64, 64, true);
        ASSERT_GT(runUntilDone(engine, tag), 0);
    }
    EXPECT_GT(mem.stats().dramBytesWritten, 0u);
}

TEST(MemorySystem, DramBandwidthBoundsThroughput)
{
    SimConfig config;
    MemorySystem mem(smallSys(1, 4, 1), config);
    Engine engine(mem);
    // 64 distinct cold lines: 4096 bytes at 32 B/cycle >= 128 cycles.
    std::vector<uint64_t> tags;
    uint64_t start = mem.now();
    int done = 0;
    uint64_t submitted = 0;
    while (done < 64) {
        if (submitted < 64 && mem.canAccept(0)) {
            tags.push_back(
                engine.submit(submitted * 64 + 1024 * 1024, 64, false));
            ++submitted;
        }
        mem.tick();
        for (auto it = tags.begin(); it != tags.end();) {
            if (engine.retire(*it)) {
                ++done;
                it = tags.erase(it);
            } else {
                ++it;
            }
        }
    }
    uint64_t elapsed = mem.now() - start;
    EXPECT_GE(elapsed, 64u * 64u / 32u);
}

TEST(MemorySystem, MoreChannelsFaster)
{
    auto run = [](int channels) {
        SimConfig config;
        // Narrow channels so DRAM is the bottleneck under test.
        config.dramChannelBandwidthBytes = 16;
        adg::SystemParams sys = smallSys(1, 8, channels);
        sys.nocBytes = 128;
        MemorySystem mem(sys, config);
        Engine engine(mem);
        std::vector<uint64_t> tags;
        uint64_t submitted = 0;
        int done = 0;
        while (done < 128) {
            if (submitted < 128 && mem.canAccept(0)) {
                tags.push_back(engine.submit(
                    submitted * 64 + 4 * 1024 * 1024, 64, false));
                ++submitted;
            }
            mem.tick();
            for (auto it = tags.begin(); it != tags.end();) {
                if (engine.retire(*it)) {
                    ++done;
                    it = tags.erase(it);
                } else {
                    ++it;
                }
            }
        }
        return mem.now();
    };
    EXPECT_LT(run(4), run(1));
}

TEST(MemorySystem, PerTileQueueBounded)
{
    SimConfig config;
    MemorySystem mem(smallSys(2), config);
    Engine engine(mem);
    int accepted = 0;
    while (mem.canAccept(0)) {
        engine.submit(static_cast<uint64_t>(accepted) * 64, 64, false);
        ++accepted;
    }
    EXPECT_EQ(accepted, 64);
    EXPECT_TRUE(mem.canAccept(1));  // other tiles unaffected
}

TEST(MemorySystem, PeakOutstandingTracksHighWaterMark)
{
    SimConfig config;
    MemorySystem mem(smallSys(), config);
    Engine engine(mem);
    EXPECT_EQ(mem.stats().peakOutstandingTxns, 0u);
    std::vector<uint64_t> tags;
    for (int i = 0; i < 8; ++i)
        tags.push_back(
            engine.submit(static_cast<uint64_t>(i) * 64, 64, false));
    EXPECT_EQ(mem.stats().peakOutstandingTxns, 8u);
    for (uint64_t tag : tags)
        ASSERT_GT(runUntilDone(engine, tag), 0);
    // Draining never lowers the high-water mark; a smaller burst
    // never raises it.
    EXPECT_EQ(mem.stats().peakOutstandingTxns, 8u);
    uint64_t extra = engine.submit(4096, 64, false);
    EXPECT_EQ(mem.stats().peakOutstandingTxns, 8u);
    ASSERT_GT(runUntilDone(engine, extra), 0);
}

TEST(MemorySystem, CompletionRingsAreBounded)
{
    // Popped completions leave the ring: after every tag is retired,
    // nothing is outstanding even though many were submitted.
    SimConfig config;
    MemorySystem mem(smallSys(), config);
    Engine engine(mem);
    for (int round = 0; round < 4; ++round) {
        std::vector<uint64_t> tags;
        for (int i = 0; i < 16; ++i)
            tags.push_back(engine.submit(
                static_cast<uint64_t>(round * 16 + i) * 64, 64, false));
        for (uint64_t tag : tags)
            ASSERT_GT(runUntilDone(engine, tag), 0);
        EXPECT_FALSE(mem.busy());
    }
    EXPECT_LE(mem.stats().peakOutstandingTxns, 16u);
}

TEST(MemorySystem, BusyReflectsInFlight)
{
    SimConfig config;
    MemorySystem mem(smallSys(), config);
    Engine engine(mem);
    EXPECT_FALSE(mem.busy());
    uint64_t tag = engine.submit(0, 64, false);
    EXPECT_TRUE(mem.busy());
    runUntilDone(engine, tag);
    EXPECT_FALSE(mem.busy());
}

TEST(MemorySystem, OutOfOrderCompletionsPopInReadyOrder)
{
    // One slot, three transactions in submission order: a cold miss,
    // an L2 hit on a line warmed earlier, and a second access to the
    // missing line that merges into its fill. The hit is due long
    // before the fill, so it pops first; the miss and the merge share
    // the fill's ready cycle and pop together, in completion order
    // (the miss completes when its fill is dispatched, before the
    // merge can match that fill).
    SimConfig config;
    MemorySystem mem(smallSys(), config);
    Engine engine(mem);
    ASSERT_GT(runUntilDone(engine, engine.submit(4096, 64, false)), 0);
    uint64_t miss = engine.submit(0, 32, false);
    uint64_t hit = engine.submit(4096, 64, false);
    uint64_t merged = engine.submit(32, 32, false);
    std::vector<std::vector<uint64_t>> pops;
    for (int c = 0; c < 10000 && pops.size() < 2; ++c) {
        mem.tick();
        mem.popCompleted(engine.slot, engine.popped);
        if (!engine.popped.empty())
            pops.push_back(engine.popped);
    }
    ASSERT_EQ(pops.size(), 2u);
    EXPECT_EQ(pops[0], std::vector<uint64_t>{ hit });
    EXPECT_EQ(pops[1], (std::vector<uint64_t>{ miss, merged }));
    EXPECT_FALSE(mem.busy());
}

TEST(MemorySystem, SlotsOnOneTileNeverSeeEachOthersCompletions)
{
    // Two engines share tile 0's link. Every completion returns on the
    // slot that submitted it, never on the other. Their tags are
    // disjoint, so a crossed completion cannot pass as the other's.
    SimConfig config;
    MemorySystem mem(smallSys(), config);
    Engine first(mem, 0, 256, 1);
    Engine second(mem, 0, 256, 1001);
    ASSERT_NE(first.slot, second.slot);
    std::set<uint64_t> mine[2];
    for (int i = 0; i < 16; ++i) {
        Engine &engine = i % 2 == 0 ? first : second;
        // Both engines touch every other line, so hits, misses and
        // merges all cross between them.
        mine[i % 2].insert(engine.submit(
            static_cast<uint64_t>(i / 2) * 32, 32, false));
    }
    std::set<uint64_t> seen[2];
    for (int c = 0; c < 10000 && seen[0].size() + seen[1].size() < 16;
         ++c) {
        mem.tick();
        for (int e = 0; e < 2; ++e) {
            Engine &engine = e == 0 ? first : second;
            mem.popCompleted(engine.slot, engine.popped);
            seen[e].insert(engine.popped.begin(), engine.popped.end());
        }
    }
    EXPECT_EQ(seen[0], mine[0]);
    EXPECT_EQ(seen[1], mine[1]);
}

using MemorySystemDeathTest = ::testing::Test;

TEST(MemorySystemDeathTest, RingOverflowIsFatal)
{
    // A slot whose engine ignored its own ROB bound: the second
    // completion has nowhere to go.
    SimConfig config;
    MemorySystem mem(smallSys(), config);
    Engine engine(mem, 0, 1);
    engine.submit(0, 64, true);
    engine.submit(64, 64, true);
    EXPECT_DEATH(
        for (int c = 0; c < 100; ++c) mem.tick(),
        "overflows its ROB");
}

} // namespace
} // namespace overgen::sim
